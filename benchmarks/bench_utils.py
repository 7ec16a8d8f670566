"""Machine-readable benchmark output.

Headline benches dump a small JSON document under the git-ignored
``benchmarks/out/`` (``BENCH_<name>.json``) so CI can upload and diff
performance numbers without scraping pytest output, and a bench run
leaves the tracked tree untouched.  Every document is stamped with the
git commit it was produced from, so the perf trajectory stays
traceable across commits.
"""

import json
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = REPO_ROOT / "benchmarks" / "out"

_COMMIT = None


def git_commit() -> str:
    """The repo's HEAD commit hash, or ``unknown`` outside a checkout."""
    global _COMMIT
    if _COMMIT is None:
        try:
            _COMMIT = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=REPO_ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.CalledProcessError):
            _COMMIT = "unknown"
    return _COMMIT


def write_bench_json(name: str, payload: Dict[str, object]) -> Path:
    """Write ``BENCH_<name>.json`` under :data:`OUT_DIR` and return its
    path."""
    document = {
        "bench": name,
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "machine": platform.machine(),
    }
    document.update(payload)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def merge_bench_json(name: str, section: str,
                     payload: Dict[str, object]) -> Path:
    """Merge *payload* into ``BENCH_<name>.json`` under key *section*.

    Benches that share a document (e.g. E15's cache/parallel sections
    and E17's fleet section both live in ``BENCH_prevention.json``) use
    this instead of :func:`write_bench_json`, which would clobber the
    sibling sections.  The header stamps (commit, python, machine) are
    refreshed; everything else is preserved.
    """
    path = OUT_DIR / f"BENCH_{name}.json"
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        document = {}
    document.update({
        "bench": name,
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "machine": platform.machine(),
    })
    document[section] = payload
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path
