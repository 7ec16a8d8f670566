"""``reqs``: inspect the unified requirements plane.

``list`` lowers every registered front-end's bundled corpus into the IR
and tabulates it; ``show`` prints one record in full; ``lower`` dumps
one front-end's IR with fingerprints (``--stream``: live, from stdin);
``trace`` walks source -> IR -> enforceable artifacts for one record.
Every action accepts ``--json``; its output is schema-valid against
``schemas/requirement-ir.schema.json`` (the CI smoke pipes ``list
--json`` straight into the validator).
"""

import json
import sys
from typing import Dict, Optional

from repro.cli.common import command, count, emit, group, host_for, table


def _registry():
    from repro.reqs import default_registry

    return default_registry()


def _known(registry, frontend: str) -> str:
    if frontend not in registry:
        raise SystemExit(
            f"repro reqs: unknown front-end {frontend!r}; "
            f"registered: {', '.join(registry.names())}")
    return frontend


def _corpora(registry, frontend: Optional[str]) -> Dict[str, list]:
    """Bundled IR per front-end (one, or all registered)."""
    if frontend:
        return {frontend: registry.lower_bundled(_known(registry, frontend))}
    return registry.lower_all_bundled()


def _find(registry, frontend: Optional[str], rid: str):
    """Locate one IR record by id across the bundled corpora."""
    for name, irs in sorted(_corpora(registry, frontend).items()):
        for ir in irs:
            if ir.rid == rid:
                return name, ir
    raise SystemExit(f"repro reqs: no requirement {rid!r} in the "
                     f"bundled corpora")


def cmd_list(args, out) -> int:
    corpora = _corpora(_registry(), args.frontend)
    records = [ir for _, irs in sorted(corpora.items()) for ir in irs]
    summary = f"{len(records)} requirements from {len(corpora)} front-end(s)"
    emit(args, out, lambda: [ir.to_dict() for ir in records], lambda: table(
        [{"rid": ir.rid, "frontend": ir.source,
          "target": ir.target_kind, "severity": ir.severity,
          "pattern": (ir.formalization.pattern_kind or "-")
          if ir.formalization else "-",
          "title": ir.title[:48]} for ir in records],
        f"{summary}: " + ", ".join(
            f"{name}={len(irs)}" for name, irs in sorted(corpora.items()))),
        status=summary)
    return 0


def cmd_lower(args, out) -> int:
    registry = _registry()
    _known(registry, args.frontend)
    if args.stream:
        return _lower_stream(registry, args, out)
    irs = registry.lower_bundled(args.frontend)
    summary = f"{len(irs)} requirements lowered from {args.frontend!r}"
    emit(args, out,
         lambda: [dict(ir.to_dict(), fingerprint=ir.fingerprint())
                  for ir in irs],
         lambda: table([{"rid": ir.rid, "fingerprint": ir.fingerprint(),
                         "content": ir.content_fingerprint()} for ir in irs],
                       summary),
         status=summary)
    return 0


def _lower_stream(registry, args, out) -> int:
    """``reqs lower --stream``: JSON-lines natives in, IR out, live.

    Each stdin line is one JSON value handed to the front-end as a
    native (a JSON string for prose front-ends like ``resa``).  Records
    are emitted as JSON lines *as they lower* — batched incrementally
    through :meth:`FrontendRegistry.lower_iter`, not at end of feed —
    so a downstream re-arm loop can act while the feed is still
    producing.  A malformed line (bad JSON, or a native the adapter or
    the provenance lint rejects) becomes a ``{"rejected": ...}`` line
    for that record only; the rest of the stream flows on.
    """
    from repro.reqs.ir import Requirement

    def line(document):
        print(json.dumps(document), file=out, flush=True)

    rejected_lines = 0

    def natives():
        nonlocal rejected_lines
        for line_number, text in enumerate(sys.stdin):
            text = text.strip()
            if not text:
                continue
            try:
                yield json.loads(text)
            except ValueError as exc:
                rejected_lines += 1
                line({"rejected": {"frontend": args.frontend,
                                   "line": line_number,
                                   "error": f"bad JSON: {exc}"}})

    lowered = rejected = 0
    for item in registry.lower_iter(args.frontend, natives(),
                                    batch_size=args.batch):
        if isinstance(item, Requirement):
            lowered += 1
            line(dict(item.to_dict(), fingerprint=item.fingerprint()))
        else:
            rejected += 1
            line({"rejected": {"frontend": item.frontend,
                               "index": item.index, "error": item.error}})
    print(f"{lowered} requirements lowered from {args.frontend!r}, "
          f"{rejected + rejected_lines} rejected", file=sys.stderr)
    return 0


def cmd_show(args, out) -> int:
    frontend, ir = _find(_registry(), args.frontend, args.rid)

    def lines():
        yield f"rid       : {ir.rid}"
        yield f"frontend  : {frontend}"
        yield f"title     : {ir.title}"
        yield f"text      : {ir.text}"
        yield f"target    : {ir.target_kind}"
        yield f"severity  : {ir.severity}"
        if ir.formalization is not None:
            pattern, scope = ir.pattern_scope()
            yield f"pattern   : ({pattern}) ({scope})"
            yield f"LTL       : {ir.formalization.ltl or '-'}"
            yield f"TCTL      : {ir.formalization.tctl or '-'}"
        else:
            yield "pattern   : -"
        yield f"tags      : {', '.join(ir.tags) or '-'}"
        yield f"bindings  : {', '.join(ir.bindings) or '-'}"
        for index, link in enumerate(ir.provenance):
            yield f"source #{index} : {link.render()}"

    emit(args, out, ir.to_dict(), lines())
    return 0


def cmd_trace(args, out) -> int:
    """Source -> IR -> enforceable artifacts.  Bindings are RQCODE
    finding ids by IR contract, so any bound record can raise through
    the rqcode adapter even if its own front-end cannot."""
    registry = _registry()
    frontend, ir = _find(registry, args.frontend, args.rid)
    host = host_for(args.profile)
    artifacts = []
    for name in (frontend, "rqcode"):
        try:
            artifacts = [type(artifact).__name__ for artifact
                         in registry.get(name).raise_artifacts(ir, host)]
        except Exception:  # noqa: BLE001 - not every front-end raises
            continue
        break
    chain = ir.provenance_digests()
    document = {
        "rid": ir.rid,
        "frontend": frontend,
        "provenance": [link.to_dict() for link in ir.provenance],
        "provenance_chain": list(chain),
        "fingerprint": ir.fingerprint(),
        "content_fingerprint": ir.content_fingerprint(),
        "ltl": ir.formalization.ltl if ir.formalization else "",
        "tctl": ir.formalization.tctl if ir.formalization else "",
        "bindings": list(ir.bindings),
        "profile": args.profile,
        "artifacts": artifacts,
    }

    def lines():
        yield f"{ir.rid} ({frontend})"
        for index, link in enumerate(ir.provenance):
            yield (f"  source #{index}   : {link.render()} "
                   f"[{chain[index][:12]}]")
        yield "  chain       : " + (chain[-1] if chain else "-")
        yield f"  IR digest   : {document['fingerprint']}"
        yield f"  content     : {document['content_fingerprint']}"
        yield f"  LTL         : {document['ltl'] or '-'}"
        yield f"  TCTL        : {document['tctl'] or '-'}"
        yield f"  bindings    : {', '.join(ir.bindings) or '-'}"
        yield "  artifacts   : " + (", ".join(artifacts) if artifacts
                                     else f"none raised for {args.profile}")

    emit(args, out, document, lines())
    return 0


def register(subparsers) -> None:
    actions = group(subparsers, "reqs",
                    "inspect the unified requirements plane (IR)")
    command(actions, "list",
            "lower every bundled front-end corpus and tabulate",
            cmd_list, "--frontend", "--json")
    show = command(actions, "show", "print one bundled IR record in full",
                   cmd_show, "--frontend", "--json")
    show.add_argument("rid", help="requirement id (see reqs list)")
    lower = command(actions, "lower",
                    "lower one front-end's corpus, with fingerprints",
                    cmd_lower, "--json")
    lower.add_argument("frontend", help="registered front-end name")
    lower.add_argument(
        "--stream", action="store_true",
        help="read JSON-lines natives from stdin and emit IR records "
             "as they lower (incremental; bad lines are rejected "
             "individually)")
    lower.add_argument("--batch", **count(
        8, help="streaming batch size (natives lowered per adapter call)"))
    trace = command(actions, "trace",
                    "walk source -> IR -> artifacts for one record",
                    cmd_trace, "--frontend", "--profile", "--json")
    trace.add_argument("rid")
