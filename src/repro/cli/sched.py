"""``sched``: journaled, crash-resumable scheduled runs.

``run`` drives the prevention pipeline through a journal-attached
scheduler (``--crash-after`` / ``--chaos-plan`` inject crashes);
``resume`` continues a crashed run from its journal, adopting every
journaled verdict instead of re-verifying; ``status`` and ``replay``
inspect a journal without executing anything.  An injected crash exits
3 and leaves the journal resumable.
"""

import sys

from repro.cli.common import command, emit, group, host_for, load_chaos, \
    table

STATUS_KEYS = ("journal", "entries", "head", "chain_ok", "torn_tail",
               "profile", "jobs", "requirements", "resumes", "completions",
               "duplicated_completions", "finished", "passed")


def _journal(path: str):
    from repro.sched.journal import Journal, JournalError

    try:
        return Journal(path)
    except JournalError as exc:
        raise SystemExit(f"repro sched: {exc}")


def cmd_status(args, out) -> int:
    journal = _journal(args.journal)
    plan = journal.plan() or {}
    finished = journal.finished()
    document = {
        "journal": args.journal,
        "entries": len(journal),
        "head": journal.head_digest(),
        "chain_ok": journal.verify(),
        "torn_tail": journal.torn_tail,
        "profile": plan.get("profile"),
        "jobs": plan.get("jobs"),
        "requirements": len((plan.get("ir") or {}).get("fingerprints", [])),
        "resumes": journal.resumes(),
        "completions": len(journal.completions()),
        "duplicated_completions": sorted(
            name for name, count in journal.completion_counts().items()
            if count > 1),
        "finished": finished is not None,
        "passed": finished.get("passed") if finished else None,
    }
    emit(args, out, document,
         (f"{key:24}: {document[key]}" for key in STATUS_KEYS))
    return 0


def cmd_replay(args, out) -> int:
    """The chain-validated entry history, in order."""
    journal = _journal(args.journal)
    summary = (f"{len(journal)} entries; chain "
               f"{'ok' if journal.verify() else 'BROKEN'}")
    emit(args, out, [entry.to_dict() for entry in journal.entries], table(
        [{"seq": entry.seq, "kind": entry.kind, "task": entry.task or "-",
          "digest": entry.digest[:12]} for entry in journal.entries],
        f"{summary}; head {journal.head_digest()[:12]}"
        + ("; torn tail dropped" if journal.torn_tail else "")),
        status=summary)
    return 0


def cmd_run(args, out) -> int:
    """``run`` and ``resume``: build (or rebuild) the journaled
    prevention run."""
    from repro.sched.runner import JournaledPreventionRun, RunPlanError
    from repro.sched.scheduler import SchedulerCrash

    if args.action == "resume":
        plan = _journal(args.journal).plan()
        if plan is None:
            raise SystemExit(
                f"repro sched: journal {args.journal!r} has no recorded "
                f"plan; nothing to resume")
        profile, jobs = plan.get("profile"), int(plan.get("jobs") or 1)
    else:
        profile, jobs = args.profile, args.jobs

    runner = JournaledPreventionRun(
        args.journal, host_for(profile), profile, jobs=jobs,
        chaos=load_chaos(args.chaos_plan, "repro sched"),
        crash_after=args.crash_after)
    try:
        verdict = runner.execute()
    except RunPlanError as exc:
        raise SystemExit(f"repro sched: {exc}")
    except SchedulerCrash as exc:
        print(f"repro sched: {exc}", file=sys.stderr)
        print(f"repro sched: journal {args.journal!r} is resumable: "
              f"repro sched resume --journal {args.journal}",
              file=sys.stderr)
        return 3

    status = (
        f"sched {'replayed' if verdict['replayed'] else args.action}: "
        f"{'passed' if verdict['passed'] else 'failed'}; "
        f"resumes={verdict['resumes']} adopted={verdict['adopted']}")
    emit(args, out,
         dict(verdict, profile=profile, jobs=jobs, journal=args.journal),
         table(verdict["gates"], status), status=status)
    return 0 if verdict["passed"] else 1


def register(subparsers) -> None:
    actions = group(subparsers, "sched",
                    "journaled, crash-resumable scheduled runs")
    command(actions, "run",
            "run the prevention pipeline under a journaled scheduler",
            cmd_run, "--journal", "--profile", "--jobs", "--crash-after",
            "--chaos-plan", "--json")
    command(actions, "resume",
            "resume a crashed run from its journal (profile and jobs "
            "come from the recorded plan)",
            cmd_run, "--journal", "--crash-after", "--chaos-plan", "--json")
    command(actions, "status",
            "summarize a journal (plan, chain, completions)",
            cmd_status, "--journal", "--json")
    command(actions, "replay", "print the chain-validated journal history",
            cmd_replay, "--journal", "--json")
