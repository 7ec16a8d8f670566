"""Fault plans: serialized, seeded descriptions of a chaos run.

A :class:`FaultPlan` is the *entire* specification of a chaos
experiment: which fault sites fire, at what rate, with what knobs
(hang lengths, quarantine thresholds, queue overrides) — plus the seed
every probabilistic decision derives from.  The
:class:`~repro.chaos.controller.ChaosController` draws each decision
from ``Random(f"{seed}:{site}:{key}")`` where *key* is a stable
identity of the fault site's subject (host name + event time + strike
count, never call order), so a chaos run replays byte-identically from
its serialized plan no matter how threads interleave.

Plans round-trip through :meth:`to_json` / :meth:`from_json`;
malformed documents are rejected with errors naming the offending
field, which is what the CLI's ``--chaos-plan`` leans on.
"""

import json
import random
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Optional, Tuple


class FaultPlanError(ValueError):
    """A fault-plan document failed validation."""


class CampaignError(FaultPlanError):
    """A campaign document failed validation."""


#: Fault-site name -> FaultPlan rate field.  The controller consults
#: this table; anything not listed here is not a fault site.
RATE_FIELDS = {
    "worker.crash": "worker_crash",
    "worker.hang": "worker_hang",
    "session.error": "session_error",
    "repair.raise": "repair_raise",
    "repair.noop": "repair_noop",
    "ingress.duplicate": "event_duplicate",
    "ingress.reorder": "event_reorder",
    "ingress.delay": "event_delay",
    "config.slow": "config_slow",
    # Scheduler and cache sites are appended last and excluded from
    # :meth:`FaultPlan.randomized`, so pre-existing randomized plans
    # keep drawing byte-identical rates.
    "sched.crash": "sched_crash",
    "sched.truncate": "sched_truncate",
    "cache.stale_read": "cache_stale_read",
    "cache.lock_timeout": "cache_lock_timeout",
}


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of every fault a chaos run may inject.

    Rates are per-decision probabilities in ``[0, 1]``:

    * ``worker_crash`` — the shard worker dies before processing an
      event (the event and the rest of its batch are requeued; the
      supervisor restarts the worker);
    * ``worker_hang`` — the worker stalls ``hang_seconds`` before
      processing an event (deposable via ``hang_timeout``);
    * ``session_error`` — progressing the event through the monitor
      session raises (the poison-quarantine path);
    * ``repair_raise`` — an enforcement attempt raises instead of
      repairing (escalates through the circuit breaker);
    * ``repair_noop`` — an enforcement attempt silently does nothing
      (the re-check fails, burning a retry);
    * ``event_duplicate`` / ``event_reorder`` / ``event_delay`` —
      ingress stream perturbations (dup, adjacent swap, latency);
    * ``config_slow`` — host config reads stall
      ``config_delay_seconds``;
    * ``sched_crash`` — the work scheduler dies immediately after
      journaling an effective task completion (resume from the
      journal); ``sched_truncate`` — given a crash, the probability
      the journal's freshly written tail is torn mid-line too;
    * ``cache_stale_read`` — a shared-tier verification-cache read
      misses an entry that is actually present (one redundant
      recompute, never a wrong verdict); ``cache_lock_timeout`` — a
      cache bucket flush times out on its advisory lock (the write
      stays pending and is retried on the next save).
    """

    seed: int = 0
    worker_crash: float = 0.0
    worker_hang: float = 0.0
    session_error: float = 0.0
    repair_raise: float = 0.0
    repair_noop: float = 0.0
    event_duplicate: float = 0.0
    event_reorder: float = 0.0
    event_delay: float = 0.0
    config_slow: float = 0.0
    sched_crash: float = 0.0
    sched_truncate: float = 0.0
    cache_stale_read: float = 0.0
    cache_lock_timeout: float = 0.0
    hang_seconds: float = 0.001
    delay_seconds: float = 0.0005
    config_delay_seconds: float = 0.0005
    max_deliveries: int = 3
    dead_letter_capacity: int = 64
    queue_capacity: Optional[int] = None
    hang_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        for name in RATE_FIELDS.values():
            value = getattr(self, name)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                raise FaultPlanError(f"{name} must be a number, "
                                     f"got {value!r}")
            if not 0.0 <= value <= 1.0:
                raise FaultPlanError(
                    f"{name} must be a rate in [0, 1], got {value!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise FaultPlanError(f"seed must be an int, got {self.seed!r}")
        for name in ("hang_seconds", "delay_seconds",
                     "config_delay_seconds"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or value < 0:
                raise FaultPlanError(
                    f"{name} must be a non-negative number, got {value!r}")
        for name in ("max_deliveries", "dead_letter_capacity"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise FaultPlanError(
                    f"{name} must be an int >= 1, got {value!r}")
        if self.queue_capacity is not None and (
                not isinstance(self.queue_capacity, int)
                or isinstance(self.queue_capacity, bool)
                or self.queue_capacity < 1):
            raise FaultPlanError(
                f"queue_capacity must be an int >= 1 or null, "
                f"got {self.queue_capacity!r}")
        if self.hang_timeout is not None and (
                not isinstance(self.hang_timeout, (int, float))
                or isinstance(self.hang_timeout, bool)
                or self.hang_timeout <= 0):
            raise FaultPlanError(
                f"hang_timeout must be a positive number or null, "
                f"got {self.hang_timeout!r}")

    # -- derived views ------------------------------------------------------

    def rate(self, site: str) -> float:
        """The rate configured for fault *site* (raises on unknown)."""
        try:
            return getattr(self, RATE_FIELDS[site])
        except KeyError:
            raise FaultPlanError(f"unknown fault site: {site!r}")

    @property
    def active_sites(self) -> Dict[str, float]:
        """Sites with a non-zero rate (what this plan can inject)."""
        return {site: getattr(self, field_name)
                for site, field_name in sorted(RATE_FIELDS.items())
                if getattr(self, field_name) > 0.0}

    @property
    def quiet(self) -> bool:
        """True when the plan injects nothing (all rates zero)."""
        return not self.active_sites

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(document, dict):
            raise FaultPlanError(
                f"fault plan must be a JSON object, "
                f"got {type(document).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(document) - known)
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan field(s): {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}")
        return cls(**document)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}")
        return cls.from_dict(document)

    # -- randomized plans ---------------------------------------------------

    @classmethod
    def randomized(cls, seed: int, max_rate: float = 0.2) -> "FaultPlan":
        """A randomized-but-reproducible plan for property harnesses.

        Every rate is drawn from ``[0, max_rate]`` with roughly half
        the sites switched off entirely, so the invariant suite sweeps
        both sparse and dense fault mixes.  The draw itself is a pure
        function of *seed*.
        """
        rng = random.Random(f"fault-plan:{seed}")
        rates = {
            field_name: (round(rng.uniform(0.0, max_rate), 4)
                         if rng.random() < 0.5 else 0.0)
            # Scheduler and cache sites are deliberately left out (and
            # so stay 0.0): they target other planes than the SOC this
            # harness sweeps, and skipping them keeps the rng draw
            # sequence — hence every historical randomized plan —
            # byte-identical.
            for site, field_name in RATE_FIELDS.items()
            if not site.startswith(("sched.", "cache."))
        }
        return cls(
            seed=seed,
            max_deliveries=rng.choice((2, 3, 4)),
            dead_letter_capacity=rng.choice((8, 16, 64)),
            queue_capacity=rng.choice((None, None, 32, 128)),
            **rates,
        )

    def describe(self) -> str:
        """One-line human summary (CLI banner, test ids)."""
        active = self.active_sites
        if not active:
            return f"quiet plan (seed {self.seed})"
        parts = ", ".join(f"{site}={rate:g}"
                          for site, rate in active.items())
        return f"seed {self.seed}: {parts}"


# -- campaigns: staged fault plans ------------------------------------------


@dataclass(frozen=True)
class CampaignStage:
    """One stage of a multi-stage attack campaign.

    A stage is a :class:`FaultPlan` scoped to a phase of the attack
    (its rates and knobs apply only while the stage is active), plus
    the campaign-level structure the bare plan has no words for: which
    CAPEC patterns the fault mix stands in for, which hosts the stage
    targets (empty tuple = the whole fleet), and how many drift rounds
    the stage spans.  ``extend_rate`` lets a stage run up to
    ``max_extra_rounds`` longer: the extension is drawn through the
    controller's seeded-decision scheme, so stage lengths vary by
    campaign seed yet replay byte-identically.

    The stage plan's own ``seed`` is ignored — every decision in a
    campaign derives from the campaign seed (one seed, one replay
    fingerprint).
    """

    name: str
    plan: FaultPlan
    capec_ids: Tuple[str, ...] = ()
    target_hosts: Tuple[str, ...] = ()
    rounds: int = 1
    extend_rate: float = 0.0
    max_extra_rounds: int = 0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise CampaignError(
                f"stage name must be a non-empty string, "
                f"got {self.name!r}")
        if not isinstance(self.plan, FaultPlan):
            raise CampaignError(
                f"stage {self.name!r}: plan must be a FaultPlan, "
                f"got {type(self.plan).__name__}")
        for field_name in ("capec_ids", "target_hosts"):
            value = getattr(self, field_name)
            if not isinstance(value, tuple) \
                    or not all(isinstance(item, str) for item in value):
                raise CampaignError(
                    f"stage {self.name!r}: {field_name} must be a "
                    f"tuple of strings, got {value!r}")
        if not isinstance(self.rounds, int) \
                or isinstance(self.rounds, bool) or self.rounds < 1:
            raise CampaignError(
                f"stage {self.name!r}: rounds must be an int >= 1, "
                f"got {self.rounds!r}")
        if not isinstance(self.extend_rate, (int, float)) \
                or isinstance(self.extend_rate, bool) \
                or not 0.0 <= self.extend_rate <= 1.0:
            raise CampaignError(
                f"stage {self.name!r}: extend_rate must be a rate in "
                f"[0, 1], got {self.extend_rate!r}")
        if not isinstance(self.max_extra_rounds, int) \
                or isinstance(self.max_extra_rounds, bool) \
                or self.max_extra_rounds < 0:
            raise CampaignError(
                f"stage {self.name!r}: max_extra_rounds must be an "
                f"int >= 0, got {self.max_extra_rounds!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "plan": self.plan.to_dict(),
            "capec_ids": list(self.capec_ids),
            "target_hosts": list(self.target_hosts),
            "rounds": self.rounds,
            "extend_rate": self.extend_rate,
            "max_extra_rounds": self.max_extra_rounds,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "CampaignStage":
        if not isinstance(document, dict):
            raise CampaignError(
                f"campaign stage must be a JSON object, "
                f"got {type(document).__name__}")
        known = {"name", "plan", "capec_ids", "target_hosts",
                 "rounds", "extend_rate", "max_extra_rounds"}
        unknown = sorted(set(document) - known)
        if unknown:
            raise CampaignError(
                f"unknown campaign stage field(s): "
                f"{', '.join(unknown)}; known: {', '.join(sorted(known))}")
        payload = dict(document)
        plan = payload.get("plan")
        payload["plan"] = (plan if isinstance(plan, FaultPlan)
                           else FaultPlan.from_dict(plan or {}))
        for field_name in ("capec_ids", "target_hosts"):
            if field_name in payload:
                value = payload[field_name]
                if not isinstance(value, (list, tuple)):
                    raise CampaignError(
                        f"{field_name} must be a list, got {value!r}")
                payload[field_name] = tuple(value)
        return cls(**payload)


@dataclass(frozen=True)
class Campaign:
    """A seeded, serialized multi-stage attack campaign.

    Layered on :class:`FaultPlan` the way a plan is layered on the
    controller: the campaign is the *entire* specification of a staged
    chaos run — stage order, per-stage fault plans, targets, spans —
    plus the one seed every decision (fault draws *and* stage-length
    extensions) derives from.  Round-trips through JSON so a run can
    be replayed byte-identically from its serialized form
    (:class:`~repro.chaos.controller.CampaignController` is the
    executor).
    """

    name: str
    seed: int
    stages: Tuple[CampaignStage, ...]

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise CampaignError(
                f"campaign name must be a non-empty string, "
                f"got {self.name!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise CampaignError(
                f"campaign seed must be an int, got {self.seed!r}")
        if not isinstance(self.stages, tuple) or not self.stages \
                or not all(isinstance(stage, CampaignStage)
                           for stage in self.stages):
            raise CampaignError(
                "campaign stages must be a non-empty tuple of "
                "CampaignStage")
        seen: Dict[str, int] = {}
        for stage in self.stages:
            if stage.name in seen:
                raise CampaignError(
                    f"duplicate stage name {stage.name!r}")
            seen[stage.name] = 1

    def stage_plan(self, index: int) -> FaultPlan:
        """Stage *index*'s plan with the campaign seed folded in."""
        return replace(self.stages[index].plan, seed=self.seed)

    def describe(self) -> str:
        stages = " -> ".join(
            f"{stage.name}({stage.rounds}r"
            + (f"+{stage.max_extra_rounds}?" if stage.max_extra_rounds
               else "") + ")"
            for stage in self.stages)
        return f"campaign {self.name!r} seed {self.seed}: {stages}"

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "seed": self.seed,
                "stages": [stage.to_dict() for stage in self.stages]}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "Campaign":
        if not isinstance(document, dict):
            raise CampaignError(
                f"campaign must be a JSON object, "
                f"got {type(document).__name__}")
        known = {"name", "seed", "stages"}
        unknown = sorted(set(document) - known)
        if unknown:
            raise CampaignError(
                f"unknown campaign field(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}")
        stages = document.get("stages")
        if not isinstance(stages, (list, tuple)):
            raise CampaignError(
                f"campaign stages must be a list, got {stages!r}")
        return cls(
            name=document.get("name", ""),
            seed=document.get("seed", 0),
            stages=tuple(
                stage if isinstance(stage, CampaignStage)
                else CampaignStage.from_dict(stage)
                for stage in stages),
        )

    @classmethod
    def from_json(cls, text: str) -> "Campaign":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"campaign is not valid JSON: {exc}")
        return cls.from_dict(document)
