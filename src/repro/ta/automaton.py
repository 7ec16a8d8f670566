"""Timed automata: locations, edges, guards, invariants.

An automaton declares named clocks; guards and invariants are
conjunctions of :class:`ClockConstraint` over those names.  Edges carry
an optional synchronization label (UPPAAL-style ``chan!`` emit /
``chan?`` receive) used by :class:`~repro.ta.system.Network` to build
the parallel composition.

:func:`parse_guard` accepts the textual form used throughout the tests
and the PROPAS observer templates: ``"x <= 5 & x - y < 3"``.
"""

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

_OPS = ("<=", ">=", "==", "<", ">")


@dataclass(frozen=True)
class ClockConstraint:
    """One atomic constraint ``left - right OP value``.

    ``right`` is ``None`` for single-clock constraints (``x <= 5``).
    ``op`` is one of ``<``, ``<=``, ``>``, ``>=``, ``==``; equality is
    expanded into two difference bounds by the checker.
    """

    left: str
    op: str
    value: int
    right: Optional[str] = None

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unsupported operator: {self.op!r}")

    def __str__(self) -> str:
        lhs = self.left if self.right is None else f"{self.left} - {self.right}"
        return f"{lhs} {self.op} {self.value}"

    def clocks(self) -> Iterator[str]:
        """The clock names the constraint reads (both sides)."""
        yield self.left
        if self.right is not None:
            yield self.right


_CONSTRAINT = re.compile(
    r"^\s*(?P<left>[A-Za-z_]\w*)\s*"
    r"(?:-\s*(?P<right>[A-Za-z_]\w*)\s*)?"
    r"(?P<op><=|>=|==|<|>)\s*"
    r"(?P<value>-?\d+)\s*$"
)


def parse_guard(text: str) -> Tuple[ClockConstraint, ...]:
    """Parse ``"x <= 5 & x - y < 3"`` into constraints.

    Empty/whitespace text parses to the empty (always true) guard.
    """
    text = text.strip()
    if not text:
        return ()
    constraints = []
    for part in text.split("&"):
        match = _CONSTRAINT.match(part)
        if match is None:
            raise ValueError(f"malformed clock constraint: {part.strip()!r}")
        constraints.append(ClockConstraint(
            left=match.group("left"),
            right=match.group("right"),
            op=match.group("op"),
            value=int(match.group("value")),
        ))
    return tuple(constraints)


@dataclass(frozen=True)
class Location:
    """A control location with an optional invariant.

    ``urgent`` locations forbid time elapse (the checker skips the delay
    step), which the PROPAS observer templates use for instantaneous
    bookkeeping states.
    """

    name: str
    invariant: Tuple[ClockConstraint, ...] = ()
    urgent: bool = False

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Edge:
    """A discrete transition.

    Attributes:
        source, target: Location names.
        guard: Conjunction of clock constraints enabling the edge.
        resets: Clock names set to zero when the edge fires.
        sync: Optional channel label: ``"press!"`` emits, ``"press?"``
            receives; ``None`` is an internal step.
        action: Free-form label surfaced in witness traces.
    """

    source: str
    target: str
    guard: Tuple[ClockConstraint, ...] = ()
    resets: Tuple[str, ...] = ()
    sync: Optional[str] = None
    action: str = ""

    @property
    def channel(self) -> Optional[str]:
        if self.sync is None:
            return None
        return self.sync[:-1]

    @property
    def is_emit(self) -> bool:
        return self.sync is not None and self.sync.endswith("!")

    @property
    def is_receive(self) -> bool:
        return self.sync is not None and self.sync.endswith("?")

    def __post_init__(self):
        if self.sync is not None and not (
                self.sync.endswith("!") or self.sync.endswith("?")):
            raise ValueError(
                f"sync must end with ! or ?: {self.sync!r}"
            )


class TimedAutomaton:
    """One automaton: named locations, clocks, and edges.

    Args:
        name: Automaton name; location references in queries are
            ``"Name.location"``.
        clocks: Clock names local to this automaton (the network
            namespaces them as ``"Name.clock"``).
        locations: All locations; the first is initial unless
            *initial* names another.
        edges: Discrete transitions between the declared locations.
    """

    def __init__(self, name: str, clocks: Sequence[str],
                 locations: Sequence[Location], edges: Sequence[Edge],
                 initial: Optional[str] = None):
        self.name = name
        self.clocks = tuple(clocks)
        self.locations: Dict[str, Location] = {}
        for location in locations:
            if location.name in self.locations:
                raise ValueError(f"duplicate location: {location.name!r}")
            self.locations[location.name] = location
        if not self.locations:
            raise ValueError("an automaton needs at least one location")
        self.initial = initial if initial is not None else locations[0].name
        if self.initial not in self.locations:
            raise ValueError(f"unknown initial location: {self.initial!r}")
        self.edges: Tuple[Edge, ...] = tuple(edges)
        self._validate()

    def _validate(self) -> None:
        clock_set = set(self.clocks)
        for edge in self.edges:
            for endpoint in (edge.source, edge.target):
                if endpoint not in self.locations:
                    raise ValueError(
                        f"edge references unknown location {endpoint!r}"
                    )
            for constraint in edge.guard:
                self._check_clocks(constraint, clock_set)
            for clock in edge.resets:
                if clock not in clock_set:
                    raise ValueError(f"reset of undeclared clock {clock!r}")
        for location in self.locations.values():
            for constraint in location.invariant:
                self._check_clocks(constraint, clock_set)

    @staticmethod
    def _check_clocks(constraint: ClockConstraint, clock_set) -> None:
        if constraint.left not in clock_set:
            raise ValueError(f"undeclared clock {constraint.left!r}")
        if constraint.right is not None and constraint.right not in clock_set:
            raise ValueError(f"undeclared clock {constraint.right!r}")

    def outgoing(self, location: str) -> List[Edge]:
        return [edge for edge in self.edges if edge.source == location]

    def active_clocks(self) -> Dict[str, FrozenSet[str]]:
        """The clocks active at each location (Daws & Yovine, "Reducing
        the number of clock variables of timed automata", RTSS 1996).

        A clock is active at a location when the location's invariant
        or an outgoing guard reads it, or when it is active at an
        edge's target and that edge does not reset it.  Everywhere else
        its value is never read before its next reset, so a checker may
        forget it.  Computed as a backward fixpoint over the edges.
        """
        active = {name: {clock for constraint in location.invariant
                         for clock in constraint.clocks()}
                  for name, location in self.locations.items()}
        for edge in self.edges:
            active[edge.source].update(
                clock for constraint in edge.guard
                for clock in constraint.clocks())
        changed = True
        while changed:
            changed = False
            for edge in self.edges:
                carried = active[edge.target].difference(edge.resets)
                if not carried <= active[edge.source]:
                    active[edge.source] |= carried
                    changed = True
        return {name: frozenset(clocks) for name, clocks in active.items()}

    def max_constant(self) -> int:
        """Largest constant in any guard or invariant (>= 1)."""
        constants = [1]
        for edge in self.edges:
            constants.extend(abs(c.value) for c in edge.guard)
        for location in self.locations.values():
            constants.extend(abs(c.value) for c in location.invariant)
        return max(constants)

    def __repr__(self) -> str:
        return (
            f"TimedAutomaton({self.name!r}, {len(self.locations)} locations, "
            f"{len(self.edges)} edges)"
        )
