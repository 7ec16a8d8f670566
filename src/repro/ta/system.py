"""Networks of timed automata: parallel composition on channels.

A :class:`Network` owns the global clock index (clock names are
namespaced ``"Automaton.clock"``) and enumerates the composed discrete
steps: internal edges interleave, and an emitting edge (``chan!``)
pairs with exactly one receiving edge (``chan?``) in another automaton
— UPPAAL's binary handshake semantics.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ta.automaton import ClockConstraint, Edge, TimedAutomaton


@dataclass(frozen=True)
class NetworkState:
    """A discrete network state: one location name per automaton.

    Equal by ``locations``.  The hash is computed once, at construction:
    the checkers key every memo, visited set and search set by states,
    and a generated ``__hash__`` would rehash the whole tuple each time.
    """

    locations: Tuple[str, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.locations))

    def __hash__(self) -> int:
        return self._hash

    def location_of(self, index: int) -> str:
        return self.locations[index]


@dataclass(frozen=True)
class ComposedStep:
    """One discrete step of the network.

    ``edges`` holds (automaton_index, edge) pairs — one pair for an
    internal step, two for a channel handshake (emitter first).
    """

    edges: Tuple[Tuple[int, Edge], ...]
    target: NetworkState

    @property
    def label(self) -> str:
        parts = []
        for _, edge in self.edges:
            parts.append(edge.action or edge.sync or
                         f"{edge.source}->{edge.target}")
        return " / ".join(parts)


@dataclass(frozen=True)
class _LocationEdges:
    """One location's outgoing edges, split as the composition uses
    them (each in the automaton's edge order)."""

    internal: Tuple[Edge, ...]
    emits: Tuple[Edge, ...]
    #: channel -> the location's receiving edges on it
    receives: Dict[str, Tuple[Edge, ...]]


def _edge_table(automaton: TimedAutomaton) -> Dict[str, _LocationEdges]:
    """Every location of *automaton* mapped to its outgoing edges."""
    table = {}
    for location in automaton.locations:
        outgoing = automaton.outgoing(location)
        receives: Dict[str, List[Edge]] = {}
        for edge in outgoing:
            if edge.is_receive:
                receives.setdefault(edge.channel, []).append(edge)
        table[location] = _LocationEdges(
            internal=tuple(e for e in outgoing if e.sync is None),
            emits=tuple(e for e in outgoing if e.is_emit),
            receives={channel: tuple(edges)
                      for channel, edges in receives.items()})
    return table


class Network:
    """Parallel composition of timed automata.

    Args:
        automata: Component automata; names must be unique.
    """

    def __init__(self, automata: Sequence[TimedAutomaton]):
        names = [a.name for a in automata]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate automaton names: {names}")
        self.automata: Tuple[TimedAutomaton, ...] = tuple(automata)
        self._index: Dict[str, int] = {
            name: index for index, name in enumerate(names)}
        # Global clock index: 1-based (0 is the DBM reference clock).
        self.clock_index: Dict[str, int] = {}
        for automaton in self.automata:
            for clock in automaton.clocks:
                self.clock_index[f"{automaton.name}.{clock}"] = (
                    len(self.clock_index) + 1)
        #: Per automaton, built on its first step: location -> edges.
        self._edge_tables: List[Optional[Dict[str, _LocationEdges]]] = [
            None] * len(self.automata)

    @property
    def clock_count(self) -> int:
        return len(self.clock_index)

    def initial_state(self) -> NetworkState:
        return NetworkState(tuple(a.initial for a in self.automata))

    def automaton_index(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            raise KeyError(f"no automaton named {name!r}")
        return index

    def global_clock(self, automaton: TimedAutomaton, clock: str) -> int:
        return self.clock_index[f"{automaton.name}.{clock}"]

    def constraint_indices(self, automaton: TimedAutomaton,
                           constraint: ClockConstraint) -> Tuple[int, int]:
        """Map a constraint's clock names to global (i, j) DBM indices."""
        i = self.global_clock(automaton, constraint.left)
        j = (0 if constraint.right is None
             else self.global_clock(automaton, constraint.right))
        return i, j

    def max_constant(self) -> int:
        return max(a.max_constant() for a in self.automata)

    def invariants_at(self, state: NetworkState
                      ) -> List[Tuple[TimedAutomaton, ClockConstraint]]:
        """All invariant constraints active in *state*."""
        active = []
        for index, automaton in enumerate(self.automata):
            location = automaton.locations[state.location_of(index)]
            for constraint in location.invariant:
                active.append((automaton, constraint))
        return active

    def is_urgent(self, state: NetworkState) -> bool:
        """Time may not elapse when any component is in an urgent location."""
        return any(
            automaton.locations[state.location_of(index)].urgent
            for index, automaton in enumerate(self.automata)
        )

    def _edges_at(self, index: int, location: str) -> _LocationEdges:
        table = self._edge_tables[index]
        if table is None:
            table = self._edge_tables[index] = _edge_table(
                self.automata[index])
        return table[location]

    def discrete_steps(self, state: NetworkState) -> Iterator[ComposedStep]:
        """Enumerate internal steps and channel handshakes from *state*.

        Internal edges come first (by automaton, then edge order); then
        every emit pairs with every receive on its channel in a
        *different* automaton (emits and receives each by automaton,
        then edge order).  The reference enumerator: the simulator and
        the discrete-time and unreduced checkers use it, and the fast
        checker's step table is tested against it.
        """
        at = [self._edges_at(index, location)
              for index, location in enumerate(state.locations)]
        for index, edges in enumerate(at):
            for edge in edges.internal:
                yield ComposedStep(
                    edges=((index, edge),),
                    target=self._advance(state, [(index, edge)]),
                )
        if not any(edges.emits for edges in at):
            return
        receives: Dict[str, List[Tuple[int, Edge]]] = {}
        for index, edges in enumerate(at):
            for channel, on_channel in edges.receives.items():
                receives.setdefault(channel, []).extend(
                    (index, edge) for edge in on_channel)
        for emit_index, edges in enumerate(at):
            for emit_edge in edges.emits:
                for recv_index, recv_edge in receives.get(
                        emit_edge.channel, ()):
                    if recv_index == emit_index:
                        continue
                    pairs = [(emit_index, emit_edge), (recv_index, recv_edge)]
                    yield ComposedStep(
                        edges=tuple(pairs),
                        target=self._advance(state, pairs),
                    )

    def _advance(self, state: NetworkState,
                 moves: Sequence[Tuple[int, Edge]]) -> NetworkState:
        locations = list(state.locations)
        for index, edge in moves:
            locations[index] = edge.target
        return NetworkState(tuple(locations))

    def __repr__(self) -> str:
        names = ", ".join(a.name for a in self.automata)
        return f"Network([{names}], {self.clock_count} clocks)"
