"""Zone-graph model checking for networks of timed automata.

:class:`ZoneGraphChecker` explores the simulation graph — pairs of a
discrete :class:`~repro.ta.system.NetworkState` and a canonical
:class:`~repro.ta.dbm.DBM` zone, closed under delay and extrapolated at
the network's max constant — and answers the TCTL subset PROPAS needs:

* ``E<> φ`` — reachability (exact for the supported state formulas);
* ``A[] φ`` — safety, as the dual of reachability;
* ``A<> φ`` — liveness: the reachable ¬φ-subgraph must contain no
  cycle, no deadlock, and no *time-divergent* state (a non-urgent
  state whose invariant leaves every clock unbounded can wait forever
  without ever reaching φ);
* ``E[] φ`` — dual of ``A<>``;
* ``p --> q`` — leads-to: from every reachable p-state, ``A<> q``.

Clock-constraint atoms are decided existentially on a zone ("some
valuation in the zone satisfies the atom"), matching UPPAAL's ``E<>``;
``A[]`` queries negate into that existential form.  Liveness queries are
restricted to location-based formulas, where zone semantics are crisp.

Fast paths (the E15 prevention-plane optimization): guards, invariants
and resets are pre-resolved at construction into flat ``(i, j, encoded
bound)`` operation lists (no per-visit name lookups); discrete-step
enumeration, urgency and per-state invariant lists are memoized by
:class:`NetworkState`; zone intersection uses the DBM's O(n²)
incremental re-closure; and the visited store keys zones by their
canonical hash for O(1) exact-duplicate pruning before the inclusion
scan.  Construct with ``fast=False`` to get the unoptimized reference
paths — full Floyd-Warshall per constraint, fresh enumeration per
visit, linear inclusion scans — which the E15 bench measures the fast
engine against and the equivalence tests compare verdicts with.

:class:`DiscreteTimeChecker` is the ablation engine (experiment E6): it
enumerates integer clock valuations capped at ``max_constant + 1`` and
answers the same reachability/safety queries by explicit-state BFS.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.ta.dbm import DBM, INF, encode
from repro.ta.automaton import ClockConstraint, TimedAutomaton
from repro.ta.query import Atom, Query, StateFormula
from repro.ta.system import ComposedStep, Network, NetworkState


@dataclass
class CheckResult:
    """Verdict of one query plus exploration statistics."""

    satisfied: bool
    query: str
    states_explored: int
    witness: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.satisfied

    def __repr__(self) -> str:
        verdict = "satisfied" if self.satisfied else "NOT satisfied"
        return (
            f"<{self.query}: {verdict}, "
            f"{self.states_explored} states>"
        )


def _constraint_ops(network: Network, automaton: TimedAutomaton,
                    constraint: ClockConstraint
                    ) -> Tuple[Tuple[int, int, int], ...]:
    """Resolve one textual constraint to ``(i, j, encoded bound)`` ops.

    Equality expands into both difference bounds; the op tuples feed
    :meth:`DBM.constrain` directly with no further lookups.
    """
    i, j = network.constraint_indices(automaton, constraint)
    op, value = constraint.op, constraint.value
    if op in ("<", "<="):
        return ((i, j, encode(value, strict=(op == "<"))),)
    if op in (">", ">="):
        return ((j, i, encode(-value, strict=(op == ">"))),)
    return ((i, j, encode(value, strict=False)),
            (j, i, encode(-value, strict=False)))


class ZoneGraphChecker:
    """Model checker over one network's zone graph.

    ``fast`` (default) enables the precomputed-table + memoization +
    incremental-closure engine; ``fast=False`` keeps the reference
    implementation for ablation benchmarks and equivalence tests.

    A checker holds no per-query state, only memos of the network's
    symbolic semantics (discrete steps, urgency, invariants, and the
    successors of each visited symbolic state).  Any number of queries
    may run on one checker, one at a time, and each gets the verdict a
    fresh checker would give.  The memos live as long as the checker:
    :class:`~repro.core.gates.VerificationGate` builds one per network
    and drops it after that network's last task, so the successor memo
    lives for one gate evaluation.
    """

    def __init__(self, network: Network, fast: bool = True):
        self.network = network
        self._k = network.max_constant()
        self._fast = fast
        if fast:
            automata = network.automata
            # Pre-resolved guard ops and global reset indices per edge.
            self._guard_ops: Dict[Tuple[int, "object"], tuple] = {}
            self._reset_ids: Dict[Tuple[int, "object"], tuple] = {}
            for index, automaton in enumerate(automata):
                for edge in automaton.edges:
                    key = (index, edge)
                    self._guard_ops[key] = tuple(
                        op for constraint in edge.guard
                        for op in _constraint_ops(network, automaton,
                                                  constraint))
                    self._reset_ids[key] = tuple(
                        network.global_clock(automaton, clock)
                        for clock in edge.resets)
            # Pre-resolved invariant ops per (automaton, location).
            self._loc_inv: List[Dict[str, tuple]] = []
            for automaton in automata:
                table = {}
                for name, location in automaton.locations.items():
                    table[name] = tuple(
                        op for constraint in location.invariant
                        for op in _constraint_ops(network, automaton,
                                                  constraint))
                self._loc_inv.append(table)
            # Per-NetworkState memos, filled lazily during exploration.
            self._state_inv: Dict[NetworkState, tuple] = {}
            self._steps: Dict[NetworkState, Tuple[ComposedStep, ...]] = {}
            self._urgent: Dict[NetworkState, bool] = {}
            # Successor memo: symbolic states are immutable once built,
            # so repeated checks on this checker walk cached edges
            # instead of redoing the DBM algebra.
            self._succ: Dict[Tuple[NetworkState, tuple], tuple] = {}

    # -- symbolic semantics ----------------------------------------------------

    def _apply_constraint(self, zone: DBM, automaton: TimedAutomaton,
                          constraint: ClockConstraint) -> None:
        """Reference path: intersect *zone* with one constraint via full
        re-canonicalization (``fast=False`` mode only)."""
        for i, j, bound in _constraint_ops(self.network, automaton,
                                           constraint):
            zone.constrain_full(i, j, bound)

    def _invariant_ops(self, state: NetworkState) -> tuple:
        ops = self._state_inv.get(state)
        if ops is None:
            parts = []
            for index, table in enumerate(self._loc_inv):
                parts.extend(table[state.location_of(index)])
            ops = tuple(parts)
            self._state_inv[state] = ops
        return ops

    def _apply_invariants(self, zone: DBM, state: NetworkState) -> None:
        if self._fast:
            for i, j, bound in self._invariant_ops(state):
                zone.constrain(i, j, bound)
        else:
            for automaton, constraint in self.network.invariants_at(state):
                self._apply_constraint(zone, automaton, constraint)

    def _steps_from(self, state: NetworkState) -> Tuple[ComposedStep, ...]:
        if not self._fast:
            return tuple(self.network.discrete_steps(state))
        steps = self._steps.get(state)
        if steps is None:
            steps = tuple(self.network.discrete_steps(state))
            self._steps[state] = steps
        return steps

    def _is_urgent(self, state: NetworkState) -> bool:
        if not self._fast:
            return self.network.is_urgent(state)
        urgent = self._urgent.get(state)
        if urgent is None:
            urgent = self.network.is_urgent(state)
            self._urgent[state] = urgent
        return urgent

    def _initial(self) -> Tuple[NetworkState, DBM]:
        state = self.network.initial_state()
        zone = DBM.zero(self.network.clock_count)
        if not self._is_urgent(state):
            zone.up()
        self._apply_invariants(zone, state)
        if self._fast:
            zone.extrapolate_fast(self._k)
        else:
            zone.extrapolate(self._k)
        return state, zone

    def _successors(self, state: NetworkState, zone: DBM
                    ) -> Iterable[Tuple[ComposedStep, NetworkState, DBM]]:
        if not self._fast:
            return self._compute_successors(state, zone)
        memo_key = (state, zone.key())
        cached = self._succ.get(memo_key)
        if cached is None:
            cached = tuple(self._compute_successors(state, zone))
            self._succ[memo_key] = cached
        return cached

    def _compute_successors(self, state: NetworkState, zone: DBM
                            ) -> Iterable[Tuple[ComposedStep, NetworkState,
                                                DBM]]:
        fast = self._fast
        for step in self._steps_from(state):
            successor = zone.copy()
            feasible = True
            for index, edge in step.edges:
                if fast:
                    for i, j, bound in self._guard_ops[(index, edge)]:
                        successor.constrain(i, j, bound)
                else:
                    automaton = self.network.automata[index]
                    for constraint in edge.guard:
                        self._apply_constraint(successor, automaton,
                                               constraint)
                if successor.is_empty():
                    feasible = False
                    break
            if not feasible:
                continue
            for index, edge in step.edges:
                if fast:
                    for clock_id in self._reset_ids[(index, edge)]:
                        successor.reset(clock_id)
                else:
                    automaton = self.network.automata[index]
                    for clock in edge.resets:
                        successor.reset(
                            self.network.global_clock(automaton, clock))
            self._apply_invariants(successor, step.target)
            if successor.is_empty():
                continue
            if not self._is_urgent(step.target):
                successor.up()
                self._apply_invariants(successor, step.target)
                if successor.is_empty():
                    continue
            if fast:
                successor.extrapolate_fast(self._k)
            else:
                successor.extrapolate(self._k)
            yield step, step.target, successor

    def _holds(self, formula: StateFormula, state: NetworkState,
               zone: DBM) -> bool:
        """Existential zone evaluation of a state formula."""
        return formula.evaluate(
            lambda atom: self._atom_holds(atom, state, zone))

    def _atom_holds(self, atom: Atom, state: NetworkState, zone: DBM) -> bool:
        if atom.is_deadlock:
            return not any(True for _ in self._successors(state, zone))
        if atom.is_location:
            index = self.network.automaton_index(atom.automaton)
            return state.location_of(index) == atom.location
        automaton = self.network.automata[
            self.network.automaton_index(atom.automaton)]
        constraint = atom.constraint
        i, j = self.network.constraint_indices(automaton, constraint)
        op, value = constraint.op, constraint.value
        if not self._fast:
            # Reference path: probe with full re-canonicalization.
            probe = zone.copy()
            for pi, pj, bound in _constraint_ops(self.network, automaton,
                                                 constraint):
                probe.constrain_full(pi, pj, bound)
            return not probe.is_empty()
        if op in ("<", "<="):
            return zone.intersects(i, j, encode(value, strict=(op == "<")))
        if op in (">", ">="):
            return zone.intersects(j, i, encode(-value, strict=(op == ">")))
        probe = zone.copy()
        probe.constrain(i, j, encode(value, strict=False))
        probe.constrain(j, i, encode(-value, strict=False))
        return not probe.is_empty()

    # -- exploration -------------------------------------------------------------

    def _explore(self) -> Iterable[Tuple[NetworkState, DBM, List[str]]]:
        """Lazily enumerate reachable symbolic states with witness paths.

        Inclusion-checking: a new zone subsumed by an already-stored
        zone at the same discrete state is pruned.  In fast mode each
        discrete state's zones live in a dict keyed by the zone's
        canonical hash key — repeat zones (the common case) prune in
        O(1) before the inclusion scan runs.
        """
        initial_state, initial_zone = self._initial()
        if self._fast:
            yield from self._explore_fast(initial_state, initial_zone)
            return
        stored: Dict[NetworkState, List[DBM]] = {
            initial_state: [initial_zone]}
        queue = deque([(initial_state, initial_zone, [])])
        yield initial_state, initial_zone, []
        while queue:
            state, zone, path = queue.popleft()
            for step, next_state, next_zone in self._successors(state, zone):
                existing = stored.setdefault(next_state, [])
                if any(old.includes(next_zone) for old in existing):
                    continue
                existing[:] = [old for old in existing
                               if not next_zone.includes(old)]
                existing.append(next_zone)
                next_path = path + [step.label]
                yield next_state, next_zone, next_path
                queue.append((next_state, next_zone, next_path))

    def _explore_fast(self, initial_state: NetworkState, initial_zone: DBM
                      ) -> Iterable[Tuple[NetworkState, DBM, List[str]]]:
        stored: Dict[NetworkState, Dict[tuple, DBM]] = {
            initial_state: {initial_zone.key(): initial_zone}}
        queue = deque([(initial_state, initial_zone, [])])
        yield initial_state, initial_zone, []
        while queue:
            state, zone, path = queue.popleft()
            for step, next_state, next_zone in self._successors(state, zone):
                bucket = stored.setdefault(next_state, {})
                zone_key = next_zone.key()
                if zone_key in bucket:
                    continue
                zones = bucket.values()
                if any(old.includes(next_zone) for old in zones):
                    continue
                subsumed = [key for key, old in bucket.items()
                            if next_zone.includes(old)]
                for key in subsumed:
                    del bucket[key]
                bucket[zone_key] = next_zone
                next_path = path + [step.label]
                yield next_state, next_zone, next_path
                queue.append((next_state, next_zone, next_path))

    # -- queries -----------------------------------------------------------------

    def reachable(self, formula: StateFormula) -> CheckResult:
        """``E<> φ``: is some φ-state reachable?"""
        explored = 0
        for state, zone, path in self._explore():
            explored += 1
            if self._holds(formula, state, zone):
                return CheckResult(True, f"E<> {formula}", explored, path)
        return CheckResult(False, f"E<> {formula}", explored)

    def invariantly(self, formula: StateFormula) -> CheckResult:
        """``A[] φ``: does φ hold in every reachable state?"""
        dual = self.reachable(formula.negate())
        return CheckResult(
            satisfied=not dual.satisfied,
            query=f"A[] {formula}",
            states_explored=dual.states_explored,
            witness=dual.witness,
        )

    def eventually_on_all_paths(self, formula: StateFormula) -> CheckResult:
        """``A<> φ``: every maximal path reaches a φ-state.

        Restricted to location-based formulas (asserted), where a zone
        state either satisfies φ or not, independent of valuation.
        """
        if not formula.location_only():
            raise ValueError(
                "A<> / E[] queries are restricted to location formulas"
            )
        violation, explored = self._find_phi_avoiding_run(formula)
        return CheckResult(
            satisfied=violation is None,
            query=f"A<> {formula}",
            states_explored=explored,
            witness=violation or [],
        )

    def possibly_always(self, formula: StateFormula) -> CheckResult:
        """``E[] φ``: some maximal path stays in φ forever."""
        dual = self.eventually_on_all_paths(formula.negate())
        return CheckResult(
            satisfied=not dual.satisfied,
            query=f"E[] {formula}",
            states_explored=dual.states_explored,
            witness=dual.witness,
        )

    def leads_to(self, premise: StateFormula, conclusion: StateFormula
                 ) -> CheckResult:
        """``premise --> conclusion``: AG (premise imply AF conclusion)."""
        if not (premise.location_only() and conclusion.location_only()):
            raise ValueError("leads-to is restricted to location formulas")
        explored = 0
        for state, zone, path in self._explore():
            explored += 1
            if not self._holds(premise, state, zone):
                continue
            run, run_explored = self._find_phi_avoiding_run(
                conclusion, root=(state, zone))
            explored += run_explored
            if run is not None:
                return CheckResult(
                    False, f"{premise} --> {conclusion}", explored,
                    witness=path + run)
        return CheckResult(True, f"{premise} --> {conclusion}", explored)

    def check(self, query: Query) -> CheckResult:
        """Dispatch a parsed :class:`~repro.ta.query.Query`."""
        if query.operator == "E<>":
            return self.reachable(query.formula)
        if query.operator == "A[]":
            return self.invariantly(query.formula)
        if query.operator == "A<>":
            return self.eventually_on_all_paths(query.formula)
        if query.operator == "E[]":
            return self.possibly_always(query.formula)
        if query.operator == "-->":
            return self.leads_to(query.formula, query.conclusion)
        raise ValueError(f"unsupported operator: {query.operator!r}")

    # -- liveness core -------------------------------------------------------------

    def _find_phi_avoiding_run(self, formula: StateFormula,
                               root: Optional[Tuple[NetworkState, DBM]] = None
                               ) -> Tuple[Optional[List[str]], int]:
        """Find a maximal run avoiding φ: a cycle or a deadlock inside
        the ¬φ-subgraph.  Returns its step labels (or None) and the
        number of symbolic states the search explored.
        """
        if root is None:
            root = self._initial()
        root_state, root_zone = root
        if self._holds(formula, root_state, root_zone):
            return None, 0
        if self._time_divergent(root_state, root_zone):
            return ["(time divergence)"], 0
        # Iterative DFS with an explicit on-stack set for cycle detection.
        Key = Tuple[NetworkState, tuple]
        root_key: Key = (root_state, root_zone.key())
        visited: Set[Key] = set()
        on_stack: Set[Key] = set()
        # Frames: (key, state, zone, successor iterator, labels-so-far).
        stack = [(root_key, root_state, root_zone,
                  iter(list(self._successors(root_state, root_zone))), [])]
        visited.add(root_key)
        on_stack.add(root_key)
        explored = 1
        while stack:
            key, state, zone, successors, labels = stack[-1]
            advanced = False
            for step, next_state, next_zone in successors:
                if self._holds(formula, next_state, next_zone):
                    continue  # this branch reaches φ at the next state
                if self._time_divergent(next_state, next_zone):
                    return (labels + [step.label, "(time divergence)"],
                            explored)
                next_key: Key = (next_state, next_zone.key())
                if next_key in on_stack:
                    return labels + [step.label, "(cycle)"], explored
                if next_key in visited:
                    continue
                visited.add(next_key)
                on_stack.add(next_key)
                explored += 1
                stack.append((
                    next_key, next_state, next_zone,
                    iter(list(self._successors(next_state, next_zone))),
                    labels + [step.label],
                ))
                advanced = True
                break
            if advanced:
                continue
            # All successors examined: deadlock check on the full graph.
            if not any(True for _ in self._successors(state, zone)):
                return labels + ["(deadlock)"], explored
            stack.pop()
            on_stack.discard(key)
        return None, explored

    def _time_divergent(self, state: NetworkState, zone: DBM) -> bool:
        """Can the system wait forever in *state*?

        True for a non-urgent state whose (delay-closed, invariant-
        intersected) zone leaves every clock unbounded above — nothing
        ever forces a transition, so staying put is a maximal run.
        Invariant bounds never exceed the extrapolation constant, so
        extrapolation cannot fake unboundedness here.
        """
        if self._is_urgent(state):
            return False
        n = zone.n
        if n == 0:
            return True  # no clocks: delay is always possible
        return all(zone.bound(i, 0) >= INF for i in range(1, n + 1))


class DiscreteTimeChecker:
    """Explicit-state integer-time engine (the E6 ablation baseline).

    Clocks take integer values capped at ``max_constant + 1`` (values
    beyond the cap are indistinguishable by any guard).  Supports
    reachability and safety; liveness is out of scope for the baseline.
    """

    def __init__(self, network: Network):
        self.network = network
        self._cap = network.max_constant() + 1

    def _satisfies(self, valuation: Tuple[int, ...],
                   automaton: TimedAutomaton,
                   constraint: ClockConstraint) -> bool:
        i, j = self.network.constraint_indices(automaton, constraint)
        left = valuation[i - 1]
        right = 0 if j == 0 else valuation[j - 1]
        difference = left - right
        op, value = constraint.op, constraint.value
        # Capped values saturate: treat cap as "anything >= cap".
        if left >= self._cap and constraint.right is None:
            difference = max(difference, self._cap)
        return {
            "<": difference < value,
            "<=": difference <= value,
            ">": difference > value,
            ">=": difference >= value,
            "==": difference == value,
        }[op]

    def _invariant_ok(self, state: NetworkState,
                      valuation: Tuple[int, ...]) -> bool:
        return all(
            self._satisfies(valuation, automaton, constraint)
            for automaton, constraint in self.network.invariants_at(state)
        )

    def _successors(self, state: NetworkState, valuation: Tuple[int, ...]
                    ) -> Iterable[Tuple[str, NetworkState, Tuple[int, ...]]]:
        # Delay by one tick.
        if not self.network.is_urgent(state):
            delayed = tuple(min(v + 1, self._cap) for v in valuation)
            if self._invariant_ok(state, delayed):
                yield "(delay)", state, delayed
        # Discrete steps.
        for step in self.network.discrete_steps(state):
            enabled = True
            for index, edge in step.edges:
                automaton = self.network.automata[index]
                if not all(self._satisfies(valuation, automaton, c)
                           for c in edge.guard):
                    enabled = False
                    break
            if not enabled:
                continue
            values = list(valuation)
            for index, edge in step.edges:
                automaton = self.network.automata[index]
                for clock in edge.resets:
                    values[self.network.global_clock(automaton, clock) - 1] = 0
            next_valuation = tuple(values)
            if not self._invariant_ok(step.target, next_valuation):
                continue
            yield step.label, step.target, next_valuation

    def _holds(self, formula: StateFormula, state: NetworkState,
               valuation: Tuple[int, ...]) -> bool:
        def atom_eval(atom: Atom) -> bool:
            if atom.is_deadlock:
                return self._is_deadlocked(state, valuation)
            if atom.is_location:
                index = self.network.automaton_index(atom.automaton)
                return state.location_of(index) == atom.location
            automaton = self.network.automata[
                self.network.automaton_index(atom.automaton)]
            return self._satisfies(valuation, automaton, atom.constraint)
        return formula.evaluate(atom_eval)

    def _is_deadlocked(self, state: NetworkState,
                       valuation: Tuple[int, ...]) -> bool:
        """UPPAAL deadlock: no discrete step enabled now or after any
        admissible delay from this valuation."""
        current = valuation
        for _ in range(self._cap + 1):
            if any(label != "(delay)"
                   for label, _, _ in self._successors(state, current)):
                return False
            delayed = tuple(min(v + 1, self._cap) for v in current)
            if delayed == current:
                break
            if self.network.is_urgent(state) or \
                    not self._invariant_ok(state, delayed):
                break
            current = delayed
        return True

    def reachable(self, formula: StateFormula) -> CheckResult:
        """``E<> φ`` by explicit-state BFS over integer time."""
        initial = (self.network.initial_state(),
                   tuple([0] * self.network.clock_count))
        visited = {initial}
        queue = deque([(initial, [])])
        explored = 0
        while queue:
            (state, valuation), path = queue.popleft()
            explored += 1
            if self._holds(formula, state, valuation):
                return CheckResult(True, f"E<> {formula}", explored, path)
            for label, next_state, next_valuation in self._successors(
                    state, valuation):
                key = (next_state, next_valuation)
                if key in visited:
                    continue
                visited.add(key)
                queue.append((key, path + [label]))
        return CheckResult(False, f"E<> {formula}", explored)

    def invariantly(self, formula: StateFormula) -> CheckResult:
        dual = self.reachable(formula.negate())
        return CheckResult(
            satisfied=not dual.satisfied,
            query=f"A[] {formula}",
            states_explored=dual.states_explored,
            witness=dual.witness,
        )
