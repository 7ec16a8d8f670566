"""Difference Bound Matrices — the zone algebra under the model checker.

A zone over clocks ``x1..xn`` is a conjunction of constraints
``xi - xj ≺ c`` with ``≺ ∈ {<, ≤}``; index 0 is the constant-zero
reference clock.  Bounds are encoded as single integers so comparison
and addition are primitive operations:

    encode(c, strict)  =  2c      for  "< c"
    encode(c, strict)  =  2c + 1  for  "≤ c"

With this encoding a *smaller* integer is a *tighter* bound, and bound
addition is ``b1 + b2 - ((b1 & 1) & (b2 & 1) ... )`` — implemented in
:func:`bound_add`.  ``INF`` is a sentinel larger than any finite bound.

The operations are the textbook set (Bengtsson & Yi, "Timed Automata:
Semantics, Algorithms and Tools"): canonicalization (Floyd-Warshall),
emptiness, ``up`` (delay), ``reset``, ``free`` (forget a clock),
``constrain`` (guard intersection), inclusion, difference, and
max-constant extrapolation for zone-graph termination.

Storage is a single flat list of ``(n+1)²`` encoded bounds in row-major
order (``m[i*(n+1)+j]`` is the bound on ``xi - xj``): one allocation
per zone, cache-friendly scans, and ``copy``/``key``/``includes`` become
single C-level list operations.  :meth:`DBM.constrain` re-closes
incrementally in O(n²) (every shortest path changed by tightening one
entry passes through that entry); :meth:`DBM.canonicalize_after` is the
single-pivot re-closure used after ``down``.  Full Floyd-Warshall
remains available as :meth:`DBM.canonicalize` / :meth:`DBM
.constrain_full` — the reference implementations the randomized
regression tests (and the E15 baseline mode) compare against.
"""

from typing import List, Optional, Sequence, Tuple, Union

#: Infinity sentinel; must exceed any encoded finite bound we produce.
INF = 2 ** 40

#: Encoded "≤ 0": the tightest bound a canonical diagonal may carry.
LE_ZERO = 1


def encode(value: int, strict: bool) -> int:
    """Encode the bound ``≺ value`` (``<`` when *strict*) as an integer."""
    return 2 * value + (0 if strict else 1)


def decode(bound: int) -> Tuple[int, bool]:
    """Inverse of :func:`encode`: returns ``(value, strict)``."""
    if bound >= INF:
        raise ValueError("cannot decode the infinity sentinel")
    strict = (bound & 1) == 0
    return (bound - (0 if strict else 1)) // 2, strict


def bound_add(b1: int, b2: int) -> int:
    """Tightest bound implied by chaining two difference bounds."""
    if b1 >= INF or b2 >= INF:
        return INF
    # (c1, ≤) + (c2, ≤) = (c1+c2, ≤); any strict operand makes it strict.
    return 2 * ((b1 >> 1) + (b2 >> 1)) + (b1 & b2 & 1)


def bound_str(bound: int) -> str:
    if bound >= INF:
        return "<inf"
    value, strict = decode(bound)
    return f"{'<' if strict else '<='}{value}"


class DBM:
    """A canonical difference bound matrix over *n* clocks.

    ``m`` is the flat row-major bound list; ``m[i*(n+1)+j]`` carries the
    encoded bound on ``xi - xj``.  All mutating operations keep the
    matrix canonical (shortest-path closed) — emptied zones are the one
    exception: once a diagonal goes negative the remaining entries are
    unspecified (but never loosen), so ``is_empty`` stays truthful.
    """

    __slots__ = ("n", "dim", "m")

    def __init__(self, n: int,
                 matrix: Optional[Union[Sequence[int],
                                        Sequence[List[int]]]] = None):
        self.n = n
        self.dim = n + 1
        if matrix is None:
            # The zero zone: every clock equal to 0.
            self.m = [LE_ZERO] * (self.dim * self.dim)
        elif matrix and isinstance(matrix[0], (list, tuple)):
            self.m = [bound for row in matrix for bound in row]
        else:
            self.m = list(matrix)
        if len(self.m) != self.dim * self.dim:
            raise ValueError(
                f"DBM over {n} clocks needs {self.dim * self.dim} bounds, "
                f"got {len(self.m)}")

    # -- construction ---------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "DBM":
        """All clocks exactly zero (the initial valuation)."""
        return cls(n)

    @classmethod
    def unconstrained(cls, n: int) -> "DBM":
        """All clock valuations with non-negative clocks."""
        zone = cls(n)
        dim = zone.dim
        for i in range(1, dim):
            base = i * dim
            for j in range(dim):
                if i != j:
                    zone.m[base + j] = INF
        return zone

    def copy(self) -> "DBM":
        clone = DBM.__new__(DBM)
        clone.n = self.n
        clone.dim = self.dim
        clone.m = self.m[:]
        return clone

    def bound(self, i: int, j: int) -> int:
        """The encoded bound on ``xi - xj``."""
        return self.m[i * self.dim + j]

    def rows(self) -> List[List[int]]:
        """The matrix as nested rows (debugging / interop)."""
        dim = self.dim
        return [self.m[i * dim:(i + 1) * dim] for i in range(dim)]

    # -- canonical form and emptiness ------------------------------------------

    def canonicalize(self) -> "DBM":
        """Full Floyd-Warshall closure; returns self for chaining."""
        dim = self.dim
        m = self.m
        for k in range(dim):
            kbase = k * dim
            for i in range(dim):
                ik = m[i * dim + k]
                if ik >= INF:
                    continue
                base = i * dim
                for j in range(dim):
                    kj = m[kbase + j]
                    if kj >= INF:
                        continue
                    candidate = 2 * ((ik >> 1) + (kj >> 1)) + (ik & kj & 1)
                    if candidate < m[base + j]:
                        m[base + j] = candidate
        return self

    def canonicalize_after(self, clock: int) -> "DBM":
        """Single-pivot re-closure: one Floyd-Warshall pass with
        ``k = clock``.

        Sufficient to restore canonical form when only row/column
        *clock* changed on an otherwise-canonical matrix (every newly
        shortened path pivots through *clock*); O(n²) instead of the
        full O(n³) closure.
        """
        dim = self.dim
        m = self.m
        kbase = clock * dim
        for i in range(dim):
            ik = m[i * dim + clock]
            if ik >= INF:
                continue
            base = i * dim
            for j in range(dim):
                kj = m[kbase + j]
                if kj >= INF:
                    continue
                candidate = 2 * ((ik >> 1) + (kj >> 1)) + (ik & kj & 1)
                if candidate < m[base + j]:
                    m[base + j] = candidate
        return self

    def is_empty(self) -> bool:
        """A canonical DBM is empty iff some diagonal entry tightened
        below ``≤ 0`` (a negative cycle)."""
        m = self.m
        step = self.dim + 1
        return any(m[i] < LE_ZERO for i in range(0, len(m), step))

    # -- operations -------------------------------------------------------------

    def up(self) -> "DBM":
        """Delay: remove upper bounds (future closure).  Stays canonical."""
        dim = self.dim
        for i in range(1, dim):
            self.m[i * dim] = INF
        return self

    def down(self) -> "DBM":
        """Past closure: remove lower bounds, re-close through clock 0."""
        dim = self.dim
        m = self.m
        for j in range(1, dim):
            lowest = LE_ZERO
            for i in range(1, dim):
                candidate = m[i * dim + j]
                if candidate < lowest:
                    lowest = candidate
            m[j] = lowest
        # Only row 0 changed: a single pass pivoting on clock 0 restores
        # closure (checked against full Floyd-Warshall by the randomized
        # regression suite).
        return self.canonicalize_after(0)

    def reset(self, clock: int) -> "DBM":
        """Set clock *clock* (1-based) to zero.  Stays canonical."""
        dim = self.dim
        m = self.m
        base = clock * dim
        for j in range(dim):
            m[base + j] = m[j]                    # row 0 -> row clock
            m[j * dim + clock] = m[j * dim]       # column 0 -> column clock
        m[base + clock] = LE_ZERO
        return self

    def free(self, clock: int) -> "DBM":
        """Forget clock *clock* (1-based): drop every constraint on it
        but ``clock >= 0`` (UDBM's ``freeClock``).  Stays canonical.

        The row becomes infinite and the column copies column 0, since
        the tightest bound on ``xi - clock`` left is ``xi``'s own upper
        bound.  The zone checker frees clocks that are inactive at a
        location, so they carry no upper bound for extrapolation to
        relax.
        """
        dim = self.dim
        m = self.m
        base = clock * dim
        for j in range(dim):
            m[base + j] = INF                     # row clock -> INF
            m[j * dim + clock] = m[j * dim]       # column 0 -> column clock
        m[base + clock] = LE_ZERO
        return self

    def constrain(self, i: int, j: int, bound: int) -> "DBM":
        """Intersect with ``xi - xj ≺ c`` (encoded *bound*); re-close
        incrementally.

        Tightening one entry of a canonical matrix only shortens paths
        that traverse the ``i -> j`` edge, so one O(n²) pass over
        ``p -> i -> j -> q`` chains restores canonical form (Bengtsson &
        Yi).  When the reverse bound closes a negative cycle the zone is
        empty: the diagonal records it and the re-closure is skipped.
        """
        dim = self.dim
        m = self.m
        pos = i * dim + j
        if bound >= m[pos]:
            return self
        reverse = m[j * dim + i]
        if reverse < INF:
            cycle = 2 * ((bound >> 1) + (reverse >> 1)) + (bound & reverse & 1)
            if cycle < LE_ZERO:
                m[pos] = bound
                m[i * dim + i] = cycle
                return self
        m[pos] = bound
        jbase = j * dim
        for p in range(dim):
            pbase = p * dim
            pi = m[pbase + i]
            if pi >= INF:
                continue
            head = 2 * ((pi >> 1) + (bound >> 1)) + (pi & bound & 1)
            for q in range(dim):
                jq = m[jbase + q]
                if jq >= INF:
                    continue
                candidate = 2 * ((head >> 1) + (jq >> 1)) + (head & jq & 1)
                if candidate < m[pbase + q]:
                    m[pbase + q] = candidate
        return self

    def constrain_full(self, i: int, j: int, bound: int) -> "DBM":
        """Reference intersection: tighten then run full Floyd-Warshall.

        Semantically identical to :meth:`constrain`; kept as the
        regression baseline and for the E15 ablation's unoptimized mode.
        """
        pos = i * self.dim + j
        if bound < self.m[pos]:
            self.m[pos] = bound
            self.canonicalize()
        return self

    def satisfies(self, i: int, j: int, bound: int) -> bool:
        """Does every valuation in the zone satisfy ``xi - xj ≺ c``?

        True iff adding the *negated* constraint empties the zone.
        The negation of ``xi - xj ≺ c`` is ``xj - xi ≺' -c`` with
        flipped strictness.
        """
        value, strict = decode(bound)
        negated = encode(-value, not strict)
        probe = self.copy().constrain(j, i, negated)
        return probe.is_empty()

    def intersects(self, i: int, j: int, bound: int) -> bool:
        """Does some valuation in the zone satisfy ``xi - xj ≺ c``?"""
        probe = self.copy().constrain(i, j, bound)
        return not probe.is_empty()

    def intersect(self, other: "DBM") -> "DBM":
        """Intersect with zone *other* (same clocks); stays canonical."""
        dim = self.dim
        m = self.m
        for pos, bound in enumerate(other.m):
            if bound < m[pos] and pos % (dim + 1):
                self.constrain(pos // dim, pos % dim, bound)
        return self

    def subtract(self, other: "DBM") -> List["DBM"]:
        """Zone difference ``self - other`` as a list of disjoint
        canonical zones (empty when *other* covers self).

        Peels off one constraint of *other* at a time: the piece of the
        remainder violating it is kept, the remainder is narrowed to
        satisfy it, and what is left at the end lies inside *other*.
        """
        if other.is_empty():
            return [self.copy()]
        dim = self.dim
        pieces = []
        rest = self.copy()
        for i in range(dim):
            for j in range(dim):
                bound = other.m[i * dim + j]
                if i == j or bound >= rest.m[i * dim + j]:
                    continue
                value, strict = decode(bound)
                piece = rest.copy().constrain(j, i,
                                              encode(-value, not strict))
                if not piece.is_empty():
                    pieces.append(piece)
                rest.constrain(i, j, bound)
                if rest.is_empty():
                    return pieces
        return pieces

    def includes(self, other: "DBM") -> bool:
        """Zone inclusion: every valuation of *other* is in self."""
        return all(theirs <= ours
                   for ours, theirs in zip(self.m, other.m))

    def extrapolate(self, max_constant: int) -> "DBM":
        """Classic max-constant (k) extrapolation for termination.

        Bounds above ``≤ k`` become infinite; lower bounds tighter than
        ``< -k`` relax to ``< -k``.  Re-canonicalizes when changed —
        relaxations can break closure in ways no single pivot repairs,
        so this stays on the full Floyd-Warshall.
        """
        k_upper = encode(max_constant, strict=False)   # ≤ k
        k_lower = encode(-max_constant, strict=True)   # < -k
        dim = self.dim
        m = self.m
        changed = False
        for i in range(dim):
            base = i * dim
            for j in range(dim):
                if i == j:
                    continue
                bound = m[base + j]
                if bound >= INF:
                    continue
                if bound > k_upper:
                    m[base + j] = INF
                    changed = True
                elif bound < k_lower:
                    m[base + j] = k_lower
                    changed = True
        if changed:
            self.canonicalize()
        return self

    def extrapolate_fast(self, max_constant: int) -> "DBM":
        """Max-constant extrapolation with targeted re-closure.

        Semantically identical to :meth:`extrapolate` on a canonical
        non-empty DBM, but repairs closure without full Floyd-Warshall.
        Relaxing entries of a closed matrix cannot change any
        *non-relaxed* entry's shortest path (all weights only grew, and
        the stored entry is itself an edge achieving the old distance),
        so only the relaxed entries need repair: iterate
        ``m[i][j] = min_k m[i][k] + m[k][j]`` over the relaxed set to a
        fixpoint.  The fixpoint satisfies the full triangle inequality
        and upper-bounds true closure, hence equals it; typically one or
        two O(|relaxed|·n) passes against O(n³) for the full closure.
        """
        k_upper = encode(max_constant, strict=False)   # ≤ k
        k_lower = encode(-max_constant, strict=True)   # < -k
        dim = self.dim
        m = self.m
        relaxed = []
        for i in range(dim):
            base = i * dim
            for j in range(dim):
                if i == j:
                    continue
                bound = m[base + j]
                if bound >= INF:
                    continue
                if bound > k_upper:
                    m[base + j] = INF
                    relaxed.append((i, j))
                elif bound < k_lower:
                    m[base + j] = k_lower
                    relaxed.append((i, j))
        if not relaxed:
            return self
        if len(relaxed) > dim:
            # Dense relaxation: the per-entry repair does as much work
            # as Floyd-Warshall with INF-row skips; use the full pass.
            return self.canonicalize()
        changed = True
        while changed:
            changed = False
            for i, j in relaxed:
                base = i * dim
                best = m[base + j]
                for k in range(dim):
                    ik = m[base + k]
                    if ik >= INF:
                        continue
                    kj = m[k * dim + j]
                    if kj >= INF:
                        continue
                    candidate = 2 * ((ik >> 1) + (kj >> 1)) + (ik & kj & 1)
                    if candidate < best:
                        best = candidate
                if best < m[base + j]:
                    m[base + j] = best
                    changed = True
        return self

    # -- interop -----------------------------------------------------------------

    def key(self) -> Tuple[int, ...]:
        """Hashable canonical representation for visited-state sets."""
        return tuple(self.m)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DBM) and self.n == other.n and self.m == other.m

    def __hash__(self) -> int:
        return hash(tuple(self.m))

    def __repr__(self) -> str:
        rows = []
        for row in self.rows():
            rows.append(" ".join(f"{bound_str(b):>6}" for b in row))
        return "DBM(\n  " + "\n  ".join(rows) + "\n)"
