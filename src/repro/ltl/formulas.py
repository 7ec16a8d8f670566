"""LTL formula AST with hash-consing (interning).

Every node is **interned**: constructing a node whose field values match
an already-built node returns the canonical instance, so structural
equality *is* object identity (``==`` degenerates to ``is``) and hashing
is the O(1) identity hash.  That makes obligations produced by formula
progression cheap to compare, deduplicate, and memoize — the substrate
the compiled monitor (:mod:`repro.ltl.compile`) builds its transition
tables on.

Interning also lets each node carry its derived data exactly once:
:meth:`Formula.atoms` is computed at construction (children are already
interned, so it is a union of cached child sets) and returned from a
cache thereafter.

Smart constructors (:func:`land`, :func:`lor`, :func:`lnot`,
:func:`implies`) perform constant folding; the class constructors build
raw (but still interned) nodes.  Progression builds its conjunctions
and disjunctions with :func:`conjoin` and :func:`disjoin`, which also
flatten, deduplicate and sort them, so a formula progresses to finitely
many obligations.  Temporal operators follow the usual
abbreviations: ``X`` next, ``U`` until (strong), ``W`` weak until,
``R`` release, ``F`` eventually, ``G`` globally.
"""

from dataclasses import dataclass
from typing import FrozenSet, Tuple, Union

_NO_ATOMS: FrozenSet[str] = frozenset()


class _InternMeta(type):
    """Hash-consing metaclass for formula nodes.

    Each concrete node class owns a construction cache keyed by its
    field values; instantiating the class first consults the cache.
    ``setdefault`` keeps the canonical-instance invariant even when two
    threads race to build the same node (SOC workers progress monitors
    concurrently).
    """

    def __new__(mcls, name, bases, namespace, **kwargs):
        cls = super().__new__(mcls, name, bases, namespace, **kwargs)
        cls._intern = {}
        return cls

    def __call__(cls, *args, **kwargs):
        if kwargs:  # normalize keyword construction onto field order
            args = args + tuple(kwargs[name]
                                for name in cls.__match_args__[len(args):])
        node = cls._intern.get(args)
        if node is None:
            fresh = super().__call__(*args)
            object.__setattr__(fresh, "_atoms", fresh._compute_atoms())
            node = cls._intern.setdefault(args, fresh)
        return node


class Formula(metaclass=_InternMeta):
    """Base class; all nodes render to the parser's concrete syntax.

    Nodes are interned (see :class:`_InternMeta`), immutable, and carry
    their atom set in ``_atoms`` from the moment of construction.
    """

    _atoms: FrozenSet[str] = _NO_ATOMS

    def atoms(self) -> FrozenSet[str]:
        """The atomic proposition names appearing in the formula.

        Computed once per interned node at construction; this accessor
        is an attribute read.
        """
        return self._atoms

    def _compute_atoms(self) -> FrozenSet[str]:
        atoms = _NO_ATOMS
        for child in self._children():
            atoms = atoms | child._atoms
        return atoms

    def _children(self) -> Tuple["Formula", ...]:
        return ()

    # Interning makes structural equality coincide with identity; the
    # inherited object ``__eq__``/``__hash__`` are exactly right (and
    # O(1)), so the dataclasses below are declared with ``eq=False``.

    # Operator sugar, so tests can write ``p >> q`` style combinations.

    def __and__(self, other: "Formula") -> "Formula":
        return land(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return lor(self, other)

    def __invert__(self) -> "Formula":
        return lnot(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        return implies(self, other)


@dataclass(frozen=True, eq=False)
class _Constant(Formula):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = _Constant(True)
FALSE = _Constant(False)


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    """Atomic proposition, true on a step when its name is in the step's
    proposition set."""

    name: str

    def _compute_atoms(self) -> FrozenSet[str]:
        return frozenset((self.name,))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class Not(Formula):
    operand: Formula

    def _children(self):
        return (self.operand,)

    def __str__(self) -> str:
        return f"!({self.operand})"


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula

    def _children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula

    def _children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula

    def _children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} -> {self.right})"


@dataclass(frozen=True, eq=False)
class Next(Formula):
    operand: Formula

    def _children(self):
        return (self.operand,)

    def __str__(self) -> str:
        return f"X ({self.operand})"


@dataclass(frozen=True, eq=False)
class Until(Formula):
    left: Formula
    right: Formula

    def _children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} U {self.right})"


@dataclass(frozen=True, eq=False)
class WeakUntil(Formula):
    left: Formula
    right: Formula

    def _children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} W {self.right})"


@dataclass(frozen=True, eq=False)
class Release(Formula):
    left: Formula
    right: Formula

    def _children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} R {self.right})"


@dataclass(frozen=True, eq=False)
class Eventually(Formula):
    operand: Formula

    def _children(self):
        return (self.operand,)

    def __str__(self) -> str:
        return f"F ({self.operand})"


@dataclass(frozen=True, eq=False)
class Globally(Formula):
    operand: Formula

    def _children(self):
        return (self.operand,)

    def __str__(self) -> str:
        return f"G ({self.operand})"


# -- smart constructors (constant folding) -------------------------------------

def lnot(operand: Formula) -> Formula:
    """Negation with folding (double negation, constants)."""
    if operand is TRUE:
        return FALSE
    if operand is FALSE:
        return TRUE
    if isinstance(operand, Not):
        return operand.operand
    return Not(operand)


def land(left: Formula, right: Formula) -> Formula:
    """Conjunction with unit/absorbing-element and idempotence folding."""
    if left is FALSE or right is FALSE:
        return FALSE
    if left is TRUE:
        return right
    if right is TRUE:
        return left
    if left is right:
        return left
    return And(left, right)


def lor(left: Formula, right: Formula) -> Formula:
    """Disjunction with unit/absorbing-element and idempotence folding."""
    if left is TRUE or right is TRUE:
        return TRUE
    if left is FALSE:
        return right
    if right is FALSE:
        return left
    if left is right:
        return left
    return Or(left, right)


def _sort_key(node: Formula) -> str:
    """A node's rendered text, cached on the interned node: an order
    on formulas that no process-local state (ids, hash seeds) enters."""
    key = node.__dict__.get("_sort_key")
    if key is None:
        key = str(node)
        object.__setattr__(node, "_sort_key", key)
    return key


def _flat(cls, left: Formula, right: Formula, unit: Formula,
          zero: Formula) -> Formula:
    """The ``cls`` (``And`` or ``Or``) of *left* and *right* in normal
    form: nested ``cls`` nodes flattened, constants folded, repeated
    parts dropped (by identity), the parts sorted by :func:`_sort_key`
    and rebuilt right-nested."""
    if left is zero or right is zero:
        return zero
    if left is unit:
        return right
    if right is unit or left is right:
        return left
    parts = {}
    for operand in (left, right):
        stack = [operand]
        while stack:
            node = stack.pop()
            if type(node) is cls:
                stack.append(node.right)
                stack.append(node.left)
            else:
                parts[node] = None
    ordered = sorted(parts, key=_sort_key)
    result = ordered[-1]
    for part in reversed(ordered[:-1]):
        result = cls(part, result)
    return result


def conjoin(left: Formula, right: Formula) -> Formula:
    """Conjunction in normal form — what progression builds.

    :func:`land` keeps the operands as written, so a pending
    obligation that progression re-conjoins with a copy of itself
    would nest one level deeper on every repeat of its trigger.  Here
    the conjunction is flattened, deduplicated and sorted, so every
    obligation a formula can progress to is drawn from a finite set."""
    return _flat(And, left, right, TRUE, FALSE)


def disjoin(left: Formula, right: Formula) -> Formula:
    """Disjunction in normal form (see :func:`conjoin`)."""
    return _flat(Or, left, right, FALSE, TRUE)


def implies(left: Formula, right: Formula) -> Formula:
    """Implication via folding: ``a -> b`` behaves as ``!a | b``."""
    if left is FALSE or right is TRUE:
        return TRUE
    if left is TRUE:
        return right
    if right is FALSE:
        return lnot(left)
    return Implies(left, right)


#: A step of a trace: the set of atomic propositions true at that step.
Step = Union[FrozenSet[str], set]


def as_step(propositions) -> FrozenSet[str]:
    """Normalize any iterable of proposition names into a step."""
    if type(propositions) is frozenset:
        return propositions
    return frozenset(propositions)
