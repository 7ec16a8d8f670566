"""TCTL query language for the zone-graph checker.

Query forms (UPPAAL surface syntax)::

    E<> expr      -- reachability
    A[] expr      -- safety
    A<> expr      -- liveness (location formulas only)
    E[] expr      -- possibly-always (location formulas only)
    expr --> expr -- leads-to (location formulas only)

Expressions combine atoms with ``not``/``!``, ``and``/``&``,
``or``/``|`` and parentheses.  Atoms are either locations
(``Observer.err``) or clock constraints (``Observer.x <= 5``); the
checker decides clock atoms existentially over a zone.
"""

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.ta.automaton import ClockConstraint


@dataclass(frozen=True)
class Atom:
    """A state-formula atom.

    Location atom: ``automaton`` + ``location``; clock atom:
    ``automaton`` + ``constraint`` (over the automaton's local clock
    names); the special atom ``deadlock`` (automaton ``""``) holds in
    states with no discrete successor — UPPAAL's sanity-check atom.
    """

    automaton: str
    location: Optional[str] = None
    constraint: Optional[ClockConstraint] = None

    def __post_init__(self):
        if self.is_deadlock:
            if self.location is not None or self.constraint is not None:
                raise ValueError("deadlock atom carries no operands")
            return
        if (self.location is None) == (self.constraint is None):
            raise ValueError("atom must be a location XOR a constraint")

    @property
    def is_deadlock(self) -> bool:
        return self.automaton == ""

    @property
    def is_location(self) -> bool:
        return self.location is not None

    def __str__(self) -> str:
        if self.is_deadlock:
            return "deadlock"
        if self.is_location:
            return f"{self.automaton}.{self.location}"
        return f"{self.automaton}.{self.constraint}"


#: The singleton deadlock atom.
DEADLOCK = Atom(automaton="")


_NEGATED_OP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}


class StateFormula:
    """Boolean combination of atoms in negation normal form.

    ``kind`` is one of ``"atom"``, ``"natom"`` (negated atom), ``"and"``,
    ``"or"``.  Negation is applied structurally (:meth:`negate`), so the
    checker only ever evaluates positive/negative literals.
    """

    __slots__ = ("kind", "atom", "left", "right")

    def __init__(self, kind: str, atom: Optional[Atom] = None,
                 left: Optional["StateFormula"] = None,
                 right: Optional["StateFormula"] = None):
        self.kind = kind
        self.atom = atom
        self.left = left
        self.right = right

    @classmethod
    def of(cls, atom: Atom) -> "StateFormula":
        return cls("atom", atom=atom)

    @classmethod
    def conj(cls, left: "StateFormula", right: "StateFormula") -> "StateFormula":
        return cls("and", left=left, right=right)

    @classmethod
    def disj(cls, left: "StateFormula", right: "StateFormula") -> "StateFormula":
        return cls("or", left=left, right=right)

    def negate(self) -> "StateFormula":
        """Structural negation (NNF push-down).

        A negated clock atom flips the comparison operator; a negated
        equality becomes a disjunction of strict inequalities.
        """
        if self.kind == "atom":
            atom = self.atom
            if atom.is_location or atom.is_deadlock:
                return StateFormula("natom", atom=atom)
            constraint = atom.constraint
            if constraint.op == "==":
                below = Atom(atom.automaton, constraint=ClockConstraint(
                    constraint.left, "<", constraint.value, constraint.right))
                above = Atom(atom.automaton, constraint=ClockConstraint(
                    constraint.left, ">", constraint.value, constraint.right))
                return StateFormula.disj(StateFormula.of(below),
                                         StateFormula.of(above))
            flipped = ClockConstraint(
                constraint.left, _NEGATED_OP[constraint.op],
                constraint.value, constraint.right)
            return StateFormula.of(Atom(atom.automaton, constraint=flipped))
        if self.kind == "natom":
            return StateFormula("atom", atom=self.atom)
        if self.kind == "and":
            return StateFormula.disj(self.left.negate(), self.right.negate())
        return StateFormula.conj(self.left.negate(), self.right.negate())

    def evaluate(self, atom_eval: Callable[[Atom], bool]) -> bool:
        """Evaluate with *atom_eval* deciding positive atoms."""
        if self.kind == "atom":
            return atom_eval(self.atom)
        if self.kind == "natom":
            return not atom_eval(self.atom)
        if self.kind == "and":
            return (self.left.evaluate(atom_eval)
                    and self.right.evaluate(atom_eval))
        return (self.left.evaluate(atom_eval)
                or self.right.evaluate(atom_eval))

    def atoms(self) -> Iterator[Atom]:
        """Every atom of the formula, positive or negated."""
        if self.kind in ("atom", "natom"):
            yield self.atom
        else:
            yield from self.left.atoms()
            yield from self.right.atoms()

    def location_only(self) -> bool:
        """True when no clock atoms appear (liveness-safe)."""
        if self.kind in ("atom", "natom"):
            return self.atom.is_location or self.atom.is_deadlock
        return self.left.location_only() and self.right.location_only()

    def __str__(self) -> str:
        if self.kind == "atom":
            return str(self.atom)
        if self.kind == "natom":
            return f"not {self.atom}"
        connective = "and" if self.kind == "and" else "or"
        return f"({self.left} {connective} {self.right})"


@dataclass(frozen=True)
class Query:
    """A parsed query: an operator plus its formula(s)."""

    operator: str  # "E<>", "A[]", "A<>", "E[]", "-->"
    formula: StateFormula
    conclusion: Optional[StateFormula] = None

    def __str__(self) -> str:
        if self.operator == "-->":
            return f"{self.formula} --> {self.conclusion}"
        return f"{self.operator} {self.formula}"


_TOKEN = re.compile(
    r"\s*(?:(?P<op>\(|\)|!|&{1,2}|\|{1,2})"
    r"|(?P<cmp><=|>=|==|<|>)"
    r"|(?P<num>-?\d+)"
    r"|(?P<word>[A-Za-z_][\w.]*))"
)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = []
        position = 0
        while position < len(text):
            match = _TOKEN.match(text, position)
            if match is None:
                if text[position:].strip():
                    raise ValueError(
                        f"bad query syntax near {text[position:]!r}")
                break
            for kind in ("op", "cmp", "num", "word"):
                value = match.group(kind)
                if value is not None:
                    self.items.append((kind, value))
                    break
            position = match.end()
        self.index = 0

    def peek(self):
        return self.items[self.index] if self.index < len(self.items) else None

    def next(self):
        item = self.peek()
        if item is None:
            raise ValueError(f"unexpected end of query: {self.text!r}")
        self.index += 1
        return item

    def accept_word(self, *words) -> Optional[str]:
        item = self.peek()
        if item is not None and item[0] == "word" and item[1] in words:
            self.index += 1
            return item[1]
        return None

    def accept_op(self, *ops) -> Optional[str]:
        item = self.peek()
        if item is not None and item[0] == "op" and item[1] in ops:
            self.index += 1
            return item[1]
        return None


def parse_query(text: str) -> Query:
    """Parse a full query string into a :class:`Query`."""
    stripped = text.strip()
    for operator in ("E<>", "A[]", "A<>", "E[]"):
        if stripped.startswith(operator):
            formula = parse_state_formula(stripped[len(operator):])
            return Query(operator=operator, formula=formula)
    if "-->" in stripped:
        premise_text, _, conclusion_text = stripped.partition("-->")
        return Query(
            operator="-->",
            formula=parse_state_formula(premise_text),
            conclusion=parse_state_formula(conclusion_text),
        )
    raise ValueError(f"query must start with E<>, A[], A<>, E[] "
                     f"or contain -->: {text!r}")


def parse_state_formula(text: str) -> StateFormula:
    """Parse a bare state formula (no path operator)."""
    tokens = _Tokens(text)
    formula = _parse_or(tokens)
    if tokens.peek() is not None:
        raise ValueError(f"trailing tokens in formula: {text!r}")
    return formula


def _parse_or(tokens: _Tokens) -> StateFormula:
    left = _parse_and(tokens)
    while tokens.accept_op("|", "||") or tokens.accept_word("or"):
        left = StateFormula.disj(left, _parse_and(tokens))
    return left


def _parse_and(tokens: _Tokens) -> StateFormula:
    left = _parse_unary(tokens)
    while tokens.accept_op("&", "&&") or tokens.accept_word("and"):
        left = StateFormula.conj(left, _parse_unary(tokens))
    return left


def _parse_unary(tokens: _Tokens) -> StateFormula:
    if tokens.accept_op("!") or tokens.accept_word("not"):
        return _parse_unary(tokens).negate()
    if tokens.accept_op("("):
        inner = _parse_or(tokens)
        if not tokens.accept_op(")"):
            raise ValueError("missing closing parenthesis in query")
        return inner
    return _parse_atom(tokens)


def _parse_atom(tokens: _Tokens) -> StateFormula:
    kind, value = tokens.next()
    if kind == "word" and value == "deadlock":
        return StateFormula.of(DEADLOCK)
    if kind != "word" or "." not in value:
        raise ValueError(
            f"expected Automaton.location, Automaton.clock or deadlock "
            f"atom, got {value!r}")
    automaton, _, member = value.partition(".")
    item = tokens.peek()
    if item is not None and item[0] == "cmp":
        op = tokens.next()[1]
        number_kind, number = tokens.next()
        if number_kind != "num":
            raise ValueError(f"expected integer after {op!r}, got {number!r}")
        constraint = ClockConstraint(member, op, int(number))
        return StateFormula.of(Atom(automaton, constraint=constraint))
    return StateFormula.of(Atom(automaton, location=member))
