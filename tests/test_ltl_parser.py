"""Unit tests for the LTL parser and formula AST."""

import pytest

from repro.ltl import (
    And,
    Atom,
    Eventually,
    FALSE,
    Globally,
    Implies,
    LtlParseError,
    Next,
    Not,
    Or,
    Release,
    TRUE,
    Until,
    WeakUntil,
    parse_ltl,
)
from repro.ltl.formulas import implies, land, lnot, lor


class TestParser:
    def test_atom(self):
        assert parse_ltl("p") == Atom("p")

    def test_dotted_atom(self):
        assert parse_ltl("package.removed") == Atom("package.removed")

    def test_constants(self):
        assert parse_ltl("true") is TRUE
        assert parse_ltl("false") is FALSE

    def test_unary_operators(self):
        assert parse_ltl("!p") == Not(Atom("p"))
        assert parse_ltl("X p") == Next(Atom("p"))
        assert parse_ltl("F p") == Eventually(Atom("p"))
        assert parse_ltl("G p") == Globally(Atom("p"))

    def test_binary_operators(self):
        assert parse_ltl("p U q") == Until(Atom("p"), Atom("q"))
        assert parse_ltl("p W q") == WeakUntil(Atom("p"), Atom("q"))
        assert parse_ltl("p R q") == Release(Atom("p"), Atom("q"))

    def test_precedence_and_binds_tighter_than_or(self):
        assert parse_ltl("a & b | c") == Or(And(Atom("a"), Atom("b")),
                                            Atom("c"))

    def test_implication_is_loosest_and_right_assoc(self):
        formula = parse_ltl("a -> b -> c")
        assert formula == Implies(Atom("a"), Implies(Atom("b"), Atom("c")))

    def test_until_right_associative(self):
        assert parse_ltl("a U b U c") == Until(Atom("a"),
                                               Until(Atom("b"), Atom("c")))

    def test_parentheses(self):
        assert parse_ltl("(a | b) & c") == And(Or(Atom("a"), Atom("b")),
                                               Atom("c"))

    def test_nested_temporal(self):
        formula = parse_ltl("G (request -> F response)")
        assert formula == Globally(Implies(Atom("request"),
                                           Eventually(Atom("response"))))

    def test_round_trip_through_str(self):
        for text in ("G (a -> F b)", "p U (q & r)", "!a | X b",
                     "(a W b) R c"):
            formula = parse_ltl(text)
            assert parse_ltl(str(formula)) == formula

    @pytest.mark.parametrize("bad", ["", "&", "p &", "(p", "p )q", "U p",
                                     "p @ q"])
    def test_malformed_raises(self, bad):
        with pytest.raises(LtlParseError):
            parse_ltl(bad)


class TestParseMemo:
    def test_repeated_parse_returns_the_same_object(self):
        text = "G (login.failed -> F account.locked)"
        assert parse_ltl(text) is parse_ltl(text)

    def test_repeat_is_served_from_the_memo(self):
        text = "G !memo.probe.hit"
        parse_ltl(text)
        hits = parse_ltl.cache_info().hits
        parse_ltl(text)
        assert parse_ltl.cache_info().hits >= hits + 1

    def test_malformed_text_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(LtlParseError):
                parse_ltl("G (p & q")
        for _ in range(2):
            with pytest.raises(LtlParseError):
                parse_ltl("p q")

    def test_memo_is_bounded(self):
        maxsize = parse_ltl.cache_info().maxsize
        assert maxsize is not None and maxsize > 0


class TestSmartConstructors:
    def test_not_folding(self):
        assert lnot(TRUE) is FALSE
        assert lnot(FALSE) is TRUE
        assert lnot(lnot(Atom("p"))) == Atom("p")

    def test_and_folding(self):
        p = Atom("p")
        assert land(TRUE, p) == p
        assert land(p, TRUE) == p
        assert land(FALSE, p) is FALSE
        assert land(p, p) == p

    def test_or_folding(self):
        p = Atom("p")
        assert lor(FALSE, p) == p
        assert lor(TRUE, p) is TRUE
        assert lor(p, p) == p

    def test_implies_folding(self):
        p = Atom("p")
        assert implies(FALSE, p) is TRUE
        assert implies(TRUE, p) == p
        assert implies(p, FALSE) == Not(p)
        assert implies(p, TRUE) is TRUE

    def test_operator_sugar(self):
        p, q = Atom("p"), Atom("q")
        assert (p & q) == And(p, q)
        assert (p | q) == Or(p, q)
        assert (~p) == Not(p)
        assert (p >> q) == Implies(p, q)

    def test_atoms_collection(self):
        formula = parse_ltl("G (a -> F (b & c.d))")
        assert formula.atoms() == frozenset({"a", "b", "c.d"})
