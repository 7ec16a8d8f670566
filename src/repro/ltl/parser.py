"""LTL concrete-syntax parser.

Grammar (precedence climbing, loosest first)::

    formula    := implication
    implication:= until ( '->' implication )?          (right assoc)
    until      := disjunction ( ('U'|'W'|'R') until )? (right assoc)
    disjunction:= conjunction ( '|' conjunction )*
    conjunction:= unary ( '&' unary )*
    unary      := ('!'|'X'|'F'|'G') unary | primary
    primary    := 'true' | 'false' | ident | '(' formula ')'

Identifiers are ``[A-Za-z_][A-Za-z0-9_.]*`` minus the operator keywords,
so dotted event names (``package.removed``) parse as atoms.
"""

import functools
import re
from typing import List, Optional

from repro.ltl.formulas import (
    Atom,
    Eventually,
    FALSE,
    Formula,
    Globally,
    Next,
    Release,
    TRUE,
    Until,
    WeakUntil,
    implies,
    land,
    lnot,
    lor,
)


class LtlParseError(ValueError):
    """Raised on malformed LTL text, with position information."""

    def __init__(self, message: str, position: int, text: str):
        super().__init__(f"{message} at position {position}: {text!r}")
        self.position = position
        self.text = text


_TOKEN = re.compile(
    r"\s*(?:(?P<op>->|\(|\)|!|&|\|)|(?P<word>[A-Za-z_][A-Za-z0-9_.]*))"
)

_UNARY_KEYWORDS = {"X", "F", "G"}
_BINARY_KEYWORDS = {"U", "W", "R"}
_CONSTANTS = {"true": TRUE, "false": FALSE}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.tokens: List[tuple] = []  # (kind, value, position)
        position = 0
        while position < len(text):
            match = _TOKEN.match(text, position)
            if match is None:
                remainder = text[position:].strip()
                if not remainder:
                    break
                raise LtlParseError("unexpected character", position, text)
            if match.group("op"):
                self.tokens.append(("op", match.group("op"), match.start()))
            else:
                self.tokens.append(("word", match.group("word"), match.start()))
            position = match.end()
        self.index = 0

    def peek(self) -> Optional[tuple]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self) -> tuple:
        token = self.peek()
        if token is None:
            raise LtlParseError("unexpected end of input",
                                len(self.text), self.text)
        self.index += 1
        return token

    def accept(self, kind: str, value: str) -> bool:
        token = self.peek()
        if token is not None and token[0] == kind and token[1] == value:
            self.index += 1
            return True
        return False


@functools.lru_cache(maxsize=4096)
def parse_ltl(text: str) -> Formula:
    """Parse *text* into a :class:`~repro.ltl.formulas.Formula`.

    Memoized per text: formulas are hash-consed and immutable, so a
    cached result is the very object a fresh parse would return
    (``parse_ltl(t) is parse_ltl(t)`` held before the memo too).  The
    memo is bounded; malformed text raises on every call, since
    ``lru_cache`` never stores an exception.
    """
    tokens = _Tokens(text)
    formula = _parse_implication(tokens)
    leftover = tokens.peek()
    if leftover is not None:
        raise LtlParseError(f"trailing input {leftover[1]!r}",
                            leftover[2], text)
    return formula


def _parse_implication(tokens: _Tokens) -> Formula:
    left = _parse_until(tokens)
    if tokens.accept("op", "->"):
        right = _parse_implication(tokens)
        return implies(left, right)
    return left


def _parse_until(tokens: _Tokens) -> Formula:
    left = _parse_disjunction(tokens)
    token = tokens.peek()
    if token is not None and token[0] == "word" and token[1] in _BINARY_KEYWORDS:
        operator = tokens.advance()[1]
        right = _parse_until(tokens)
        if operator == "U":
            return Until(left, right)
        if operator == "W":
            return WeakUntil(left, right)
        return Release(left, right)
    return left


def _parse_disjunction(tokens: _Tokens) -> Formula:
    left = _parse_conjunction(tokens)
    while tokens.accept("op", "|"):
        left = lor(left, _parse_conjunction(tokens))
    return left


def _parse_conjunction(tokens: _Tokens) -> Formula:
    left = _parse_unary(tokens)
    while tokens.accept("op", "&"):
        left = land(left, _parse_unary(tokens))
    return left


def _parse_unary(tokens: _Tokens) -> Formula:
    token = tokens.peek()
    if token is None:
        raise LtlParseError("unexpected end of input",
                            len(tokens.text), tokens.text)
    kind, value, position = token
    if kind == "op" and value == "!":
        tokens.advance()
        return lnot(_parse_unary(tokens))
    if kind == "word" and value in _UNARY_KEYWORDS:
        tokens.advance()
        operand = _parse_unary(tokens)
        if value == "X":
            return Next(operand)
        if value == "F":
            return Eventually(operand)
        return Globally(operand)
    return _parse_primary(tokens)


def _parse_primary(tokens: _Tokens) -> Formula:
    kind, value, position = tokens.advance()
    if kind == "op" and value == "(":
        formula = _parse_implication(tokens)
        if not tokens.accept("op", ")"):
            raise LtlParseError("missing closing parenthesis",
                                position, tokens.text)
        return formula
    if kind == "word":
        if value in _CONSTANTS:
            return _CONSTANTS[value]
        if value in _UNARY_KEYWORDS or value in _BINARY_KEYWORDS:
            raise LtlParseError(f"operator {value!r} where atom expected",
                                position, tokens.text)
        return Atom(value)
    raise LtlParseError(f"unexpected token {value!r}", position, tokens.text)
