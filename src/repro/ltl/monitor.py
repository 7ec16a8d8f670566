"""Runtime monitoring of LTL formulas.

Two evaluation modes:

* :class:`LtlMonitor` — an *impartial* online monitor based on formula
  progression.  After each step the remaining obligation is rewritten;
  when it folds to ``true`` the property is satisfied on every
  continuation (verdict TRUE), to ``false`` violated on every
  continuation (FALSE), otherwise INCONCLUSIVE.  Impartiality means the
  monitor never revokes a TRUE/FALSE verdict; it may stay INCONCLUSIVE
  where a full LTL3 automaton could conclude (syntactic progression does
  not decide semantic tautologies), which is sound for the protection
  loop's use.
* :func:`evaluate_ltlf` — exact LTLf (finite-trace) semantics on a
  *completed* trace, where ``X`` is strong (false at the last step) and
  ``G``/``U`` quantify over the remaining finite suffix.
"""

import enum
from typing import FrozenSet, Iterable, List, Sequence

from repro.ltl.formulas import (
    And,
    Atom,
    Eventually,
    FALSE,
    Formula,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TRUE,
    Until,
    WeakUntil,
    as_step,
    conjoin,
    disjoin,
    implies,
    lnot,
)


class Verdict(enum.Enum):
    """3-valued monitoring verdict."""

    TRUE = "TRUE"
    FALSE = "FALSE"
    INCONCLUSIVE = "INCONCLUSIVE"


def progress(formula: Formula, step: FrozenSet[str]) -> Formula:
    """One progression step: the obligation on the rest of the trace
    after observing *step*.

    Conjunctions and disjunctions are rebuilt in normal form
    (:func:`~repro.ltl.formulas.conjoin`), so repeated triggers fold
    onto the obligations already pending instead of nesting them."""
    if formula is TRUE or formula is FALSE:
        return formula
    if isinstance(formula, Atom):
        return TRUE if formula.name in step else FALSE
    if isinstance(formula, Not):
        return lnot(progress(formula.operand, step))
    if isinstance(formula, And):
        return conjoin(progress(formula.left, step),
                       progress(formula.right, step))
    if isinstance(formula, Or):
        return disjoin(progress(formula.left, step),
                       progress(formula.right, step))
    if isinstance(formula, Implies):
        return implies(progress(formula.left, step),
                       progress(formula.right, step))
    if isinstance(formula, Next):
        return formula.operand
    if isinstance(formula, Until):
        # p U q  ≡  q ∨ (p ∧ X(p U q))
        return disjoin(progress(formula.right, step),
                       conjoin(progress(formula.left, step), formula))
    if isinstance(formula, WeakUntil):
        return disjoin(progress(formula.right, step),
                       conjoin(progress(formula.left, step), formula))
    if isinstance(formula, Release):
        # p R q  ≡  q ∧ (p ∨ X(p R q))
        return conjoin(progress(formula.right, step),
                       disjoin(progress(formula.left, step), formula))
    if isinstance(formula, Eventually):
        return disjoin(progress(formula.operand, step), formula)
    if isinstance(formula, Globally):
        return conjoin(progress(formula.operand, step), formula)
    raise TypeError(f"unknown formula node: {formula!r}")


class LtlMonitor:
    """Online impartial monitor for one formula.

    Feed steps with :meth:`observe`; read :attr:`verdict` any time.
    Once the verdict leaves INCONCLUSIVE it is frozen (impartiality),
    and further observations are ignored.

    This tree-rewriting monitor is the reference oracle for the
    compiled monitors the protection plane runs
    (:class:`~repro.ltl.compile.CompiledMonitor` and the SOC sessions
    built on it): they must agree with it step for step, and the
    property suites check exactly that.
    """

    def __init__(self, formula: Formula):
        self.formula = formula
        self.obligation = formula
        self.steps_observed = 0

    @property
    def verdict(self) -> Verdict:
        if self.obligation is TRUE:
            return Verdict.TRUE
        if self.obligation is FALSE:
            return Verdict.FALSE
        return Verdict.INCONCLUSIVE

    def observe(self, propositions: Iterable[str]) -> Verdict:
        """Consume one step (iterable of true proposition names)."""
        if self.verdict is Verdict.INCONCLUSIVE:
            self.obligation = progress(self.obligation, as_step(propositions))
            self.steps_observed += 1
        return self.verdict

    def observe_trace(self, trace: Sequence[Iterable[str]]) -> Verdict:
        """Consume a whole trace; stops early once the verdict freezes."""
        for step in trace:
            if self.observe(step) is not Verdict.INCONCLUSIVE:
                break
        return self.verdict

    def observe_many(self, steps: Sequence[Iterable[str]]) -> Verdict:
        """Batch form of :meth:`observe` (same early-stop contract as
        :meth:`observe_trace`); the compiled engine overrides this with
        a tighter loop."""
        return self.observe_trace(steps)

    def reset(self) -> None:
        self.obligation = self.formula
        self.steps_observed = 0


def evaluate_ltlf(formula: Formula, trace: Sequence[Iterable[str]],
                  position: int = 0) -> bool:
    """Exact LTLf evaluation of *formula* on the completed *trace*.

    The empty trace satisfies ``G``-shaped obligations vacuously and
    falsifies ``F``/``U`` obligations, per standard LTLf semantics.
    """
    steps: List[FrozenSet[str]] = [as_step(step) for step in trace]
    return _eval(formula, steps, position)


def _eval(formula: Formula, steps: List[FrozenSet[str]], i: int) -> bool:
    n = len(steps)
    if formula is TRUE:
        return True
    if formula is FALSE:
        return False
    if isinstance(formula, Atom):
        return i < n and formula.name in steps[i]
    if isinstance(formula, Not):
        return not _eval(formula.operand, steps, i)
    if isinstance(formula, And):
        return _eval(formula.left, steps, i) and _eval(formula.right, steps, i)
    if isinstance(formula, Or):
        return _eval(formula.left, steps, i) or _eval(formula.right, steps, i)
    if isinstance(formula, Implies):
        return (not _eval(formula.left, steps, i)
                or _eval(formula.right, steps, i))
    if isinstance(formula, Next):
        return i + 1 < n and _eval(formula.operand, steps, i + 1)
    if isinstance(formula, Eventually):
        return any(_eval(formula.operand, steps, j) for j in range(i, n))
    if isinstance(formula, Globally):
        return all(_eval(formula.operand, steps, j) for j in range(i, n))
    if isinstance(formula, Until):
        for j in range(i, n):
            if _eval(formula.right, steps, j):
                return all(_eval(formula.left, steps, k)
                           for k in range(i, j))
        return False
    if isinstance(formula, WeakUntil):
        for j in range(i, n):
            if _eval(formula.right, steps, j):
                return all(_eval(formula.left, steps, k)
                           for k in range(i, j))
        return all(_eval(formula.left, steps, j) for j in range(i, n))
    if isinstance(formula, Release):
        # p R q on finite traces: q holds up to and including the first
        # p-step, or q holds for the whole remaining suffix.
        for j in range(i, n):
            if not _eval(formula.right, steps, j):
                return any(_eval(formula.left, steps, k)
                           for k in range(i, j))
        return True
    raise TypeError(f"unknown formula node: {formula!r}")
