"""Synthetic requirements corpus with seeded smell injection.

NALABS was evaluated on industrial requirement documents we cannot ship;
experiment E4 substitutes a generated corpus whose smells are *injected
with exact ground truth*, so detector precision/recall is measurable
rather than eyeballed (DESIGN.md, substitutions table).

The generator writes clean, imperative, security-flavoured requirement
statements, then for a chosen fraction of them splices in occurrences of
one smell's dictionary.  The ground truth records exactly which
requirement ids carry which injected smell.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.nalabs.analyzer import RequirementText

_SUBJECTS = (
    "The authentication service", "The audit subsystem",
    "The session manager", "The access-control module",
    "The key-management service", "The update client",
    "The intrusion-detection component", "The configuration agent",
    "The logging pipeline", "The network gateway",
)

_ACTIONS = (
    "lock the account after {n} consecutive failed logon attempts",
    "record every privileged operation in the security log",
    "terminate idle sessions after {n} seconds of inactivity",
    "encrypt stored credentials using an approved algorithm",
    "validate certificate chains before establishing a session",
    "reject configuration changes lacking a signed approval",
    "alert the operator within {n} seconds of a policy violation",
    "rotate audit log files when they reach {n} megabytes",
    "verify the integrity of security functions at startup",
    "enforce the configured password complexity policy",
)

_QUALIFIERS = (
    "", "", "",  # most statements carry no qualifier
    "at runtime",
    "for every remote session",
    "on all managed hosts",
    "before granting access",
)

#: Injection snippets per smell, each containing >=1 dictionary hit for
#: the corresponding metric (keys match metric ``name`` attributes).
_INJECTIONS: Dict[str, Tuple[str, ...]] = {
    "vagueness": (
        "in a timely manner with adequate margins",
        "with sufficient performance and reasonable overhead",
        "using a flexible and robust mechanism",
    ),
    "weakness": (
        "as far as possible and where possible",
        "to the extent possible when necessary",
        "being capable of recovery if practical",
    ),
    "optionality": (
        "and may optionally defer the action",
        "or possibly skip the step when instructed",
        "and could preferably notify the operator",
    ),
    "subjectivity": (
        "providing a nice and intuitive experience",
        "keeping behaviour better than the previous release",
        "with a friendly and pleasant interface",
    ),
    "references": (
        "as defined in section 3.4.1 of [12]",
        "in accordance with table 7 per the standard",
        "as specified in annex 2 and figure 9",
    ),
    "incompleteness": (
        "with thresholds TBD by the security board",
        "using parameters to be determined during integration",
        "covering cases to be confirmed during a later revision",
    ),
    "imperatives": (),  # injected by *removing* the imperative, below
    "conjunctions": (
        "and retry and then escalate or abort but log both",
        "or suspend and resume unless disabled and audited",
    ),
}


@dataclass
class InjectionGroundTruth:
    """Which requirement ids carry which injected smell."""

    injected: Dict[str, Set[str]] = field(default_factory=dict)

    def ids_for(self, smell: str) -> Set[str]:
        return self.injected.get(smell, set())

    def precision_recall(self, smell: str, flagged_ids: Sequence[str]
                         ) -> Tuple[float, float]:
        """Precision/recall of *flagged_ids* against this ground truth.

        A flagged clean requirement is a false positive; an injected
        requirement not flagged is a false negative.  Empty flag sets
        score precision 1.0 (nothing asserted, nothing wrong).
        """
        truth = self.ids_for(smell)
        flagged = set(flagged_ids)
        true_positives = len(flagged & truth)
        precision = true_positives / len(flagged) if flagged else 1.0
        recall = true_positives / len(truth) if truth else 1.0
        return precision, recall


class CorpusGenerator:
    """Deterministic corpus factory.

    Args:
        seed: RNG seed; the same seed reproduces the same corpus and
            ground truth exactly.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def clean_statement(self) -> str:
        """One well-formed requirement: subject + 'shall' + action."""
        subject = self._rng.choice(_SUBJECTS)
        action = self._rng.choice(_ACTIONS).format(
            n=self._rng.choice((3, 5, 10, 15, 30, 60, 100)))
        qualifier = self._rng.choice(_QUALIFIERS)
        sentence = f"{subject} shall {action}"
        if qualifier:
            sentence += f" {qualifier}"
        return sentence + "."

    def inject(self, statement: str, smell: str) -> str:
        """Return *statement* degraded with one occurrence of *smell*."""
        if smell == "imperatives":
            # The imperative smell is the *absence* of binding verbs.
            return statement.replace(" shall ", " ", 1)
        snippets = _INJECTIONS[smell]
        snippet = self._rng.choice(snippets)
        return statement.rstrip(".") + f" {snippet}."

    def generate(self, count: int, injection_rate: float = 0.1,
                 smells: Sequence[str] = None
                 ) -> Tuple[List[RequirementText], InjectionGroundTruth]:
        """Build a corpus of *count* requirements.

        Each smell in *smells* is injected into a disjoint random subset
        of roughly ``injection_rate * count`` requirements, so one
        requirement carries at most one injected smell and the per-smell
        ground truth is unambiguous.
        """
        if smells is None:
            smells = tuple(s for s in _INJECTIONS if s != "imperatives") + (
                "imperatives",)
        if not 0.0 <= injection_rate <= 1.0:
            raise ValueError("injection_rate must be within [0, 1]")
        per_smell = int(count * injection_rate)
        if per_smell * len(smells) > count:
            raise ValueError(
                "injection_rate too high for disjoint per-smell subsets"
            )

        requirements = []
        for index in range(count):
            requirements.append(RequirementText(
                req_id=f"REQ-{index:04d}", text=self.clean_statement()))

        indices = list(range(count))
        self._rng.shuffle(indices)
        truth = InjectionGroundTruth()
        cursor = 0
        for smell in smells:
            chosen = indices[cursor:cursor + per_smell]
            cursor += per_smell
            truth.injected[smell] = set()
            for index in chosen:
                record = requirements[index]
                requirements[index] = RequirementText(
                    req_id=record.req_id,
                    text=self.inject(record.text, smell),
                )
                truth.injected[smell].add(record.req_id)
        return requirements, truth
