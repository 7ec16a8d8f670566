"""Win10 account-lockout STIG patterns and concrete findings.

These findings pin the host's :class:`~repro.environment.accounts.
LockoutPolicy`.  Because the simulated logon path *enforces* that
policy, the requirements here are behaviourally testable: enforce the
finding, replay a password-guessing attack, and the account locks —
the end-to-end story the account-management STIGs exist for.
"""

import functools
from abc import abstractmethod
from typing import Optional

from repro.environment.host import SimulatedHost
from repro.rqcode.concepts import (
    CheckableEnforceableRequirement,
    CheckStatus,
    EnforcementStatus,
    FindingMetadata,
)


class AccountPolicyRequirement(CheckableEnforceableRequirement):
    """Base for lockout-policy findings: read/write one policy knob."""

    def __init__(self, host: SimulatedHost,
                 metadata: Optional[FindingMetadata] = None):
        super().__init__(metadata)
        self.host = host

    @abstractmethod
    def current_value(self) -> int:
        """The knob's current value on the host."""

    @abstractmethod
    def compliant(self, value: int) -> bool:
        """Is *value* acceptable per the finding?"""

    @abstractmethod
    def apply(self) -> None:
        """Write the compliant value."""

    def check(self) -> CheckStatus:
        return (CheckStatus.PASS if self.compliant(self.current_value())
                else CheckStatus.FAIL)

    def enforce(self) -> EnforcementStatus:
        self.apply()
        self.host.events.emit(
            "account.policy_changed", finding=self.finding_id())
        return EnforcementStatus.SUCCESS


# Frozen and static per finding: built once, shared by every instance
# (one entry per finding class, so the cache stays as small as the
# catalogue).
@functools.lru_cache(maxsize=None)
def _account_metadata(finding_id: str, version: str) -> FindingMetadata:
    return FindingMetadata(
        finding_id=finding_id,
        version=version,
        rule_id=f"SV-{finding_id.split('-')[-1]}r1_rule",
        severity="medium",
        stig="Windows 10 Security Technical Implementation Guide",
        date="2016-10-28",
    )


class V_63409(AccountPolicyRequirement):
    """The number of allowed bad logon attempts must be configured to
    3 or less (but not 0, which disables lockout)."""

    REQUIRED_THRESHOLD = 3

    def __init__(self, host: SimulatedHost):
        super().__init__(host, _account_metadata(
            "V-63409", "WN10-AC-000010"))

    def current_value(self) -> int:
        return self.host.accounts.policy.threshold

    def compliant(self, value: int) -> bool:
        return 1 <= value <= self.REQUIRED_THRESHOLD

    def apply(self) -> None:
        self.host.accounts.policy.threshold = self.REQUIRED_THRESHOLD


class V_63405(AccountPolicyRequirement):
    """The account lockout duration must be configured to 15 minutes
    or greater."""

    REQUIRED_MINUTES = 15

    def __init__(self, host: SimulatedHost):
        super().__init__(host, _account_metadata(
            "V-63405", "WN10-AC-000005"))

    def current_value(self) -> int:
        return self.host.accounts.policy.duration_minutes

    def compliant(self, value: int) -> bool:
        return value >= self.REQUIRED_MINUTES

    def apply(self) -> None:
        self.host.accounts.policy.duration_minutes = self.REQUIRED_MINUTES


ACCOUNT_FINDINGS = (V_63405, V_63409)
