"""RQCODE Windows 10 STIG patterns and concrete findings.

This module merges two Java packages from D2.7 Annex 1:

* ``rqcode.patterns.win10`` — the reusable audit-policy pattern
  hierarchy rooted at :class:`AuditPolicyRequirement`;
* ``rqcode.stigs.win10`` — the concrete findings (V-63447, V-63449,
  V-63463, V-63467, V-63483, V-63487) and the
  :class:`Windows10SecurityTechnicalImplementationGuide` aggregate.

:class:`AuditPolicyRequirement` is faithful to the Java original: it
"forks auditpol.exe [and] manipulates its input and output" — here it
invokes the host's :class:`~repro.environment.auditpol.SimulatedAuditPol`
with the same ``/get``/``/set`` command lines and parses the same report
text, rather than peeking at the policy store directly.
"""

import functools
import re
from abc import abstractmethod
from typing import List, Optional

from repro.environment.host import SimulatedHost
from repro.rqcode.concepts import (
    CheckableEnforceableRequirement,
    CheckStatus,
    EnforcementStatus,
    FindingMetadata,
)

_AUDIT_TRAIL_RATIONALE = (
    "Maintaining an audit trail of system activity logs can help identify "
    "configuration errors, troubleshoot service disruptions, and analyze "
    "compromises that have occurred, as well as detect attacks. Audit logs "
    "are necessary to provide a trail of evidence in case the system or "
    "network is compromised."
)


class AuditPolicyRequirement(CheckableEnforceableRequirement):
    """Audit-policy requirement checked/enforced through auditpol.

    Subclasses declare the target via the getter quartet
    (:meth:`get_category`, :meth:`get_subcategory`, :meth:`get_success`,
    :meth:`get_failure`); this class supplies the auditpol plumbing.

    The *inclusion setting* is the human-readable flag combination the
    STIG requires ("Success", "Failure", or "Success and Failure").
    """

    def __init__(self, host: SimulatedHost,
                 metadata: Optional[FindingMetadata] = None):
        super().__init__(metadata)
        self.host = host

    # -- declaration surface (Annex 1 operations) ----------------------------

    @abstractmethod
    def get_category(self) -> str:
        """Audit category, e.g. ``"Logon/Logoff"``."""

    @abstractmethod
    def get_subcategory(self) -> str:
        """Audit subcategory, e.g. ``"Logon"``."""

    def get_success(self) -> str:
        """Required Success flag: ``"enable"`` or ``"no change"``."""
        return "no change"

    def get_failure(self) -> str:
        """Required Failure flag: ``"enable"`` or ``"no change"``."""
        return "no change"

    def get_inclusion_setting(self) -> str:
        """Human-readable required setting, derived from the flags."""
        want_success = self.get_success() == "enable"
        want_failure = self.get_failure() == "enable"
        if want_success and want_failure:
            return "Success and Failure"
        if want_success:
            return "Success"
        if want_failure:
            return "Failure"
        return "No Auditing"

    # -- auditpol I/O ---------------------------------------------------------

    def _query_current_setting(self) -> Optional[str]:
        """Run ``auditpol /get`` and scrape the subcategory's setting.

        Returns None when the output cannot be parsed (reported as
        INCOMPLETE by :meth:`check`, matching the Java fallback).
        """
        subcategory = self.get_subcategory()
        output = self.host.auditpol.run(
            f'/get /subcategory:"{subcategory}"'
        )
        pattern = re.compile(
            rf"^\s*{re.escape(subcategory)}\s{{2,}}(?P<setting>\S.*?)\s*$",
            re.MULTILINE,
        )
        match = pattern.search(output)
        if match is None:
            return None
        return match.group("setting")

    def check(self) -> CheckStatus:
        """PASS when the live auditpol setting covers the required flags.

        "Covers" rather than "equals": a host auditing Success and
        Failure satisfies a finding that requires only Failure, which is
        the STIG check-text semantics ("if ... does not include the
        following, this is a finding").
        """
        setting = self._query_current_setting()
        if setting is None:
            return CheckStatus.INCOMPLETE
        has_success = setting in ("Success", "Success and Failure")
        has_failure = setting in ("Failure", "Success and Failure")
        if self.get_success() == "enable" and not has_success:
            return CheckStatus.FAIL
        if self.get_failure() == "enable" and not has_failure:
            return CheckStatus.FAIL
        return CheckStatus.PASS

    def enforce(self) -> EnforcementStatus:
        """Run ``auditpol /set`` with the required flags."""
        flags = []
        if self.get_success() == "enable":
            flags.append("/success:enable")
        if self.get_failure() == "enable":
            flags.append("/failure:enable")
        if not flags:
            return EnforcementStatus.INCOMPLETE
        command = (
            f'/set /subcategory:"{self.get_subcategory()}" ' + " ".join(flags)
        )
        output = self.host.auditpol.run(command)
        if "successfully" not in output:
            return EnforcementStatus.FAILURE
        return EnforcementStatus.SUCCESS


# -- pattern hierarchy (rqcode.patterns.win10) --------------------------------

class AccountManagementRequirement(AuditPolicyRequirement):
    """STIG pattern for Win10 Account Management audit settings."""

    def get_category(self) -> str:
        return "Account Management"


class UserAccountManagementRequirement(AccountManagementRequirement):
    """STIG pattern for the User Account Management subcategory."""

    def get_subcategory(self) -> str:
        return "User Account Management"

    def description(self) -> str:
        return (
            _AUDIT_TRAIL_RATIONALE + " User Account Management records "
            "events such as creating, changing, deleting, renaming, "
            "disabling, or enabling user accounts."
        )

    def check_text(self) -> str:
        return (
            "Security Option 'Audit: Force audit policy subcategory "
            "settings' must be set to 'Enabled'. Run 'AuditPol /get "
            "/category:*'. If the system does not audit 'Account "
            f"Management >> User Account Management' with "
            f"'{self.get_inclusion_setting()}', this is a finding."
        )

    def fix_text(self) -> str:
        return (
            "Configure the policy value for Computer Configuration >> "
            "Windows Settings >> Security Settings >> Advanced Audit "
            "Policy Configuration >> System Audit Policies >> Account "
            "Management >> 'Audit User Account Management' with "
            f"'{self.get_inclusion_setting()}' selected."
        )


class LogonLogoffRequirement(AuditPolicyRequirement):
    """STIG pattern for Win10 Logon/Logoff audit settings."""

    def get_category(self) -> str:
        return "Logon/Logoff"


class LogonRequirement(LogonLogoffRequirement):
    """STIG pattern for the Logon subcategory."""

    def get_subcategory(self) -> str:
        return "Logon"

    def description(self) -> str:
        return (
            _AUDIT_TRAIL_RATIONALE + " Logon records user logons. If this "
            "is an interactive logon, it is recorded on the local system. "
            "If it is to a network share, it is recorded on the system "
            "accessed."
        )

    def check_text(self) -> str:
        return (
            "Run 'AuditPol /get /category:*'. If the system does not "
            "audit 'Logon/Logoff >> Logon' with "
            f"'{self.get_inclusion_setting()}', this is a finding."
        )

    def fix_text(self) -> str:
        return (
            "Configure System Audit Policies >> Logon/Logoff >> 'Audit "
            f"Logon' with '{self.get_inclusion_setting()}' selected."
        )


class PrivilegeUseRequirement(AuditPolicyRequirement):
    """STIG pattern for Win10 Privilege Use audit settings."""

    def get_category(self) -> str:
        return "Privilege Use"


class SensitivePrivilegeUseRequirement(PrivilegeUseRequirement):
    """STIG pattern for the Sensitive Privilege Use subcategory."""

    def get_subcategory(self) -> str:
        return "Sensitive Privilege Use"

    def description(self) -> str:
        return (
            _AUDIT_TRAIL_RATIONALE + " Sensitive Privilege Use records "
            "events related to use of sensitive privileges, such as "
            "'Act as part of the operating system' or 'Debug programs'."
        )

    def check_text(self) -> str:
        return (
            "Run 'AuditPol /get /category:*'. If the system does not "
            "audit 'Privilege Use >> Sensitive Privilege Use' with "
            f"'{self.get_inclusion_setting()}', this is a finding."
        )

    def fix_text(self) -> str:
        return (
            "Configure System Audit Policies >> Privilege Use >> 'Audit "
            "Sensitive Privilege Use' with "
            f"'{self.get_inclusion_setting()}' selected."
        )


# -- concrete findings (rqcode.stigs.win10) ------------------------------------

# Frozen and static per finding: built once, shared by every instance
# (one entry per finding class, so the cache stays as small as the
# catalogue).
@functools.lru_cache(maxsize=None)
def _win10_metadata(finding_id: str, version: str, rule_id: str,
                    severity: str = "medium") -> FindingMetadata:
    return FindingMetadata(
        finding_id=finding_id,
        version=version,
        rule_id=rule_id,
        ia_controls="ECAR-1, ECAR-2, ECAR-3",
        severity=severity,
        stig="Windows 10 Security Technical Implementation Guide",
        date="2016-10-28",
    )


class V_63447(UserAccountManagementRequirement):
    """The system must be configured to audit Account Management -
    User Account Management failures."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, _win10_metadata(
            "V-63447", "WN10-AU-000030", "SV-77937r1_rule"))

    def get_failure(self) -> str:
        return "enable"


class V_63449(UserAccountManagementRequirement):
    """The system must be configured to audit Account Management -
    User Account Management successes."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, _win10_metadata(
            "V-63449", "WN10-AU-000035", "SV-77939r1_rule"))

    def get_success(self) -> str:
        return "enable"


class V_63463(LogonRequirement):
    """The system must be configured to audit Logon/Logoff - Logon
    failures."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, _win10_metadata(
            "V-63463", "WN10-AU-000075", "SV-77953r1_rule"))

    def get_failure(self) -> str:
        return "enable"


class V_63467(LogonRequirement):
    """The system must be configured to audit Logon/Logoff - Logon
    successes."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, _win10_metadata(
            "V-63467", "WN10-AU-000080", "SV-77957r1_rule"))

    def get_success(self) -> str:
        return "enable"


class V_63483(SensitivePrivilegeUseRequirement):
    """The system must be configured to audit Privilege Use - Sensitive
    Privilege Use failures."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, _win10_metadata(
            "V-63483", "WN10-AU-000105", "SV-77973r1_rule"))

    def get_failure(self) -> str:
        return "enable"


class V_63487(SensitivePrivilegeUseRequirement):
    """The system must be configured to audit Privilege Use - Sensitive
    Privilege Use successes."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, _win10_metadata(
            "V-63487", "WN10-AU-000110", "SV-77977r1_rule"))

    def get_success(self) -> str:
        return "enable"


class Windows10SecurityTechnicalImplementationGuide:
    """Aggregate instantiating the full Win10 STIG slice for one host.

    Mirrors Annex 1's ``Windows10SecurityTechnicalImplementationGuide``:
    an example of instantiation of the Win10 STIG requirements, exposing
    the list plus batch check/enforce helpers.
    """

    STIG_CLASSES = (V_63447, V_63449, V_63463, V_63467, V_63483, V_63487)

    def __init__(self, host: SimulatedHost):
        self.host = host
        self.v_63447 = V_63447(host)
        self.v_63449 = V_63449(host)
        self.v_63463 = V_63463(host)
        self.v_63467 = V_63467(host)
        self.v_63483 = V_63483(host)
        self.v_63487 = V_63487(host)

    def all_stigs(self) -> List[AuditPolicyRequirement]:
        """All instantiated requirements, in finding-id order."""
        return [
            self.v_63447, self.v_63449, self.v_63463,
            self.v_63467, self.v_63483, self.v_63487,
        ]

    def check_all(self) -> "dict[str, CheckStatus]":
        """Check every finding; returns finding-id -> status."""
        return {req.finding_id(): req.check() for req in self.all_stigs()}

    def enforce_all(self) -> "dict[str, EnforcementStatus]":
        """Enforce every finding that is currently failing."""
        results = {}
        for req in self.all_stigs():
            if req.check() is CheckStatus.PASS:
                results[req.finding_id()] = EnforcementStatus.SUCCESS
            else:
                results[req.finding_id()] = req.enforce()
        return results
