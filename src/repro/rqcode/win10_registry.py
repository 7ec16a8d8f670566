"""Win10 registry-value STIG patterns and concrete findings.

Beyond audit policies, a large share of the Windows 10 STIG pins
registry values.  :class:`RegistryValueRequirement` is the reusable
pattern: check that a named registry value (a key in the simulated
host's flat settings store, prefixed ``registry.``) matches the
required value, and enforce by writing it.

Concrete findings below are representative entries from the same STIG
the audit-policy slice comes from; they exercise both exact-match and
minimum-value comparison modes.
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


class RegistryValueRequirement(CheckableEnforceableRequirement):
    """Registry-value requirement with exact or minimum comparison.

    Subclasses declare the value via the getter triple
    (:meth:`get_value_name`, :meth:`get_required_value`,
    :meth:`get_comparison`).  Comparison modes:

    * ``"exact"`` — the stored string must equal the required string;
    * ``"minimum"`` — both parse as integers; stored >= required.
    """

    def __init__(self, host: SimulatedHost,
                 metadata: Optional[FindingMetadata] = None):
        super().__init__(metadata)
        self.host = host

    @abstractmethod
    def get_value_name(self) -> str:
        """Registry value name, e.g. ``"LmCompatibilityLevel"``."""

    @abstractmethod
    def get_required_value(self) -> str:
        """The value STIG requires."""

    def get_comparison(self) -> str:
        return "exact"

    def _setting_key(self) -> str:
        return f"registry.{self.get_value_name()}"

    def check(self) -> CheckStatus:
        current = self.host.get_setting(self._setting_key())
        if current is None:
            return CheckStatus.FAIL
        required = self.get_required_value()
        if self.get_comparison() == "minimum":
            try:
                return (CheckStatus.PASS
                        if int(current) >= int(required)
                        else CheckStatus.FAIL)
            except ValueError:
                return CheckStatus.INCOMPLETE
        return (CheckStatus.PASS if current == required
                else CheckStatus.FAIL)

    def enforce(self) -> EnforcementStatus:
        self.host.set_setting(self._setting_key(),
                              self.get_required_value())
        return EnforcementStatus.SUCCESS


# Frozen and static per finding: built once, shared by every instance
# (one entry per finding class, so the cache stays as small as the
# catalogue).
@functools.lru_cache(maxsize=None)
def _registry_metadata(finding_id: str, version: str,
                       severity: str = "medium") -> FindingMetadata:
    return FindingMetadata(
        finding_id=finding_id,
        version=version,
        rule_id=f"SV-{finding_id.split('-')[-1]}r1_rule",
        severity=severity,
        stig="Windows 10 Security Technical Implementation Guide",
        date="2016-10-28",
    )


class V_63519(RegistryValueRequirement):
    """The required legal notice must be configured to display before
    console logon (interactive logon banner)."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, _registry_metadata(
            "V-63519", "WN10-SO-000075"))

    def get_value_name(self) -> str:
        return "LegalNoticeText"

    def get_required_value(self) -> str:
        return "DoD Notice and Consent"


class V_63797(RegistryValueRequirement):
    """The LAN Manager authentication level must be set to send NTLMv2
    response only and to refuse LM and NTLM."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, _registry_metadata(
            "V-63797", "WN10-SO-000205", severity="high"))

    def get_value_name(self) -> str:
        return "LmCompatibilityLevel"

    def get_required_value(self) -> str:
        return "5"

    def get_comparison(self) -> str:
        return "minimum"


class V_63351(RegistryValueRequirement):
    """The Windows SMB client must be configured to always perform SMB
    packet signing."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, _registry_metadata(
            "V-63351", "WN10-SO-000100"))

    def get_value_name(self) -> str:
        return "RequireSecuritySignature"

    def get_required_value(self) -> str:
        return "1"


class V_63591(RegistryValueRequirement):
    """Anonymous enumeration of shares must be restricted."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, _registry_metadata(
            "V-63591", "WN10-SO-000150", severity="high"))

    def get_value_name(self) -> str:
        return "RestrictAnonymous"

    def get_required_value(self) -> str:
        return "1"


REGISTRY_FINDINGS = (V_63519, V_63797, V_63351, V_63591)
