"""RQCODE Ubuntu 18.04 STIG patterns and concrete findings.

Mirrors the Java package ``rqcode.stigs.ubuntu`` (D2.7 Annex 1).  The
reusable pattern is :class:`UbuntuPackagePattern` — "is package X
(not) installed", with enforcement installing or removing it.  Two
further reusable patterns that the wider Ubuntu STIG needs are included
(:class:`UbuntuConfigPattern` for key/value configuration findings and
:class:`UbuntuServicePattern` for unit-state findings).

The eight concrete findings named in D2.7 (V-219157, V-219158, V-219161,
V-219177, V-219304, V-219318, V-219319, V-219343) are implemented with
their stigviewer rationale text.  A handful of additional representative
findings from the same STIG exercise the config and service patterns;
they are grouped at the bottom and flagged as catalogue extensions.
"""

import functools
from typing import List, Optional

from repro.environment.host import SimulatedHost
from repro.rqcode.concepts import (
    CheckableEnforceableRequirement,
    CheckStatus,
    EnforcementStatus,
    FindingMetadata,
)

_UBUNTU_STIG = "Canonical Ubuntu 18.04 LTS Security Technical Implementation Guide"
_UBUNTU_DATE = "2021-06-16"


# Frozen and static per finding: built once, shared by every instance
# (one entry per finding class, so the cache stays as small as the
# catalogue).
@functools.lru_cache(maxsize=None)
def _ubuntu_metadata(finding_id: str, severity: str = "medium",
                     description: str = "") -> FindingMetadata:
    return FindingMetadata(
        finding_id=finding_id,
        version=f"UBTU-18-{finding_id.split('-')[-1]}",
        rule_id=f"SV-{finding_id.split('-')[-1]}r610963_rule",
        severity=severity,
        description=description,
        stig=_UBUNTU_STIG,
        date=_UBUNTU_DATE,
    )


# -- reusable patterns ---------------------------------------------------------

class UbuntuPackagePattern(CheckableEnforceableRequirement):
    """Package presence/absence requirement (Annex 1's pattern).

    Args:
        host: Target host.
        name: Package name (apt universe).
        must_be_installed: True -> the package is required; False -> the
            package is prohibited.
    """

    def __init__(self, host: SimulatedHost, name: str,
                 must_be_installed: bool,
                 metadata: Optional[FindingMetadata] = None):
        super().__init__(metadata)
        self.host = host
        self._name = name
        self._must_be_installed = must_be_installed

    @property
    def package_name(self) -> str:
        return self._name

    @property
    def must_be_installed(self) -> bool:
        return self._must_be_installed

    def check(self) -> CheckStatus:
        installed = self.host.dpkg.is_installed(self._name)
        if installed == self._must_be_installed:
            return CheckStatus.PASS
        return CheckStatus.FAIL

    def enforce(self) -> EnforcementStatus:
        try:
            if self._must_be_installed:
                self.host.dpkg.install(self._name)
            else:
                self.host.dpkg.remove(self._name)
        except Exception:
            return EnforcementStatus.FAILURE
        return EnforcementStatus.SUCCESS

    def __str__(self) -> str:
        polarity = "installed" if self._must_be_installed else "not installed"
        return f"Package {self._name!r} must be {polarity}."


class UbuntuConfigPattern(CheckableEnforceableRequirement):
    """Configuration-file key/value requirement.

    PASS when *key* in *path* equals *expected* (case-insensitive value
    comparison, matching how the STIG check text greps).
    """

    def __init__(self, host: SimulatedHost, path: str, key: str,
                 expected: str, metadata: Optional[FindingMetadata] = None):
        super().__init__(metadata)
        self.host = host
        self.path = path
        self.key = key
        self.expected = expected

    def check(self) -> CheckStatus:
        value = self.host.config.get(self.path, self.key)
        if value is None:
            return CheckStatus.FAIL
        if value.strip().lower() == self.expected.strip().lower():
            return CheckStatus.PASS
        return CheckStatus.FAIL

    def enforce(self) -> EnforcementStatus:
        self.host.config.set(self.path, self.key, self.expected)
        self.host.events.emit(
            "config.enforced", path=self.path, key=self.key,
            value=self.expected,
        )
        return EnforcementStatus.SUCCESS

    def __str__(self) -> str:
        return f"{self.path}: {self.key} must be {self.expected!r}."


class UbuntuServicePattern(CheckableEnforceableRequirement):
    """Unit-state requirement: a service must be enabled and active."""

    def __init__(self, host: SimulatedHost, name: str,
                 metadata: Optional[FindingMetadata] = None):
        super().__init__(metadata)
        self.host = host
        self.service_name = name

    def check(self) -> CheckStatus:
        services = self.host.services
        if not services.known(self.service_name):
            return CheckStatus.FAIL
        if services.is_enabled(self.service_name) and \
                services.is_active(self.service_name):
            return CheckStatus.PASS
        return CheckStatus.FAIL

    def enforce(self) -> EnforcementStatus:
        services = self.host.services
        if not services.known(self.service_name):
            services.register(self.service_name)
        try:
            if services.is_masked(self.service_name):
                services.unmask(self.service_name)
            services.enable(self.service_name)
            services.start(self.service_name)
        except Exception:
            return EnforcementStatus.FAILURE
        return EnforcementStatus.SUCCESS

    def __str__(self) -> str:
        return f"Service {self.service_name!r} must be enabled and active."


# -- concrete findings from D2.7 -----------------------------------------------

class V_219157(UbuntuPackagePattern):
    """Ubuntu must not have the NIS package installed.

    Removing the Network Information Service (NIS) package decreases the
    risk of the accidental (or intentional) activation of NIS or NIS+
    services.
    """

    def __init__(self, host: SimulatedHost):
        super().__init__(host, "nis", must_be_installed=False,
                         metadata=_ubuntu_metadata(
                             "V-219157", "medium", self.__doc__ or ""))


class V_219158(UbuntuPackagePattern):
    """Ubuntu must not have the rsh-server package installed.

    The rsh-server service provides an unencrypted remote access service
    that does not provide for the confidentiality and integrity of user
    passwords or the remote session and has very weak authentication.
    """

    def __init__(self, host: SimulatedHost):
        super().__init__(host, "rsh-server", must_be_installed=False,
                         metadata=_ubuntu_metadata(
                             "V-219158", "high", self.__doc__ or ""))


class V_219161(UbuntuPackagePattern):
    """Ubuntu must have SSH installed to provide controlled remote access.

    Remote access services which lack automated control capabilities
    increase risk; the operating system must be capable of taking
    enforcement action over remote sessions.
    """

    def __init__(self, host: SimulatedHost):
        super().__init__(host, "openssh-server", must_be_installed=True,
                         metadata=_ubuntu_metadata(
                             "V-219161", "medium", self.__doc__ or ""))


class V_219177(UbuntuConfigPattern):
    """Ubuntu must encrypt stored passwords with SHA512.

    Passwords need to be protected at all times, and encryption is the
    standard method for protecting passwords; unencrypted passwords can
    be plainly read and easily compromised.
    """

    def __init__(self, host: SimulatedHost):
        super().__init__(host, "/etc/login.defs", "ENCRYPT_METHOD", "SHA512",
                         metadata=_ubuntu_metadata(
                             "V-219177", "high", self.__doc__ or ""))


class V_219304(UbuntuPackagePattern):
    """Ubuntu must allow users to directly initiate a session lock.

    Rather than waiting for a timeout, users must be able to manually
    invoke a session lock (the ``vlock`` package) so they can secure
    their session when temporarily vacating the vicinity.
    """

    def __init__(self, host: SimulatedHost):
        super().__init__(host, "vlock", must_be_installed=True,
                         metadata=_ubuntu_metadata(
                             "V-219304", "medium", self.__doc__ or ""))


class V_219318(UbuntuPackagePattern):
    """Ubuntu must implement smart-card multifactor authentication for
    remote access to privileged accounts (libpam-pkcs11).

    An authentication device separate from the information system
    ensures a compromise of the system does not compromise stored
    credentials.
    """

    def __init__(self, host: SimulatedHost):
        super().__init__(host, "libpam-pkcs11", must_be_installed=True,
                         metadata=_ubuntu_metadata(
                             "V-219318", "medium", self.__doc__ or ""))


class V_219319(UbuntuPackagePattern):
    """Ubuntu must accept Personal Identity Verification (PIV)
    credentials (opensc-pkcs11).

    PIV credentials facilitate standardization and reduce the risk of
    unauthorized access; DoD mandates CAC use under HSPD-12.
    """

    def __init__(self, host: SimulatedHost):
        super().__init__(host, "opensc-pkcs11", must_be_installed=True,
                         metadata=_ubuntu_metadata(
                             "V-219319", "medium", self.__doc__ or ""))


class V_219343(UbuntuPackagePattern):
    """Ubuntu must verify correct operation of security functions (aide).

    Without verification of the security functions, security functions
    may not operate correctly and the failure may go unnoticed.
    """

    def __init__(self, host: SimulatedHost):
        super().__init__(host, "aide", must_be_installed=True,
                         metadata=_ubuntu_metadata(
                             "V-219343", "medium", self.__doc__ or ""))


#: The findings exactly as listed in D2.7 Annex 1.
D27_FINDINGS = (
    V_219157, V_219158, V_219161, V_219177,
    V_219304, V_219318, V_219319, V_219343,
)


# -- catalogue extensions (representative same-STIG findings) -------------------

class V_219155(UbuntuPackagePattern):
    """[extension] Ubuntu must not have the telnet daemon installed."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, "telnetd", must_be_installed=False,
                         metadata=_ubuntu_metadata(
                             "V-219155", "high", self.__doc__ or ""))


class V_219149(UbuntuPackagePattern):
    """[extension] Ubuntu must have the auditd package installed."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, "auditd", must_be_installed=True,
                         metadata=_ubuntu_metadata(
                             "V-219149", "medium", self.__doc__ or ""))


class V_219312(UbuntuConfigPattern):
    """[extension] sshd must not allow authentication with empty passwords."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, "/etc/ssh/sshd_config",
                         "PermitEmptyPasswords", "no",
                         metadata=_ubuntu_metadata(
                             "V-219312", "high", self.__doc__ or ""))


class V_219303(UbuntuConfigPattern):
    """[extension] sshd must terminate idle sessions within 600 seconds."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, "/etc/ssh/sshd_config",
                         "ClientAliveInterval", "600",
                         metadata=_ubuntu_metadata(
                             "V-219303", "medium", self.__doc__ or ""))


class V_219166(UbuntuServicePattern):
    """[extension] The ssh service must be enabled and active."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, "ssh",
                         metadata=_ubuntu_metadata(
                             "V-219166", "medium", self.__doc__ or ""))


class V_219150(UbuntuServicePattern):
    """[extension] The rsyslog service must be enabled and active."""

    def __init__(self, host: SimulatedHost):
        super().__init__(host, "rsyslog",
                         metadata=_ubuntu_metadata(
                             "V-219150", "medium", self.__doc__ or ""))


#: Extensions beyond the deliverable's explicit list.
EXTENSION_FINDINGS = (
    V_219155, V_219149, V_219312, V_219303, V_219166, V_219150,
)

ALL_UBUNTU_FINDINGS = D27_FINDINGS + EXTENSION_FINDINGS


def instantiate_all(host: SimulatedHost) -> List[CheckableEnforceableRequirement]:
    """Instantiate every bundled Ubuntu finding for *host* (the Annex 1
    ``Main`` example, as a function)."""
    return [cls(host) for cls in ALL_UBUNTU_FINDINGS]
