"""The simulated host that requirements are checked and enforced against."""

from typing import Dict, Optional

from repro.environment.accounts import AccountStore
from repro.environment.auditpol import AuditPolicyStore, SimulatedAuditPol
from repro.environment.configstore import ConfigFileStore
from repro.environment.dpkg import SimulatedDpkg
from repro.environment.events import EventLog
from repro.environment.services import ServiceManager


class SimulatedHost:
    """One machine under management.

    A host aggregates the subsystems the STIG catalogue touches:

    * ``auditpol`` — Windows advanced audit policy (text tool + store)
    * ``dpkg`` — package database
    * ``config`` — key/value configuration files
    * ``services`` — unit table
    * ``settings`` — a flat registry for miscellaneous host settings
      (Windows registry values, sysctl knobs) keyed by dotted path
    * ``events`` — the append-only event log every mutation lands in

    The ``os_family`` tag ("windows" or "ubuntu") routes requirements to
    the right backends but does not restrict them: a Windows host still
    has a (mostly empty) package database, which keeps cross-platform
    batch runs total rather than partial.
    """

    def __init__(self, name: str, os_family: str,
                 package_universe: Optional[Dict[str, str]] = None):
        if os_family not in ("windows", "ubuntu"):
            raise ValueError(f"unsupported os_family: {os_family!r}")
        self.name = name
        self.os_family = os_family
        self.events = EventLog()
        self.audit_store = AuditPolicyStore()
        self.auditpol = SimulatedAuditPol(self.audit_store, self.events)
        self.dpkg = SimulatedDpkg(package_universe, self.events)
        self.config = ConfigFileStore()
        self.services = ServiceManager(self.events)
        self.accounts = AccountStore(self.events)
        self._settings: Dict[str, str] = {}

    def __repr__(self) -> str:
        return f"SimulatedHost(name={self.name!r}, os_family={self.os_family!r})"

    # -- flat settings registry ----------------------------------------------

    def get_setting(self, key: str, default: Optional[str] = None
                    ) -> Optional[str]:
        """Read a dotted-path host setting (registry value / sysctl knob)."""
        return self._settings.get(key, default)

    def set_setting(self, key: str, value: str) -> None:
        """Write a host setting, logging the change to the event stream."""
        before = self._settings.get(key)
        self._settings[key] = value
        if before != value:
            self.events.emit("setting.changed", key=key,
                             before=before, after=value)

    # -- drift injection ------------------------------------------------------

    def drift_audit_policy(self, subcategory: str,
                           clear_success: bool = True,
                           clear_failure: bool = True) -> None:
        """Adversarially clear audit flags on one subcategory.

        By default resets the subcategory to No Auditing; pass
        ``clear_failure=False`` (or ``clear_success=False``) to tamper
        only one flag — useful when the drift should map to exactly one
        enforceable finding.  Used by the protection-loop benchmarks to
        model configuration drift in operations.
        """
        before = self.audit_store.get(subcategory).render()
        self.audit_store.set(
            subcategory,
            success=False if clear_success else None,
            failure=False if clear_failure else None)
        self.events.emit("drift.audit", subcategory=subcategory, before=before)

    def drift_install_package(self, name: str) -> None:
        """Adversarially install a prohibited package (drift injection)."""
        self.dpkg.install(name)
        self.events.emit("drift.package", name=name)

    def drift_remove_package(self, name: str) -> None:
        """Adversarially remove a required package (drift injection)."""
        self.dpkg.remove(name)
        self.events.emit("drift.package", name=name)

    def drift_config_value(self, path: str, key: str, value: str) -> None:
        """Adversarially flip a configuration key (drift injection)."""
        before = self.config.get(path, key)
        self.config.set(path, key, value)
        self.events.emit("drift.config", path=path, key=key,
                         before=before, after=value)

    def drift_account_policy(self, threshold: int = 0,
                             duration_minutes: int = 0) -> None:
        """Adversarially weaken the lockout policy (drift injection)."""
        before = (self.accounts.policy.threshold,
                  self.accounts.policy.duration_minutes)
        self.accounts.policy.threshold = threshold
        self.accounts.policy.duration_minutes = duration_minutes
        self.events.emit("drift.account", before=before,
                         after=(threshold, duration_minutes))

    def drift_registry_value(self, value_name: str, value: str) -> None:
        """Adversarially rewrite a registry value (drift injection)."""
        key = f"registry.{value_name}"
        before = self._settings.get(key)
        self._settings[key] = value
        self.events.emit("drift.registry", value_name=value_name,
                         before=before, after=value)

    def drift_stop_service(self, name: str) -> None:
        """Adversarially stop and disable a service (drift injection)."""
        if self.services.known(name):
            self.services.stop(name)
            self.services.disable(name)
        self.events.emit("drift.service", name=name)
