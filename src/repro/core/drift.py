"""Drift routing: the object a drift event names, and the one a finding guards.

A drift event (``drift.<kind>``, emitted by the
:class:`~repro.environment.host.SimulatedHost` drift helpers) names the
object it changed in its payload: a package, a configuration key, a
service, an audit subcategory or a registry value.  A drift detector
bound to a catalogue finding watches that finding's object, so a
package drift trips the detectors of that package and no other.

Both rules live here so they cannot drift apart: :func:`event_atom`
reads an event's object off its payload, and :func:`finding_atom`
builds the payload the finding's own drift would carry and reads it the
same way.  ``drift.account`` changes the one lockout policy and names
no object; its findings watch the kind atom.
"""

import functools
from typing import Mapping, Optional, Tuple

#: drift event kind -> the payload fields naming the drifted object.
OBJECT_FIELDS = {
    "drift.package": ("name",),
    "drift.config": ("path", "key"),
    "drift.service": ("name",),
    "drift.audit": ("subcategory",),
    "drift.registry": ("value_name",),
}

_PLAIN = frozenset(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                   b"0123456789")


def mangle(text: str) -> str:
    """*text* as an LTL identifier fragment over ``[A-Za-z0-9_]``.

    ASCII letters and digits stay; every other UTF-8 byte, ``_``
    included, becomes ``_`` and two hex digits.  Each escape starts at a
    ``_`` and has a fixed length, so the map is injective:
    ``rsh-server`` -> ``rsh_2dserver``, ``rsh_server`` ->
    ``rsh_5fserver``.
    """
    return "".join(chr(byte) if byte in _PLAIN else f"_{byte:02x}"
                   for byte in text.encode("utf-8"))


def event_atom(kind: str, payload: Mapping) -> Optional[str]:
    """The object atom of a drift event, or None when its kind names no
    object or its payload lacks a field.

    The atom is the kind, then each object field mangled
    (:func:`mangle`), joined by dots: ``drift.package.telnetd``,
    ``drift.config._2fetc_2fssh_2fsshd_5fconfig.PermitEmptyPasswords``.
    Mangled fields hold no dot, so distinct objects get distinct atoms.
    """
    fields = OBJECT_FIELDS.get(kind)
    if fields is None:
        return None
    try:
        values = [payload[name] for name in fields]
    except KeyError:
        return None
    return ".".join([kind] + [mangle(str(value)) for value in values])


@functools.lru_cache(maxsize=1)
def _finding_rules() -> Tuple[tuple, ...]:
    """``(pattern class, drift kind, drift payload)`` in precedence
    order, where the payload is what that drift of a finding carries.
    Resolved on first use: the rqcode finding modules are not needed to
    route events."""
    from repro.rqcode.ubuntu import (
        UbuntuConfigPattern,
        UbuntuPackagePattern,
        UbuntuServicePattern,
    )
    from repro.rqcode.win10 import AuditPolicyRequirement
    from repro.rqcode.win10_accounts import AccountPolicyRequirement
    from repro.rqcode.win10_registry import RegistryValueRequirement

    return ((UbuntuPackagePattern, "drift.package",
             lambda finding: {"name": finding.package_name}),
            (UbuntuConfigPattern, "drift.config",
             lambda finding: {"path": finding.path, "key": finding.key}),
            (UbuntuServicePattern, "drift.service",
             lambda finding: {"name": finding.service_name}),
            (AuditPolicyRequirement, "drift.audit",
             lambda finding: {"subcategory": finding.get_subcategory()}),
            (RegistryValueRequirement, "drift.registry",
             lambda finding: {"value_name": finding.get_value_name()}),
            (AccountPolicyRequirement, "drift.account",
             lambda finding: {}))


@functools.lru_cache(maxsize=None)
def _class_route(requirement_class) -> Tuple[Optional[str], str]:
    """``(drift kind, watched atom)`` of a finding class; one entry per
    class, so the cache stays as small as the catalogues.

    The concrete findings fix their object in ``__init__``, so it is
    read off an instance on no host (the host is only used by
    check/enforce).
    """
    for pattern_class, kind, payload in _finding_rules():
        if issubclass(requirement_class, pattern_class):
            atom = event_atom(kind, payload(requirement_class(None)))
            return kind, atom if atom is not None else kind
    return None, "drift"


def finding_kind(catalog, finding_id: str) -> Optional[str]:
    """The drift kind that breaks *finding_id*, None for an unknown
    finding class."""
    return _class_route(catalog.get(finding_id).requirement_class)[0]


def finding_atom(catalog, finding_id: str) -> str:
    """The atom a detector bound to *finding_id* watches: the object
    atom of the finding's drift, else its kind atom when the kind names
    no object, else the coarse ``drift`` for an unknown class."""
    return _class_route(catalog.get(finding_id).requirement_class)[1]
