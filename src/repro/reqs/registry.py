"""Front-end registry: where native requirement shapes meet the IR.

A *front-end* is anything that produces requirements in its own
vocabulary — the NALABS analyzer, the RESA boilerplate matcher, the
RQCODE catalogue, the vulnerability database, a standard.  Each one
registers a :class:`FrontendAdapter` that lowers its native objects
into :class:`~repro.reqs.ir.Requirement` records; consumers then never
special-case sources again, they iterate IR.

Every lowering passes through :func:`lint_requirements` on the way out:
an adapter emitting a record without a provenance chain (or with blank
chain links, or duplicate ids) is a contract violation and raises
:class:`ProvenanceError` / :class:`AdapterContractError` immediately,
at the adapter boundary, instead of surfacing as an untraceable
artifact three stages later.
"""

import enum
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Union)

from repro.reqs.ir import Requirement


class RequirementSource(enum.Enum):
    """Where a requirement came from (the three WP2 inputs)."""

    NATURAL_LANGUAGE = "natural-language"
    VULNERABILITY_DB = "vulnerability-db"
    STANDARD = "standard"


class AdapterContractError(ValueError):
    """An adapter emitted records violating the IR contract."""


class ProvenanceError(AdapterContractError):
    """An adapter emitted records without a usable provenance chain."""


@dataclass(frozen=True)
class RejectedNative:
    """One native that failed to lower on the streaming path.

    :meth:`FrontendRegistry.lower_iter` yields these in place of the
    records a malformed native would have produced, so one bad item in
    a live feed surfaces as a provenance-linted error *for that item*
    without poisoning the rest of the batch (the batch path,
    :meth:`FrontendRegistry.lower`, stays all-or-nothing).
    """

    frontend: str
    #: Position of the offending native in the input stream.
    index: int
    #: ``repr`` of the native, truncated — enough to find it upstream.
    native: str
    #: The lint/adapter error message.
    error: str
    #: Provenance-chain hint (catalogue id: a CWE/CAPEC/CVE/finding
    #: id) when the adapter can name one — what makes a rejection
    #: traceable upstream without parsing the native's repr.
    ref: str = ""

    def render(self) -> str:
        subject = (f"native #{self.index} ({self.ref})" if self.ref
                   else f"native #{self.index}")
        return (f"front-end {self.frontend!r}: {subject} "
                f"rejected: {self.error}")


class FrontendAdapter:
    """Base contract for front-end adapters.

    Subclasses set :attr:`name` (the registry key), :attr:`native`
    (a one-line description of the native shape) and
    :attr:`requirement_source` (the WP2 input their records count as),
    and implement:

    * :meth:`lower` — native objects -> list of IR records.  ``ids``
      is an optional callable allocating requirement ids (the
      orchestrator passes its counter so records ingested through the
      native API and through the IR path are literally identical);
      omitted, the adapter uses its deterministic source-derived ids.
    * :meth:`discover` — the bundled native corpus, so registry-wide
      operations (``repro reqs list``, the CI smoke) have data without
      external inputs.

    Adapters whose sources are enforceable also implement
    :meth:`raise_artifacts`, the inverse direction: IR -> the
    checkable/enforceable objects for a host.
    """

    name = "adapter"
    native = ""
    requirement_source = RequirementSource.NATURAL_LANGUAGE

    def lower(self, natives: Sequence,
              ids: Optional[Callable[[], str]] = None
              ) -> List[Requirement]:
        raise NotImplementedError

    def discover(self) -> Sequence:
        return ()

    def raise_artifacts(self, record: Requirement, host):
        """IR -> native enforceable artifacts for *host* (default: none)."""
        raise AdapterContractError(
            f"front-end {self.name!r} cannot raise IR back into "
            f"enforceable artifacts")

    def native_ref(self, native) -> str:
        """The catalogue id of one native (its provenance-chain hint).

        Used to label streaming rejections so a malformed catalogue
        entry is traceable upstream by its own id (CWE/CAPEC/CVE/
        finding id) instead of only its position in the feed.  Return
        ``""`` when the native carries no stable id.
        """
        return ""

    def id_factory(self) -> Optional[Callable[[], str]]:
        """A default id allocator spanning one *logical* lowering.

        Streaming (:meth:`FrontendRegistry.lower_iter`) splits a feed
        into many :meth:`lower` calls; an adapter whose default ids are
        positional (a fresh per-call counter) would restart numbering
        every batch and collide.  Such adapters return a fresh counter
        here so the registry can thread it across batches; adapters
        with source-derived ids keep the ``None`` default.
        """
        return None


def lint_requirements(records: Iterable[Requirement],
                      frontend: str = "") -> List[Requirement]:
    """Reject records that would be untraceable or collide.

    Checks every record carries a non-empty provenance chain whose
    links all have a kind and a ref, and that no two records share an
    id.  Returns the records as a list when clean.
    """
    label = f"front-end {frontend!r}: " if frontend else ""
    records = list(records)
    seen: Dict[str, int] = {}
    for record in records:
        if not record.provenance:
            raise ProvenanceError(
                f"{label}record {record.rid!r} has an empty provenance "
                f"chain; every IR record must say where it came from")
        for index, link in enumerate(record.provenance):
            if not link.kind or not link.ref:
                raise ProvenanceError(
                    f"{label}record {record.rid!r} provenance link "
                    f"#{index} lacks kind/ref: {link!r}")
        if record.rid in seen:
            raise AdapterContractError(
                f"{label}duplicate requirement id {record.rid!r}")
        seen[record.rid] = 1
    return records


class FrontendRegistry:
    """Named adapters, with linted lowering across all of them."""

    def __init__(self) -> None:
        self._adapters: Dict[str, FrontendAdapter] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._adapters

    def __len__(self) -> int:
        return len(self._adapters)

    def register(self, adapter: FrontendAdapter) -> FrontendAdapter:
        if not adapter.name or adapter.name == FrontendAdapter.name:
            raise AdapterContractError(
                f"adapter {type(adapter).__name__} must set a name")
        if adapter.name in self._adapters:
            raise AdapterContractError(
                f"duplicate front-end name: {adapter.name!r}")
        self._adapters[adapter.name] = adapter
        return adapter

    def get(self, name: str) -> FrontendAdapter:
        if name not in self._adapters:
            raise KeyError(
                f"no front-end {name!r}; registered: {self.names()}")
        return self._adapters[name]

    def names(self) -> List[str]:
        return sorted(self._adapters)

    def sources(self) -> Dict[str, RequirementSource]:
        """Front-end name -> the WP2 source its adapter declares."""
        return {name: adapter.requirement_source
                for name, adapter in sorted(self._adapters.items())}

    def lower(self, name: str, natives: Sequence,
              ids: Optional[Callable[[], str]] = None
              ) -> List[Requirement]:
        """Lower *natives* through the named adapter, linted."""
        adapter = self.get(name)
        return lint_requirements(adapter.lower(natives, ids=ids), name)

    def lower_iter(self, name: str, natives: Iterable,
                   ids: Optional[Callable[[], str]] = None,
                   batch_size: int = 8,
                   budget=None,
                   ) -> Iterator[Union[Requirement, RejectedNative]]:
        """Incremental lowering: yield IR records as natives arrive.

        The streaming counterpart of :meth:`lower`.  *natives* may be
        any iterable — including a live generator that blocks between
        items — and records are yielded as soon as their batch lowers,
        so a consumer (the SOC re-arm plane, the ``--stream`` CLI) sees
        IR while the feed is still producing.

        Differences from the batch path, all deliberate:

        * **Per-adapter batching** — natives are lowered *batch_size*
          at a time, amortizing adapter setup without waiting for the
          end of the feed.
        * **Error isolation** — when a batch fails to lower or lint,
          it is retried native-by-native and only the offenders are
          replaced by :class:`RejectedNative` markers carrying the
          provenance-lint error; the rest of the batch flows on.  A
          rid colliding with one already yielded by *this iteration*
          is rejected the same way (the whole-sequence duplicate check
          :meth:`lower` gets from :func:`lint_requirements`).
        * **Backpressure** — when *budget* (an
          :class:`~repro.reqs.stream.IngestBudget`) is given, one
          credit is acquired per yielded record, blocking the feed
          when downstream (the SOC shard queues) is saturated.
          Rejections don't consume credits.
        """
        adapter = self.get(name)
        if ids is None:
            # One allocator for the whole feed: positional default ids
            # must not restart per batch (see id_factory).
            ids = adapter.id_factory()
        seen_rids: Dict[str, int] = {}
        index = 0
        batch: List = []
        starts: List[int] = []

        def ref_of(native) -> str:
            try:
                return str(adapter.native_ref(native) or "")[:80]
            except Exception:
                return ""

        def lower_one(native, position):
            try:
                records = lint_requirements(
                    adapter.lower([native], ids=ids), name)
            except Exception as exc:
                return [RejectedNative(
                    frontend=name, index=position,
                    native=repr(native)[:200], error=str(exc),
                    ref=ref_of(native))]
            out = []
            for record in records:
                if record.rid in seen_rids:
                    out.append(RejectedNative(
                        frontend=name, index=position,
                        native=repr(native)[:200],
                        error=(f"duplicate requirement id {record.rid!r} "
                               f"(first lowered from native "
                               f"#{seen_rids[record.rid]})"),
                        ref=ref_of(native)))
                else:
                    seen_rids[record.rid] = position
                    out.append(record)
            return out

        def flush():
            if not batch:
                return
            try:
                records = lint_requirements(
                    adapter.lower(list(batch), ids=ids), name)
            except Exception:
                # Isolate the offender(s): re-lower one native at a
                # time so the rest of the batch still flows.
                records = None
            if records is None:
                produced: List[Union[Requirement, RejectedNative]] = []
                for native, position in zip(batch, starts):
                    produced.extend(lower_one(native, position))
            else:
                produced = []
                for record in records:
                    if record.rid in seen_rids:
                        produced.append(RejectedNative(
                            frontend=name, index=starts[0],
                            native=repr(record.rid)[:200],
                            error=(f"duplicate requirement id "
                                   f"{record.rid!r} (first lowered from "
                                   f"native #{seen_rids[record.rid]})"),
                            ref=(record.provenance[0].ref
                                 if record.provenance else "")))
                    else:
                        seen_rids[record.rid] = starts[0]
                        produced.append(record)
            for item in produced:
                if budget is not None and isinstance(item, Requirement):
                    budget.acquire()
                yield item
            batch.clear()
            starts.clear()

        for native in natives:
            batch.append(native)
            starts.append(index)
            index += 1
            if len(batch) >= max(1, batch_size):
                for item in flush():
                    yield item
        for item in flush():
            yield item

    def lower_bundled(self, name: str) -> List[Requirement]:
        """Lower the adapter's bundled corpus, linted."""
        adapter = self.get(name)
        return lint_requirements(adapter.lower(adapter.discover()), name)

    def lower_all_bundled(self) -> Dict[str, List[Requirement]]:
        """Every registered front-end's bundled corpus as IR."""
        return {name: self.lower_bundled(name) for name in self.names()}


def default_registry() -> FrontendRegistry:
    """A registry with the seven bundled front-ends registered."""
    from repro.reqs.adapters import (
        CapecAdapter,
        CweAdapter,
        NalabsAdapter,
        ResaAdapter,
        RqcodeAdapter,
        StandardsAdapter,
        VulndbAdapter,
    )

    registry = FrontendRegistry()
    registry.register(NalabsAdapter())
    registry.register(ResaAdapter())
    registry.register(RqcodeAdapter())
    registry.register(VulndbAdapter())
    registry.register(StandardsAdapter())
    registry.register(CweAdapter())
    registry.register(CapecAdapter())
    return registry
