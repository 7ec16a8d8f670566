"""Fixed-width binary codec for the SOC's cross-process event plane.

The compiled-LTL engine steps a monitor on ``step & obligation.atoms()``
— only atoms that occur in some armed formula can ever matter.  The
codec exploits that: the parent enumerates the fleet's **atom
vocabulary** once (union of every armed formula's atoms, sorted), gives
each atom a bit, and an event crossing the process boundary is just

    host id (u32) · kind id (u32) · logical time (u64) · atom bits (u64 x W)

where ``W = ceil(len(vocabulary) / 64)`` words cover the vocabulary.
Everything else about the event (its kind string, its payload) stays in
the parent; workers never need it — kind ids are echoed back opaquely
on detection records so the parent can stamp incidents.

Both planes use one fixed slot size so a ring is an array of equal
cells:

* **ingress** records (parent -> worker): tagged EVENT / FLUSH / STOP;
* **merge** records (worker -> parent): DETECTION / PROGRESS / STRIKE /
  DEAD_LETTER / VERDICT / FLUSHED / BYE.

All integers are little-endian.  Encoding is symmetric and total: every
record a producer can emit, the consumer can decode — property-tested
for round-trip identity in ``tests/test_soc_procplane.py``.
"""

import enum
import struct
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple


class Tag(enum.IntEnum):
    """First byte of every slot on either plane."""

    # ingress plane (parent -> worker)
    EVENT = 1
    FLUSH = 2          # barrier probe: echo the token back when reached
    STOP = 3           # finalize: emit VERDICT records, then BYE, then exit
    REARM = 4          # manifest-delta chunk (live re-arm, JSON payload)

    # merge plane (worker -> parent)
    DETECTION = 16     # one monitor went FALSE on one event
    PROGRESS = 17      # per-batch counter deltas
    STRIKE = 18        # poison bookkeeping that must survive a restart
    DEAD_LETTER = 19   # delivery budget exhausted; parent parks it
    VERDICT = 20       # final monitor state (on STOP)
    FLUSHED = 21       # barrier echo
    BYE = 22           # clean worker exit
    REARMED = 23       # re-arm generation applied (echo)


# Ingress EVENT: tag, host_id, kind_id, time  (+ atom-bit words appended).
_EVENT_HEAD = struct.Struct("<BIIQ")
# FLUSH / FLUSHED: tag, token.
_FLUSH = struct.Struct("<BQ")
# DETECTION: tag, host_id, monitor_id, kind_id, time.
_DETECTION = struct.Struct("<BIIIQ")
# PROGRESS: tag, processed, stepped, duplicates, session_errors.
_PROGRESS = struct.Struct("<BQQQQ")
# STRIKE / DEAD_LETTER: tag, host_id, kind_id, strikes, time, reason.
_STRIKE = struct.Struct("<BIIIQB")
# VERDICT: tag, monitor_id, verdict code (+ 16-byte obligation id).
_VERDICT = struct.Struct("<BIB")
# STOP / BYE: tag, code.
_CODE = struct.Struct("<BB")
# REARM chunk header: tag, generation, seq, total, payload length
# (payload bytes follow inside the same slot).
_REARM = struct.Struct("<BIIIH")

#: Dead-letter reason codes (mirror the thread backend's reason strings).
REASONS = (
    "delivery budget exhausted",
    "worker crash loop",
    "session error",
    "hang while deposed",
)
REASON_CODES = {reason: code for code, reason in enumerate(REASONS)}

_VERDICT_CODES = {"TRUE": 0, "FALSE": 1, "INCONCLUSIVE": 2}
_VERDICT_NAMES = {code: name for name, code in _VERDICT_CODES.items()}


def slot_size(words: int) -> int:
    """One slot fits the largest record of either plane.

    EVENT needs ``17 + 8 * words``; VERDICT needs 22 (6 + 16-byte
    obligation id); DETECTION and PROGRESS stay under EVENT for any
    ``words >= 1``.  Rounded up to an 8-byte multiple so slots stay
    aligned in the ring.
    """
    need = max(_EVENT_HEAD.size + 8 * words,
               _VERDICT.size + 16,
               _PROGRESS.size,
               _STRIKE.size)
    return (need + 7) & ~7


class EventCodec:
    """Encode/decode ingress-plane records against one atom vocabulary.

    Built once per service from the fleet's armed formulas; the worker
    side is rebuilt in each process from the manifest's atom list, so
    bit assignments agree by construction (the list *is* the wire
    order).
    """

    def __init__(self, atoms: Sequence[str], reserve: int = 0):
        self.atoms: List[str] = list(atoms)
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("duplicate atoms in vocabulary")
        self.bit: Dict[str, int] = {atom: index
                                    for index, atom in enumerate(self.atoms)}
        # ``reserve`` sizes the bit words for a vocabulary that may
        # *grow* (live re-arming adds formulas with new atoms): slots
        # are fixed at ring creation, so spare bits must be provisioned
        # up front.  :meth:`extend` appends within this capacity.
        self.words = max(1, (max(len(self.atoms), reserve) + 63) // 64)
        self.slot = slot_size(self.words)
        self._word_struct = struct.Struct("<" + "Q" * self.words)
        # One struct for the whole EVENT record: a single pack/unpack
        # call per event on both sides of the plane.
        self._event_struct = struct.Struct("<BIIQ" + "Q" * self.words)
        #: step frozenset -> packed bit words, memoized (event kinds are
        #: a small closed vocabulary, so this hits ~always).
        self._bits_memo: Dict[FrozenSet[str], Tuple[int, ...]] = {}
        #: packed bit words -> step frozenset (worker-side memo).
        self._step_memo: Dict[Tuple[int, ...], FrozenSet[str]] = {}

    @classmethod
    def for_formulas(cls, formulas: Iterable, spare: int = 0) -> "EventCodec":
        """Codec over the formulas' atom union, with *spare* extra
        atom slots of growth headroom for live re-arming."""
        atoms = set()
        for formula in formulas:
            atoms |= formula.atoms()
        return cls(sorted(atoms), reserve=len(atoms) + spare)

    @property
    def capacity(self) -> int:
        """How many atoms the provisioned bit words can carry."""
        return self.words * 64

    def extend(self, new_atoms: Sequence[str]) -> List[str]:
        """Append atoms to the vocabulary, preserving existing bits.

        Appending never moves an assigned bit, so records packed
        against the old vocabulary decode identically — worker-side
        ``_step_memo`` entries stay valid (old bit patterns cannot have
        new-atom bits set).  The parent-side ``_bits_memo`` *is*
        cleared: a step containing a newly-vocabularized atom must
        re-project to pick up its bit.  Raises ``ValueError`` past the
        provisioned capacity (callers fall back to a full restart).
        Returns the atoms actually appended.
        """
        appended = [atom for atom in dict.fromkeys(new_atoms)
                    if atom not in self.bit]
        if not appended:
            return []
        if len(self.atoms) + len(appended) > self.capacity:
            raise ValueError(
                f"atom vocabulary overflow: {len(self.atoms)} armed + "
                f"{len(appended)} new > capacity {self.capacity}")
        for atom in appended:
            self.bit[atom] = len(self.atoms)
            self.atoms.append(atom)
        self._bits_memo.clear()
        return appended

    # -- step <-> bits ------------------------------------------------------

    def project(self, step: FrozenSet[str]) -> Tuple[int, ...]:
        """The step's vocabulary projection as packed bit words."""
        bits = self._bits_memo.get(step)
        if bits is None:
            words = [0] * self.words
            bit = self.bit
            for atom in step:
                index = bit.get(atom)
                if index is not None:
                    words[index >> 6] |= 1 << (index & 63)
            bits = self._bits_memo.setdefault(step, tuple(words))
        return bits

    def unproject(self, bits: Tuple[int, ...]) -> FrozenSet[str]:
        """Packed bit words back to the projected step."""
        step = self._step_memo.get(bits)
        if step is None:
            atoms = []
            for word_index, word in enumerate(bits):
                base = word_index << 6
                while word:
                    low = word & -word
                    atoms.append(self.atoms[base + low.bit_length() - 1])
                    word ^= low
            step = self._step_memo.setdefault(bits, frozenset(atoms))
        return step

    # -- records ------------------------------------------------------------

    def pack_event(self, buffer, offset: int, host_id: int, kind_id: int,
                   time: int, bits: Tuple[int, ...]) -> None:
        self._event_struct.pack_into(buffer, offset, Tag.EVENT, host_id,
                                     kind_id, time, *bits)

    def unpack_event(self, buffer, offset: int):
        record = self._event_struct.unpack_from(buffer, offset)
        return record[1], record[2], record[3], record[4:]


class MergeCodec:
    """Encode/decode both planes' control and merge records.

    Stateless (no vocabulary): everything here is fixed-layout.  Kept
    separate from :class:`EventCodec` so the merge loop and the worker
    share one tiny, obviously-symmetric codec object.
    """

    # -- control (ingress plane) --------------------------------------------

    @staticmethod
    def pack_flush(buffer, offset: int, token: int) -> None:
        _FLUSH.pack_into(buffer, offset, Tag.FLUSH, token)

    @staticmethod
    def pack_stop(buffer, offset: int) -> None:
        _CODE.pack_into(buffer, offset, Tag.STOP, 0)

    @staticmethod
    def rearm_payload_capacity(slot: int) -> int:
        """Payload bytes one REARM chunk slot can carry."""
        return slot - _REARM.size

    @staticmethod
    def pack_rearm_chunk(buffer, offset: int, generation: int, seq: int,
                         total: int, payload: bytes) -> None:
        _REARM.pack_into(buffer, offset, Tag.REARM, generation, seq,
                         total, len(payload))
        start = offset + _REARM.size
        buffer[start:start + len(payload)] = payload

    @staticmethod
    def unpack_rearm_chunk(buffer, offset: int):
        _, generation, seq, total, length = _REARM.unpack_from(buffer,
                                                               offset)
        start = offset + _REARM.size
        return generation, seq, total, bytes(buffer[start:start + length])

    # -- merge records ------------------------------------------------------

    @staticmethod
    def pack_detection(buffer, offset: int, host_id: int, monitor_id: int,
                       kind_id: int, time: int) -> None:
        _DETECTION.pack_into(buffer, offset, Tag.DETECTION, host_id,
                             monitor_id, kind_id, time)

    @staticmethod
    def unpack_detection(buffer, offset: int):
        _, host_id, monitor_id, kind_id, time = _DETECTION.unpack_from(
            buffer, offset)
        return host_id, monitor_id, kind_id, time

    @staticmethod
    def pack_progress(buffer, offset: int, processed: int, stepped: int,
                      duplicates: int, session_errors: int) -> None:
        _PROGRESS.pack_into(buffer, offset, Tag.PROGRESS, processed,
                            stepped, duplicates, session_errors)

    @staticmethod
    def unpack_progress(buffer, offset: int):
        return _PROGRESS.unpack_from(buffer, offset)[1:]

    @staticmethod
    def pack_strike(buffer, offset: int, tag: int, host_id: int,
                    kind_id: int, strikes: int, time: int,
                    reason_code: int) -> None:
        _STRIKE.pack_into(buffer, offset, tag, host_id, kind_id, strikes,
                          time, reason_code)

    @staticmethod
    def unpack_strike(buffer, offset: int):
        _, host_id, kind_id, strikes, time, reason = _STRIKE.unpack_from(
            buffer, offset)
        return host_id, kind_id, strikes, time, reason

    @staticmethod
    def pack_verdict(buffer, offset: int, monitor_id: int, verdict: str,
                     obligation_digest: bytes) -> None:
        _VERDICT.pack_into(buffer, offset, Tag.VERDICT, monitor_id,
                           _VERDICT_CODES[verdict])
        end = offset + _VERDICT.size
        buffer[end:end + 16] = obligation_digest

    @staticmethod
    def unpack_verdict(buffer, offset: int):
        _, monitor_id, code = _VERDICT.unpack_from(buffer, offset)
        end = offset + _VERDICT.size
        return monitor_id, _VERDICT_NAMES[code], bytes(buffer[end:end + 16])

    @staticmethod
    def pack_flushed(buffer, offset: int, token: int) -> None:
        _FLUSH.pack_into(buffer, offset, Tag.FLUSHED, token)

    @staticmethod
    def unpack_flushed(buffer, offset: int) -> int:
        return _FLUSH.unpack_from(buffer, offset)[1]

    @staticmethod
    def pack_bye(buffer, offset: int, code: int = 0) -> None:
        _CODE.pack_into(buffer, offset, Tag.BYE, code)

    @staticmethod
    def pack_rearmed(buffer, offset: int, generation: int) -> None:
        _FLUSH.pack_into(buffer, offset, Tag.REARMED, generation)

    @staticmethod
    def unpack_rearmed(buffer, offset: int) -> int:
        return _FLUSH.unpack_from(buffer, offset)[1]
