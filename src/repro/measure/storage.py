"""Record persistence: JSON-lines files (the released-data format).

Large crawls stream: :func:`save_records` can append shard output as it
arrives (``append=True``) and :func:`iter_records` yields records one
line at a time, so neither side ever materialises the full list.

Crash tolerance: a writer that dies mid-append leaves a *torn* final
line (truncated JSON with no trailing record after it).  The readers
here skip exactly that case with a :class:`TornRecordWarning` instead
of raising — the crawl engine's resume path depends on it — while
invalid JSON *followed by more records* is still hard corruption and
raises.

Zero-copy pass-through: a record that only travels (worker → parent →
spool, or checkpoint → resume spool) never needs its typed object.
:class:`RawRecord` wraps the canonical serialized line instead; it
writes itself back byte-identically through :func:`save_records` and
decodes lazily — only when a consumer actually inspects a field.
:func:`record_decode_count` counts real :func:`decode_record` calls in
this process, so tests can assert a transport path stayed zero-copy.
"""

from __future__ import annotations

import heapq
import json
import os
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, TextIO, Tuple, Union

from repro.measure.records import CookieMeasurement, UBlockRecord, VisitRecord

_RECORD_TYPES = {
    "VisitRecord": VisitRecord,
    "CookieMeasurement": CookieMeasurement,
    "UBlockRecord": UBlockRecord,
}


class TornRecordWarning(UserWarning):
    """A truncated trailing JSONL line (crashed writer) was skipped."""


#: Real record deserialisations performed in this process — the
#: observable half of the zero-copy contract (see
#: :func:`record_decode_count`).
_DECODE_CALLS = 0


def encode_record(record) -> Dict[str, object]:
    """The JSONL payload for one record (``{"type", "data"}``)."""
    return {"type": type(record).__name__, "data": record.to_dict()}


def decode_record(payload: Dict[str, object]):
    """Rebuild a record from its :func:`encode_record` payload."""
    global _DECODE_CALLS
    _DECODE_CALLS += 1
    type_name = payload.get("type")
    record_cls = _RECORD_TYPES.get(type_name)
    if record_cls is None:
        raise ValueError(f"unknown record type {type_name!r}")
    return record_cls.from_dict(payload["data"])


def record_decode_count() -> int:
    """How many :func:`decode_record` calls this process has made.

    Pass-through paths (worker outcome absorption, spool writes,
    checkpoint reconciliation) must not move this counter; tests pin
    the zero-copy contract by snapshotting it around a transport leg.
    """
    return _DECODE_CALLS


#: Torn trailing lines skipped by :func:`iter_jsonl` in this process.
#: The chaos suite snapshots it around a merge/resume to assert a torn
#: spool or checkpoint was *tolerated* (not silently absent).
_TORN_LINES = 0


def torn_line_count() -> int:
    """How many torn trailing JSONL lines this process has skipped."""
    return _TORN_LINES


def note_torn_line(path, bad_line: int, error: Exception) -> None:
    """Count and warn about one skipped torn trailing line.

    The single funnel every torn-tolerant reader (spool, checkpoint
    scan) reports through, so :func:`torn_line_count` observes all of
    them.
    """
    global _TORN_LINES
    _TORN_LINES += 1
    warnings.warn(
        f"{path}:{bad_line}: skipping torn trailing line "
        f"(crashed writer? {error})",
        TornRecordWarning,
        stacklevel=3,
    )


def validate_record_payload(payload) -> None:
    """Structurally check an :func:`encode_record` payload *without*
    building the record.

    Raises :class:`ValueError` on an unknown type or a missing data
    body — the same refusal a :func:`decode_record` would produce —
    while leaving the (lazy, zero-copy) deserialisation for whoever
    eventually inspects the record's fields.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"record payload is not an object: {payload!r}")
    type_name = payload.get("type")
    if type_name not in _RECORD_TYPES:
        raise ValueError(f"unknown record type {type_name!r}")
    if not isinstance(payload.get("data"), dict):
        raise ValueError(f"record payload of type {type_name!r} has no data")


def encode_record_line(record) -> str:
    """The canonical serialized JSONL line for *record* (no newline).

    This is the exact string :func:`save_records` writes; producing it
    once at the source lets the record travel as opaque bytes
    (:class:`RawRecord`) through every later hop.
    """
    if isinstance(record, RawRecord):
        return record.raw
    return json.dumps(encode_record(record), ensure_ascii=False)


class RawRecord:
    """A record still in its canonical serialized form (zero-copy).

    Wraps the exact JSONL line :func:`save_records` would write, so
    transport paths (process-worker absorption, checkpoint lines,
    spool writes) move bytes instead of decode/encode round-trips.
    The typed record is built lazily — :meth:`materialize` on first
    field access — and cached; until then no :func:`decode_record`
    happens.  Attribute reads and equality forward to the
    materialised record, so a ``RawRecord`` substitutes for its record
    anywhere fields are merely *inspected*.
    """

    __slots__ = ("raw", "_record")

    def __init__(self, raw: str) -> None:
        self.raw = raw
        self._record = None

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "RawRecord":
        """Wrap an already-parsed :func:`encode_record` payload.

        Re-dumping a canonically produced payload is byte-identical to
        the original line, so the wrapper stays write-through exact.
        """
        return cls(json.dumps(payload, ensure_ascii=False))

    @classmethod
    def from_record(cls, record) -> "RawRecord":
        """Serialize a typed record once, up front."""
        return cls(encode_record_line(record))

    def materialize(self):
        """The typed record (decoded on first call, then cached)."""
        if self._record is None:
            self._record = decode_record(json.loads(self.raw))
        return self._record

    def __getattr__(self, name):
        # Field inspection is the moment the zero-copy contract allows
        # a decode; everything before this is pure pass-through.
        return getattr(self.materialize(), name)

    def __eq__(self, other) -> bool:
        if isinstance(other, RawRecord):
            return self.materialize() == other.materialize()
        return self.materialize() == other

    def __repr__(self) -> str:
        status = "decoded" if self._record is not None else "raw"
        return f"RawRecord({status}, {len(self.raw)} bytes)"


def materialize_record(record):
    """*record* as its typed object (:class:`RawRecord`-transparent)."""
    if isinstance(record, RawRecord):
        return record.materialize()
    return record


@contextmanager
def atomic_replace(path: Union[str, Path]) -> Iterator[TextIO]:
    """Open a text handle whose content replaces *path* only on success.

    The content goes to a uniquely named temp file in *path*'s
    directory (``tempfile.mkstemp``, so concurrent writers never share
    one), is fsynced, and is then ``replace``d into place.  If the body
    raises, the temp file is unlinked and *path* is left exactly as it
    was: an interrupted write never clobbers a previous complete file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def save_records(
    records: Iterable, path: Union[str, Path], *, append: bool = False
) -> int:
    """Write records as JSON lines; returns the number written.

    A plain write replaces *path* atomically (:func:`atomic_replace`).
    With ``append=True`` the records are appended to an existing file
    (creating it when missing) — the streaming mode the crawl engine
    uses to spill each shard's output as it finishes.  A
    :class:`RawRecord` is written straight from its serialized bytes
    (no decode), byte-identically to writing the typed record.
    """
    path = Path(path)
    if not append:
        with atomic_replace(path) as handle:
            return _write_records(records, handle)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        return _write_records(records, handle)


def _write_records(records: Iterable, handle: TextIO) -> int:
    count = 0
    for record in records:
        handle.write(encode_record_line(record) + "\n")
        count += 1
    return count


def iter_jsonl(path: Union[str, Path]) -> Iterator[Tuple[int, Dict]]:
    """Yield ``(line_number, payload)`` pairs from a JSONL file.

    Tolerates exactly one torn *final* line: when the last non-empty
    line is not valid JSON (a writer crashed mid-append), it is skipped
    with a :class:`TornRecordWarning`.  Invalid JSON anywhere else is
    corruption and raises :class:`ValueError`.
    """
    path = Path(path)
    #: A decode failure is held back one line: only if another record
    #: follows is it real corruption rather than a torn final write.
    pending: "Tuple[int, json.JSONDecodeError] | None" = None
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if pending is not None:
                bad_line, error = pending
                raise ValueError(
                    f"{path}:{bad_line}: invalid JSON mid-file ({error})"
                )
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                pending = (line_number, error)
                continue
            yield line_number, payload
    if pending is not None:
        bad_line, error = pending
        note_torn_line(path, bad_line, error)


def iter_records(path: Union[str, Path]) -> Iterator:
    """Yield records from *path* one at a time (streaming reader).

    A torn final line — the crash-mid-write case — is skipped with a
    :class:`TornRecordWarning` (see :func:`iter_jsonl`); a structurally
    complete record of an unknown type still raises.
    """
    path = Path(path)
    for line_number, payload in iter_jsonl(path):
        try:
            yield decode_record(payload)
        except ValueError as error:
            raise ValueError(f"{path}:{line_number}: {error}") from None


def load_records(path: Union[str, Path]) -> List:
    """Read records back; the inverse of :func:`save_records`."""
    # reprolint: disable=materialized-records -- this IS the deliberately materialising API the rule bans at call sites
    return list(iter_records(path))


# ---------------------------------------------------------------------------
# Spool-backed merging (the crawl engine's O(shard-buffer) merge)
# ---------------------------------------------------------------------------

def iter_merged_jsonl(
    paths: Sequence[Union[str, Path]], *, key: str = "index"
) -> Iterator[Dict]:
    """K-way merge of JSONL files whose payloads are sorted by *key*.

    Each input file must already be ordered by ``payload[key]`` (the
    crawl engine writes per-shard spools in plan order, which is index
    order within a shard).  The merge is streaming: memory use is one
    buffered payload per input file, never the union — this is what
    lets a merged crawl output stay O(shards) for worlds far beyond
    paper scale.
    """

    def stream(path):
        for _, payload in iter_jsonl(path):
            yield payload

    return heapq.merge(*(stream(p) for p in paths), key=lambda p: p[key])


def merge_record_spools(
    parts: Sequence[Union[str, Path]], path: Union[str, Path]
) -> int:
    """Streaming plan-order join of outcome part files into a final
    record JSONL; returns the number of records written.

    *parts* hold checkpoint-style ``{"kind": "outcome", "index", ...,
    "record"}`` lines sorted by plan index (one file per shard, plus
    the resume replay file).  The output is byte-identical to
    :func:`save_records` over the same records in plan order: the
    embedded payloads were produced by the canonical
    :func:`encode_record` dump, so re-serialising the parsed payload
    reproduces those bytes exactly — no record is ever *decoded* on
    this path (the zero-copy contract), the payload is only
    structurally validated, and one payload per part is held in
    memory.
    """
    count = 0
    # A crash mid-join must never truncate a previous complete output.
    with atomic_replace(path) as handle:
        for payload in iter_merged_jsonl(parts):
            record_payload = payload.get("record")
            if record_payload is None:
                continue
            validate_record_payload(record_payload)
            handle.write(
                json.dumps(record_payload, ensure_ascii=False) + "\n"
            )
            count += 1
    return count
