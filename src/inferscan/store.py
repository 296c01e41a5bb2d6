"""Record persistence: append-only JSONL store, pruning, and export.

Records are line-delimited JSON.  Each carries a schema version and the
validity checks its scan round was subject to; a record is admitted exactly
when every applicable check passed, and ``prune_campaign`` is the one place
that splits a dataset by that rule.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .backlog import REASON_NO_BACKOFF, REASON_NON_DEFAULT, REASON_OFFLINE
from .transport import addr_to_int, int_to_addr

SCHEMA_VERSION = 1

KIND_IDLE = "IdleScan"
KIND_BACKLOG = "BacklogScan"
KIND_TRACEROUTE = "Traceroute"

KINDS = (KIND_IDLE, KIND_BACKLOG, KIND_TRACEROUTE)


class StoreError(Exception):
    pass


class SchemaError(StoreError):
    pass


@dataclass(frozen=True)
class ScanRecord:
    kind: str
    payload: dict
    checks: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"unknown record kind: {self.kind}")
        if not isinstance(self.payload, dict):
            raise SchemaError("payload must be a mapping")
        if not isinstance(self.checks, dict) or not isinstance(self.meta, dict):
            raise SchemaError("checks and meta must be mappings")
        for name, value in self.checks.items():
            if not isinstance(value, bool):
                raise SchemaError(f"check {name!r} must be boolean")

    @property
    def admitted(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {"v": self.version, "kind": self.kind, "payload": self.payload,
                "checks": self.checks, "admitted": self.admitted,
                "meta": self.meta}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, rec: dict) -> "ScanRecord":
        if not isinstance(rec, dict):
            raise SchemaError(f"record must be a JSON object, not {type(rec).__name__}")
        version = rec.get("v")
        if not isinstance(version, int) or version > SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema version: {version!r}")
        missing = [key for key in ("kind", "payload") if key not in rec]
        if missing:
            raise SchemaError(f"record has no {' or '.join(missing)}")
        record = cls(kind=rec["kind"], payload=rec["payload"],
                     checks=rec.get("checks", {}), meta=rec.get("meta", {}),
                     version=version)
        if "admitted" in rec and bool(rec["admitted"]) != record.admitted:
            raise SchemaError("stored admitted flag contradicts its checks")
        return record

    @classmethod
    def from_json(cls, line: str) -> "ScanRecord":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"malformed record line: {exc}") from exc
        return cls.from_dict(data)


def redact_addr(addr: str, bits: int = 16) -> str:
    """Zero the low `bits` of an IPv4 address."""
    if not 0 <= bits <= 32:
        raise ValueError("bits out of range")
    mask = (0xFFFFFFFF << bits) & 0xFFFFFFFF
    return int_to_addr(addr_to_int(addr) & mask)


def redact_client_fields(record: ScanRecord, bits: int) -> ScanRecord:
    """Write-time redaction of client identifiers in idle-scan payloads."""
    if record.kind != KIND_IDLE or bits <= 0:
        return record
    payload = json.loads(json.dumps(record.payload))  # deep copy
    for holder in (payload.get("client"), payload.get("series", {}).get("client")):
        if holder and "addr" in holder:
            holder["addr"] = redact_addr(holder["addr"], bits)
    return ScanRecord(kind=record.kind, payload=payload, checks=record.checks,
                      meta=record.meta, version=record.version)


class RecordStore:
    """Append-only JSONL writer; one designated writer per file.

    Appends are safe from concurrent workers (serialized internally);
    offsets are strictly increasing record indices.
    """

    def __init__(self, path, redact_client_bits: int = 0):
        self.path = path
        self.redact_client_bits = redact_client_bits
        self._lock = threading.Lock()
        self._fh = open(path, "a", encoding="utf-8")
        self._count = 0

    def append(self, record: ScanRecord) -> int:
        if not isinstance(record, ScanRecord):
            raise SchemaError("append expects a ScanRecord")
        if self.redact_client_bits:
            record = redact_client_fields(record, self.redact_client_bits)
        line = record.to_json()
        with self._lock:
            offset = self._count
            self._fh.write(line + "\n")
            self._count += 1
        return offset

    def close(self) -> None:
        with self._lock:
            self._fh.close()

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load(path) -> list:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(ScanRecord.from_json(line))
    return records


@dataclass
class PruneOutcome:
    admitted: list
    rejected: list
    # Index in ``rejected`` -> why a reader could not use that record.
    unreadable: dict = field(default_factory=dict)

    @property
    def retention_ratio(self) -> Optional[float]:
        total = len(self.admitted) + len(self.rejected)
        return len(self.admitted) / total if total else None


def prune_campaign(records: Iterable[ScanRecord],
                   read: Optional[Callable] = None) -> PruneOutcome:
    """Split records into admitted and rejected by their check maps.

    ``read(position, record)``, when given, is tried on every record whose
    checks all passed (``position`` counts from 1).  A SchemaError it raises
    rejects the record too, and its message goes into ``unreadable``.
    Does not mutate anything; the retention ratio is admitted/total.
    """
    outcome = PruneOutcome(admitted=[], rejected=[])
    for no, rec in enumerate(records, 1):
        if rec.admitted and read is not None:
            try:
                read(no, rec)
            except SchemaError as exc:
                outcome.unreadable[len(outcome.rejected)] = str(exc)
                outcome.rejected.append(rec)
                continue
        (outcome.admitted if rec.admitted else outcome.rejected).append(rec)
    return outcome


def export(records: Iterable[ScanRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


# ---------------------------------------------------------------------------
# Record builders for the three scan kinds
# ---------------------------------------------------------------------------

def build_idle_record(result, slot: int) -> ScanRecord:
    """Wrap a completed idle-scan round (see idlescan.ScanRoundResult)."""
    label = result.label
    payload = {
        "client": result.client.to_dict(),
        "server": result.server.to_dict(),
        "series": result.series.to_dict(),
        "label": {"variant": label.variant, "amplitude": label.amplitude,
                  "confidence": label.confidence, "reason": label.reason},
        "hour": result.hour,
        "timestamp": result.started_at,
        "finished_at": result.finished_at,
    }
    return ScanRecord(kind=KIND_IDLE, payload=payload, checks=dict(result.checks),
                      meta={"slot": slot})


# The backlog dataset's culling rules, in the order backlog.baseline_probe
# tests them: check name and the baseline reason that fails it.
_BACKLOG_RULES = (("reachable", REASON_OFFLINE),
                  ("default_stack", REASON_NON_DEFAULT),
                  ("backoff", REASON_NO_BACKOFF))


def build_backlog_record(scan_record) -> ScanRecord:
    """Wrap a backlog.BacklogScanRecord with one check per culling rule.

    A rule after the one that failed never ran, so it has no check.  A scan
    whose probes all went unanswered fails ``reachable`` too, and a record
    without a baseline counts as unreachable.
    """
    baseline = scan_record.baseline
    failed = baseline.reason if baseline is not None else REASON_OFFLINE
    checks = {}
    for name, reason in _BACKLOG_RULES:
        checks[name] = reason != failed
        if reason == failed:
            break
    if scan_record.invalid_reason == REASON_OFFLINE:
        checks["reachable"] = False
    return ScanRecord(kind=KIND_BACKLOG, payload=scan_record.to_dict(),
                      checks=checks)


def build_trace_record(tor_run, rand_run, slot: int) -> ScanRecord:
    """Wrap one paired traceroute (filtered port + control port)."""
    payload = {
        "dest": tor_run.dest,
        "hour": tor_run.hour,
        "tor": tor_run.to_dict(),
        "rand": rand_run.to_dict(),
    }
    return ScanRecord(kind=KIND_TRACEROUTE, payload=payload,
                      meta={"slot": slot})
