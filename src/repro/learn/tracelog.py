"""Per-request JSONL trace of the advisor — the training set on disk.

Every ``/advise`` request a learn-enabled service answers appends one JSON
record under ``<cache_dir>/learn/``: the derived feature vector, the chosen
(format, block, implementation), the serving mode, the model version that
influenced the answer, and the matrix fingerprint.  The background trainer
(:mod:`repro.learn.trainer`) refits the learned selector from exactly these
records, so training and serving see the same features by construction.

Appends are **buffered**: records accumulate in memory and reach disk in
batches of ``flush_records`` (one ``open`` + one ``write`` per batch via
:func:`repro.ioutils.append_jsonl_lines`), keeping the per-request cost on
the serving hot path to a dict append.  Every read path
(:meth:`TraceLog.records`, :meth:`record_count`) and :meth:`flush` drains
the buffer first, so the trainer always sees the full trace.  This is a
training log, not a datastore — a hard crash loses at most the buffered
tail, and readers skip torn lines rather than failing.

The on-disk log is **bounded**: records go to numbered segments
(``trace-00000.jsonl``, ``trace-00001.jsonl``, ...) that roll over at
``max_segment_bytes``, and only the newest ``max_segments`` segments are
kept — a long-running fleet cannot grow the cache dir without limit.
Stale ``*.tmp`` files from cache owners that crashed mid-write in the
same directory are swept on open, like every other ``.repro_cache``
owner.

Determinism contract: the ``ts`` and ``elapsed_s`` fields are the only
wall-clock-dependent parts of a record; :func:`canonical_record` strips
them, and same-seed traffic produces byte-identical canonical records
(pinned by ``tests/test_learn.py``).
"""

from __future__ import annotations

import json
import logging
import threading
import time
from pathlib import Path
from typing import Iterator

from ..durability.envelope import encode_line
from ..durability.report import report_corruption, report_write_failure
from ..ioutils import (
    CacheWriteError,
    append_jsonl_lines,
    read_envelope_lines,
    remove_stale_tmp_files,
)

__all__ = [
    "TRACE_SCHEMA",
    "TraceLog",
    "canonical_record",
]

logger = logging.getLogger(__name__)

#: Bump when the trace record layout changes (old records are then skipped
#: by the trainer rather than misread).
TRACE_SCHEMA = 1

#: Segment-file name layout: ``trace-<5-digit index>.jsonl``.
_SEGMENT_PREFIX = "trace-"
_SEGMENT_SUFFIX = ".jsonl"

#: Record fields that depend on the wall clock; everything else must be a
#: pure function of (matrix, options, profile, model version).
TIMING_FIELDS = ("ts", "elapsed_s")


def canonical_record(record: dict) -> dict:
    """The record minus its timing fields — the byte-comparable part."""
    return {k: v for k, v in record.items() if k not in TIMING_FIELDS}


class TraceLog:
    """Bounded, segmented JSONL request trace under ``<cache_dir>/learn/``."""

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        max_segment_bytes: int = 1_000_000,
        max_segments: int = 4,
        flush_records: int = 128,
    ) -> None:
        if max_segment_bytes < 1:
            raise ValueError(
                f"max_segment_bytes must be >= 1, got {max_segment_bytes}"
            )
        if max_segments < 1:
            raise ValueError(f"max_segments must be >= 1, got {max_segments}")
        if flush_records < 1:
            raise ValueError(f"flush_records must be >= 1, got {flush_records}")
        self.root = Path(cache_dir) / "learn"
        self.max_segment_bytes = max_segment_bytes
        self.max_segments = max_segments
        self.flush_records = flush_records
        # Collect tmp files orphaned by cache writers killed mid-save (the
        # model registry shares this directory tree).
        remove_stale_tmp_files(self.root)
        self._lock = threading.Lock()
        self._records_logged = 0
        self._buffer: list[dict] = []
        # Active-segment bookkeeping, refreshed from disk once here and
        # maintained in memory after (no directory scan per request).
        segments = self.segments()
        if segments:
            self._active = segments[-1]
            try:
                self._active_size = self._active.stat().st_size
            except OSError:
                self._active_size = 0
        else:
            self._active = self._segment_path(0)
            self._active_size = 0

    # ------------------------------ layout ------------------------------ #
    def segments(self) -> list[Path]:
        """Every flushed segment file, oldest first (sorted — deterministic)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))

    @staticmethod
    def _segment_index(path: Path) -> int:
        stem = path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
        try:
            return int(stem)
        except ValueError:
            return -1

    def _segment_path(self, index: int) -> Path:
        return self.root / f"{_SEGMENT_PREFIX}{index:05d}{_SEGMENT_SUFFIX}"

    # ------------------------------ append ------------------------------ #
    def append(self, record: dict) -> Path:
        """Buffer one record (stamped with ``schema`` and ``ts``).

        The record reaches disk with the next batch flush (every
        ``flush_records`` appends, or any explicit/read-path
        :meth:`flush`).  Thread-safe; returns the segment the record will
        land in when the buffer flushes.
        """
        stamped = {"schema": TRACE_SCHEMA, "ts": time.time(), **record}
        with self._lock:
            self._buffer.append(stamped)
            self._records_logged += 1
            if len(self._buffer) >= self.flush_records:
                self._active, self._active_size = self._drain(
                    self._buffer, self._active, self._active_size
                )
                self._buffer = []
            return self._active

    def flush(self) -> None:
        """Write every buffered record to disk now."""
        with self._lock:
            self._active, self._active_size = self._drain(
                self._buffer, self._active, self._active_size
            )
            self._buffer = []

    def _drain(
        self, buffer: list[dict], active: Path, active_size: int
    ) -> tuple[Path, int]:
        """Write ``buffer`` into segments, rolling and pruning.

        Pure state-in/state-out over ``(active, active_size)`` — callers
        hold the lock and commit the returned state.  Consecutive records
        destined for the same segment go down in one ``open`` + ``write``
        (:func:`append_jsonl_lines`), so the flush cost is amortized over
        the whole batch.
        """
        if not buffer:
            return active, active_size
        batch: list[str] = []
        for record in buffer:
            if active_size >= self.max_segment_bytes:
                if batch:
                    self._write_batch(active, batch)
                    batch = []
                active = self._segment_path(self._segment_index(active) + 1)
                active_size = 0
            # Serialize once: the same enveloped line feeds the size
            # accounting and the write, so rollover points stay
            # independent of batch boundaries and the flush never
            # double-dumps a record.  The CRC wrapper lets readers
            # *detect* a torn append instead of trusting whatever parses.
            line = encode_line(json.dumps(record, sort_keys=True))
            batch.append(line)
            active_size += len(line.encode("utf-8")) + 1
        if batch:
            self._write_batch(active, batch)
        # Bound the directory: drop the oldest segments past the cap.
        for stale in self.segments()[: -self.max_segments]:
            try:
                stale.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - racing cleanup
                continue
        return active, active_size

    @staticmethod
    def _write_batch(active: Path, batch: list[str]) -> None:
        """One append; a failed write drops the batch (this is a log —
        losing a training tail beats crashing the serving hot path)."""
        try:
            append_jsonl_lines(active, batch)
        except CacheWriteError as exc:
            report_write_failure(owner="learn-trace", path=active, error=exc)

    @property
    def records_logged(self) -> int:
        """Records appended *by this process* (buffered ones included)."""
        with self._lock:
            return self._records_logged

    # ------------------------------ read ------------------------------- #
    def records(self) -> Iterator[dict]:
        """Every parseable record, oldest segment first (flushes first).

        Corrupt lines (a torn append from a hard crash, a hand-edited file)
        and records of a different schema are skipped with a warning — the
        trainer must never die on a bad log line.
        """
        self.flush()
        for segment in self.segments():
            try:
                lines = list(read_envelope_lines(segment))
            except OSError:
                continue  # pruned underneath us
            for lineno, record, error in lines:
                if error is not None:
                    report_corruption(
                        owner="learn-trace",
                        path=f"{segment}:{lineno}",
                        error=error,
                        quarantined=False,
                    )
                    continue
                if (
                    not isinstance(record, dict)
                    or record.get("schema") != TRACE_SCHEMA
                ):
                    logger.warning(
                        "skipping trace line %s:%d (schema mismatch)",
                        segment, lineno,
                    )
                    continue
                yield record

    def record_count(self) -> int:
        """Parseable records currently on disk plus the buffered tail."""
        return sum(1 for _ in self.records())

    def clear(self) -> None:
        """Delete every segment (tests and fresh starts)."""
        with self._lock:
            self._buffer = []
            for segment in self.segments():
                segment.unlink(missing_ok=True)
            self._active = self._segment_path(0)
            self._active_size = 0
