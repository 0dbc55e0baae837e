"""Shared filesystem helpers: atomic JSON writes and stale-tmp cleanup.

Every persistent artifact in this package — the engine's per-matrix sweep
shards, the advisor's recommendation entries, the calibrated machine
profiles, the learned-model registry — reaches disk through the same
tmp-file + rename writer as :func:`atomic_write_json`, so readers only
ever see a complete old file or a complete new one.  The
write goes to a pid-stamped ``<name>.<pid>-<seq>.tmp`` sibling first and is
then renamed over the target; the per-process sequence number keeps
concurrent threads writing the same target from sharing a tmp file.

Two failure modes used to leak those tmp files:

* an exception between creating the tmp file and renaming it (full disk,
  unserializable payload surfacing mid-write, permission loss) — now handled
  by the ``try``/``finally``-style cleanup in :func:`atomic_write_json`;
* a hard crash (``kill -9``, OOM) that no in-process cleanup can catch —
  handled by :func:`remove_stale_tmp_files`, which every cache-directory
  owner calls on open to sweep up orphans whose writer is provably gone.

Atomicity alone cannot detect content damage (a corrupting writer, disk
rot, a hand-edited file), so artifacts additionally carry a checksummed
envelope: :func:`write_envelope` / :func:`read_envelope` wrap
:mod:`repro.durability.envelope` around the same atomic-write machinery;
JSONL logs append pre-serialized (per-line enveloped) lines with
:func:`append_jsonl_lines` and verify them with
:func:`read_envelope_lines`.  Write failures (``ENOSPC`` and friends)
surface as the typed :class:`~repro.errors.CacheWriteError`, so cache
owners degrade to serving from memory instead of crashing.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import time
from pathlib import Path

from .durability.envelope import (
    EnvelopeError,
    decode_envelope,
    decode_line,
    encode_envelope,
)
from .errors import CacheWriteError
from .resilience.faults import fault_point

__all__ = [
    "CACHE_DECODE_ERRORS",
    "CacheWriteError",
    "EnvelopeError",
    "atomic_write_json",
    "atomic_write_text",
    "write_envelope",
    "read_envelope",
    "read_envelope_lines",
    "append_jsonl_lines",
    "is_stale_tmp",
    "remove_stale_tmp_files",
]

logger = logging.getLogger(__name__)

#: Exceptions that mark a cache file as corrupt (truncated write, schema
#: drift, hand-edited JSON) rather than as a programming error.
CACHE_DECODE_ERRORS = (json.JSONDecodeError, KeyError, TypeError, ValueError)

#: Age past which a ``*.tmp`` file carrying no recognizable writer pid is
#: considered orphaned.
STALE_TMP_AGE_S = 3600.0

#: Per-process sequence for tmp-file names: two threads saving the same
#: target concurrently must not share a tmp file, or the loser's
#: ``os.replace`` finds it already renamed away.
_TMP_SEQ = itertools.count()


def atomic_write_json(path: str | Path, payload: object) -> None:
    """Write ``payload`` as JSON atomically (tmp file + ``os.replace``).

    Readers see either the old content or the new one, never a truncated
    target.  If anything raises between creating the tmp file and renaming
    it, the tmp file is removed before the exception propagates; tmp files
    a hard crash still leaves behind are swept by
    :func:`remove_stale_tmp_files` on the next cache-dir open.
    """
    _atomic_write_text(Path(path), json.dumps(payload))


def write_envelope(
    path: str | Path, payload: object, *, schema: int = 1
) -> None:
    """Write ``payload`` atomically inside a checksummed envelope.

    The durable counterpart of :func:`atomic_write_json`: same tmp-file +
    ``os.replace`` discipline, but the artifact carries the magic / CRC32
    header of :mod:`repro.durability.envelope`, so :func:`read_envelope`
    *detects* any torn or mangled content instead of trusting it.
    ``schema`` is the owning store's schema number (surfaced to ``repro
    fsck``); the writer generation token is stamped automatically.
    """
    gen = f"{os.getpid()}-{next(_TMP_SEQ)}"
    _atomic_write_text(
        Path(path), encode_envelope(payload, schema=schema, gen=gen)
    )


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write raw ``text`` atomically (tmp + rename, same as the JSON
    variants).  For callers that build their own line format — e.g.
    ``repro fsck`` rewriting a JSONL segment minus its torn lines."""
    _atomic_write_text(Path(path), text)


def _atomic_write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            path.name + f".{os.getpid()}-{next(_TMP_SEQ)}.tmp"
        )
    except OSError as exc:
        raise CacheWriteError(
            f"cannot prepare cache write to {path}: {exc}"
        ) from exc
    try:
        # Chaos hooks (no-ops unless a FaultPlan is installed): the first
        # can corrupt the serialized text, the second models a crash in
        # the window between the tmp write and the rename.
        tmp.write_text(
            fault_point("ioutils.atomic_write_json.data", text)
        )
        fault_point("ioutils.atomic_write_json.replace")
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            # ENOSPC, EACCES, a vanished directory: a typed, catchable
            # signal so cache owners degrade instead of crashing.
            raise CacheWriteError(
                f"cache write to {path} failed: {exc}"
            ) from exc
        raise


def read_envelope(path: str | Path, *, fault_site: str | None = None):
    """Verify and parse one artifact written by :func:`write_envelope`.

    Legacy plain-JSON artifacts (pre-envelope caches) parse through the
    fallback in :func:`~repro.durability.envelope.decode_envelope`.
    Raises :class:`~repro.durability.envelope.EnvelopeError` (a member of
    :data:`CACHE_DECODE_ERRORS`) on any corruption, and ``OSError`` if
    the file cannot be read at all.  ``fault_site`` optionally threads
    the raw bytes through a chaos :func:`fault_point` before decoding.
    """
    data = Path(path).read_bytes()
    if fault_site is not None:
        data = fault_point(fault_site, data)
    payload, _ = decode_envelope(data)
    return payload


def read_envelope_lines(path: str | Path):
    """Yield ``(lineno, record, error)`` per non-blank JSONL line.

    Exactly one of ``record`` / ``error`` is ``None``: a line that fails
    integrity verification yields its :class:`EnvelopeError` instead of a
    record, and the caller decides whether to skip (a log reader) or
    repair (``repro fsck``).  Legacy plain-JSON lines parse through the
    per-line fallback.  ``OSError`` on the file itself propagates.
    """
    # Tolerant decode: undecodable bytes become replacement characters,
    # which then fail that line's CRC/JSON check — a mangled line must
    # surface as a per-line error, not kill the whole read.
    text = Path(path).read_bytes().decode("utf-8", errors="replace")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            yield lineno, decode_line(line), None
        except EnvelopeError as exc:
            yield lineno, None, exc


def append_jsonl_lines(path: str | Path, lines) -> int:
    """Append pre-serialized JSON ``lines`` (no trailing newlines).

    The batch goes down in one ``write`` on an ``O_APPEND`` handle, so
    concurrent appenders (threads or processes) interleave whole lines,
    never fragments.  Readers skip a torn final line from a hard crash —
    this is a log, not a datastore, so the tmp-file + rename dance of
    :func:`atomic_write_json` would be the wrong tool.  Returns bytes
    written.
    """
    path = Path(path)
    text = "".join(line + "\n" for line in lines)
    if not text:
        return 0
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Chaos hook: corrupt the batch about to be appended, or model a
        # crash (kill) in the append window itself.
        text = fault_point("ioutils.append_jsonl.write", text)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
    except OSError as exc:
        raise CacheWriteError(
            f"log append to {path} failed: {exc}"
        ) from exc
    return len(text.encode("utf-8"))


def _writer_pid(name: str) -> int | None:
    """The pid embedded in a ``<name>.<pid>-<seq>.tmp`` file name, if any.

    Plain ``<name>.<pid>.tmp`` stamps (the pre-sequence layout) parse too.
    """
    parts = name.split(".")
    if len(parts) < 3 or parts[-1] != "tmp":
        return None
    pid_part = parts[-2].split("-", 1)[0]
    if pid_part.isdigit():
        return int(pid_part)
    return None


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # EPERM and friends: the pid exists but belongs to someone else.
        return True
    return True


def is_stale_tmp(path: Path) -> bool:
    """Whether the ``*.tmp`` file at ``path`` is orphaned.

    It is when the writer pid embedded in its name is no longer alive, or
    — for tmp files with no recognizable pid — when it is older than
    :data:`STALE_TMP_AGE_S`.  Tmp files of live writers (concurrent
    processes mid-write, including this one) are not, and neither is a
    file that vanished underneath us.
    """
    pid = _writer_pid(path.name)
    if pid is not None:
        return not _pid_alive(pid)
    try:
        return time.time() - path.stat().st_mtime > STALE_TMP_AGE_S
    except OSError:
        return False


def remove_stale_tmp_files(root: str | Path) -> list[Path]:
    """Delete orphaned ``*.tmp`` files (:func:`is_stale_tmp`) directly
    under ``root``; returns the removed paths."""
    root = Path(root)
    if not root.is_dir():
        return []
    removed: list[Path] = []
    for tmp in sorted(root.glob("*.tmp")):
        if not is_stale_tmp(tmp):
            continue
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            continue
        logger.warning("removed stale tmp file %s", tmp)
        removed.append(tmp)
    return removed
