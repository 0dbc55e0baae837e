"""How a cache artifact is loaded, saved, quarantined and reported.

:func:`load_artifact` and :func:`save_artifact` are the one load/save
protocol the advisor store, the shard store and the profile store share:

* **load** — an absent file is a miss.  A file that fails envelope
  verification (or does not parse) is **moved** to
  ``<cache_root>/quarantine/`` (same filesystem, so the move is atomic)
  with a ``.why.json`` sidecar recording who detected what — the evidence
  survives for ``repro fsck`` and the operator instead of being unlinked.
  A file that verifies but fails the owner's acceptance check (schema,
  fingerprint, profile token) is stale: it is unlinked with a warning.
  Every rejection reads as a miss, so the owner recomputes.
* **save** — an atomic, enveloped write.  A failed write (full disk,
  lost permissions) is reported and returns ``False``: the owner
  degrades to serving from memory instead of crashing.

Detection and write failures are also forwarded to a process-global
listener (installed by the sweep engine and the advisor service, the two
components that own an event bus, through :func:`forward_to_bus`) which
re-emits them as the ``cache_corrupt_detected`` / ``cache_write_failed``
events declared in :data:`repro.engine.events.EVENT_SCHEMAS` — so a chaos
run's corruption history lands in the same JSONL run log as everything
else.  The last-installed listener wins, mirroring the
``FaultPlan.on_inject`` convention in :mod:`repro.resilience.faults`.
"""

from __future__ import annotations

import logging
import os
from functools import partial
from pathlib import Path
from typing import Callable, TypeVar

from ..ioutils import (
    CACHE_DECODE_ERRORS,
    CacheWriteError,
    read_envelope,
    write_envelope,
)

__all__ = [
    "QUARANTINE_DIR",
    "set_durability_listener",
    "clear_durability_listener",
    "forward_to_bus",
    "load_artifact",
    "save_artifact",
    "report_corruption",
    "report_write_failure",
    "quarantine_artifact",
]

T = TypeVar("T")

logger = logging.getLogger(__name__)

#: Directory (under the cache root) quarantined artifacts are moved to.
QUARANTINE_DIR = "quarantine"

_LISTENER: Callable[[dict], None] | None = None


def set_durability_listener(callback: Callable[[dict], None]) -> None:
    """Install the process-wide corruption/write-failure forwarder."""
    global _LISTENER
    _LISTENER = callback


def clear_durability_listener() -> None:
    global _LISTENER
    _LISTENER = None


def forward_to_bus(bus) -> None:
    """Install a listener that re-emits every incident on ``bus``."""
    set_durability_listener(partial(_emit_durability, bus))


def _emit_durability(bus, info: dict) -> None:
    """Forward one durability incident onto an event bus."""
    if info.get("kind") == "cache_write_failed":
        bus.emit(
            "cache_write_failed",
            owner=info.get("owner"),
            path=info.get("path"),
            error=info.get("error"),
            error_type=info.get("error_type"),
        )
    else:
        bus.emit(
            "cache_corrupt_detected",
            owner=info.get("owner"),
            path=info.get("path"),
            error=info.get("error"),
            error_type=info.get("error_type"),
            quarantined=info.get("quarantined"),
        )


def _forward(info: dict) -> None:
    listener = _LISTENER
    if listener is None:
        return
    try:
        listener(info)
    except Exception:  # pragma: no cover - reporting must never re-raise
        logger.debug("durability listener failed", exc_info=True)


def report_corruption(
    *, owner: str, path: str | Path, error: Exception, quarantined: bool
) -> dict:
    """Log + forward one detected-corruption incident; returns the info."""
    info = {
        "kind": "cache_corrupt_detected",
        "owner": owner,
        "path": str(path),
        "error": str(error),
        "error_type": type(error).__name__,
        "quarantined": bool(quarantined),
    }
    logger.warning(
        "corrupt %s cache artifact %s (%s: %s)%s",
        owner, path, info["error_type"], error,
        "; quarantined" if quarantined else "",
    )
    _forward(info)
    return info


def report_write_failure(
    *, owner: str, path: str | Path, error: Exception
) -> dict:
    """Log + forward one failed cache write; returns the info."""
    info = {
        "kind": "cache_write_failed",
        "owner": owner,
        "path": str(path),
        "error": str(error),
        "error_type": type(error).__name__,
    }
    logger.warning(
        "%s cache write to %s failed (%s: %s); degrading to in-memory",
        owner, path, info["error_type"], error,
    )
    _forward(info)
    return info


def quarantine_dir(cache_root: str | Path) -> Path:
    return Path(cache_root) / QUARANTINE_DIR


def quarantine_artifact(
    path: str | Path,
    cache_root: str | Path,
    *,
    owner: str,
    error: Exception,
) -> Path | None:
    """Move a corrupt artifact into quarantine and report the incident.

    Returns the quarantine destination, or ``None`` when the move itself
    failed (the artifact is then unlinked as a last resort — a corrupt
    file must never stay where a loader could find it again).  Name
    collisions get a ``-<n>`` suffix so repeated corruption of the same
    artifact keeps every specimen.
    """
    path = Path(path)
    qdir = quarantine_dir(cache_root)
    dest: Path | None = None
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        candidate = qdir / path.name
        n = 1
        while candidate.exists():
            n += 1
            candidate = qdir / f"{path.stem}-{n}{path.suffix}"
        os.replace(path, candidate)
        dest = candidate
    except OSError as exc:
        logger.warning(
            "could not quarantine %s (%s); unlinking instead", path, exc
        )
        try:
            path.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - racing cleanup
            pass
    if dest is not None:
        try:
            write_envelope(dest.with_name(dest.name + ".why.json"), {
                "original_path": str(path),
                "owner": owner,
                "error": str(error),
                "error_type": type(error).__name__,
            })
        except Exception:  # pragma: no cover - sidecar is best-effort
            logger.debug("quarantine sidecar write failed", exc_info=True)
    report_corruption(
        owner=owner, path=path, error=error, quarantined=dest is not None
    )
    return dest


def load_artifact(
    path: Path,
    cache_root: str | Path,
    *,
    owner: str,
    accept: Callable[[object], T],
    fault_site: str | None = None,
) -> T | None:
    """Load one enveloped artifact; ``None`` on a miss of any kind.

    ``accept`` turns the verified payload into the owner's value and
    raises a :data:`~repro.ioutils.CACHE_DECODE_ERRORS` member (a
    ``ValueError`` for a schema or token mismatch, a ``KeyError`` for a
    missing field) when the payload is stale.  A corrupt artifact is
    quarantined; a stale one is unlinked.  ``fault_site`` threads the raw
    bytes through a chaos fault point before decoding.
    """
    if not path.exists():
        return None
    try:
        payload = read_envelope(path, fault_site=fault_site)
    except CACHE_DECODE_ERRORS as exc:
        quarantine_artifact(path, cache_root, owner=owner, error=exc)
        return None
    try:
        return accept(payload)
    except CACHE_DECODE_ERRORS as exc:
        logger.warning(
            "discarding stale %s cache artifact %s (%s: %s)",
            owner, path, type(exc).__name__, exc,
        )
        path.unlink(missing_ok=True)
        return None


def save_artifact(
    path: Path, payload: object, *, owner: str, schema: int
) -> bool:
    """Write one enveloped artifact; ``False`` (reported) if it failed."""
    try:
        write_envelope(path, payload, schema=schema)
    except CacheWriteError as exc:
        report_write_failure(owner=owner, path=path, error=exc)
        return False
    return True
