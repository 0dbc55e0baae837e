"""Atomic, fingerprinted per-shard persistence.

Completed shards live under ``<cache_dir>/shards/<config_fingerprint>/`` as
``shard_NNN.json``, written via tmp-file + ``os.replace`` inside a
checksummed envelope (:func:`repro.durability.report.save_artifact`) so a
killed sweep never leaves a truncated shard behind — and a damaged one is
*detected*.  The store is the sweep's only on-disk form and the source of
truth on every run: any shard that verifies and matches (schema and
fingerprint) is served from disk, a corrupt one is moved to
``<cache_dir>/quarantine/`` (emitting ``cache_corrupt_detected``), a stale
one is unlinked, and either is simply recomputed.

Shards that failed repeatedly are *quarantined*: a ``shard_NNN.quarantine``
marker records the final error so an operator can inspect it, while the
sweep itself continues and reports the shard in ``SweepResult.missing``.
A later run re-attempts quarantined shards (the marker is cleared on
success) — quarantine is a per-run verdict, not a permanent blacklist.
"""

from __future__ import annotations

import shutil
from dataclasses import asdict
from pathlib import Path

from ..bench.harness import (
    DEFAULT_CACHE_DIR,
    MatrixSweep,
    SweepConfig,
    matrix_sweep_from_payload,
)
from ..durability.report import load_artifact, save_artifact
from ..ioutils import remove_stale_tmp_files

__all__ = ["ShardStore", "SHARD_SCHEMA"]

#: Bump when the shard file layout changes (old shards are then ignored).
SHARD_SCHEMA = 1


class ShardStore:
    """Per-config directory of completed shards and quarantine markers."""

    def __init__(
        self,
        cache_dir: str | Path = DEFAULT_CACHE_DIR,
        config: SweepConfig = SweepConfig(),
    ) -> None:
        self.config = config
        self.fingerprint = config.fingerprint()
        self.cache_root = Path(cache_dir)
        self.root = self.cache_root / "shards" / self.fingerprint
        # A writer killed mid-save leaves a ``*.tmp`` next to its shard;
        # opening the store is the natural point to collect those orphans.
        remove_stale_tmp_files(self.root)

    # ----------------------------- paths ----------------------------- #
    def shard_path(self, shard_id: int) -> Path:
        return self.root / f"shard_{shard_id:03d}.json"

    def quarantine_path(self, shard_id: int) -> Path:
        return self.root / f"shard_{shard_id:03d}.quarantine"

    # ------------------------ completed shards ------------------------ #
    def save(
        self, shard_id: int, matrix: MatrixSweep, *, elapsed_s: float = 0.0
    ) -> bool:
        """Persist one completed shard; ``False`` when the write failed.

        A failed write (full disk, lost permissions) degrades rather than
        crashes the sweep: the in-memory result is still good, the shard
        is simply recomputed on the next resume.
        """
        return save_artifact(self.shard_path(shard_id), {
            "schema": SHARD_SCHEMA,
            "fingerprint": self.fingerprint,
            "shard": shard_id,
            "elapsed_s": elapsed_s,
            "matrix": asdict(matrix),
        }, owner="shards", schema=SHARD_SCHEMA)

    def load(self, shard_id: int) -> MatrixSweep | None:
        """The shard's matrix sweep, or ``None`` if absent/corrupt/stale.

        A shard that fails integrity verification is quarantined (the
        evidence survives for ``repro fsck``); one that verifies but
        belongs to another schema or fingerprint is simply discarded.
        """
        def accept(payload: dict) -> MatrixSweep:
            if (payload["schema"] != SHARD_SCHEMA
                    or payload["fingerprint"] != self.fingerprint):
                raise ValueError("schema or fingerprint mismatch")
            return matrix_sweep_from_payload(payload["matrix"])

        return load_artifact(
            self.shard_path(shard_id), self.cache_root, owner="shards",
            accept=accept,
        )

    def clear(self) -> None:
        """Discard every shard and quarantine marker (``--fresh``)."""
        shutil.rmtree(self.root, ignore_errors=True)

    # --------------------------- quarantine --------------------------- #
    def quarantine(
        self,
        shard_id: int,
        *,
        error: str,
        attempts: int,
        error_type: str | None = None,
    ) -> None:
        """Record a shard's final failure (exception type + message) so an
        operator can diagnose it from the marker alone.

        A failed marker write is reported and otherwise ignored: the
        marker is diagnostics, not state — the sweep's own result
        already reports the shard as missing."""
        save_artifact(self.quarantine_path(shard_id), {
            "schema": SHARD_SCHEMA,
            "fingerprint": self.fingerprint,
            "shard": shard_id,
            "error": error,
            "error_type": error_type,
            "attempts": attempts,
        }, owner="shards", schema=SHARD_SCHEMA)

    def quarantined_ids(self) -> list[int]:
        if not self.root.is_dir():
            return []
        return [
            int(p.stem.split("_")[1])
            for p in sorted(self.root.glob("shard_[0-9][0-9][0-9].quarantine"))
        ]

    def clear_quarantine(self, shard_id: int) -> None:
        self.quarantine_path(shard_id).unlink(missing_ok=True)
