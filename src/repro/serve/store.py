"""Atomic, fingerprint-keyed persistence of recommendations.

Entries live under ``<cache_dir>/advisor/`` as one JSON file per
``(matrix fingerprint, advise options, profile token)`` triple, written via
tmp-file + ``os.replace`` (the same crash-safe pattern as
:mod:`repro.engine.shards`) so a killed service never leaves a truncated
entry behind.

The *profile token* is a content hash of the calibrated machine profile
(``t_b`` / ``nof`` tables).  Model predictions are a pure function of
(matrix structure, options, profile), so the token versions the cache
against everything that is not in the key already: a re-calibrated or
differently-shaped machine profile — new simulator, changed cost tables,
different machine preset — yields a different token, and every stale entry
is invalidated without any manual schema bookkeeping.  Loads and saves go
through :mod:`repro.durability.report`: a corrupt entry is quarantined, a
stale one unlinked, and either is simply recomputed.
"""

from __future__ import annotations

import json
import shutil
from hashlib import sha256
from pathlib import Path

from ..bench.harness import DEFAULT_CACHE_DIR
from ..core.profiling import BlockProfile
from ..durability.report import load_artifact, save_artifact
from ..ioutils import remove_stale_tmp_files
from ..resilience.faults import fault_point

__all__ = ["AdvisorStore", "profile_token", "ADVISOR_SCHEMA"]

#: Bump when the entry layout changes (old entries are then ignored).
ADVISOR_SCHEMA = 1


def profile_token(profile: BlockProfile) -> str:
    """Content hash of a calibrated profile (the cache's version stamp)."""
    payload = {
        "machine": profile.machine_name,
        "precision": profile.precision.value,
        "t_b": sorted(
            (repr(k), round(v, 15)) for k, v in profile.t_b.items()
        ),
        "nof": sorted(
            (repr(k), round(v, 15)) for k, v in profile.nof.items()
        ),
        "latency_cost_s": profile.latency_cost_s,
    }
    return sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


class AdvisorStore:
    """Directory of cached recommendations, one JSON file per key."""

    def __init__(self, cache_dir: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.cache_root = Path(cache_dir)
        self.root = self.cache_root / "advisor"
        # Collect tmp files orphaned by writers killed mid-save.
        remove_stale_tmp_files(self.root)

    @staticmethod
    def key(fingerprint: str, options_key: str, token: str) -> str:
        digest = sha256(
            f"{fingerprint}|{options_key}|{token}".encode()
        ).hexdigest()[:24]
        return digest

    def path(self, key: str) -> Path:
        return self.root / f"rec_{key}.json"

    def save(
        self,
        key: str,
        payload: dict,
        *,
        fingerprint: str,
        token: str,
    ) -> bool:
        """Persist one recommendation; ``False`` when the write failed.

        A full disk degrades to serving uncached (the caller already
        treats the save as best-effort) instead of crashing a worker.
        """
        fault_point("serve.store.save")
        return save_artifact(self.path(key), {
            "schema": ADVISOR_SCHEMA,
            "fingerprint": fingerprint,
            "profile_token": token,
            "recommendation": payload,
        }, owner="advisor", schema=ADVISOR_SCHEMA)

    def load(self, key: str, *, token: str) -> dict | None:
        """The cached recommendation payload, or ``None`` if absent/stale.

        An entry that fails integrity verification is quarantined; one
        that verifies but carries another schema or profile token is
        stale and simply discarded — both recompute on the next advise.
        """
        def accept(entry: dict) -> dict:
            if entry["schema"] != ADVISOR_SCHEMA:
                raise ValueError("schema mismatch")
            if entry["profile_token"] != token:
                raise ValueError("stale machine profile")
            return entry["recommendation"]

        return load_artifact(
            self.path(key), self.cache_root, owner="advisor", accept=accept,
            fault_site="serve.store.load",
        )

    def entries(self) -> list[Path]:
        """Every cached entry file, in deterministic (sorted) order."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("rec_*.json"))

    def entry_count(self) -> int:
        return len(self.entries())

    def clear(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
