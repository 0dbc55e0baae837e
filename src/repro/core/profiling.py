"""Profiling-based model calibration (paper Section IV).

The MEMCOMP and OVERLAP models need two machine-specific inputs per
(block type, implementation, precision):

* ``t_b`` — the execution time of a *single block*, "obtained by profiling
  the execution of a very small dense matrix, which is stored using every
  blocking method and block under consideration and fits in the L1 cache of
  the target machine";
* ``nof`` — the non-overlapping factor of eq. (4), "obtained ... by
  profiling a large dense matrix that exceeds the highest level of cache":

      nof_b = (t_real_b - t_MEM) / (nb * t_b)

Profiling here runs the execution simulator on exactly those two dense
matrices.  The models therefore only ever observe the simulator through the
same narrow aperture the paper's models observe real hardware through —
two dense-matrix profiles — keeping prediction accuracy an honest result.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from hashlib import sha256
from pathlib import Path
from typing import Mapping

import numpy as np

from ..errors import ProfileError
from ..formats.base import SparseFormat
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from ..durability.report import load_artifact, save_artifact
from ..ioutils import remove_stale_tmp_files
from ..machine.executor import simulate, x_misses
from ..machine.machine import MachineModel
from ..types import DEFAULT_MAX_BLOCK_ELEMS, Impl, Precision
from .candidates import diag_sizes, rect_shapes

__all__ = [
    "BlockProfile",
    "profile_machine",
    "ProfileCache",
    "ProfileStore",
    "dense_coo",
    "machine_token",
    "profile_to_payload",
    "profile_from_payload",
]


#: Row/column count of the small (in-L1) and large (out-of-L2) dense
#: profiling matrices.  40x40 in CSR double precision is ~21 KiB (< 32 KiB
#: L1); 1024x1024 is ~12-20 MiB (> 4 MiB L2).
SMALL_DENSE_N = 40
LARGE_DENSE_N = 1024


def dense_coo(n: int) -> COOMatrix:
    """A structure-only dense ``n x n`` pattern."""
    idx = np.arange(n, dtype=np.int64)
    rows = np.repeat(idx, n)
    cols = np.tile(idx, n)
    return COOMatrix(n, n, rows, cols, None, canonical=True)


@dataclass(frozen=True)
class BlockProfile:
    """Calibrated per-block times and non-overlapping factors.

    Keyed by ``(block_descriptor, impl)`` where ``block_descriptor`` is the
    format part's ``block_descriptor()`` value, e.g. ``("bcsr", (2, 3))``
    or ``("csr", None)``.
    """

    machine_name: str
    precision: Precision
    t_b: dict[tuple, float] = field(default_factory=dict)
    nof: dict[tuple, float] = field(default_factory=dict)
    #: Calibrated seconds per unhidden input-vector miss (None unless the
    #: profile was taken with ``calibrate_latency=True``); used by the
    #: extended ``overlap+lat`` model (paper Section VI future work).
    latency_cost_s: float | None = None

    def key(self, part: SparseFormat, impl: Impl) -> tuple:
        return (part.block_descriptor(), impl)

    def block_time(self, part: SparseFormat, impl: Impl) -> float:
        try:
            return self.t_b[self.key(part, impl)]
        except KeyError:
            raise ProfileError(
                f"no t_b profiled for {part.block_descriptor()} / {impl}"
            ) from None

    def nof_factor(self, part: SparseFormat, impl: Impl) -> float:
        try:
            return self.nof[self.key(part, impl)]
        except KeyError:
            raise ProfileError(
                f"no nof profiled for {part.block_descriptor()} / {impl}"
            ) from None


def _profiled_builds(max_block_elems: int) -> list[tuple[tuple, tuple]]:
    """(descriptor, impls) pairs covering the fixed-size space.

    A descriptor is also the structure key
    :func:`repro.machine.batch.plan_structures` builds it under.
    """
    both = (Impl.SCALAR, Impl.SIMD)
    return (
        [(("csr", None), (Impl.SCALAR,))]
        + [(("bcsr", (s.r, s.c)), both) for s in rect_shapes(max_block_elems)]
        + [(("bcsd", b), both) for b in diag_sizes(max_block_elems)]
    )


def _dense_csr_ws(n: int, precision: Precision) -> int:
    """Working set of an n x n dense matrix in CSR at ``precision``."""
    e = precision.itemsize
    return (e + 4) * n * n + 4 * (n + 1) + 2 * e * n


def default_profile_sizes(
    machine: MachineModel, precision: Precision
) -> tuple[int, int]:
    """Auto-size the two dense profiling matrices for ``machine``.

    The small matrix must fit comfortably in L1 (the paper's t_b premise),
    the large one must clearly exceed L2 (the nof premise).
    """
    small_n = SMALL_DENSE_N
    while small_n > 4 and _dense_csr_ws(small_n, precision) > int(
        machine.l1.size_bytes * 0.85
    ):
        small_n -= 4
    large_n = LARGE_DENSE_N
    while _dense_csr_ws(large_n, precision) < 3 * machine.l2.size_bytes:
        large_n += 256
    return small_n, large_n


def profile_machine(
    machine: MachineModel,
    precision: Precision | str,
    *,
    max_block_elems: int = DEFAULT_MAX_BLOCK_ELEMS,
    small_n: int | None = None,
    large_n: int | None = None,
    calibrate_latency: bool = False,
) -> BlockProfile:
    """Run the paper's two dense-matrix profiling passes on ``machine``.

    With ``calibrate_latency=True`` a third pass measures a large uniformly
    random matrix and attributes the residual over the OVERLAP prediction
    to input-vector miss latency — the calibration the extended
    ``overlap+lat`` model needs.
    """
    precision = Precision.coerce(precision)
    auto_small, auto_large = default_profile_sizes(machine, precision)
    small_n = auto_small if small_n is None else small_n
    large_n = auto_large if large_n is None else large_n
    # Imported here: machine.batch imports core.selection, which imports
    # this module.
    from ..machine.batch import plan_structures

    builds = _profiled_builds(max_block_elems)
    descriptors = [desc for desc, _ in builds]
    # One fused planning pass per matrix builds every profiled structure,
    # array-for-array identical to the per-shape converters.
    smalls = plan_structures(dense_coo(small_n), descriptors)
    larges = plan_structures(dense_coo(large_n), descriptors)
    profile = BlockProfile(machine_name=machine.name, precision=precision)

    # Sanity of the methodology's premises (paper Section IV).
    small_ws = smalls[("csr", None)].working_set(precision)
    if small_ws > machine.l1.size_bytes:
        raise ProfileError(
            f"small dense profile ws ({small_ws} B) exceeds L1 "
            f"({machine.l1.size_bytes} B); decrease small_n"
        )
    large_ws = larges[("csr", None)].working_set(precision)
    if large_ws <= machine.l2.size_bytes:
        raise ProfileError(
            f"large dense profile ws ({large_ws} B) does not exceed L2 "
            f"({machine.l2.size_bytes} B); increase large_n"
        )

    for desc, impls in builds:
        fmt_small = smalls[desc]
        fmt_large = larges[desc]
        ws_large = fmt_large.working_set(precision)
        t_mem_large = ws_large / machine.memory_bandwidth(1)
        for impl in impls:
            t_small = simulate(fmt_small, machine, precision, impl).t_total
            t_b = t_small / fmt_small.n_blocks
            t_real_large = simulate(fmt_large, machine, precision, impl).t_total
            nof = (t_real_large - t_mem_large) / (fmt_large.n_blocks * t_b)
            key = (desc, impl)
            profile.t_b[key] = t_b
            profile.nof[key] = max(nof, 0.0)
    if calibrate_latency:
        profile = replace(
            profile, latency_cost_s=_calibrate_latency(machine, precision, profile)
        )
    return profile


def _calibrate_latency(
    machine: MachineModel, precision: Precision, profile: BlockProfile
) -> float:
    """Seconds per unhidden x miss, from one random-matrix measurement.

    Mirrors the nof methodology (eq. 4): measure a workload that isolates
    the effect, subtract what the calibrated model already explains, and
    normalise by the structural estimate of the effect's magnitude.
    """
    from ..machine.cache import x_budget_lines

    rng = np.random.default_rng(20090701)
    line_elems = machine.l2.line_bytes // precision.itemsize
    budget = x_budget_lines(
        machine.l2.size_bytes, machine.l2.line_bytes, machine.x_cache_fraction
    )
    n = 3 * budget * line_elems
    nnz = 4 * n
    coo = COOMatrix(n, n, rng.integers(0, n, nnz), rng.integers(0, n, nnz), None)
    csr = CSRMatrix.from_coo(coo, with_values=False)

    t_real = simulate(csr, machine, precision, Impl.SCALAR).t_total
    # Inline OVERLAP prediction (eq. 3) for the CSR candidate.
    key = (("csr", None), Impl.SCALAR)
    predicted = csr.working_set(precision) / machine.memory_bandwidth(1) + (
        profile.nof[key] * csr.n_blocks * profile.t_b[key]
    )
    # The simulation above estimated (and memoised) the same count.
    misses = x_misses(csr, machine, precision)
    if misses <= 0:
        raise ProfileError(
            "latency calibration matrix produced no estimated misses; "
            "the cache geometry makes the calibration ill-posed"
        )
    return max(t_real - predicted, 0.0) / misses


class ProfileCache:
    """Caches :func:`profile_machine` results per (machine, precision).

    Entries are keyed by machine identity and hold the machine itself:
    while its entry lives a machine cannot be freed, so no later machine
    can reuse its ``id()`` and be served its profile.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple, tuple[MachineModel, BlockProfile]] = {}

    def get(
        self,
        machine: MachineModel,
        precision: Precision | str,
        *,
        calibrate_latency: bool = False,
    ) -> BlockProfile:
        precision = Precision.coerce(precision)
        key = (id(machine), precision, calibrate_latency)
        if key not in self._cache:
            self._cache[key] = machine, profile_machine(
                machine, precision, calibrate_latency=calibrate_latency
            )
        return self._cache[key][1]

    def seed(
        self,
        machine: MachineModel,
        profile: BlockProfile,
        *,
        calibrate_latency: bool = False,
    ) -> None:
        """Pre-populate with an externally calibrated (or shipped) profile.

        This is the sweep engine's warm-start hook: the parent process
        calibrates once, serializes the profile into each
        :class:`~repro.engine.tasks.ShardTask`, and workers seed their
        per-process cache instead of re-running the ~0.4 s calibration.
        A profile already cached for the key is kept (first seed wins).
        """
        key = (id(machine), profile.precision, calibrate_latency)
        self._cache.setdefault(key, (machine, profile))


#: Module-level default cache used by the selection helpers.
DEFAULT_PROFILE_CACHE = ProfileCache()


# ---------------------------------------------------------------------- #
# Disk persistence of calibrated profiles
# ---------------------------------------------------------------------- #

#: Bump when the profile payload layout *or the calibration methodology*
#: changes (profiling matrix sizes, the nof formula, the simulator's
#: observable behaviour) — stale on-disk profiles are then ignored.
PROFILE_SCHEMA = 1


def _normalize(obj):
    """A JSON-serializable, deterministic view of a (nested) dataclass."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _normalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, Mapping):
        return sorted((str(_normalize(k)), _normalize(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [_normalize(o) for o in obj]
    return obj


def machine_token(machine: MachineModel) -> str:
    """Content hash of the full machine description.

    Two machines with identical descriptions profile identically (profiling
    is deterministic), so this token — unlike the in-memory caches' ``id()``
    key — is a valid *cross-process* cache key.
    """
    payload = json.dumps(_normalize(machine), sort_keys=True)
    return sha256(payload.encode()).hexdigest()[:16]


def _encode_key(key: tuple) -> list:
    (kind, block), impl = key
    return [kind, list(block) if isinstance(block, tuple) else block, impl.value]


def _decode_key(entry: list) -> tuple:
    kind, block, impl = entry
    block = tuple(block) if isinstance(block, list) else block
    return ((kind, block), Impl(impl))


def profile_to_payload(profile: BlockProfile) -> dict:
    """A JSON-safe encoding of a profile.

    Floats survive the JSON round trip exactly (shortest-repr encoding
    parses back to the same double), so a profile loaded from disk produces
    bit-identical predictions to the freshly calibrated one.
    """
    return {
        "machine_name": profile.machine_name,
        "precision": profile.precision.value,
        "t_b": sorted(
            (_encode_key(k) + [v] for k, v in profile.t_b.items()),
            key=lambda e: json.dumps(e[:3]),
        ),
        "nof": sorted(
            (_encode_key(k) + [v] for k, v in profile.nof.items()),
            key=lambda e: json.dumps(e[:3]),
        ),
        "latency_cost_s": profile.latency_cost_s,
    }


def profile_from_payload(payload: Mapping) -> BlockProfile:
    """Rebuild a :class:`BlockProfile` from :func:`profile_to_payload`."""
    return BlockProfile(
        machine_name=payload["machine_name"],
        precision=Precision(payload["precision"]),
        t_b={_decode_key(e[:3]): e[3] for e in payload["t_b"]},
        nof={_decode_key(e[:3]): e[3] for e in payload["nof"]},
        latency_cost_s=payload["latency_cost_s"],
    )


class ProfileStore(ProfileCache):
    """A :class:`ProfileCache` backed by ``<cache_dir>/profiles/`` on disk.

    Entries are keyed by a content hash of the machine description plus the
    calibration parameters, so a changed preset, simulator or profiling
    methodology (via :data:`PROFILE_SCHEMA`) never serves a stale profile.
    The JSON round trip is float-exact: a disk-served profile is
    indistinguishable from a fresh calibration, keeping every downstream
    output byte-identical.
    """

    def __init__(self, cache_dir: str | Path) -> None:
        super().__init__()
        self.cache_root = Path(cache_dir)
        self.root = self.cache_root / "profiles"
        remove_stale_tmp_files(self.root)

    def path(
        self,
        machine: MachineModel,
        precision: Precision,
        calibrate_latency: bool,
    ) -> Path:
        token_src = "|".join(
            (
                machine_token(machine),
                precision.value,
                f"lat{int(calibrate_latency)}",
                f"s{PROFILE_SCHEMA}",
                f"b{DEFAULT_MAX_BLOCK_ELEMS}",
            )
        )
        token = sha256(token_src.encode()).hexdigest()[:16]
        return self.root / f"profile_{token}.json"

    def get(
        self,
        machine: MachineModel,
        precision: Precision | str,
        *,
        calibrate_latency: bool = False,
    ) -> BlockProfile:
        profile, _ = self.get_with_source(
            machine, precision, calibrate_latency=calibrate_latency
        )
        return profile

    def get_with_source(
        self,
        machine: MachineModel,
        precision: Precision | str,
        *,
        calibrate_latency: bool = False,
    ) -> tuple[BlockProfile, str]:
        """The profile plus where it came from: memory / disk / calibrated."""
        precision = Precision.coerce(precision)
        key = (id(machine), precision, calibrate_latency)
        if key in self._cache:
            return self._cache[key][1], "memory"
        profile = self.load_cached(
            machine, precision, calibrate_latency=calibrate_latency
        )
        if profile is not None:
            self._cache[key] = machine, profile
            return profile, "disk"
        profile = profile_machine(
            machine, precision, calibrate_latency=calibrate_latency
        )
        self._cache[key] = machine, profile
        self.store_profile(
            machine, precision, profile, calibrate_latency=calibrate_latency
        )
        return profile, "calibrated"

    def load_cached(
        self,
        machine: MachineModel,
        precision: Precision | str,
        *,
        calibrate_latency: bool = False,
    ) -> BlockProfile | None:
        """The on-disk profile, or ``None`` (absent, stale, or corrupt —
        a corrupt file is quarantined for ``repro fsck`` to report)."""
        def accept(payload: dict) -> BlockProfile:
            if payload["schema"] != PROFILE_SCHEMA:
                raise ValueError("schema mismatch")
            return profile_from_payload(payload["profile"])

        path = self.path(
            machine, Precision.coerce(precision), calibrate_latency
        )
        return load_artifact(
            path, self.cache_root, owner="profiles", accept=accept
        )

    def store_profile(
        self,
        machine: MachineModel,
        precision: Precision | str,
        profile: BlockProfile,
        *,
        calibrate_latency: bool = False,
    ) -> bool:
        """Persist a calibrated profile; ``False`` when the write failed.

        Calibration is deterministic and repeatable, so a failed write
        (full disk) costs the *next* process a recalibration — it never
        crashes this one.
        """
        path = self.path(
            machine, Precision.coerce(precision), calibrate_latency
        )
        return save_artifact(path, {
            "schema": PROFILE_SCHEMA,
            "machine": machine.name,
            "profile": profile_to_payload(profile),
        }, owner="profiles", schema=PROFILE_SCHEMA)
