"""Cache-tree verification, repair and GC — the engine behind ``repro fsck``.

:func:`fsck_tree` walks every artifact a cache root can hold — the
per-matrix sweep shards and their quarantine markers, advisor
recommendation entries, calibrated machine profiles, versioned model
artifacts plus the ``current`` pointer, and the JSONL request-trace
segments — across the root itself *and* every fleet worker partition
(``fleet/worker-<id>/``), and verifies each one's checksummed envelope
(:mod:`repro.durability.envelope`).  A ``sweep_<fingerprint>.json`` file
left by older versions is not an artifact any owner reads any more, so
the walk does not verify it and the GC counts it as rebuildable.
Findings come in three severities:

* **problems** (``corrupt``, ``torn-line``, ``stale-tmp``) — an artifact
  that fails integrity verification, a trace line whose CRC or JSON does
  not check out, or a ``*.tmp`` file whose writer is provably gone;
* **informational** (``legacy``, ``orphan``) — a pre-envelope plain-JSON
  artifact (loads fine through the read-through fallback, rewritten with
  a checksum on its next save) and a model artifact the ``current``
  pointer does not reference (the normal residue of a crash between the
  artifact write and the pointer swap);
* **gc** — files removed by the size-bound garbage collector.

With ``repair=True`` the walk heals what it reports: corrupt artifacts
move to ``quarantine/`` (evidence survives for the operator, exactly as
the owners themselves do on load), torn trace segments are atomically
rewritten minus their bad lines, and orphaned tmp files are removed.
Every owner treats a missing artifact as a cache miss, so repair never
loses data an owner could still have used — that is why fleet workers run
``fsck_tree(..., repair=True)`` on startup before answering ``/readyz``.

``gc_max_bytes`` bounds the tree: rebuildable artifacts (shards, old
``sweep_*.json`` files, advisor entries, trace segments, quarantined
evidence, unreferenced model artifacts) are deleted oldest-first —
deterministically ordered by ``(mtime_ns, path)`` — until the tree fits.  Calibrated profiles, the
``current`` pointer and the artifact it references are never collected:
they are the only cache entries whose loss costs more than a recompute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..ioutils import (
    CacheWriteError,
    atomic_write_text,
    is_stale_tmp,
    read_envelope_lines,
)
from .envelope import EnvelopeError, decode_envelope, encode_line
from .report import QUARANTINE_DIR, quarantine_artifact

__all__ = [
    "PROBLEM_KINDS",
    "Finding",
    "FsckReport",
    "fsck_tree",
]

#: Finding kinds that make a tree un-``clean`` until repaired.
PROBLEM_KINDS = ("corrupt", "torn-line", "stale-tmp")


@dataclass
class Finding:
    """One fsck observation: what, where, and whether it was healed."""

    kind: str
    owner: str
    path: str
    detail: str = ""
    repaired: bool = False

    def to_payload(self) -> dict:
        return {
            "kind": self.kind,
            "owner": self.owner,
            "path": self.path,
            "detail": self.detail,
            "repaired": self.repaired,
        }

    def render(self) -> str:
        tag = f"{self.kind}/repaired" if self.repaired else self.kind
        detail = f" — {self.detail}" if self.detail else ""
        return f"  [{tag}] {self.owner}: {self.path}{detail}"


@dataclass
class FsckReport:
    """The full outcome of one :func:`fsck_tree` walk."""

    root: str
    files_checked: int = 0
    lines_checked: int = 0
    bytes_total: int = 0
    findings: list[Finding] = field(default_factory=list)

    @property
    def problems(self) -> list[Finding]:
        return [f for f in self.findings if f.kind in PROBLEM_KINDS]

    @property
    def unrepaired(self) -> list[Finding]:
        return [f for f in self.problems if not f.repaired]

    @property
    def clean(self) -> bool:
        """No problem survives (informational findings don't count)."""
        return not self.unrepaired

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out

    def to_payload(self) -> dict:
        return {
            "root": self.root,
            "files_checked": self.files_checked,
            "lines_checked": self.lines_checked,
            "bytes_total": self.bytes_total,
            "counts": self.counts(),
            "clean": self.clean,
            "findings": [f.to_payload() for f in self.findings],
        }

    def render(self) -> str:
        lines = [
            f"fsck {self.root}: {self.files_checked} file(s), "
            f"{self.lines_checked} trace line(s), "
            f"{self.bytes_total} bytes"
        ]
        lines.extend(f.render() for f in self.findings)
        if self.clean:
            lines.append("clean")
        else:
            lines.append(f"{len(self.unrepaired)} unrepaired problem(s)")
        return "\n".join(lines)


def fsck_tree(
    cache_dir: str | Path,
    *,
    repair: bool = False,
    gc_max_bytes: int | None = None,
) -> FsckReport:
    """Verify (and optionally heal / bound) one cache tree.

    Walks the root and every ``fleet/worker-*`` partition.  A missing
    root is trivially clean — fsck runs before first use too.
    """
    root = Path(cache_dir)
    report = FsckReport(root=str(root))
    if not root.is_dir():
        return report
    for sub in _partition_roots(root):
        _scan_partition(sub, report, repair)
    _check_tmp_files(root, report, repair)
    report.bytes_total = _tree_bytes(root)
    if gc_max_bytes is not None:
        _collect_garbage(root, report, gc_max_bytes)
        report.bytes_total = _tree_bytes(root)
    return report


# ------------------------------------------------------------------------- #
# Walking
# ------------------------------------------------------------------------- #

def _partition_roots(cache_root: Path):
    """The top root plus each fleet worker's private cache partition.

    A worker partition is a full cache root of its own (its owners pass
    the partition as ``cache_dir``), so corrupt artifacts quarantine
    *inside* the partition — the same place the owners would put them.
    """
    yield cache_root
    fleet = cache_root / "fleet"
    if fleet.is_dir():
        yield from sorted(
            p for p in fleet.glob("worker-*") if p.is_dir()
        )


def _scan_partition(root: Path, report: FsckReport, repair: bool) -> None:
    shards = root / "shards"
    if shards.is_dir():
        for fpdir in sorted(p for p in shards.iterdir() if p.is_dir()):
            for path in sorted(fpdir.glob("shard_*.json")):
                _check_artifact(path, "shards", root, report, repair)
            for path in sorted(fpdir.glob("shard_*.quarantine")):
                _check_artifact(path, "shards", root, report, repair)
    advisor = root / "advisor"
    if advisor.is_dir():
        for path in sorted(advisor.glob("rec_*.json")):
            _check_artifact(path, "advisor", root, report, repair)
    profiles = root / "profiles"
    if profiles.is_dir():
        for path in sorted(profiles.glob("profile_*.json")):
            _check_artifact(path, "profiles", root, report, repair)
    _scan_models(root, report, repair)
    learn = root / "learn"
    if learn.is_dir():
        for path in sorted(learn.glob("trace-*.jsonl")):
            _check_trace_segment(path, report, repair)


def _scan_models(root: Path, report: FsckReport, repair: bool) -> None:
    """Model artifacts + the ``current`` pointer, with orphan detection."""
    models = root / "learn" / "models"
    if not models.is_dir():
        return
    referenced: str | None = None
    pointer = models / "current.json"
    if pointer.exists():
        payload = _check_artifact(pointer, "models", root, report, repair)
        if isinstance(payload, dict):
            version = payload.get("version")
            if isinstance(version, str):
                referenced = version
    for path in sorted(models.glob("model_*.json")):
        payload = _check_artifact(path, "models", root, report, repair)
        if payload is None:
            continue
        version = path.name[len("model_"):-len(".json")]
        if version != referenced:
            # Normal residue of publish's artifact-then-pointer order: a
            # crash between the two, or an old version after a re-train.
            # Loadable evidence, GC-eligible, not a problem.
            report.findings.append(Finding(
                kind="orphan",
                owner="models",
                path=str(path),
                detail="not referenced by current.json",
            ))


def _check_artifact(
    path: Path, owner: str, cache_root: Path, report: FsckReport,
    repair: bool,
):
    """Verify one enveloped artifact; returns its payload when it checks
    out (enveloped or legacy), ``None`` otherwise."""
    report.files_checked += 1
    try:
        data = path.read_bytes()
    except OSError as exc:
        report.findings.append(Finding(
            kind="corrupt", owner=owner, path=str(path),
            detail=f"unreadable: {exc}",
        ))
        return None
    try:
        payload, meta = decode_envelope(data)
    except EnvelopeError as exc:
        finding = Finding(
            kind="corrupt", owner=owner, path=str(path), detail=str(exc),
        )
        if repair:
            quarantine_artifact(path, cache_root, owner=owner, error=exc)
            finding.repaired = not path.exists()
            if finding.repaired:
                finding.detail += " -> quarantined"
        report.findings.append(finding)
        return None
    if not meta.enveloped:
        report.findings.append(Finding(
            kind="legacy", owner=owner, path=str(path),
            detail="plain JSON (no checksum); re-enveloped on next save",
        ))
    return payload


def _check_trace_segment(
    path: Path, report: FsckReport, repair: bool
) -> None:
    report.files_checked += 1
    try:
        entries = list(read_envelope_lines(path))
    except OSError as exc:
        report.findings.append(Finding(
            kind="corrupt", owner="learn-trace", path=str(path),
            detail=f"unreadable: {exc}",
        ))
        return
    report.lines_checked += len(entries)
    bad = [lineno for lineno, _, error in entries if error is not None]
    if not bad:
        return
    shown = ", ".join(str(n) for n in bad[:5])
    more = "..." if len(bad) > 5 else ""
    finding = Finding(
        kind="torn-line", owner="learn-trace", path=str(path),
        detail=f"{len(bad)} bad line(s): {shown}{more}",
    )
    if repair:
        good = [
            json.dumps(record, sort_keys=True)
            for _, record, error in entries
            if error is None
        ]
        # Rewrite keeps only verifying records; legacy plain lines come
        # back enveloped, so a repaired segment is fully checksummed.
        text = "".join(encode_line(line) + "\n" for line in good)
        try:
            atomic_write_text(path, text)
        except CacheWriteError as exc:
            finding.detail += f" (rewrite failed: {exc})"
        else:
            finding.repaired = True
            finding.detail += " -> rewritten"
    report.findings.append(finding)


def _check_tmp_files(
    cache_root: Path, report: FsckReport, repair: bool
) -> None:
    """Orphaned ``*.tmp`` files anywhere in the tree (one pass, so fleet
    partitions are not double-counted)."""
    for tmp in sorted(cache_root.rglob("*.tmp")):
        if QUARANTINE_DIR in tmp.parts:
            continue
        report.files_checked += 1
        if not is_stale_tmp(tmp):
            continue
        finding = Finding(
            kind="stale-tmp", owner="tmp", path=str(tmp),
            detail="writer is gone",
        )
        if repair:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            else:
                finding.repaired = True
                finding.detail += " -> removed"
        report.findings.append(finding)


# ------------------------------------------------------------------------- #
# GC
# ------------------------------------------------------------------------- #

def _tree_bytes(cache_root: Path) -> int:
    total = 0
    for path in sorted(cache_root.rglob("*")):
        try:
            if path.is_file():
                total += path.stat().st_size
        except OSError:
            continue
    return total


def _gc_candidates(cache_root: Path):
    """Every rebuildable artifact, as ``(path, owner)`` pairs.

    Excluded on purpose: calibrated profiles (minutes to rebuild), the
    ``current`` pointer and the model artifact it references (the live
    model), and tmp files (the stale-tmp check owns those).
    """
    for root in _partition_roots(cache_root):
        # Left by older versions; no owner reads it, so it always rebuilds.
        for path in sorted(root.glob("sweep_*.json")):
            yield path, "sweep"
        shards = root / "shards"
        if shards.is_dir():
            for path in sorted(shards.rglob("shard_*")):
                if path.is_file():
                    yield path, "shards"
        advisor = root / "advisor"
        if advisor.is_dir():
            for path in sorted(advisor.glob("rec_*.json")):
                yield path, "advisor"
        learn = root / "learn"
        if learn.is_dir():
            for path in sorted(learn.glob("trace-*.jsonl")):
                yield path, "learn-trace"
        models = root / "learn" / "models"
        if models.is_dir():
            referenced: str | None = None
            try:
                payload, _ = decode_envelope(
                    (models / "current.json").read_bytes()
                )
                if isinstance(payload, dict):
                    version = payload.get("version")
                    if isinstance(version, str):
                        referenced = version
            except (OSError, EnvelopeError):
                pass
            for path in sorted(models.glob("model_*.json")):
                version = path.name[len("model_"):-len(".json")]
                if version != referenced:
                    yield path, "models"
        quarantine = root / QUARANTINE_DIR
        if quarantine.is_dir():
            for path in sorted(quarantine.iterdir()):
                if path.is_file():
                    yield path, "quarantine"


def _collect_garbage(
    cache_root: Path, report: FsckReport, max_bytes: int
) -> None:
    """Delete rebuildable artifacts, oldest first, until the tree fits.

    Deterministic: victims are ordered by ``(mtime_ns, path)``, so two
    runs over the same tree collect the same files in the same order.
    """
    total = _tree_bytes(cache_root)
    if total <= max_bytes:
        return
    victims = []
    for path, owner in _gc_candidates(cache_root):
        try:
            st = path.stat()
        except OSError:
            continue
        victims.append((st.st_mtime_ns, str(path), st.st_size, path, owner))
    victims.sort(key=lambda v: (v[0], v[1]))
    for _, _, size, path, owner in victims:
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        report.findings.append(Finding(
            kind="gc", owner=owner, path=str(path),
            detail=f"removed ({size} bytes)", repaired=True,
        ))
