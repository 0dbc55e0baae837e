"""Tests for :mod:`repro.durability` — the crash-consistency layer.

Four layers of assurance, bottom up:

* **envelope codec properties** (hypothesis): encode/decode round-trips
  exactly for arbitrary JSON payloads, and *every* single-byte flip or
  truncation of an enveloped artifact is detected — there is no damaged
  input that decodes to wrong data;
* **quarantine + reporting**: corrupt artifacts move (not vanish), keep a
  ``.why.json`` sidecar, and forward ``cache_corrupt_detected`` /
  ``cache_write_failed`` through the process-global listener — the same
  way in the advisor, shard and profile stores;
* **fsck**: detect, repair, partition walk and the oldest-first GC with
  its never-collect set (profiles, ``current.json``, the live model);
* **the torture invariant** (the acceptance pin): 40 seeded
  kill/corrupt-at-write-site cycles across all five cache owners produce
  zero corrupt loads, and ``fsck --repair`` then heals the tree to clean.
"""

from __future__ import annotations

import json
import os
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import MatrixSweep, SweepConfig
from repro.cli import main as cli_main
from repro.core.profiling import BlockProfile, ProfileStore
from repro.durability.envelope import (
    ENVELOPE_MAGIC,
    EnvelopeError,
    decode_envelope,
    decode_line,
    encode_envelope,
    encode_line,
    is_enveloped,
    is_enveloped_line,
)
from repro.durability.fsck import PROBLEM_KINDS, fsck_tree
from repro.durability.report import (
    QUARANTINE_DIR,
    clear_durability_listener,
    quarantine_artifact,
    report_corruption,
    report_write_failure,
    set_durability_listener,
)
from repro.durability.torture import OWNERS, run_torture
from repro.engine import ShardStore
from repro.errors import CacheWriteError, ReproError
from repro.fleet.supervisor import (
    MAX_BACKOFF_S,
    RESTART_BACKOFF_S,
    FleetConfig,
    FleetSupervisor,
)
from repro.machine.presets import get_preset
from repro.serve.store import AdvisorStore
from repro.types import Impl, Precision
from repro.ioutils import (
    CACHE_DECODE_ERRORS,
    append_jsonl_lines,
    atomic_write_json,
    read_envelope,
    read_envelope_lines,
    write_envelope,
)

# --------------------------------------------------------------------- #
# Envelope codec: property suite
# --------------------------------------------------------------------- #

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)
gen_tokens = st.text(
    alphabet=string.ascii_letters + string.digits + "._-",
    min_size=1,
    max_size=16,
)


class TestEnvelopeCodec:
    @given(payload=json_values, schema=st.integers(0, 999), gen=gen_tokens)
    def test_round_trip_exact(self, payload, schema, gen):
        data = encode_envelope(payload, schema=schema, gen=gen)
        assert is_enveloped(data)
        decoded, meta = decode_envelope(data.encode("utf-8"))
        assert decoded == payload
        assert meta.enveloped
        assert meta.schema == schema
        assert meta.gen == gen

    @given(payload=json_values)
    def test_legacy_plain_json_decodes(self, payload):
        text = json.dumps(payload)
        decoded, meta = decode_envelope(text.encode("utf-8"))
        assert decoded == payload
        assert not meta.enveloped

    @given(
        payload=json_values,
        offset=st.integers(0, 10_000),
        mask=st.sampled_from([0x01, 0x02, 0x10, 0x20, 0x80, 0xFF]),
    )
    def test_any_single_byte_flip_is_detected(self, payload, offset, mask):
        raw = bytearray(encode_envelope(payload, schema=3).encode("utf-8"))
        offset %= len(raw)
        raw[offset] ^= mask
        with pytest.raises(EnvelopeError):
            decode_envelope(bytes(raw))

    @given(payload=json_values, cut=st.integers(0, 10_000))
    def test_any_truncation_is_detected(self, payload, cut):
        raw = encode_envelope(payload, schema=3).encode("utf-8")
        cut %= len(raw)  # every proper prefix, including empty
        with pytest.raises(EnvelopeError):
            decode_envelope(raw[:cut])

    def test_every_byte_offset_exhaustively(self):
        """The hypothesis flips sample; this nails *every* offset."""
        payload = {"schema": 7, "records": [1.5, "x", None], "n": 42}
        raw = encode_envelope(payload, schema=7, gen="123-9").encode("utf-8")
        for offset in range(len(raw)):
            for mask in (0x01, 0x20, 0xFF):
                damaged = bytearray(raw)
                damaged[offset] ^= mask
                with pytest.raises(EnvelopeError):
                    decode_envelope(bytes(damaged))
            with pytest.raises(EnvelopeError):
                decode_envelope(raw[:offset])

    def test_future_version_is_rejected_not_misread(self):
        data = encode_envelope({"a": 1})
        bumped = data.replace(f"{ENVELOPE_MAGIC}1 ", f"{ENVELOPE_MAGIC}2 ", 1)
        with pytest.raises(EnvelopeError, match="version"):
            decode_envelope(bumped)

    def test_envelope_error_is_a_cache_decode_error(self):
        # The owners' pre-envelope corrupt-recovery paths catch
        # CACHE_DECODE_ERRORS; EnvelopeError must flow through them.
        assert isinstance(EnvelopeError("x"), CACHE_DECODE_ERRORS)


class TestLineCodec:
    @given(payload=json_values)
    def test_round_trip_exact(self, payload):
        line = encode_line(json.dumps(payload))
        assert is_enveloped_line(line)
        assert decode_line(line) == payload

    @given(payload=json_values)
    def test_legacy_plain_line_decodes(self, payload):
        assert decode_line(json.dumps(payload)) == payload

    @given(
        payload=json_values,
        offset=st.integers(0, 10_000),
        mask=st.sampled_from([0x01, 0x20, 0xFF]),
    )
    def test_any_single_char_flip_is_detected(self, payload, offset, mask):
        line = encode_line(json.dumps(payload))
        offset %= len(line)
        flipped = chr(ord(line[offset]) ^ mask)
        damaged = line[:offset] + flipped + line[offset + 1:]
        with pytest.raises(EnvelopeError):
            decode_line(damaged)

    def test_truncation_is_detected(self):
        line = encode_line(json.dumps({"cycle": 12, "t": 0.25}))
        for cut in range(len(line)):
            with pytest.raises(EnvelopeError):
                decode_line(line[:cut])


# --------------------------------------------------------------------- #
# File-level helpers: write_envelope / read_envelope / JSONL
# --------------------------------------------------------------------- #

class TestEnvelopeIo:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_envelope(path, {"schema": 2, "v": [1, 2, 3]}, schema=2)
        assert read_envelope(path) == {"schema": 2, "v": [1, 2, 3]}

    def test_legacy_file_reads_through(self, tmp_path):
        path = tmp_path / "old.json"
        atomic_write_json(path, {"schema": 1, "v": "pre-envelope"})
        assert read_envelope(path) == {"schema": 1, "v": "pre-envelope"}

    def test_corrupt_file_raises_envelope_error(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_envelope(path, {"v": 1})
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(EnvelopeError):
            read_envelope(path)

    def test_read_envelope_lines_mixed(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl_lines(path, [encode_line(json.dumps({"i": 1}))])
        append_jsonl_lines(path, [json.dumps({"i": 2})])  # legacy plain line
        with path.open("a") as fh:
            fh.write("%e1%00000000%{\"i\": 3}\n")  # wrong CRC: torn
        entries = list(read_envelope_lines(path))
        assert [r for _, r, e in entries if e is None] == [{"i": 1}, {"i": 2}]
        assert [n for n, _, e in entries if e is not None] == [3]

    def test_write_failure_raises_typed_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        target = blocker / "sub" / "artifact.json"
        with pytest.raises(CacheWriteError):
            write_envelope(target, {"v": 1})
        with pytest.raises(CacheWriteError):
            atomic_write_json(target, {"v": 1})
        assert issubclass(CacheWriteError, ReproError)


# --------------------------------------------------------------------- #
# Quarantine + reporting
# --------------------------------------------------------------------- #

@pytest.fixture
def listener_events():
    events: list[dict] = []
    set_durability_listener(events.append)
    yield events
    clear_durability_listener()


class TestQuarantine:
    def test_moves_artifact_and_writes_sidecar(self, tmp_path, listener_events):
        path = tmp_path / "shard_1.json"
        path.write_bytes(b"garbage \x00\xff")
        dest = quarantine_artifact(
            path, tmp_path, owner="shards", error=EnvelopeError("CRC mismatch")
        )
        assert dest is not None
        assert dest.parent == tmp_path / QUARANTINE_DIR
        assert not path.exists()
        assert dest.read_bytes() == b"garbage \x00\xff"  # evidence survives
        why = read_envelope(dest.with_name(dest.name + ".why.json"))
        assert why["owner"] == "shards"
        assert why["error_type"] == "EnvelopeError"
        assert [e["kind"] for e in listener_events] == ["cache_corrupt_detected"]
        assert listener_events[0]["quarantined"] is True

    def test_name_collisions_keep_every_specimen(self, tmp_path):
        dests = []
        for _ in range(3):
            path = tmp_path / "rec_a.json"
            path.write_text("broken")
            dests.append(quarantine_artifact(
                path, tmp_path, owner="advisor", error=ValueError("bad")
            ))
        names = {d.name for d in dests}
        assert len(names) == 3
        assert "rec_a.json" in names

    def test_report_write_failure_forwards(self, listener_events):
        info = report_write_failure(
            owner="profiles", path="/x/y.json", error=OSError(28, "ENOSPC")
        )
        assert info["kind"] == "cache_write_failed"
        assert listener_events == [info]

    def test_raising_listener_is_swallowed(self):
        def bad_listener(info):
            raise RuntimeError("listener bug")

        set_durability_listener(bad_listener)
        try:
            info = report_corruption(
                owner="shards", path="p", error=ValueError("x"),
                quarantined=False,
            )
            assert info["kind"] == "cache_corrupt_detected"
        finally:
            clear_durability_listener()


# --------------------------------------------------------------------- #
# The load/save protocol every cache owner shares
# --------------------------------------------------------------------- #

def _advisor_store(root):
    store = AdvisorStore(root)
    key = AdvisorStore.key("fp", "opts", "tok")
    return (
        store.path(key),
        lambda: store.save(key, {"best": "csr"}, fingerprint="fp", token="tok"),
        lambda: store.load(key, token="tok"),
    )


def _shard_store(root):
    store = ShardStore(root, SweepConfig(suite_indices=(1,)))
    matrix = MatrixSweep(
        idx=1, name="dense", domain="test", geometry=False, special=False,
        nrows=1, ncols=1, nnz=1,
    )
    return (
        store.shard_path(1),
        lambda: store.save(1, matrix),
        lambda: store.load(1),
    )


def _profile_store(root):
    store = ProfileStore(root)
    machine = get_preset("core2-xeon-2.66")
    key = (("csr", None), Impl.SCALAR)
    profile = BlockProfile(
        machine_name=machine.name, precision=Precision.DP,
        t_b={key: 1e-9}, nof={key: 1.0},
    )
    return (
        store.path(machine, Precision.DP, False),
        lambda: store.store_profile(machine, "dp", profile),
        lambda: store.load_cached(machine, "dp"),
    )


#: owner name -> (root -> (artifact path, save(), load())).
OWNER_STORES = {
    "advisor": _advisor_store,
    "shards": _shard_store,
    "profiles": _profile_store,
}


@pytest.mark.parametrize("owner", sorted(OWNER_STORES))
class TestOwnerProtocol:
    """Verify, quarantine, discard and report the same way in every owner."""

    def test_byte_flip_is_quarantined(self, tmp_path, owner, listener_events):
        path, save, load = OWNER_STORES[owner](tmp_path)
        assert save() is True
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert load() is None
        assert not path.exists()
        dest = tmp_path / QUARANTINE_DIR / path.name
        assert dest.read_bytes() == bytes(raw)
        why = read_envelope(dest.with_name(dest.name + ".why.json"))
        assert why["owner"] == owner
        assert why["original_path"] == str(path)
        assert [(e["kind"], e["owner"], e["quarantined"])
                for e in listener_events] == [
            ("cache_corrupt_detected", owner, True)
        ]

    def test_wrong_schema_is_unlinked(self, tmp_path, owner, listener_events):
        path, save, load = OWNER_STORES[owner](tmp_path)
        assert save() is True
        payload = read_envelope(path)
        payload["schema"] += 1
        write_envelope(path, payload, schema=payload["schema"])
        assert load() is None
        assert not path.exists()
        assert not (tmp_path / QUARANTINE_DIR).exists()
        assert listener_events == []

    def test_failed_write_returns_false(self, tmp_path, owner, listener_events):
        path, save, load = OWNER_STORES[owner](tmp_path)
        # A file where the owner's directory belongs: every write fails.
        path.parent.parent.mkdir(parents=True, exist_ok=True)
        path.parent.write_text("not a directory")
        assert save() is False
        assert [(e["kind"], e["owner"], e["path"])
                for e in listener_events] == [
            ("cache_write_failed", owner, str(path))
        ]
        assert load() is None


# --------------------------------------------------------------------- #
# fsck: detect, repair, partitions, GC
# --------------------------------------------------------------------- #

def _damaged_tree(root, monkeypatch):
    """A cache tree with one of each problem plus one legacy artifact."""
    advisor = root / "advisor"
    write_envelope(advisor / "rec_ok.json", {"schema": 1, "ok": True})
    (advisor / "rec_deadbeef.json").write_bytes(b"\x00 not json \xff")
    profiles = root / "profiles"
    profiles.mkdir()
    atomic_write_json(profiles / "profile_old.json", {"schema": 1})
    trace = root / "learn" / "trace-000001.jsonl"
    append_jsonl_lines(trace, [
        encode_line(json.dumps({"i": 1})), encode_line(json.dumps({"i": 2})),
    ])
    with trace.open("a") as fh:
        fh.write('%e1%00000000%{"i": 3}\n')
    (advisor / "rec_2.json.12345-0.tmp").write_text("half a write")
    # Deterministic "writer is gone" regardless of host pid recycling.
    monkeypatch.setattr("repro.ioutils._pid_alive", lambda pid: False)


class TestFsck:
    def test_missing_root_is_clean(self, tmp_path):
        report = fsck_tree(tmp_path / "nope")
        assert report.clean
        assert report.files_checked == 0

    def test_detect_without_repair_touches_nothing(self, tmp_path, monkeypatch):
        _damaged_tree(tmp_path, monkeypatch)
        report = fsck_tree(tmp_path)
        counts = report.counts()
        assert counts["corrupt"] == 1
        assert counts["torn-line"] == 1
        assert counts["stale-tmp"] == 1
        assert counts["legacy"] == 1
        assert not report.clean
        assert len(report.unrepaired) == 3
        # Read-only: the damaged files are all still in place.
        assert (tmp_path / "advisor" / "rec_deadbeef.json").exists()
        assert (tmp_path / "advisor" / "rec_2.json.12345-0.tmp").exists()
        assert not (tmp_path / QUARANTINE_DIR).exists()

    def test_repair_heals_every_problem(self, tmp_path, monkeypatch):
        _damaged_tree(tmp_path, monkeypatch)
        report = fsck_tree(tmp_path, repair=True)
        assert report.clean
        assert all(f.repaired for f in report.problems)
        # Corrupt advisor entry moved to quarantine, not destroyed.
        assert not (tmp_path / "advisor" / "rec_deadbeef.json").exists()
        assert (tmp_path / QUARANTINE_DIR / "rec_deadbeef.json").exists()
        # Torn trace segment rewritten: only verifying lines survive.
        records = [
            r for _, r, e in
            read_envelope_lines(tmp_path / "learn" / "trace-000001.jsonl")
            if e is None
        ]
        assert records == [{"i": 1}, {"i": 2}]
        assert not (tmp_path / "advisor" / "rec_2.json.12345-0.tmp").exists()
        # A second, read-only pass finds no problems at all.
        after = fsck_tree(tmp_path)
        assert after.clean
        assert not after.problems

    def test_orphan_model_is_informational(self, tmp_path):
        models = tmp_path / "learn" / "models"
        write_envelope(models / "model_aaa.json", {"schema": 1}, schema=1)
        write_envelope(models / "model_bbb.json", {"schema": 1}, schema=1)
        write_envelope(
            models / "current.json", {"schema": 1, "version": "aaa"}, schema=1
        )
        report = fsck_tree(tmp_path)
        orphans = [f for f in report.findings if f.kind == "orphan"]
        assert [f.path for f in orphans] == [str(models / "model_bbb.json")]
        assert report.clean  # orphans are not problems

    def test_worker_partition_quarantines_locally(self, tmp_path):
        part = tmp_path / "fleet" / "worker-0"
        shard_dir = part / "shards" / "fp0"
        shard_dir.mkdir(parents=True)
        (shard_dir / "shard_1.json").write_bytes(b"torn!")
        report = fsck_tree(tmp_path, repair=True)
        assert report.clean
        # Quarantine lands inside the worker's partition — the same
        # place the worker's own ShardStore would put it.
        assert (part / QUARANTINE_DIR / "shard_1.json").exists()
        assert not (tmp_path / QUARANTINE_DIR).exists()

    def test_gc_is_oldest_first_and_spares_the_precious(self, tmp_path):
        write_envelope(tmp_path / "profiles" / "profile_a.json", {"schema": 1})
        models = tmp_path / "learn" / "models"
        write_envelope(models / "model_live.json", {"schema": 1})
        write_envelope(models / "model_orphan.json", {"schema": 1})
        write_envelope(models / "current.json", {"schema": 1, "version": "live"})
        recs = [tmp_path / "advisor" / f"rec_{i}.json" for i in (1, 2, 3)]
        for i, path in enumerate(recs):
            write_envelope(path, {"schema": 1, "i": i})
            os.utime(path, ns=(1_000_000_000 * (i + 1),) * 2)
        os.utime(models / "model_orphan.json", ns=(500_000_000, 500_000_000))

        # Bound low enough to force some eviction but keep the newest entry.
        keep = (
            (models / "current.json").stat().st_size
            + (models / "model_live.json").stat().st_size
            + (tmp_path / "profiles" / "profile_a.json").stat().st_size
            + recs[2].stat().st_size
        )
        report = fsck_tree(tmp_path, gc_max_bytes=keep)
        removed = [f.path for f in report.findings if f.kind == "gc"]
        # Oldest first: the orphan model (oldest), then entries 1 and 2.
        assert removed == [
            str(models / "model_orphan.json"), str(recs[0]), str(recs[1]),
        ]
        assert recs[2].exists()
        assert (models / "model_live.json").exists()
        assert (models / "current.json").exists()
        assert (tmp_path / "profiles" / "profile_a.json").exists()
        assert report.bytes_total <= keep

    def test_gc_collects_an_old_sweep_file(self, tmp_path):
        # A sweep_<fp>.json left by an older version counts toward the
        # bound, so the GC must be able to collect it to reach the bound.
        old_sweep = tmp_path / "sweep_0123456789abcdef.json"
        old_sweep.write_bytes(b" " * 50_000)
        for i in (1, 2, 3):
            write_envelope(tmp_path / "advisor" / f"rec_{i}.json", {"i": i})
        report = fsck_tree(tmp_path, gc_max_bytes=10_000)
        assert not old_sweep.exists()
        assert report.bytes_total <= 10_000
        assert str(old_sweep) in {
            f.path for f in report.findings if f.kind == "gc"
        }

    def test_gc_zero_budget_never_touches_the_precious(self, tmp_path):
        write_envelope(tmp_path / "profiles" / "profile_a.json", {"schema": 1})
        models = tmp_path / "learn" / "models"
        write_envelope(models / "model_live.json", {"schema": 1})
        write_envelope(models / "current.json", {"schema": 1, "version": "live"})
        rec = tmp_path / "advisor" / "rec_1.json"
        write_envelope(rec, {"schema": 1})
        fsck_tree(tmp_path, gc_max_bytes=0)
        assert not rec.exists()
        assert (tmp_path / "profiles" / "profile_a.json").exists()
        assert (models / "model_live.json").exists()
        assert (models / "current.json").exists()

    def test_report_payload_shape(self, tmp_path):
        write_envelope(tmp_path / "advisor" / "rec_1.json", {"schema": 1})
        payload = fsck_tree(tmp_path).to_payload()
        assert payload["clean"] is True
        assert payload["files_checked"] == 1
        assert payload["findings"] == []
        assert set(PROBLEM_KINDS) == {"corrupt", "torn-line", "stale-tmp"}


class TestFsckCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_envelope(tmp_path / "advisor" / "rec_1.json", {"schema": 1})
        rc = cli_main(["fsck", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_problems_exit_one_until_repaired(self, tmp_path, capsys):
        (tmp_path / "advisor").mkdir()
        (tmp_path / "advisor" / "rec_1.json").write_bytes(b"\x00 torn")
        assert cli_main(["fsck", "--cache-dir", str(tmp_path)]) == 1
        assert cli_main(
            ["fsck", "--cache-dir", str(tmp_path), "--repair"]
        ) == 0
        capsys.readouterr()
        rc = cli_main(
            ["fsck", "--cache-dir", str(tmp_path), "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True

    def test_gc_requires_max_bytes(self, tmp_path, capsys):
        rc = cli_main(["fsck", "--cache-dir", str(tmp_path), "--gc"])
        assert rc == 2
        capsys.readouterr()


# --------------------------------------------------------------------- #
# Supervisor restart jitter (satellite: seeded decorrelated backoff)
# --------------------------------------------------------------------- #

class TestRestartJitter:
    def _supervisor(self, tmp_path, seed=0, workers=2):
        return FleetSupervisor(FleetConfig(
            workers=workers, cache_dir=str(tmp_path), restart_seed=seed,
        ))

    def test_equal_seeds_replay_identically(self, tmp_path):
        a = self._supervisor(tmp_path, seed=7)
        b = self._supervisor(tmp_path, seed=7)
        seq_a = [a._next_backoff(0) for _ in range(8)]
        seq_b = [b._next_backoff(0) for _ in range(8)]
        assert seq_a == seq_b

    def test_bounds_and_growth(self, tmp_path):
        sup = self._supervisor(tmp_path, seed=1)
        seq = [sup._next_backoff(0) for _ in range(12)]
        assert all(RESTART_BACKOFF_S <= v <= MAX_BACKOFF_S for v in seq)
        # Decorrelated jitter: each draw is bounded by 3x the previous.
        assert seq[0] <= RESTART_BACKOFF_S * 3.0
        for prev, cur in zip(seq, seq[1:]):
            assert cur <= min(MAX_BACKOFF_S, prev * 3.0)

    def test_slots_draw_from_distinct_streams(self, tmp_path):
        sup = self._supervisor(tmp_path, seed=3, workers=2)
        seq0 = [sup._next_backoff(0) for _ in range(6)]
        seq1 = [sup._next_backoff(1) for _ in range(6)]
        assert seq0 != seq1  # co-crashing workers must not stampede together

    def test_success_resets_the_window(self, tmp_path):
        sup = self._supervisor(tmp_path, seed=5)
        for _ in range(10):
            sup._next_backoff(0)
        # What _restart_after does after a successful respawn:
        sup._prev_backoff[0] = RESTART_BACKOFF_S
        assert sup._next_backoff(0) <= RESTART_BACKOFF_S * 3.0


# --------------------------------------------------------------------- #
# The torture invariant (acceptance pin)
# --------------------------------------------------------------------- #

@pytest.mark.slow
class TestTortureInvariant:
    def test_forty_crash_cycles_never_corrupt_a_load(self, tmp_path):
        summary = run_torture(tmp_path, cycles=40, seed=3)
        assert summary["violations"] == []
        assert summary["clean_after_repair"] is True
        assert summary["ok"] is True
        assert summary["kills"] + summary["corruptions"] == 40
        assert summary["kills"] > 0 and summary["corruptions"] > 0
        # Round-robin: all five owners were exercised.
        assert len(OWNERS) == 5
        for owner in OWNERS:
            assert summary["per_owner"][owner.name]["writes"] >= 1
