"""Determinism observatory (tier-1): fingerprints, audits, divergence tools.

Covers the shared JSONL ledger base, the BLAKE2b digest primitives and
their fixed lexicographic traversal order, the ``repro-fingerprint/1``
record schema, the live :class:`FingerprintStream` (ledger + metrics +
online audit), solver integration on both the single-block and
distributed solvers — including the headline invariance claims (1 vs N
sim ranks, sim vs process backend, overlap on/off, diagnostics on/off)
and the single-ulp perturbation localization — plus the offline
``tools/divergence.py`` bisection, ``check_observability
--require-fingerprints`` and the HTML report's determinism section.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.observability import (
    HealthError,
    HealthMonitor,
    JsonlLedger,
    RunDir,
    find_sample,
    parse_prometheus,
    get_registry,
    reset_metrics,
)
from repro.observability.fingerprint import (
    FingerprintLedger,
    FingerprintSchemaError,
    FingerprintStream,
    OVERHEAD_GAUGE,
    block_key,
    combined_digest,
    digest_array,
    find_mismatches,
    fingerprint_record,
    parse_block_key,
    tiled_digests,
    validate_fingerprint_record,
)
from repro.parallel import BlockForest, DistributedSolver, run_ranks
from repro.parallel.proc_comm import launch_ranks, process_backend_available
from repro.pfm import (
    GrandPotentialModel,
    SingleBlockSolver,
    make_two_phase_binary,
    planar_front,
)


@pytest.fixture(autouse=True)
def _clean_metrics():
    reset_metrics()
    yield
    reset_metrics()


@pytest.fixture(scope="module")
def binary_kernels():
    params = dataclasses.replace(make_two_phase_binary(dim=2), dt=1e-3)
    return GrandPotentialModel(params).create_kernels()


def _tools(name):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
    try:
        module = __import__(name)
    finally:
        sys.path.pop(0)
    return module


def _front_init(params, shape=(16, 8)):
    phi0 = planar_front(
        shape, params.n_phases, 0, 1, position=6.0, epsilon=params.epsilon
    )

    def init(offset, blk_shape):
        sl = tuple(slice(o, o + s) for o, s in zip(offset, blk_shape))
        return phi0[sl], 0.0

    return phi0, init


# -- shared JSONL ledger base -------------------------------------------------


class TestJsonlLedger:
    def test_append_load_roundtrip_creates_parents(self, tmp_path):
        ledger = JsonlLedger(tmp_path / "deep" / "nested" / "l.jsonl")
        ledger.append({"a": 1})
        ledger.append({"b": [2, 3]})
        assert ledger.load() == [{"a": 1}, {"b": [2, 3]}]

    def test_torn_tail_forgiven_even_in_strict_mode(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = JsonlLedger(path)
        ledger.append({"ok": 1})
        with open(path, "a") as fh:
            fh.write('{"torn": tr')  # crash mid-append
        assert ledger.load() == [{"ok": 1}]
        assert ledger.load(strict=True) == [{"ok": 1}]

    def test_strict_mid_file_garbage_names_path_and_line(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = JsonlLedger(path)
        ledger.append({"ok": 1})
        with open(path, "a") as fh:
            fh.write("not json\n")
        ledger.append({"ok": 2})
        assert ledger.load() == [{"ok": 1}, {"ok": 2}]  # tolerant: skipped
        with pytest.raises(ValueError, match=rf"{path.name}:2"):
            ledger.load(strict=True)

    def test_validate_hook_gates_appends_and_strict_loads(self, tmp_path):
        class Picky(JsonlLedger):
            class SchemaError(ValueError):
                pass

            def validate(self, record):
                if "x" not in record:
                    raise self.SchemaError("no x")
                return record

        ledger = Picky(tmp_path / "l.jsonl")
        ledger.append({"x": 1})
        with pytest.raises(Picky.SchemaError):
            ledger.append({"y": 2})
        with open(ledger.path, "a") as fh:
            fh.write('{"y": 2}\n')
        assert ledger.load() == [{"x": 1}]
        with pytest.raises(Picky.SchemaError, match=":2"):
            ledger.load(strict=True)


# -- digest primitives --------------------------------------------------------


class TestDigestPrimitives:
    def test_digest_is_deterministic_and_input_sensitive(self):
        a = np.arange(12.0).reshape(3, 4)
        assert digest_array(a) == digest_array(a.copy())
        assert digest_array(a) != digest_array(a.reshape(4, 3))  # shape
        assert digest_array(a) != digest_array(a.astype(np.float32))  # dtype
        b = a.copy()
        b[1, 2] = np.nextafter(b[1, 2], np.inf)
        assert digest_array(a) != digest_array(b)  # single ulp

    def test_noncontiguous_view_hashes_like_its_copy(self):
        a = np.arange(64.0).reshape(8, 8)
        view = a[::2, ::2]
        assert digest_array(view) == digest_array(np.ascontiguousarray(view))

    def test_block_key_roundtrip(self):
        assert block_key((0, 1)) == "0,1"
        assert parse_block_key("10,2") == (10, 2)
        assert parse_block_key(block_key((3,))) == (3,)

    def test_tiled_digests_matches_manual_slices(self):
        a = np.arange(16 * 8, dtype=np.float64).reshape(16, 8)
        out = tiled_digests(a, dim=2, tile_shape=(4, 4))
        assert sorted(out, key=parse_block_key) == [
            block_key((i, j)) for i in range(4) for j in range(2)
        ]
        assert out["2,1"] == digest_array(a[8:12, 4:8])
        assert tiled_digests(a, dim=2) == {"0,0": digest_array(a)}

    def test_tiled_digests_rejects_bad_dim_and_tiles(self):
        a = np.zeros((4, 4))
        with pytest.raises(ValueError, match="dim"):
            tiled_digests(a, dim=3)
        with pytest.raises(ValueError, match="tile shape"):
            tiled_digests(a, dim=2, tile_shape=(4,))

    def test_combined_digest_ignores_insertion_order(self):
        d1, d2 = digest_array(np.ones(3)), digest_array(np.zeros(3))
        fields_a = {"phi": {"0,0": d1, "0,1": d2}, "mu": {"0,0": d2}}
        fields_b = {"mu": {"0,0": d2}, "phi": {"0,1": d2, "0,0": d1}}
        assert combined_digest(fields_a) == combined_digest(fields_b)
        assert combined_digest(fields_a) != combined_digest(
            {"phi": {"0,0": d2, "0,1": d1}, "mu": {"0,0": d2}}
        )

    def test_blocks_sort_numerically_not_lexicographically(self):
        # "10,0" < "2,0" as strings; the traversal must use (2,0) < (10,0)
        d1, d2 = digest_array(np.ones(3)), digest_array(np.zeros(3))
        h = hashlib.blake2b(digest_size=16)
        h.update(b"f")
        for key, dig in (("2,0", d1), ("10,0", d2)):
            h.update(key.encode())
            h.update(bytes.fromhex(dig))
        assert combined_digest({"f": {"10,0": d2, "2,0": d1}}) == h.hexdigest()


# -- record schema ------------------------------------------------------------


class TestRecordValidation:
    def _fields(self):
        return {"phi": tiled_digests(np.ones((4, 4)), dim=2)}

    def test_valid_record_roundtrips_through_ledger(self, tmp_path):
        record = fingerprint_record(3, 0.15, self._fields())
        assert record["schema"] == "repro-fingerprint/1"
        ledger = FingerprintLedger(tmp_path / "fp.jsonl")
        ledger.append(record)
        assert ledger.load(strict=True) == [record]

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda r: r.update(schema="bogus/9"), "schema"),
            (lambda r: r.update(step=-1), "step"),
            (lambda r: r.update(step=True), "step"),
            (lambda r: r.update(time="soon"), "time"),
            (lambda r: r.update(fields={}), "fields"),
            (lambda r: r.update(fields={"phi": {}}), "missing or empty"),
            (
                lambda r: r["fields"]["phi"].update({"a,b": "0" * 32}),
                "block key",
            ),
            (
                lambda r: r["fields"]["phi"].update({"0,1": "XYZ"}),
                "hex digest",
            ),
        ],
    )
    def test_schema_violations_raise(self, mutate, match):
        record = fingerprint_record(1, 0.05, self._fields())
        mutate(record)
        with pytest.raises(FingerprintSchemaError, match=match):
            validate_fingerprint_record(record)

    def test_tampered_combined_digest_is_corruption(self):
        record = fingerprint_record(1, 0.05, self._fields())
        record["digest"] = "0" * 32
        with pytest.raises(FingerprintSchemaError, match="combined digest"):
            validate_fingerprint_record(record)

    def test_find_mismatches_in_traversal_order(self):
        d = digest_array(np.ones(2))
        e = digest_array(np.zeros(2))
        rec = {"fields": {"mu": {"0,0": d}, "phi": {"0,0": d, "1,0": d}}}
        ref = {"fields": {"mu": {"0,0": e}, "phi": {"0,0": d}}}
        out = find_mismatches(rec, ref)
        assert [(m["field"], m["block"]) for m in out] == [
            ("mu", "0,0"),
            ("phi", "1,0"),
        ]
        assert out[1]["expected"] is None  # present on one side only


# -- the live stream ----------------------------------------------------------


class TestFingerprintStream:
    def _state(self, seed=0):
        rng = np.random.default_rng(seed)
        return {"phi": rng.random((8, 8)), "mu": rng.random((8, 8))}

    def test_reruns_produce_byte_identical_ledgers(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            stream = FingerprintStream(path=path, metrics=False)
            for step in range(3):
                stream.record_state(
                    step, step * 0.05, self._state(), dim=2, tile_shape=(4, 4)
                )
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert len(FingerprintLedger(paths[0]).load(strict=True)) == 3

    def test_construction_truncates_stale_ledger(self, tmp_path):
        path = tmp_path / "fp.jsonl"
        path.write_text('{"stale": true}\n')
        stream = FingerprintStream(path=path, metrics=False)
        stream.record_state(0, 0.0, self._state(), dim=2)
        records = FingerprintLedger(path).load(strict=True)
        assert len(records) == 1 and records[0]["step"] == 0

    def test_audit_counts_matched_and_unmatched_steps(self, tmp_path):
        ref_path = tmp_path / "ref.jsonl"
        ref = FingerprintStream(path=ref_path, metrics=False)
        for step in (0, 1):
            ref.record_state(step, step * 0.05, self._state(), dim=2)
        stream = FingerprintStream(
            reference=ref_path, health=HealthMonitor(policy="record"),
            metrics=False,
        )
        for step in (0, 1, 7):  # 7 has no reference record
            stream.record_state(step, step * 0.05, self._state(), dim=2)
        assert stream.auditing
        assert (stream.matched, stream.unmatched) == (2, 1)
        assert stream.first_divergence is None
        assert "OK (2 matched, 1 unmatched steps)" in stream.summary()

    def test_divergence_names_step_field_block_and_raises(self, tmp_path):
        ref_path = tmp_path / "ref.jsonl"
        ref = FingerprintStream(path=ref_path, metrics=False)
        for step in range(3):
            ref.record_state(
                step, step * 0.05, self._state(), dim=2, tile_shape=(4, 4)
            )
        # default health monitor is policy="raise"
        stream = FingerprintStream(reference=ref_path, metrics=False)
        state = self._state()
        stream.record_state(0, 0.0, state, dim=2, tile_shape=(4, 4))
        state["mu"][6, 2] = np.nextafter(state["mu"][6, 2], np.inf)
        with pytest.raises(HealthError, match=r"mu.*block \(1,0\)"):
            stream.record_state(1, 0.05, state, dim=2, tile_shape=(4, 4))
        assert stream.first_divergence["step"] == 1
        assert stream.first_divergence["field"] == "mu"
        assert stream.first_divergence["block"] == "1,0"
        assert "DIVERGED at step 1 field mu block (1,0)" in stream.summary()

    def test_record_policy_and_divergence_counter(self, tmp_path):
        ref_path = tmp_path / "ref.jsonl"
        ref = FingerprintStream(path=ref_path, metrics=False)
        ref.record_state(0, 0.0, self._state(seed=1), dim=2)
        mon = HealthMonitor(policy="record")
        stream = FingerprintStream(reference=ref_path, health=mon)
        stream.record_state(0, 0.0, self._state(seed=2), dim=2)
        events = [e for e in mon.events if e.check == "divergence"]
        assert events and events[0].time_step == 0
        parsed = parse_prometheus(get_registry().to_prometheus())
        assert find_sample(
            parsed, "repro_fingerprint_divergence_total", field="mu"
        ) == 1
        assert find_sample(parsed, "repro_fingerprint_records_total") == 1
        assert find_sample(parsed, OVERHEAD_GAUGE) > 0

    def test_empty_reference_refused(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="missing or empty"):
            FingerprintStream(reference=tmp_path / "nope.jsonl")


# -- solver integration -------------------------------------------------------


class TestSolverFingerprints:
    def test_single_block_records_on_enable_and_every_step(
        self, binary_kernels, tmp_path
    ):
        params = binary_kernels.model.params
        phi0, _ = _front_init(params)
        solver = SingleBlockSolver(binary_kernels, (16, 8), boundary="periodic")
        solver.set_state(phi0, mu=0.0)
        path = tmp_path / "fp.jsonl"
        stream = solver.enable_fingerprints(every=2, path=path)
        solver.step(4)
        steps = [r["step"] for r in stream.records]
        assert steps == [0, 2, 4]
        assert solver.fingerprints is stream
        assert [r["step"] for r in FingerprintLedger(path).load()] == steps
        assert sorted(stream.records[0]["fields"]) == ["mu", "phi"]

    def test_rundir_default_path_and_manifest_inventory(
        self, binary_kernels, tmp_path
    ):
        params = binary_kernels.model.params
        phi0, _ = _front_init(params)
        rundir = RunDir(tmp_path / "run")
        solver = SingleBlockSolver(
            binary_kernels, (16, 8), boundary="periodic", rundir=rundir
        )
        solver.set_state(phi0, mu=0.0)
        solver.enable_fingerprints(every=1)
        solver.step(2)
        assert rundir.fingerprint_path.exists()
        manifest = rundir.write_manifest(status="complete")
        assert "fingerprints" in manifest["artifacts"]

    def test_stream_invariant_across_ranks_tiling_and_overlap(
        self, binary_kernels, tmp_path
    ):
        params = binary_kernels.model.params
        phi0, init = _front_init(params)
        forest = BlockForest((16, 8), (4, 4), periodic=True)

        def dist_records(comm=None, overlap=False):
            solver = DistributedSolver(
                binary_kernels, forest, comm=comm, overlap=overlap
            )
            solver.set_state_from(init)
            stream = solver.enable_fingerprints(every=1)
            solver.step(3)
            return stream.records

        solo = dist_records()
        assert solo == dist_records(overlap=True)  # overlap on/off

        def prog(comm):
            return dist_records(comm=comm)

        per_rank = run_ranks(4, prog)
        assert all(r == solo for r in per_rank)  # 4 sim ranks, every rank

        single = SingleBlockSolver(binary_kernels, (16, 8), boundary="periodic")
        single.set_state(phi0, mu=0.0)
        stream = single.enable_fingerprints(
            every=1, tile_shape=forest.block_shape
        )
        single.step(3)
        assert stream.records == solo  # single block, tiled like the forest

    def test_diagnostics_on_or_off_leaves_stream_unchanged(
        self, binary_kernels, tmp_path
    ):
        params = binary_kernels.model.params
        phi0, _ = _front_init(params)
        records = []
        for with_diag in (False, True):
            solver = SingleBlockSolver(
                binary_kernels, (16, 8), boundary="periodic"
            )
            solver.set_state(phi0, mu=0.0)
            if with_diag:
                solver.enable_diagnostics(every=1, tile_shape=(4, 4))
            stream = solver.enable_fingerprints(every=1, tile_shape=(4, 4))
            solver.step(3)
            records.append(stream.records)
        assert records[0] == records[1]

    @pytest.mark.skipif(
        not process_backend_available(),
        reason="needs the fork start method and multiprocessing.shared_memory",
    )
    def test_process_backend_emits_identical_stream(self, binary_kernels):
        params = binary_kernels.model.params
        _, init = _front_init(params)
        forest = BlockForest((16, 8), (4, 4), periodic=True)

        def prog(comm):
            solver = DistributedSolver(binary_kernels, forest, comm=comm)
            solver.set_state_from(init)
            stream = solver.enable_fingerprints(every=1)
            solver.step(2)
            return stream.records

        sim = launch_ranks(2, prog, backend="sim")
        proc = launch_ranks(
            2, prog, backend="process", recv_timeout=120, join_timeout=300
        )
        assert proc[0] == sim[0]
        assert proc[1] == sim[0]

    def test_single_ulp_perturbation_is_localized_exactly(
        self, binary_kernels, tmp_path
    ):
        params = binary_kernels.model.params
        phi0, init = _front_init(params)
        forest = BlockForest((16, 8), (4, 4), periodic=True)
        ref_path = tmp_path / "ref.jsonl"

        reference = DistributedSolver(binary_kernels, forest, comm=None)
        reference.set_state_from(init)
        reference.enable_fingerprints(every=1, path=ref_path)
        reference.step(4)

        mon = HealthMonitor(policy="record")
        audited = SingleBlockSolver(
            binary_kernels, (16, 8), boundary="periodic", health=mon
        )
        audited.set_state(phi0, mu=0.0)

        def perturb(solver):
            if solver.time_step == 2:
                interior = solver._interior("phi")
                interior[5, 6] = np.nextafter(interior[5, 6], np.inf)

        audited.add_callback(perturb)
        stream = audited.enable_fingerprints(
            every=1, reference=ref_path, tile_shape=forest.block_shape
        )
        audited.step(4)

        # the flipped bit sits in interior cell (5, 6) -> 4x4 block (1, 1)
        assert stream.first_divergence["step"] == 2
        assert stream.first_divergence["field"] == "phi"
        assert stream.first_divergence["block"] == "1,1"
        events = [e for e in mon.events if e.check == "divergence"]
        assert events[0].time_step == 2 and events[0].field == "phi"
        assert "block (1,1)" in events[0].message
        assert stream.matched == 2  # steps 0 and 1 were still clean

    def test_unknown_field_and_bad_every_rejected(self, binary_kernels):
        solver = SingleBlockSolver(binary_kernels, (8, 8), boundary="periodic")
        with pytest.raises(ValueError, match="unknown field"):
            solver.enable_fingerprints(fields=("chi",))
        with pytest.raises(ValueError, match="every"):
            solver.enable_fingerprints(every=0)


# -- tools/divergence.py ------------------------------------------------------


class TestDivergenceTool:
    def _ledger(self, path, n_steps=4, perturb_step=None):
        rng = np.random.default_rng(7)
        states = [
            {"phi": rng.random((8, 8)), "mu": rng.random((8, 8))}
            for _ in range(n_steps)
        ]
        stream = FingerprintStream(path=path, metrics=False)
        for step, state in enumerate(states):
            if step == perturb_step:
                state = {k: v.copy() for k, v in state.items()}
                state["phi"][2, 5] = np.nextafter(state["phi"][2, 5], np.inf)
            stream.record_state(
                step, step * 0.05, state, dim=2, tile_shape=(4, 4)
            )
        return path

    def test_first_divergence_localizes_step_field_block(self, tmp_path):
        divergence = _tools("divergence")
        a = self._ledger(tmp_path / "a.jsonl")
        b = self._ledger(tmp_path / "b.jsonl", perturb_step=2)
        records_a = FingerprintLedger(a).load()
        records_b = FingerprintLedger(b).load()
        assert divergence.first_divergence(records_a, records_a) is None
        div = divergence.first_divergence(records_a, records_b)
        assert (div["step"], div["field"], div["block"]) == (2, "phi", "0,1")
        assert div["n_mismatches"] == 1
        rows = divergence.context_rows(records_a, records_b, div["step"])
        assert [r["match"] for r in rows] == [True, True, False, True]

    def test_ulp_diff_counts_and_heatmap(self):
        divergence = _tools("divergence")
        a = np.linspace(0.1, 1.0, 64).reshape(8, 8)
        b = a.copy()
        b[3, 5] = np.nextafter(b[3, 5], np.inf)
        d = divergence.ulp_diff(a, b, heatmap_shape=(8, 8))
        assert d["max_ulp"] == 1 and d["mismatch_count"] == 1
        assert d["compared"] == 64 and d["nonfinite_mismatches"] == 0
        assert d["heatmap"][3][5] == 1
        assert sum(map(sum, d["heatmap"])) == 1

    def test_ulp_diff_nonfinite_and_signed_zero(self):
        divergence = _tools("divergence")
        a = np.array([0.0, 1.0, np.nan])
        b = np.array([-0.0, 1.0, 1.0])
        d = divergence.ulp_diff(a, b)
        assert d["max_ulp"] == 0  # -0.0 == 0.0 in ulp space
        assert d["nonfinite_mismatches"] == 1
        assert d["compared"] == 2

    def test_checkpoint_compare_finds_the_flipped_cell(self, tmp_path):
        divergence = _tools("divergence")
        rng = np.random.default_rng(3)
        phi = rng.random((16, 8))
        mu = rng.random((16, 8))
        phi_b = phi.copy()
        phi_b[9, 3] = np.nextafter(phi_b[9, 3], -np.inf)
        for name, arrs in (("a", (phi, mu)), ("b", (phi_b, mu))):
            cpdir = tmp_path / name / "checkpoints"
            cpdir.mkdir(parents=True)
            np.savez(
                cpdir / "step00000002.npz",
                phi=arrs[0], mu=arrs[1], time=0.1, time_step=2,
            )
        assert divergence.list_checkpoints(tmp_path / "a") == {
            2: [tmp_path / "a" / "checkpoints" / "step00000002.npz"]
        }
        assert divergence.nearest_checkpoint(tmp_path / "a", 5) == 2
        assert divergence.nearest_checkpoint(tmp_path / "a", 1) is None
        cmp_doc = divergence.compare_checkpoints(tmp_path / "a", tmp_path / "b", 2)
        assert cmp_doc["fields"]["phi"]["max_ulp"] == 1
        assert cmp_doc["fields"]["phi"]["mismatch_count"] == 1
        assert cmp_doc["fields"]["mu"]["max_ulp"] == 0

    def test_replay_compare_identical_solvers_is_zero_ulp(self, binary_kernels):
        divergence = _tools("divergence")
        params = binary_kernels.model.params
        phi0, _ = _front_init(params)

        def make():
            s = SingleBlockSolver(binary_kernels, (16, 8), boundary="periodic")
            s.set_state(phi0, mu=0.0)
            return s

        out = divergence.replay_compare(make(), make(), n_steps=2)
        assert out["phi"]["max_ulp"] == 0 and out["mu"]["max_ulp"] == 0

    def test_cli_exit_codes_and_json_document(self, tmp_path, capsys):
        divergence = _tools("divergence")
        a = self._ledger(tmp_path / "a.jsonl")
        b = self._ledger(tmp_path / "b.jsonl", perturb_step=1)
        assert divergence.main([str(a), str(a)]) == 0
        json_path = tmp_path / "div.json"
        assert divergence.main([str(a), str(b), "--json", str(json_path)]) == 1
        out = capsys.readouterr().out
        assert "FIRST DIVERGENCE at step 1" in out
        doc = json.loads(json_path.read_text())
        assert doc["schema"] == "repro-divergence/1"
        assert doc["first_divergence"]["block"] == "0,1"
        assert divergence.main([str(a), str(tmp_path / "missing.jsonl")]) == 2


# -- check_observability and the HTML report ----------------------------------


class TestReportingSurfaces:
    def _audited_rundir(self, binary_kernels, tmp_path):
        params = binary_kernels.model.params
        phi0, _ = _front_init(params)
        rundir = RunDir(tmp_path / "run")
        solver = SingleBlockSolver(
            binary_kernels, (16, 8), boundary="periodic", rundir=rundir
        )
        solver.set_state(phi0, mu=0.0)
        solver.enable_fingerprints(every=1)
        solver.step(2)
        rundir.write_manifest(status="complete")
        return rundir

    def test_check_fingerprints_accepts_a_live_rundir(
        self, binary_kernels, tmp_path, capsys
    ):
        check = _tools("check_observability")
        rundir = self._audited_rundir(binary_kernels, tmp_path)
        check.check_fingerprints(rundir.path)
        out = capsys.readouterr().out
        assert "3 repro-fingerprint/1 record(s)" in out
        assert "steps 0..2" in out

    def test_check_fingerprints_failure_modes(self, tmp_path):
        check = _tools("check_observability")
        with pytest.raises(SystemExit):
            check.check_fingerprints(tmp_path)  # no ledger at all
        ledger = FingerprintLedger(tmp_path / "fingerprints.jsonl")
        fields = {"phi": tiled_digests(np.ones((4, 4)), dim=2)}
        ledger.append(fingerprint_record(2, 0.1, fields))
        ledger.append(fingerprint_record(1, 0.05, fields))  # non-monotone
        with pytest.raises(SystemExit):
            check.check_fingerprints(tmp_path)

    def test_run_report_renders_determinism_section(
        self, binary_kernels, tmp_path
    ):
        report = _tools("run_report")
        rundir = self._audited_rundir(binary_kernels, tmp_path)
        records = report.load_fingerprints(rundir.path)
        assert records and records[0]["step"] == 0
        html = report.section_determinism(records, None)
        assert "Determinism" in html
        assert "repro-fingerprint/1</code> records, steps 0..2" in html

        divergence = _tools("divergence")
        other = RunDir(tmp_path / "other")
        stream = FingerprintStream(
            path=other.fingerprint_path, metrics=False
        )
        rng = np.random.default_rng(11)
        for step in range(3):
            stream.record_state(
                step, step * 0.05,
                {"phi": rng.random((14, 14)), "mu": rng.random((14, 14))},
                dim=2,
            )
        assert divergence.main([str(rundir.path), str(other.path)]) == 1
        doc = json.loads((rundir.path / "divergence.json").read_text())
        html = report.section_determinism(records, doc)
        assert "FIRST DIVERGENCE" in html

    def test_svg_heatmap_marks_hot_cells(self):
        report = _tools("run_report")
        svg = report.svg_heatmap([[0, 0], [0, 3]], label="phi")
        assert svg.startswith("<svg") and svg.count("<rect") == 4
        assert "153, 27, 27" in svg  # the nonzero cell is red
