"""Shared kernel cache, solver profiling, and checkpoint/IO regressions.

Covers the observability subsystem (:mod:`repro.profiling`) — structural
kernel fingerprints, the process-wide compile cache with hit/miss counters,
per-kernel timing reports — and three I/O bug fixes: checkpoint paths
without ``.npz``, 2D vector fields in :func:`write_vtk`, and header-only
CSV time series.
"""

import numpy as np
import pytest

from repro.analysis import TimeSeriesWriter, snapshot_path, write_vtk
from repro.parallel import BlockForest
from repro.parallel.timeloop import DistributedSolver
from repro.pfm import (
    GrandPotentialModel,
    SingleBlockSolver,
    make_two_phase_binary,
    planar_front,
)
from repro.profiling import (
    SolverProfiler,
    clear_kernel_cache,
    compile_cached,
    kernel_cache_stats,
    kernel_fingerprint,
)


def _params():
    params = make_two_phase_binary(dim=2)
    params.fluctuation_amplitude = 0.02  # exercise the global Philox counters
    return params


@pytest.fixture(scope="module")
def kernel_set():
    return GrandPotentialModel(_params()).create_kernels()


class TestKernelFingerprint:
    def test_deterministic_across_regenerations(self, kernel_set):
        regenerated = GrandPotentialModel(_params()).create_kernels()
        fps = [kernel_fingerprint(k) for k in kernel_set.all_kernels]
        fps2 = [kernel_fingerprint(k) for k in regenerated.all_kernels]
        assert fps == fps2

    def test_distinct_kernels_distinct_hashes(self, kernel_set):
        fps = [kernel_fingerprint(k) for k in kernel_set.all_kernels]
        assert len(set(fps)) == len(fps)

    def test_parametrization_changes_hash(self, kernel_set):
        other_params = _params()
        other_params.fluctuation_amplitude = 0.0
        other = GrandPotentialModel(other_params).create_kernels()
        assert kernel_fingerprint(other.phi_kernels[0]) != kernel_fingerprint(
            kernel_set.phi_kernels[0]
        )

    def test_independent_of_hash_seed(self):
        """The IR (term order of sums) must not follow ``PYTHONHASHSEED``.

        The 3-D binary µ kernel printed two flux terms in swapped order
        under seed 3: another C summation order, another disk-cache key.
        """
        import os
        import subprocess
        import sys

        program = (
            "from repro.pfm import GrandPotentialModel, make_two_phase_binary\n"
            "from repro.profiling import kernel_fingerprint\n"
            "ks = GrandPotentialModel(make_two_phase_binary(dim=3)).create_kernels()\n"
            "print(*[kernel_fingerprint(k) for k in ks.all_kernels])\n"
        )
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", program],
                env={**os.environ, "PYTHONHASHSEED": seed},
                stdout=subprocess.PIPE,
                text=True,
            )
            for seed in ("0", "3")
        ]
        printed = [run.communicate(timeout=300)[0].split() for run in runs]
        assert all(run.returncode == 0 for run in runs)
        assert len(printed[0]) == 3
        assert printed[0] == printed[1]


class TestKernelCache:
    def test_two_solvers_compile_each_kernel_once(self, kernel_set):
        clear_kernel_cache()
        n = len(kernel_set.all_kernels)

        SingleBlockSolver(kernel_set, (8, 8), boundary="periodic")
        after_first = kernel_cache_stats()
        assert after_first.misses == n
        assert after_first.hits == 0
        assert after_first.size == n

        SingleBlockSolver(kernel_set, (12, 4), boundary="periodic")
        after_second = kernel_cache_stats()
        assert after_second.misses == n  # nothing recompiled
        assert after_second.hits == n

    def test_single_and_distributed_share_cache(self, kernel_set):
        clear_kernel_cache()
        n = len(kernel_set.all_kernels)
        SingleBlockSolver(kernel_set, (8, 8), boundary="periodic")
        forest = BlockForest((8, 8), (4, 4), periodic=True)
        DistributedSolver(kernel_set, forest, comm=None)
        stats = kernel_cache_stats()
        assert stats.misses == n
        assert stats.hits == n

    def test_cached_objects_are_shared(self, kernel_set):
        k = kernel_set.projection_kernel
        assert compile_cached(k) is compile_cached(k)

    def test_unknown_backend_rejected(self, kernel_set):
        with pytest.raises(ValueError, match="backend"):
            compile_cached(kernel_set.projection_kernel, "fortran")


class TestBitIdentityWithSharedCache:
    def test_distributed_matches_single_block(self, kernel_set):
        """Philox bit-identity survives the shared compile cache."""
        clear_kernel_cache()
        params = kernel_set.model.params
        shape = (16, 8)
        phi0 = planar_front(
            shape, params.n_phases, 0, 1, position=6.0, epsilon=params.epsilon
        )

        single = SingleBlockSolver(kernel_set, shape, boundary="periodic", seed=0)
        single.set_state(phi0, mu=0.0)
        single.step(5)

        forest = BlockForest(shape, (4, 4), periodic=True)
        dist = DistributedSolver(kernel_set, forest, comm=None, seed=0)
        dist.set_state_from(
            lambda off, shp: (
                phi0[tuple(slice(o, o + s) for o, s in zip(off, shp))],
                0.0,
            )
        )
        dist.step(5)

        assert kernel_cache_stats().hits > 0  # the solvers really shared builds
        np.testing.assert_array_equal(dist.gather("phi"), single.phi)
        np.testing.assert_array_equal(dist.gather("mu"), single.mu)


class TestSolverProfiling:
    def test_single_block_report(self, kernel_set):
        solver = SingleBlockSolver(kernel_set, (8, 8), boundary="periodic")
        solver.set_state(
            planar_front(
                (8, 8), 2, 0, 1, position=3.0, epsilon=kernel_set.model.params.epsilon
            )
        )
        solver.step(3)

        recs = solver.profiler.records
        phi_name = kernel_set.phi_kernels[0].name
        assert recs[phi_name].calls == 3
        assert recs[phi_name].cells == 3 * 64
        assert recs[phi_name].seconds > 0
        assert recs[phi_name].mlups > 0
        assert any(name.startswith("fill:") for name in recs)

        report = solver.profile_report()
        assert "MLUP/s" in report and phi_name in report and "calls" in report

    def test_distributed_exchange_timed(self, kernel_set):
        forest = BlockForest((8, 8), (4, 4), periodic=True)
        solver = DistributedSolver(kernel_set, forest, comm=None)
        solver.set_state_from(lambda off, shp: (np.full(shp + (2,), 0.5), 0.0))
        solver.step(2)

        recs = solver.profiler.records
        assert recs["exchange:phi_dst"].calls == 2
        assert recs["exchange:mu_dst"].calls == 2
        # four 4x4 blocks, two sweeps: 2 * 4 * 16 cells per kernel
        assert recs[kernel_set.phi_kernels[0].name].cells == 2 * 4 * 16
        assert "exchange:phi_dst" in solver.profile_report()

    def test_disabled_profiler_is_noop(self):
        prof = SolverProfiler(enabled=False)
        with prof.measure("x", cells=10):
            pass
        assert prof.records == {}
        assert "(no timed operations yet)" in prof.report()

    def test_merge_accumulates(self):
        a, b = SolverProfiler(), SolverProfiler()
        a.record("k", 1.0, cells=100, nbytes=8)
        b.record("k", 2.0, cells=200, nbytes=16)
        b.record("other", 0.5)
        a.merge(b)
        assert a.records["k"].calls == 2
        assert a.records["k"].seconds == pytest.approx(3.0)
        assert a.records["k"].cells == 300
        assert a.records["k"].bytes == 24
        assert a.records["other"].calls == 1


class TestCheckpointRoundTrip:
    def _solver(self, kernel_set, seed=0):
        params = kernel_set.model.params
        s = SingleBlockSolver(kernel_set, (8, 8), boundary="periodic", seed=seed)
        s.set_state(
            planar_front((8, 8), 2, 0, 1, position=3.0, epsilon=params.epsilon)
        )
        return s

    @pytest.mark.parametrize("name", ["snap", "snap.npz"])
    def test_roundtrip_with_and_without_suffix(self, kernel_set, tmp_path, name):
        s1 = self._solver(kernel_set)
        s1.step(2)
        written = s1.save_checkpoint(tmp_path / name)
        assert written == tmp_path / "snap.npz"

        s2 = self._solver(kernel_set)
        s2.load_checkpoint(tmp_path / name)
        np.testing.assert_array_equal(s2.phi, s1.phi)
        np.testing.assert_array_equal(s2.mu, s1.mu)
        assert s2.time_step == 2 and s2.time == pytest.approx(s1.time)

        # restored runs continue identically (same Philox counters)
        s1.step(2)
        s2.step(2)
        np.testing.assert_array_equal(s2.phi, s1.phi)

    def test_snapshot_path_normalization(self):
        assert snapshot_path("a/b/snap").name == "snap.npz"
        assert snapshot_path("a/b/snap.npz").name == "snap.npz"
        assert snapshot_path("snap.v2").name == "snap.v2.npz"


class TestVTKVectorFields:
    def test_2d_vector_field_splits(self, tmp_path):
        u = np.random.default_rng(0).random((4, 3, 2))
        p = write_vtk(tmp_path / "u.vtk", {"u": u}, dim=2)
        text = p.read_text()
        assert "SCALARS u_0 double 1" in text
        assert "SCALARS u_1 double 1" in text
        assert "SCALARS u double 1" not in text
        assert "DIMENSIONS 5 4 2" in text  # (4, 3) cells promoted to one slab

    def test_2d_inferred_from_mixed_fields(self, tmp_path):
        scal = np.ones((4, 3))
        vec = np.ones((4, 3, 2))
        text = write_vtk(tmp_path / "m.vtk", {"s": scal, "v": vec}).read_text()
        assert "SCALARS s double 1" in text
        assert "SCALARS v_0 double 1" in text and "SCALARS v_1 double 1" in text

    def test_lone_3d_array_stays_scalar_volume(self, tmp_path):
        text = write_vtk(tmp_path / "p.vtk", {"phi": np.ones((4, 3, 2))}).read_text()
        assert "SCALARS phi double 1" in text and "DIMENSIONS 5 4 3" in text

    def test_incompatible_rank_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="axes"):
            write_vtk(tmp_path / "bad.vtk", {"x": np.ones((3, 3, 3, 2))}, dim=2)

    def test_empty_fields_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no fields"):
            write_vtk(tmp_path / "e.vtk", {})


class TestTimeSeriesEmptyRead:
    def test_header_only_returns_empty_columns(self, tmp_path):
        w = TimeSeriesWriter(tmp_path / "ts.csv", ["step", "front"])
        data = w.read()
        assert set(data) == {"step", "front"}
        for col in data.values():
            assert col.shape == (0,)

    def test_read_after_appends_unchanged(self, tmp_path):
        w = TimeSeriesWriter(tmp_path / "ts.csv", ["step", "front"])
        w.append(step=0, front=1.0)
        data = w.read()
        np.testing.assert_allclose(data["front"], [1.0])
