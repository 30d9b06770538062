"""Codegen-derived physics diagnostics (tier-1).

Covers the reduction-kernel pipeline end to end: reduction outputs in the
assignment collection and kernel IR, the numpy/C backend reduction code
paths, the fixed-order tiled sum that makes single-process and
distributed evaluations bit-identical, the model-derived diagnostic suite
(free energy, volume fractions, solute mass, interface area), the
conservation/energy-decay invariant watchdogs, and the streaming
:class:`DiagnosticsSeries` sinks (CSV, gauges, trace counters).
"""

import dataclasses

import numpy as np
import pytest
import sympy as sp

from repro.backends.c_backend import c_compiler_available, compile_c_kernel
from repro.backends.numpy_backend import compile_numpy_kernel, create_arrays
from repro.backends.runtime import tile_sum
from repro.diagnostics import (
    DiagnosticSpec,
    DiagnosticsSeries,
    DiagnosticsSuite,
    functional_diagnostics,
    invariant_names,
    merge_partials,
    model_diagnostics,
)
from repro.ir import KernelConfig, create_kernel
from repro.observability import (
    FlightRecorder,
    HealthError,
    HealthMonitor,
    chrome_trace,
    parse_prometheus,
    find_sample,
    reset_metrics,
    get_registry,
    set_recorder,
)
from repro.parallel import BlockForest, run_ranks
from repro.parallel.timeloop import DistributedSolver
from repro.pfm import (
    GrandPotentialModel,
    SingleBlockSolver,
    make_two_phase_binary,
    planar_front,
)
from repro.symbolic import fields
from repro.symbolic.assignment import Assignment, AssignmentCollection
from repro.symbolic.operators import Diff


@pytest.fixture(autouse=True)
def _clean_metrics():
    reset_metrics()
    yield
    reset_metrics()


@pytest.fixture(scope="module")
def binary_model():
    params = dataclasses.replace(make_two_phase_binary(dim=2), dt=1e-3)
    return GrandPotentialModel(params)


@pytest.fixture(scope="module")
def binary_kernels(binary_model):
    return binary_model.create_kernels()


def _front_state(params, shape=(24, 24)):
    return planar_front(
        shape, params.n_phases, 0, 1,
        position=shape[0] / 2, epsilon=params.epsilon,
    )


# -- reduction kernels through the IR ---------------------------------------


class TestReductionKernels:
    def _simple_ac(self):
        u = fields("u: double[2D]")
        total = sp.Symbol("total", real=True)
        return AssignmentCollection(
            [Assignment(total, u.center() ** 2)],
            name="sumsq",
            reduction_symbols=["total"],
        ), u

    def test_reduction_outputs_survive_create_kernel(self):
        ac, _ = self._simple_ac()
        kernel = create_kernel(ac, KernelConfig())
        assert kernel.is_reduction
        assert kernel.reductions == ("total",)

    def test_mixing_stores_and_reductions_raises(self):
        u, u_dst = fields("u, u_dst: double[2D]")
        total = sp.Symbol("total", real=True)
        ac = AssignmentCollection(
            [
                Assignment(total, u.center() ** 2),
                Assignment(u_dst.center(), u.center()),
            ],
            name="mixed",
            reduction_symbols=["total"],
        )
        with pytest.raises(ValueError, match="mix field stores"):
            create_kernel(ac, KernelConfig())

    def test_numpy_reduction_matches_reference(self):
        ac, _ = self._simple_ac()
        kernel = create_kernel(ac, KernelConfig())
        compiled = compile_numpy_kernel(kernel)
        arrays = create_arrays(kernel.fields, (9, 7), ghost_layers=1)
        rng = np.random.default_rng(3)
        arrays["u"][...] = rng.random(arrays["u"].shape)
        out = compiled(arrays, ghost_layers=1)
        ref = float(np.sum(arrays["u"][1:-1, 1:-1] ** 2))
        assert out["total"] == pytest.approx(ref, rel=1e-13)

    def test_gradient_reduction_needs_ghosts(self):
        u = fields("u: double[2D]")
        total = sp.Symbol("grad2", real=True)
        expr = Diff(u.center(), 0) ** 2 + Diff(u.center(), 1) ** 2
        from repro.discretization import FiniteDifferenceDiscretization

        disc = FiniteDifferenceDiscretization(dim=2, dst_map={})
        ac = AssignmentCollection(
            [Assignment(total, disc(expr))],
            name="gradsq",
            reduction_symbols=["grad2"],
        )
        kernel = create_kernel(
            ac, KernelConfig(parameter_values={"dx_0": 1.0, "dx_1": 1.0})
        )
        assert kernel.ghost_layers >= 1
        compiled = compile_numpy_kernel(kernel)
        arrays = create_arrays(kernel.fields, (12, 8), ghost_layers=1)
        x = np.arange(14)[:, None] * np.ones((1, 10))
        arrays["u"][...] = x  # du/dx = 1 by central differences
        out = compiled(arrays, ghost_layers=1)
        assert out["grad2"] == pytest.approx(12 * 8, rel=1e-12)

    def test_tiled_sum_bitwise_matches_block_merge(self):
        ac, _ = self._simple_ac()
        kernel = create_kernel(ac, KernelConfig())
        compiled = compile_numpy_kernel(kernel)
        arrays = create_arrays(kernel.fields, (12, 8), ghost_layers=1)
        rng = np.random.default_rng(11)
        arrays["u"][...] = rng.random(arrays["u"].shape)

        tiled = compiled(arrays, ghost_layers=1, tile_shape=(4, 4))["total"]

        per_block = {}
        for bi in range(3):
            for bj in range(2):
                sub = create_arrays(kernel.fields, (4, 4), ghost_layers=1)
                sub["u"][1:-1, 1:-1] = arrays["u"][
                    1 + 4 * bi : 1 + 4 * (bi + 1), 1 + 4 * bj : 1 + 4 * (bj + 1)
                ]
                out = compiled(sub, ghost_layers=1)
                per_block[(bi, bj)] = ({"total": out["total"]}, 16)
        totals, n = merge_partials(per_block)
        assert n == 12 * 8
        assert totals["total"] == tiled  # bitwise

    def test_tile_shape_rejected_for_stencil_kernels(self, binary_kernels):
        compiled = compile_numpy_kernel(binary_kernels.phi_kernels[0])
        arrays = create_arrays(binary_kernels.fields, (8, 8), ghost_layers=1)
        with pytest.raises(ValueError, match="tile_shape"):
            compiled(arrays, ghost_layers=1, tile_shape=(4, 4))

    @pytest.mark.skipif(not c_compiler_available(), reason="no C compiler")
    def test_c_backend_reduction_matches_numpy(self):
        ac, _ = self._simple_ac()
        kernel = create_kernel(ac, KernelConfig())
        np_out = compile_numpy_kernel(kernel)
        c_out = compile_c_kernel(kernel)
        arrays = create_arrays(kernel.fields, (16, 16), ghost_layers=1)
        rng = np.random.default_rng(5)
        arrays["u"][...] = rng.random(arrays["u"].shape)
        a = np_out(arrays, ghost_layers=1)["total"]
        b = c_out(arrays, ghost_layers=1)["total"]
        assert b == pytest.approx(a, rel=1e-12)
        with pytest.raises(ValueError, match="numpy backend"):
            c_out(arrays, ghost_layers=1, tile_shape=(4, 4))

    def test_tile_sum_helper(self):
        a = np.arange(30, dtype=np.float64).reshape(5, 6)
        assert tile_sum(a) == float(a.sum())
        assert tile_sum(a, (2, 3)) == pytest.approx(float(a.sum()), rel=1e-15)
        with pytest.raises(ValueError):
            tile_sum(a, (0, 3))


# -- symbolic derivation -----------------------------------------------------


class TestDerivation:
    def test_model_suite_names(self, binary_model):
        specs = model_diagnostics(binary_model)
        names = [s.name for s in specs]
        assert names == [
            "free_energy",
            "phase_fraction_0",
            "phase_fraction_1",
            "solute_mass_0",
            "interface_area",
        ]

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            DiagnosticSpec("x", sp.Symbol("y"), scale="median")

    def test_invariant_names_gating(self, binary_model):
        names = ["free_energy", "solute_mass_0", "interface_area"]
        mass, energy = invariant_names(names, binary_model.params)
        assert mass == ("solute_mass_0",)
        assert energy == "free_energy"
        noisy = dataclasses.replace(
            binary_model.params, fluctuation_amplitude=0.01
        )
        mass, energy = invariant_names(names, noisy)
        assert mass == ("solute_mass_0",)
        assert energy is None  # noise breaks dPsi/dt <= 0

    def test_functional_diagnostics_quickstart_shape(self):
        from repro.symbolic import EnergyFunctional, gradient_norm

        phi = fields("phi: double[2D]")
        c = phi.center()
        functional = EnergyFunctional(
            gradient_energy=gradient_norm(c, squared=True, dim=2),
            potential=c * (1 - c),
            epsilon=sp.Float(4.0),
        )
        specs = functional_diagnostics(functional, phi, dim=2)
        assert [s.name for s in specs] == [
            "free_energy", "phase_fraction", "interface_area",
        ]
        suite = DiagnosticsSuite(specs, dim=2, dx=1.0)
        arrays = create_arrays(suite.kernel.fields, (10, 10), ghost_layers=1)
        arrays["phi"][...] = 0.5
        values = suite.evaluate(arrays, ghost_layers=1)
        # uniform phi=0.5: no gradients, potential = 0.25/eps per cell
        assert values["phase_fraction"] == pytest.approx(0.5)
        assert values["interface_area"] == pytest.approx(0.0, abs=1e-12)
        assert values["free_energy"] == pytest.approx(100 * 0.25 / 4.0)


# -- in-situ evaluation on the solvers --------------------------------------


class TestSolverDiagnostics:
    def test_solute_mass_conserved_and_energy_decays(
        self, binary_model, binary_kernels
    ):
        params = binary_model.params
        solver = SingleBlockSolver(binary_kernels, (24, 24), boundary="periodic")
        solver.set_state(_front_state(params), mu=0.0)
        series = solver.enable_diagnostics(every=1)
        solver.step(20)
        assert len(series) == 21  # initial row + 20 steps

        mass = series.column("solute_mass_0")
        drift = max(abs(m - mass[0]) for m in mass) / abs(mass[0])
        assert drift < 1e-8

        energy = series.column("free_energy")
        assert all(
            energy[i + 1] <= energy[i] for i in range(len(energy) - 1)
        )
        fractions = np.array(
            [series.column("phase_fraction_0"), series.column("phase_fraction_1")]
        )
        np.testing.assert_allclose(fractions.sum(axis=0), 1.0, atol=1e-12)
        assert all(v > 0 for v in series.column("interface_area"))

    def test_conservation_watchdog_fires_on_drift(self, binary_kernels):
        monitor = HealthMonitor(policy="record", conservation_tol=1e-16)
        params = binary_kernels.model.params
        solver = SingleBlockSolver(
            binary_kernels, (16, 16), boundary="periodic", health=monitor
        )
        solver.set_state(_front_state(params, (16, 16)), mu=0.0)
        solver.enable_diagnostics(every=1)
        solver.step(5)
        checks = {e.check for e in monitor.events}
        assert "conservation" in checks
        parsed = parse_prometheus(get_registry().to_prometheus())
        assert find_sample(
            parsed, "repro_health_events_total",
            check="conservation", field="solute_mass_0",
        ) >= 1

    def test_dt_blowup_trips_energy_decay_before_nan(self, binary_model):
        params = dataclasses.replace(binary_model.params, dt=2.0)
        kernels = GrandPotentialModel(params).create_kernels()
        solver = SingleBlockSolver(
            kernels, (24, 24), boundary="periodic",
            health=HealthMonitor(policy="raise", conservation_tol=None),
        )
        solver.set_state(_front_state(params), mu=0.0)
        solver.enable_diagnostics(every=1)
        with pytest.raises(HealthError) as err:
            solver.step(50)
        assert {e.check for e in err.value.events} == {"energy_decay"}
        # the invariant fired while every value was still finite — the
        # NaN watchdog never got a chance
        assert all(
            np.isfinite(v) for v in solver.diagnostics.last().values()
        )
        assert not any(e.check == "nan" for e in solver.health.events)


class TestDistributedDiagnostics:
    def _setup(self, binary_kernels):
        params = binary_kernels.model.params
        phi0 = planar_front(
            (16, 8), params.n_phases, 0, 1, position=6.0, epsilon=params.epsilon
        )

        def init(offset, shape):
            sl = tuple(slice(o, o + s) for o, s in zip(offset, shape))
            return phi0[sl], 0.0

        return phi0, init

    def test_four_ranks_bitwise_match_single_process(self, binary_kernels):
        phi0, init = self._setup(binary_kernels)
        forest = BlockForest((16, 8), (4, 4), periodic=True)

        solo = DistributedSolver(binary_kernels, forest, comm=None)
        solo.set_state_from(init)
        solo_series = solo.enable_diagnostics(every=1)
        solo.step(4)
        solo_rows = [tuple(r.values()) for r in solo_series.rows]

        def prog(comm):
            s = DistributedSolver(binary_kernels, forest, comm=comm)
            s.set_state_from(init)
            series = s.enable_diagnostics(every=1)
            s.step(4)
            return [tuple(r.values()) for r in series.rows]

        results = run_ranks(4, prog)
        assert all(rows == results[0] for rows in results)  # rank-independent
        assert results[0] == solo_rows  # and == single process, bitwise

    def test_single_block_solver_reproduces_distributed_series(
        self, binary_kernels
    ):
        phi0, init = self._setup(binary_kernels)
        forest = BlockForest((16, 8), (4, 4), periodic=True)
        dist = DistributedSolver(binary_kernels, forest, comm=None)
        dist.set_state_from(init)
        dist_series = dist.enable_diagnostics(every=1)
        dist.step(3)

        single = SingleBlockSolver(binary_kernels, (16, 8), boundary="periodic")
        single.set_state(phi0, mu=0.0)
        series = single.enable_diagnostics(
            every=1, tile_shape=forest.block_shape
        )
        single.step(3)
        assert [tuple(r.values()) for r in series.rows] == [
            tuple(r.values()) for r in dist_series.rows
        ]

    def test_rank0_only_owns_csv(self, binary_kernels, tmp_path):
        _, init = self._setup(binary_kernels)
        forest = BlockForest((16, 8), (8, 8), periodic=True)
        csv_path = tmp_path / "diag.csv"

        def prog(comm):
            s = DistributedSolver(binary_kernels, forest, comm=comm)
            s.set_state_from(init)
            series = s.enable_diagnostics(every=1, csv_path=csv_path)
            s.step(2)
            return series.csv_path

        paths = run_ranks(2, prog)
        assert paths[0] == str(csv_path) and paths[1] is None
        import csv as csv_mod

        with open(csv_path, newline="") as fh:
            rows = list(csv_mod.DictReader(fh))
        assert len(rows) == 3 and "free_energy" in rows[0]


# -- series sinks ------------------------------------------------------------


class TestDiagnosticsSeries:
    def test_csv_and_columns(self, tmp_path):
        path = tmp_path / "series.csv"
        series = DiagnosticsSeries(
            ["free_energy"], csv_path=path, metrics=False
        )
        series.record(0, 0.0, {"free_energy": 2.0})
        series.record(1, 0.1, {"free_energy": 1.5})
        assert series.column("free_energy") == [2.0, 1.5]
        assert series.last()["time_step"] == 1
        text = path.read_text().splitlines()
        assert text[0] == "time_step,time,free_energy"
        assert len(text) == 3
        with pytest.raises(KeyError):
            series.record(2, 0.2, {})
        with pytest.raises(KeyError):
            series.column("nope")

    def test_gauges_and_trace_counters(self):
        recorder = FlightRecorder()
        previous = set_recorder(recorder)
        try:
            series = DiagnosticsSeries(["free_energy", "interface_area"])
            series.record(0, 0.0, {"free_energy": 3.0, "interface_area": 7.0})
        finally:
            set_recorder(previous)
        parsed = parse_prometheus(get_registry().to_prometheus())
        assert find_sample(
            parsed, "repro_diagnostic", name="free_energy"
        ) == 3.0
        doc = chrome_trace([recorder])
        counters = [
            ev for ev in doc["traceEvents"] if ev.get("ph") == "C"
        ]
        assert counters and counters[0]["name"] == "diagnostics"
        assert counters[0]["args"] == {
            "free_energy": 3.0, "interface_area": 7.0,
        }
