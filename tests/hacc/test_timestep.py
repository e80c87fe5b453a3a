"""Tests for the adiabatic driver (the dynamical time stepper)."""

import numpy as np
import pytest

from repro.hacc.timestep import (
    GRAVITY_KERNEL,
    TIMER_NAMES,
    AdiabaticDriver,
    KernelInvocation,
    SimulationConfig,
    WorkloadTrace,
)


class TestSimulationConfig:
    def test_box_follows_paper_scaling(self):
        # box = 177 Mpc/h * n/512 keeps the mass resolution fixed
        assert SimulationConfig(n_per_side=512).box == pytest.approx(177.0)
        assert SimulationConfig(n_per_side=16).box == pytest.approx(177.0 / 32)

    def test_defaults_match_paper_schedule(self):
        c = SimulationConfig()
        assert c.z_initial == 200.0
        assert c.z_final == 50.0
        assert c.n_steps == 5


class TestWorkloadTrace:
    def test_record_and_group(self):
        t = WorkloadTrace()
        t.record("upGeo", 100, 60.0)
        t.record("upGeo", 100, 62.0)
        t.record("upCor", 100, 60.0)
        assert len(t.by_kernel()["upGeo"]) == 2
        assert t.total_interactions() == pytest.approx(100 * (60 + 62 + 60))

    def test_zero_workitems_ignored(self):
        t = WorkloadTrace()
        t.record("upGeo", 0, 60.0)
        assert t.invocations == []


class TestReferenceRun:
    """Checks against the session-scoped 5-step reference run."""

    def test_timer_call_pattern(self, reference_trace):
        by = reference_trace.by_kernel()
        # every hydro timer fires once per step; gravity twice (KDK)
        for timer in TIMER_NAMES:
            assert len(by[timer]) == 5, timer
        assert len(by[GRAVITY_KERNEL]) == 10

    def test_interactions_are_realistic(self, reference_trace):
        by = reference_trace.by_kernel()
        for timer in TIMER_NAMES:
            for inv in by[timer]:
                # SPH neighbour counts: tens to a few hundred directed
                assert 10 < inv.interactions_per_item < 1000

    def test_workitems_equal_gas_count(self, reference_trace, reference_driver):
        from repro.hacc.particles import Species

        n_gas = reference_driver.particles.count(Species.BARYON)
        for inv in reference_trace.by_kernel()["upGeo"]:
            assert inv.n_workitems == n_gas

    def test_momentum_conserved_through_run(self, reference_driver):
        mom = reference_driver.diagnostics[-1].total_momentum
        # compare against the momentum scale of the system
        p = reference_driver.particles
        scale = float(np.abs(p.mass[:, None] * p.velocities).sum())
        assert np.all(np.abs(mom) < 1e-6 * scale)

    def test_scale_factor_progression(self, reference_driver):
        a_values = [d.a for d in reference_driver.diagnostics]
        assert a_values == sorted(a_values)
        assert a_values[-1] == pytest.approx(1 / 51.0)

    def test_structure_grows(self, reference_driver):
        # gravitational collapse: kinetic energy grows from z=200 to 50
        ke = [d.kinetic_energy for d in reference_driver.diagnostics]
        assert ke[-1] > ke[0]

    def test_thermal_energy_positive(self, reference_driver):
        for d in reference_driver.diagnostics:
            assert d.thermal_energy > 0

    def test_positions_stay_in_box(self, reference_driver):
        p = reference_driver.particles
        assert np.all((p.positions >= 0) & (p.positions < p.box))

    def test_hydro_state_finite(self, reference_driver):
        p = reference_driver.particles
        from repro.hacc.particles import Species

        gas = p.species_mask(Species.BARYON)
        for field in ("rho", "u", "pressure", "cs", "volume", "hsml"):
            assert np.all(np.isfinite(p.arrays[field][gas])), field
        assert np.all(p.rho[gas] > 0)
        assert np.all(p.hsml[gas] > 0)


class TestSharedPairDecomposition:
    """The gravity's spatial index is reused while positions stand still."""

    def test_step_reuses_one_cell_list(self):
        from repro.observability.metrics import MetricsRegistry

        driver = AdiabaticDriver(SimulationConfig(n_per_side=6, pm_mesh=8))
        driver.metrics = MetricsRegistry()
        schedule = driver.schedule()
        driver.step(float(schedule[0]), float(schedule[1]))
        driver.step(float(schedule[1]), float(schedule[2]))
        counters = driver.metrics.snapshot()["counters"]
        # a plain KDK step evaluates gravity before and after the drift;
        # the second step opens at the positions the first closed on
        # and reuses that index.  The hydro passes index the gas
        # positions on their own and never touch this cache.
        assert counters["sim.pairs.cell_list.builds"] == 3
        assert counters["sim.pairs.cell_list.hits"] == 1

    def test_cache_survives_across_steps(self):
        driver = AdiabaticDriver(SimulationConfig(n_per_side=6, pm_mesh=8))
        schedule = driver.schedule()
        for k in range(3):
            driver.step(float(schedule[k]), float(schedule[k + 1]))
        assert driver.pair_cache.hits == 2
        assert driver.pair_cache.builds == 4

    def test_restore_invalidates_cache(self):
        driver = AdiabaticDriver(SimulationConfig(n_per_side=6, pm_mesh=8))
        schedule = driver.schedule()
        driver.step(float(schedule[0]), float(schedule[1]))
        assert driver.pair_cache._entry is not None
        driver.restore(particles=driver.particles, step_index=0)
        assert driver.pair_cache._entry is None
