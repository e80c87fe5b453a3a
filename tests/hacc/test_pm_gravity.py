"""Tests for the PM Poisson solver and the short-range PP solver."""

import numpy as np
import pytest

from repro.hacc.neighbors import find_pairs
from repro.hacc.particles import ParticleData
from repro.hacc.pm import PMConfig, PMSolver
from repro.hacc.short_range import (
    POLY_ORDER,
    PolynomialForceKernel,
    ShortRangeSolver,
    exact_short_range_factor,
)
from repro.hacc.units import G_NEWTON


def directed_reference(solver, p, *, use_polynomial):
    """Short-range accelerations summed over the *directed* pair list:
    each ordered pair (i, j) adds j's pull on i, with no use of
    Newton's third law."""
    i, j = find_pairs(p.positions, p.box, solver.cutoff)
    d = p.minimum_image(p.positions[i] - p.positions[j])
    r2 = np.einsum("ij,ij->i", d, d) + solver.softening**2
    r = np.sqrt(r2)
    if use_polynomial:
        factor = solver.kernel(r)
    else:
        factor = exact_short_range_factor(r, solver.r_s)
    f = -G_NEWTON * p.mass[j] * factor / (r2 * r)
    acc = np.zeros((len(p), 3))
    np.add.at(acc, i, f[:, None] * d)
    return acc


def random_box(rng, n=300, box=10.0):
    p = ParticleData.allocate(n, box=box)
    p.set_positions(rng.uniform(0, box, (n, 3)))
    p.arrays["mass"][:] = rng.uniform(1e9, 1e10, n)
    return p


def two_body(box=20.0, sep=1.0):
    p = ParticleData.allocate(2, box=box)
    p.set_positions(np.array([[10.0, 10.0, 10.0], [10.0 + sep, 10.0, 10.0]]))
    p.arrays["mass"][:] = 1.0e10
    return p


class TestShortRangeFactor:
    def test_full_newtonian_at_zero(self):
        assert exact_short_range_factor(np.array([1e-6]), 1.0)[0] == pytest.approx(
            1.0, abs=1e-4
        )

    def test_vanishes_beyond_split_scale(self):
        assert exact_short_range_factor(np.array([8.0]), 1.0)[0] < 1e-5

    def test_monotone_decreasing(self):
        r = np.linspace(0.01, 6.0, 100)
        s = exact_short_range_factor(r, 1.0)
        assert np.all(np.diff(s) < 0)


class TestPolynomialKernel:
    def test_order_matches_appendix(self):
        # -DHACC_CUDA_POLY_ORDER=5
        k = PolynomialForceKernel.fit(1.0, 3.0)
        assert len(k.coefficients) == POLY_ORDER + 1

    def test_fit_error_small(self):
        k = PolynomialForceKernel.fit(1.0, 4.5)
        assert k.max_fit_error() < 2e-2

    def test_zero_beyond_cutoff(self):
        k = PolynomialForceKernel.fit(1.0, 3.0)
        assert k(np.array([3.5]))[0] == 0.0

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            PolynomialForceKernel.fit(0.0, 3.0)


class TestShortRangeSolver:
    def test_two_body_force_matches_filtered_newton(self):
        p = two_body(sep=0.5)
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0, softening=1e-4)
        acc = solver.accelerations(p, use_polynomial=False)
        r = 0.5
        expected = G_NEWTON * 1.0e10 / r**2 * exact_short_range_factor(
            np.array([r]), 1.0
        )[0]
        assert abs(acc[0, 0]) == pytest.approx(expected, rel=1e-3)
        # attraction: particle 0 pulled toward +x
        assert acc[0, 0] > 0 and acc[1, 0] < 0

    def test_newtons_third_law(self, rng):
        p = ParticleData.allocate(20, box=20.0)
        p.set_positions(rng.uniform(8, 12, (20, 3)))
        p.arrays["mass"][:] = rng.uniform(1e9, 1e10, 20)
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        acc = solver.accelerations(p)
        net = (p.mass[:, None] * acc).sum(axis=0)
        scale = np.abs(p.mass[:, None] * acc).sum()
        assert np.all(np.abs(net) < 1e-10 * scale)

    def test_polynomial_matches_exact_path(self, rng):
        p = ParticleData.allocate(30, box=20.0)
        p.set_positions(rng.uniform(5, 15, (30, 3)))
        p.arrays["mass"][:] = 1e10
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        a_poly = solver.accelerations(p, use_polynomial=True)
        a_exact = solver.accelerations(p, use_polynomial=False)
        denom = np.abs(a_exact).max()
        assert np.allclose(a_poly, a_exact, atol=2e-2 * denom)

    def test_interaction_count(self):
        p = two_body(sep=0.5)
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        assert solver.interaction_count(p) == 2

    def test_interaction_count_reuses_accelerations_pair_list(self, rng, monkeypatch):
        # the cost model and the force evaluation must build the pair
        # list exactly once per particle state
        import repro.hacc.short_range as sr

        p = ParticleData.allocate(25, box=20.0)
        p.set_positions(rng.uniform(5, 15, (25, 3)))
        p.arrays["mass"][:] = 1e10
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        calls = []
        real = sr.find_pairs
        monkeypatch.setattr(
            sr, "find_pairs", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        solver.accelerations(p)
        count = solver.interaction_count(p)
        assert len(calls) == 1
        assert count == len(real(p.positions, p.box, 3.0)[0])
        # a moved particle invalidates the memo
        moved = p.positions
        moved[0] = (moved[0] + 1.0) % p.box
        p.set_positions(moved)
        solver.interaction_count(p)
        assert len(calls) == 2

    def test_accelerations_accept_shared_cell_list(self, rng):
        from repro.hacc.neighbors import CellList

        p = ParticleData.allocate(30, box=20.0)
        p.set_positions(rng.uniform(2, 18, (30, 3)))
        p.arrays["mass"][:] = rng.uniform(1e9, 1e10, 30)
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        plain = solver.accelerations(p)
        solver._pair_cache = None
        cl = CellList.build(p.positions, p.box, 3.0)
        shared = solver.accelerations(p, cell_list=cl)
        assert np.allclose(plain, shared)


class TestUnorderedPairGravity:
    """Each unordered pair is evaluated once and applied to both ends."""

    @pytest.mark.parametrize("use_polynomial", [True, False])
    def test_matches_directed_pair_reference(self, rng, use_polynomial):
        p = random_box(rng)
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        acc = solver.accelerations(p, use_polynomial=use_polynomial)
        ref = directed_reference(solver, p, use_polynomial=use_polynomial)
        assert solver.interaction_count(p) > 1000
        assert np.abs(acc - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_total_momentum_change_is_zero(self, rng):
        p = random_box(rng)
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        force = p.mass[:, None] * solver.accelerations(p)
        assert np.all(np.abs(force.sum(axis=0)) <= 1e-14 * np.abs(force).sum())

    def test_chunked_equals_single_chunk(self, rng, monkeypatch):
        import repro.hacc.short_range as sr

        p = random_box(rng)
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        whole = solver.accelerations(p)
        monkeypatch.setattr(sr, "_PAIR_CHUNK", 97)
        assert len(solver.pair_list(p)[0]) > 10 * 97
        chunked = solver.accelerations(p)
        assert np.abs(chunked - whole).max() <= 1e-12 * np.abs(whole).max()

    def test_pair_list_is_unordered(self, rng):
        p = random_box(rng, n=80)
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        i, j = solver.pair_list(p)
        assert np.all(i < j)
        di, dj = find_pairs(p.positions, p.box, 3.0)
        assert sorted(zip(i.tolist(), j.tolist())) == sorted(
            (a, b) for a, b in zip(di.tolist(), dj.tolist()) if a < b
        )
        assert solver.interaction_count(p) == len(di)


class TestPMSolver:
    def test_density_contrast_mean_zero(self, small_particles):
        pm = PMSolver(small_particles.box, PMConfig(n_mesh=8))
        delta = pm.density_contrast(small_particles)
        assert delta.mean() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_lattice_no_force(self):
        n = 8
        box = 10.0
        coords = (np.arange(n) + 0.5) * (box / n)
        gx, gy, gz = np.meshgrid(coords, coords, coords, indexing="ij")
        p = ParticleData.allocate(n**3, box=box)
        p.set_positions(np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()]))
        p.arrays["mass"][:] = 1.0
        pm = PMSolver(box, PMConfig(n_mesh=n))
        acc = pm.accelerations(p)
        assert np.abs(acc).max() < 1e-10

    def test_overdensity_attracts(self):
        # a clump at the box centre pulls a test particle toward it
        box = 32.0
        p = ParticleData.allocate(9, box=box)
        pos = np.full((9, 3), 16.0)
        pos[8] = [22.0, 16.0, 16.0]  # test particle to the +x side
        p.set_positions(pos)
        p.arrays["mass"][:8] = 1e12
        p.arrays["mass"][8] = 1.0
        pm = PMSolver(box, PMConfig(n_mesh=16, split_cells=2.0))
        acc = pm.accelerations(p)
        assert acc[8, 0] < 0  # pulled back toward the clump

    def test_cutoff_relates_to_split(self):
        pm = PMSolver(10.0, PMConfig(n_mesh=16, split_cells=1.25))
        assert pm.cutoff == pytest.approx(4.5 * pm.split_scale)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PMConfig(n_mesh=2)
        with pytest.raises(ValueError):
            PMConfig(split_cells=0.0)

    def test_potential_energy_negative_for_clustered(self):
        box = 32.0
        p = ParticleData.allocate(8, box=box)
        p.set_positions(np.full((8, 3), 16.0) + np.random.default_rng(0).normal(0, 0.5, (8, 3)))
        p.arrays["mass"][:] = 1e12
        pm = PMSolver(box, PMConfig(n_mesh=16))
        assert pm.potential_energy(p) < 0
