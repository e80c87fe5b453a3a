"""Tests for neighbour finding."""

import numpy as np
import pytest

from repro.hacc.neighbors import (
    CellList,
    CellListCache,
    build_neighbor_list,
    find_pairs,
    pair_statistics,
)


def oracle_pairs(pos, box, cutoff, pos_other=None):
    """O(N^2) minimum-image reference, as sorted ``i * n_j + j`` keys.

    Symmetric mode decides the cutoff once per unordered pair, on
    ``x_i - x_j`` with i < j, and mirrors it; cross mode keeps every
    (i, j) with 0 < r < cutoff.  Rows go in blocks to bound memory.
    """
    other = pos if pos_other is None else pos_other
    half = 0.5 * box
    keys = []
    for s in range(0, len(pos), 256):
        d = pos[s : s + 256, None, :] - other[None, :, :]
        d = (d + half) % box - half
        r2 = np.einsum("abk,abk->ab", d, d)
        mask = r2 < cutoff**2
        rows = np.arange(s, s + len(mask))[:, None]
        if pos_other is None:
            mask &= np.arange(len(other))[None, :] > rows
        else:
            mask &= r2 > 0.0
        i, j = np.nonzero(mask)
        i = i + s
        keys.append(i * len(other) + j)
        if pos_other is None:
            keys.append(j * len(other) + i)
    return np.sort(np.concatenate(keys)) if keys else np.array([], np.int64)


def pair_keys(i, j, n_other):
    return np.sort(np.asarray(i, np.int64) * n_other + j)


def assert_matches_oracle(pos, box, cutoff, pos_other=None, **kwargs):
    i, j = find_pairs(pos, box, cutoff, pos_other=pos_other, **kwargs)
    n_other = len(pos if pos_other is None else pos_other)
    assert np.array_equal(
        pair_keys(i, j, n_other), oracle_pairs(pos, box, cutoff, pos_other)
    )


class TestFindPairs:
    def test_matches_brute_force(self, rng):
        assert_matches_oracle(rng.uniform(0, 10, (120, 3)), 10.0, 1.7)

    def test_directed_symmetry(self, rng):
        pos = rng.uniform(0, 10, (80, 3))
        i, j = find_pairs(pos, 10.0, 2.0)
        pairs = set(zip(i.tolist(), j.tolist()))
        assert all((b, a) in pairs for a, b in pairs)

    def test_first_half_is_each_unordered_pair_once(self, rng):
        pos = rng.uniform(0, 10, (80, 3))
        i, j = find_pairs(pos, 10.0, 2.0)
        half = len(i) // 2
        assert len(i) == 2 * half
        assert np.all(i[:half] < j[:half])
        assert np.array_equal(i[half:], j[:half])
        assert np.array_equal(j[half:], i[:half])

    def test_periodic_pair_across_boundary(self):
        pos = np.array([[0.1, 5.0, 5.0], [9.9, 5.0, 5.0]])
        i, j = find_pairs(pos, 10.0, 0.5)
        assert len(i) == 2  # both directions

    def test_no_self_pairs(self, rng):
        pos = rng.uniform(0, 10, (50, 3))
        i, j = find_pairs(pos, 10.0, 3.0)
        assert np.all(i != j)

    def test_cross_pairs_against_other_set(self, rng):
        a = rng.uniform(0, 10, (30, 3))
        b = rng.uniform(0, 10, (40, 3))
        i, j = find_pairs(a, 10.0, 2.0, pos_other=b)
        assert i.max(initial=-1) < 30
        assert j.max(initial=-1) < 40
        assert_matches_oracle(a, 10.0, 2.0, pos_other=b)

    def test_excessive_cutoff_rejected(self, rng):
        with pytest.raises(ValueError):
            find_pairs(rng.uniform(0, 10, (5, 3)), 10.0, 6.0)

    def test_bruteforce_path_for_small_boxes(self, rng):
        # cutoffs large next to the box, up to the minimum-image bound:
        # the regime a uniform cell list can only answer by brute force
        pos = rng.uniform(0, 10, (40, 3))
        for cutoff in (4.0, 4.9, 5.0):
            assert_matches_oracle(pos, 10.0, cutoff)

    def test_empty_result(self):
        pos = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        i, j = find_pairs(pos, 10.0, 0.5)
        assert len(i) == 0

    def test_empty_and_single_particle_sets(self):
        none, one = np.zeros((0, 3)), np.ones((1, 3))
        for pos, other in ((none, None), (one, None), (none, one), (one, none)):
            i, j = find_pairs(pos, 10.0, 1.0, pos_other=other)
            assert len(i) == len(j) == 0

    def test_cross_mode_drops_exact_coincidences_cell_path(self, rng):
        # an i-particle exactly on top of a ghost/j-particle has r = 0,
        # which divides by zero in every gather-style kernel downstream
        # (a cutoff small next to the box)
        a = rng.uniform(0, 10, (30, 3))
        b = np.concatenate([a[:5], rng.uniform(0, 10, (20, 3))])
        i, j = find_pairs(a, 10.0, 1.5, pos_other=b)
        assert len(i) > 0
        d = a[i] - b[j]
        d = (d + 5.0) % 10.0 - 5.0
        assert np.all(np.einsum("ij,ij->i", d, d) > 0.0)
        # the coincident copies must not appear as (k, k) pairs
        for k in range(5):
            assert not np.any((i == k) & (j == k))

    def test_cross_mode_drops_exact_coincidences_bruteforce_path(self, rng):
        # the same with a cutoff large next to the box
        a = rng.uniform(0, 10, (10, 3))
        b = a.copy()  # every particle coincides with its ghost copy
        i, j = find_pairs(a, 10.0, 4.0, pos_other=b)
        assert np.all(i != j)
        assert_matches_oracle(a, 10.0, 4.0, pos_other=b)

    def test_symmetric_mode_keeps_coincident_distinct_particles(self):
        # symmetric mode: coincident *distinct* particles are within
        # any cutoff (matching the brute-force oracle)
        pos = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [5.0, 5.0, 5.0]])
        i, j = find_pairs(pos, 10.0, 1.0)
        assert set(zip(i.tolist(), j.tolist())) == {(0, 1), (1, 0)}


class TestWrapEdge:
    """Coordinates on the periodic edge.  ``np.mod(-1e-17, box)`` is
    exactly ``box``, which the periodic tree rejects as outside it."""

    EDGE = np.array(
        [
            [-1e-17, 5.0, 5.0],
            [10.0, 5.0, 5.0],
            [0.0, 5.0, 5.0],
            [9.5, 5.0, 5.0],
            [0.5, -1e-17, 10.0],
            [5.0, 5.0, 5.0],
        ]
    )

    def test_symmetric_search_on_edge_coordinates(self):
        assert np.mod(-1e-17, 10.0) == 10.0
        for cutoff in (0.6, 1.0, 4.9):
            assert_matches_oracle(self.EDGE, 10.0, cutoff)

    def test_cross_search_on_edge_coordinates(self, rng):
        other = np.concatenate([self.EDGE[::-1], rng.uniform(0, 10, (20, 3))])
        assert_matches_oracle(self.EDGE, 10.0, 1.0, pos_other=other)
        assert_matches_oracle(other, 10.0, 1.0, pos_other=self.EDGE)

    def test_index_keeps_caller_coordinates(self):
        cl = CellList.build(self.EDGE, 10.0, 1.0)
        assert np.array_equal(cl.pos, self.EDGE)
        assert_matches_oracle(self.EDGE, 10.0, 1.0, cell_list=cl)


class TestFindPairsPropertyStyle:
    """Tree search vs the O(N^2) oracle on adversarial configurations."""

    def test_randomized_periodic_configurations(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 200))
            cutoff = float(rng.uniform(0.4, 3.0))
            assert_matches_oracle(rng.uniform(0, 10, (n, 3)), 10.0, cutoff)

    def test_randomized_cross_configurations_with_coincidences(self):
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            a = rng.uniform(0, 10, (int(rng.integers(10, 120)), 3))
            b = np.concatenate([a[: len(a) // 3], rng.uniform(0, 10, (60, 3))])
            cutoff = float(rng.uniform(0.4, 4.9))
            assert_matches_oracle(a, 10.0, cutoff, pos_other=b)

    def test_particles_exactly_on_cell_boundaries(self):
        # a lattice on multiples of 2.0 (and on the box edge 10.0) at
        # cutoff 2.0: every lattice neighbour sits exactly on the cutoff
        coords = np.array([0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 1.0, 3.0])
        for axes in (coords[:4], coords[2:6]):
            gx, gy, gz = np.meshgrid(axes, axes, axes, indexing="ij")
            pos = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
            for cutoff in (2.0, 2.0 * np.sqrt(2.0), 4.0):
                assert_matches_oracle(pos, 10.0, cutoff)

    def test_n_cells_exactly_three(self, rng):
        # box / cutoff in [3, 4)
        assert_matches_oracle(rng.uniform(0, 10, (150, 3)), 10.0, 10.0 / 3.2)

    def test_asymmetric_wrap_canonical_direction(self):
        # a pair straddling the periodic seam at a separation within a
        # few ulp of the cutoff: the wrap is not bitwise symmetric
        # under i<->j, so the cutoff decision must be made once per
        # unordered pair or the directed list loses its mirror
        eps = 1e-13
        pos = np.array(
            [
                [9.999999, 5.0, 5.0],
                [1.0 - eps, 5.0, 5.0],
                [5.0, 5.0, 5.0],
            ]
        )
        for cutoff in (1.000001 - eps, 1.0000005, 2.5):
            i, j = find_pairs(pos, 10.0, cutoff)
            pairs = set(zip(i.tolist(), j.tolist()))
            assert all((b, a) in pairs for a, b in pairs), cutoff
            assert_matches_oracle(pos, 10.0, cutoff)


class TestDriverPairs:
    """The driver's gravity and SPH pair sets equal the oracle."""

    @pytest.mark.parametrize("n_per_side", [8, 12])
    def test_gravity_and_sph_pairs_match_oracle(self, n_per_side):
        from repro.hacc.sph.pairs import sph_cutoff
        from repro.hacc.timestep import AdiabaticDriver, SimulationConfig

        driver = AdiabaticDriver(SimulationConfig(n_per_side=n_per_side))
        p = driver.particles
        pos, box = p.positions, p.box
        i, j = driver.short_range.pair_list(p)
        assert np.array_equal(
            pair_keys(np.r_[i, j], np.r_[j, i], len(pos)),
            oracle_pairs(pos, box, driver.short_range.cutoff),
        )
        _mask, idx, ctx = driver._gas_view()
        _requested, cutoff = sph_cutoff(p.hsml[idx], box)
        assert ctx.n_pairs > 0
        assert np.array_equal(
            pair_keys(ctx.i, ctx.j, len(idx)), oracle_pairs(pos[idx], box, cutoff)
        )


class TestCellList:
    def test_reuse_matches_fresh_search(self, rng):
        pos = rng.uniform(0, 10, (200, 3))
        cl = CellList.build(pos, 10.0, 1.5)
        assert cl.use_cells
        i1, j1 = find_pairs(pos, 10.0, 1.5, cell_list=cl)
        i2, j2 = find_pairs(pos, 10.0, 1.5)
        assert np.array_equal(pair_keys(i1, j1, 200), pair_keys(i2, j2, 200))

    def test_supports_smaller_cutoff(self, rng):
        pos = rng.uniform(0, 10, (200, 3))
        cl = CellList.build(pos, 10.0, 2.0)
        assert_matches_oracle(pos, 10.0, 1.0, cell_list=cl)

    def test_larger_cutoff_served_by_wider_stencil(self, rng):
        # an index built for a small cutoff answers larger ones: one
        # tree serves every admissible cutoff
        pos = rng.uniform(0, 10, (150, 3))
        cl = CellList.build(pos, 10.0, 1.0)
        for cutoff in (2.5, 4.9):
            assert_matches_oracle(pos, 10.0, cutoff, cell_list=cl)

    def test_rejects_cutoff_wider_than_periodic_stencil(self, rng):
        # the only bound is the minimum image (cutoff <= box / 2)
        pos = rng.uniform(0, 10, (50, 3))
        assert_matches_oracle(pos, 10.0, 4.9, cell_list=CellList.build(pos, 10.0, 1.0))
        with pytest.raises(ValueError, match="minimum image"):
            CellList.build(pos, 10.0, 5.1)
        cl = CellList.build(pos, 10.0, 1.0)
        with pytest.raises(ValueError, match="minimum image"):
            find_pairs(pos, 10.0, 5.1, cell_list=cl)

    def test_displacement_tracking(self, rng):
        pos = rng.uniform(0, 10, (100, 3))
        cl = CellList.build(pos, 10.0, 1.5)
        assert cl.matches(pos.copy())
        moved = pos.copy()
        moved[0, 0] = np.nextafter(moved[0, 0], 20.0)
        assert not cl.matches(moved)
        # the index holds its own copy: editing the caller's array in
        # place does not move it
        pos[0] += 1.0
        assert not cl.matches(pos)

    def test_stale_index_rejected(self, rng):
        # an index of positions the particles have since left would
        # miss or invent pairs; it is an error, not a silent result
        pos = rng.uniform(0, 10, (300, 3))
        cl = CellList.build(pos, 10.0, 1.5)
        moved = (pos + 0.01) % 10.0
        with pytest.raises(ValueError, match="other positions"):
            find_pairs(moved, 10.0, 1.5, cell_list=cl)
        with pytest.raises(ValueError, match="other positions"):
            find_pairs(pos[:10], 10.0, 1.5, pos_other=moved, cell_list=cl)

    def test_shape_mismatch_rejected(self, rng):
        cl = CellList.build(rng.uniform(0, 10, (50, 3)), 10.0, 1.5)
        with pytest.raises(ValueError):
            find_pairs(rng.uniform(0, 10, (51, 3)), 10.0, 1.5, cell_list=cl)
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            CellList.build(rng.uniform(0, 10, (50, 2)), 10.0, 1.5)

    def test_box_mismatch_rejected(self, rng):
        pos = rng.uniform(0, 10, (50, 3))
        cl = CellList.build(pos, 10.0, 1.5)
        with pytest.raises(ValueError, match="box"):
            find_pairs(pos, 12.0, 1.5, cell_list=cl)


class TestCellListCache:
    def test_hit_then_rebuild_on_large_drift(self, rng):
        cache = CellListCache(10.0)
        pos = rng.uniform(0, 10, (200, 3))
        cl1 = cache.get(pos, 1.5)
        cl2 = cache.get(pos.copy(), 1.5)
        assert cl1 is cl2
        assert cache.builds == 1 and cache.hits == 1
        far = (pos + 2.0) % 10.0
        cl3 = cache.get(far, 1.5)
        assert cl3 is not cl1
        assert cache.builds == 2

    def test_any_move_rebuilds(self, rng):
        # keyed on the exact position state: there is no drift allowance
        cache = CellListCache(10.0)
        pos = rng.uniform(0, 10, (200, 3))
        cache.get(pos, 1.5)
        nudged = pos.copy()
        nudged[7, 2] += 1e-12
        cl = cache.get(nudged, 1.5)
        assert cache.builds == 2 and cache.hits == 0
        assert_matches_oracle(nudged, 10.0, 1.5, cell_list=cl)

    def test_in_place_edit_of_callers_array_is_not_a_hit(self, rng):
        cache = CellListCache(10.0)
        pos = rng.uniform(0, 10, (100, 3))
        first = cache.get(pos, 1.5)
        pos[3] = (pos[3] + 0.5) % 10.0
        assert cache.get(pos, 1.5) is not first
        assert cache.builds == 2

    def test_alternating_cutoffs_share_one_decomposition(self, rng):
        # one tree serves every query scale at the same positions
        cache = CellListCache(10.0)
        pos = rng.uniform(0, 10, (200, 3))
        cache.get(pos, 1.0)
        cache.get(pos, 2.0)
        assert cache.builds == 1
        a = cache.get(pos, 1.0)
        b = cache.get(pos, 4.5)
        assert a is b
        assert cache.builds == 1 and cache.hits == 3

    def test_invalidate_drops_the_entry(self, rng):
        cache = CellListCache(10.0)
        pos = rng.uniform(0, 10, (50, 3))
        cache.get(pos, 1.5)
        cache.invalidate()
        cache.get(pos, 1.5)
        assert cache.builds == 2 and cache.hits == 0

    def test_metrics_mirroring(self, rng):
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        cache = CellListCache(10.0, metrics=registry)
        pos = rng.uniform(0, 10, (100, 3))
        cache.get(pos, 1.5)
        cache.get(pos, 1.5)
        assert registry.counter("sim.pairs.cell_list.builds").value == 1
        assert registry.counter("sim.pairs.cell_list.hits").value == 1


class TestNeighborList:
    def test_csr_structure_consistent(self, rng):
        pos = rng.uniform(0, 10, (100, 3))
        nlist = build_neighbor_list(pos, 10.0, 1.5)
        assert nlist.start[0] == 0
        assert nlist.start[-1] == len(nlist.indices)
        assert np.all(np.diff(nlist.start) >= 0)

    def test_neighbors_of_matches_pairs(self, rng):
        pos = rng.uniform(0, 10, (60, 3))
        nlist = build_neighbor_list(pos, 10.0, 2.0)
        keys = oracle_pairs(pos, 10.0, 2.0)
        for p in range(60):
            expected = keys[keys // 60 == p] % 60
            assert np.array_equal(np.sort(nlist.neighbors_of(p)), expected)

    def test_statistics(self, rng):
        pos = rng.uniform(0, 10, (100, 3))
        nlist = build_neighbor_list(pos, 10.0, 2.0)
        stats = pair_statistics(nlist)
        assert stats["n_particles"] == 100
        assert stats["n_pairs"] == nlist.n_pairs
        assert stats["min_neighbors"] <= stats["mean_neighbors"] <= stats["max_neighbors"]
