"""Pair-pipeline benchmark: pairs/second and step time, before vs after.

Measures the neighbour pipeline (a periodic k-d tree behind
:class:`CellList`, cached per position state) against the seed
implementation, which is preserved verbatim below as
``_legacy_find_pairs`` (Python-level ragged-range construction inside
the 27-cell stencil) so "before" numbers stay measurable after the
rework.  Results are appended to ``BENCH_pairs.json`` at the repo root
-- a trajectory of runs whose first record is the committed baseline.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_pairs_perf.py -m perf -q

The throughput test fails if pairs/second regresses more than 2x
against the recorded baseline, or if the rework's speedup over the
legacy path falls below 3x.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.hacc.neighbors import CellList, find_pairs
from repro.hacc.timestep import AdiabaticDriver, SimulationConfig

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pairs.json"
#: benchmark configuration (uniform random box, SPH-like density)
N_PARTICLES = 4096
BOX = 10.0
CUTOFF = 0.8
#: trajectory records kept in the JSON file
MAX_RUNS = 20
#: regression gate against the recorded baseline
MAX_REGRESSION = 2.0
#: required speedup of the rework over the seed implementation
MIN_SPEEDUP = 3.0


# ----------------------------------------------------------------------
# The seed pair search, verbatim: per-offset Python loop with a
# ragged-range np.concatenate/np.arange construction per stencil cell.
def _legacy_find_pairs(pos, box, cutoff):
    pos = np.asarray(pos, dtype=np.float64)
    other = pos

    def _cell_index(p, n_cells):
        cell = np.floor((p % box) / (box / n_cells)).astype(np.int64)
        np.clip(cell, 0, n_cells - 1, out=cell)
        return cell

    n_cells = max(1, int(np.floor(box / cutoff)))
    assert n_cells >= 3, "benchmark configuration must exercise the cell path"
    cells_i = _cell_index(pos, n_cells)
    cells_j = _cell_index(other, n_cells)
    flat_j = (
        cells_j[:, 0] * n_cells * n_cells + cells_j[:, 1] * n_cells + cells_j[:, 2]
    )
    order = np.argsort(flat_j, kind="stable")
    sorted_flat = flat_j[order]
    boundaries = np.searchsorted(sorted_flat, np.arange(n_cells**3 + 1))

    half = 0.5 * box
    out_i, out_j = [], []
    offsets = np.array(
        [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]
    )
    for off in offsets:
        ncell = (cells_i + off) % n_cells
        nflat = ncell[:, 0] * n_cells * n_cells + ncell[:, 1] * n_cells + ncell[:, 2]
        starts = boundaries[nflat]
        ends = boundaries[nflat + 1]
        counts = ends - starts
        total = int(counts.sum())
        if total == 0:
            continue
        rep_i = np.repeat(np.arange(len(pos)), counts)
        within = np.concatenate([np.arange(c) for c in counts])
        cand = order[np.repeat(starts, counts) + within]
        d = pos[rep_i] - other[cand]
        d = (d + half) % box - half
        r2 = np.einsum("ij,ij->i", d, d)
        mask = r2 < cutoff * cutoff
        mask &= rep_i < cand
        out_i.append(rep_i[mask])
        out_j.append(cand[mask])
    if not out_i:
        empty = np.array([], dtype=np.int64)
        return empty, empty
    i_all = np.concatenate(out_i)
    j_all = np.concatenate(out_j)
    return np.concatenate([i_all, j_all]), np.concatenate([j_all, i_all])


# ----------------------------------------------------------------------
def _bench_positions():
    rng = np.random.default_rng(2023)
    return rng.uniform(0, BOX, (N_PARTICLES, 3))


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _pair_multiset(i, j):
    return set(zip(i.tolist(), j.tolist()))


def _load_trajectory():
    if BENCH_PATH.exists():
        return json.loads(BENCH_PATH.read_text())
    return {"benchmark": "pair-pipeline", "runs": []}


def _append_run(record):
    data = _load_trajectory()
    data["config"] = {
        "n_particles": N_PARTICLES,
        "box": BOX,
        "cutoff": CUTOFF,
    }
    data["runs"] = (data["runs"] + [record])[-MAX_RUNS:]
    BENCH_PATH.write_text(json.dumps(data, indent=1, sort_keys=True))
    return data


class TestPairListIdentity:
    def test_multiset_identical_to_legacy_on_property_configs(self):
        # the rework must find exactly the seed implementation's pairs
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(50, 400))
            cutoff = float(rng.uniform(0.5, 2.5))
            pos = rng.uniform(0, BOX, (n, 3))
            if int(np.floor(BOX / cutoff)) < 3:
                continue
            i_new, j_new = find_pairs(pos, BOX, cutoff)
            i_old, j_old = _legacy_find_pairs(pos, BOX, cutoff)
            assert _pair_multiset(i_new, j_new) == _pair_multiset(i_old, j_old)

    def test_multiset_identical_on_benchmark_config(self):
        pos = _bench_positions()
        i_new, j_new = find_pairs(pos, BOX, CUTOFF)
        i_old, j_old = _legacy_find_pairs(pos, BOX, CUTOFF)
        assert _pair_multiset(i_new, j_new) == _pair_multiset(i_old, j_old)


class TestPairThroughput:
    def test_pairs_per_second_and_regression_gate(self):
        pos = _bench_positions()
        n_pairs = len(find_pairs(pos, BOX, CUTOFF)[0])
        t_legacy = _best_of(lambda: _legacy_find_pairs(pos, BOX, CUTOFF))
        t_new = _best_of(lambda: find_pairs(pos, BOX, CUTOFF))
        legacy_rate = n_pairs / t_legacy
        new_rate = n_pairs / t_new
        speedup = t_legacy / t_new

        # end-to-end driver step, with and without the step-level cache
        def _step(cached):
            driver = AdiabaticDriver(SimulationConfig(n_per_side=8, pm_mesh=8))
            if not cached:
                box = driver.config.box
                driver.pair_cache.get = lambda pos, cutoff: CellList.build(
                    pos, box, cutoff
                )
            schedule = driver.schedule()
            t0 = time.perf_counter()
            driver.step(float(schedule[0]), float(schedule[1]))
            return time.perf_counter() - t0

        step_cached = min(_step(True) for _ in range(2))
        step_uncached = min(_step(False) for _ in range(2))

        record = {
            "n_pairs": int(n_pairs),
            "legacy_pairs_per_sec": legacy_rate,
            "pairs_per_sec": new_rate,
            "speedup_vs_legacy": speedup,
            "step_seconds_cached": step_cached,
            "step_seconds_uncached": step_uncached,
        }
        data = _append_run(record)

        baseline = data["runs"][0]["pairs_per_sec"]
        assert new_rate * MAX_REGRESSION >= baseline, (
            f"pairs/sec regressed more than {MAX_REGRESSION}x: "
            f"{new_rate:.3g} vs recorded baseline {baseline:.3g}"
        )
        assert speedup >= MIN_SPEEDUP, (
            f"rework speedup {speedup:.2f}x below the {MIN_SPEEDUP}x target "
            f"(legacy {legacy_rate:.3g} pairs/s, new {new_rate:.3g} pairs/s)"
        )
