"""Neighbour finding on a periodic box.

The SPH kernels, the short-range gravity and the halo finders all need
"all pairs closer than a cutoff".  The search is scipy's periodic k-d
tree: one build per position set, then queries at any cutoff up to half
the box.  This plays the role of CRK-HACC's tree-based interaction-list
construction (Section 3.1); the pair counts also feed the GPU kernel
cost model (interactions per work-item).

Exactness: the tree measures distances on its own wrapped coordinates,
an ulp away from the ``(d + half) % box - half`` minimum image.  Each
query asks the tree for a hair more than the cutoff, then keeps a pair
only if ``r**2 < cutoff**2`` on that minimum image, decided once per
unordered pair in the ``i < j`` direction: the pair sets are exactly
those of an O(N^2) minimum-image scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from repro import xp

#: the tree is asked for pairs within ``cutoff + _SLACK * box``; the
#: strict minimum-image test then decides (absorbs the round-off
#: between the tree's wrapped coordinates and the minimum image)
_SLACK = 1e-9
#: candidate pairs tested per block, so the filter's temporaries stay
#: bounded however many pairs a query finds
_FILTER_CHUNK = 1 << 18


@dataclass(frozen=True)
class NeighborList:
    """CSR neighbour structure: ``indices[start[i]:start[i+1]]`` are the
    neighbours of particle ``i`` (self excluded)."""

    start: np.ndarray
    indices: np.ndarray

    @property
    def n_particles(self) -> int:
        return len(self.start) - 1

    @property
    def n_pairs(self) -> int:
        """Directed neighbour count (each undirected pair counted twice)."""
        return len(self.indices)

    def counts(self) -> np.ndarray:
        return np.diff(self.start)

    def neighbors_of(self, i: int) -> np.ndarray:
        return self.indices[self.start[i] : self.start[i + 1]]


def _positions(pos: np.ndarray) -> np.ndarray:
    pos = np.asarray(pos, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("positions must be (n, 3)")
    return pos


def _check_cutoff(cutoff: float, box: float) -> None:
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if cutoff * 2.0 > box:
        raise ValueError(
            f"cutoff {cutoff} too large for box {box} under minimum image"
        )


def _wrap(pos: np.ndarray, box: float) -> np.ndarray:
    """Coordinates in ``[0, box)``, as the periodic tree requires:
    ``np.mod(-1e-17, box)`` is ``box``, whose periodic image is 0."""
    wrapped = np.mod(pos, box)
    wrapped[wrapped >= box] = 0.0
    return wrapped


def _strictly_within(a, b, i, j, box, cutoff, *, drop_coincident=False):
    """Mask of candidate pairs with minimum-image ``|a[i] - b[j]|`` below
    ``cutoff`` (and above zero with ``drop_coincident``)."""
    half = 0.5 * box
    keep = np.empty(len(i), dtype=bool)
    for s in range(0, len(i), _FILTER_CHUNK):
        block = slice(s, s + _FILTER_CHUNK)
        d = np.take(a, i[block], axis=0) - np.take(b, j[block], axis=0)
        d = (d + half) % box - half
        r2 = xp.rowwise_dot(d, d)
        keep[block] = r2 < cutoff * cutoff
        if drop_coincident:
            keep[block] &= r2 > 0.0
    return keep


@dataclass
class CellList:
    """Periodic k-d tree over a private copy ``pos`` of one position set.

    It keeps the name of the uniform cell list it replaced, by which
    :class:`CellListCache`, every ``cell_list=`` argument and the
    benchmark's tracing hooks know the pair index.  ``use_cells`` stays
    for them and is always True: there is no brute-force fallback.
    """

    box: float
    pos: np.ndarray
    tree: cKDTree
    use_cells = True

    @classmethod
    def build(cls, pos: np.ndarray, box: float, cutoff: float) -> "CellList":
        """Index ``pos`` for queries at ``cutoff`` (checked against the
        minimum-image bound; the tree answers any admissible cutoff)."""
        pos = _positions(pos)
        _check_cutoff(cutoff, box)
        tree = cKDTree(_wrap(pos, box), boxsize=box)
        return cls(box=float(box), pos=pos.copy(), tree=tree)

    def matches(self, pos: np.ndarray) -> bool:
        """Whether this index was built over exactly ``pos``."""
        return pos.shape == self.pos.shape and np.array_equal(pos, self.pos)

    def pairs(self, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
        """Unordered pairs (i, j), i < j, closer than ``cutoff``."""
        found = self.tree.query_pairs(
            cutoff + _SLACK * self.box, output_type="ndarray"
        )
        i, j = found[:, 0], found[:, 1]
        keep = _strictly_within(self.pos, self.pos, i, j, self.box, cutoff)
        return i[keep], j[keep]

    def cross_pairs(
        self, pos_query: np.ndarray, cutoff: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Directed cross pairs from ``pos_query`` (i) to the indexed set
        (j) within ``cutoff``, excluding exact coincidences (r = 0, e.g.
        a particle and its own ghost copy), which would divide by zero
        in every gather-style kernel downstream."""
        query = cKDTree(_wrap(pos_query, self.box), boxsize=self.box)
        found = query.sparse_distance_matrix(
            self.tree, cutoff + _SLACK * self.box, output_type="ndarray"
        )
        i, j = found["i"], found["j"]
        keep = _strictly_within(
            pos_query, self.pos, i, j, self.box, cutoff, drop_coincident=True
        )
        return i[keep], j[keep]


class CellListCache:
    """One-entry :class:`CellList` cache keyed on the position state.

    ``get(pos, cutoff)`` returns the cached index if it was built over
    exactly ``pos`` (one tree answers every cutoff), else builds and
    keeps a fresh one: in a KDK step, the closing force evaluation's
    index serves the next step's opening one.  ``builds`` / ``hits``
    are mirrored to the ``sim.pairs.cell_list.*`` counters of
    ``metrics`` when set.
    """

    def __init__(self, box: float, *, metrics=None):
        self.box = box
        self.metrics = metrics
        self.builds = 0
        self.hits = 0
        self._entry: CellList | None = None

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"sim.pairs.cell_list.{name}").inc()

    def get(self, pos: np.ndarray, cutoff: float) -> CellList:
        pos = np.asarray(pos, dtype=np.float64)
        if self._entry is not None and self._entry.matches(pos):
            self.hits += 1
            self._count("hits")
            return self._entry
        self._entry = CellList.build(pos, self.box, cutoff)
        self.builds += 1
        self._count("builds")
        return self._entry

    def invalidate(self) -> None:
        self._entry = None


def find_pairs(
    pos: np.ndarray,
    box: float,
    cutoff: float,
    *,
    pos_other: np.ndarray | None = None,
    cell_list: CellList | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All directed pairs (i, j), i != j, with |x_i - x_j| < cutoff,
    under the periodic minimum-image convention.  The first half of the
    arrays holds each unordered pair once with i < j, the second half
    its mirror.

    With ``pos_other`` given, finds cross pairs from ``pos`` (i) to
    ``pos_other`` (j) instead, for gather-style kernels whose j-side
    includes ghost particles; exact coincidences (r = 0) are excluded.

    ``cell_list``, when given, must be a :class:`CellList` built over
    the j-side set (``pos`` itself in symmetric mode); it is reused
    instead of building a tree (see :class:`CellListCache`).
    """
    pos = _positions(pos)
    _check_cutoff(cutoff, box)
    other = pos if pos_other is None else _positions(pos_other)
    if cell_list is None:
        cell_list = CellList.build(other, box, cutoff)
    elif cell_list.box != box:
        raise ValueError(
            f"cell list box {cell_list.box} does not match query box {box}"
        )
    elif not cell_list.matches(other):
        raise ValueError(
            "cell list was built over other positions than the query's "
            f"{other.shape[0]} j-side particles"
        )
    if pos_other is not None:
        return cell_list.cross_pairs(pos, cutoff)
    i, j = cell_list.pairs(cutoff)
    return xp.concatenate([i, j]), xp.concatenate([j, i])


def build_neighbor_list(
    pos: np.ndarray,
    box: float,
    cutoff: float,
    *,
    pos_other: np.ndarray | None = None,
    cell_list: CellList | None = None,
) -> NeighborList:
    """CSR neighbour list from :func:`find_pairs`."""
    i, j = find_pairs(pos, box, cutoff, pos_other=pos_other, cell_list=cell_list)
    order = xp.argsort(i)
    i = i[order]
    j = j[order]
    n = len(pos)
    counts = xp.bincount(i, minlength=n)
    start = xp.zeros(n + 1, dtype=np.int64)
    start[1:] = xp.cumsum(counts)
    return NeighborList(start=start, indices=j)


def pair_statistics(nlist: NeighborList) -> dict:
    """Interaction statistics used to size the GPU cost model."""
    counts = nlist.counts()
    return {
        "n_particles": nlist.n_particles,
        "n_pairs": int(nlist.n_pairs),
        "mean_neighbors": float(counts.mean()) if len(counts) else 0.0,
        "max_neighbors": int(counts.max()) if len(counts) else 0,
        "min_neighbors": int(counts.min()) if len(counts) else 0,
    }
