"""Short-range particle-particle gravity.

The complement of the PM force inside the cutoff.  With a Gaussian
long-range filter ``exp(-k^2 r_s^2)``, the short-range pair force
kernel is

    f(r) = 1/r^3 * [ erfc(r / 2 r_s) + (r / (sqrt(pi) r_s)) exp(-r^2 / 4 r_s^2) ]

HACC does not evaluate erfc in the inner loop: it uses a fitted
polynomial of the scaled separation (the ``HACC_CUDA_POLY_ORDER=5``
build flag in the paper's Appendix A).  We reproduce both: the exact
kernel, and a degree-5 polynomial fit in r^2 used by the GPU-style
path, with tests pinning the fit error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from repro import xp
from repro.hacc.neighbors import CellList, find_pairs
from repro.hacc.particles import ParticleData
from repro.hacc.units import G_NEWTON

#: polynomial order of the fitted force kernel (Appendix A)
POLY_ORDER = 5
#: unordered pairs evaluated per block of :meth:`ShortRangeSolver.accelerations`
_PAIR_CHUNK = 1 << 16


def exact_short_range_factor(r: np.ndarray, r_s: float) -> np.ndarray:
    """The dimensionless short-range factor S(r) with F = G m1 m2 S(r) r_hat / r^2.

    S(r) -> 1 as r -> 0 (full Newtonian force) and -> 0 beyond a few
    r_s (the mesh carries it).
    """
    r = np.asarray(r, dtype=np.float64)
    x = r / (2.0 * r_s)
    return special.erfc(x) + (r / (np.sqrt(np.pi) * r_s)) * np.exp(-(x**2))


@dataclass(frozen=True)
class PolynomialForceKernel:
    """Degree-5 polynomial fit of S(r)/r^3 * r^3 = S(r) in u = (r/cutoff)^2.

    Fitting in r^2 avoids a square root in the inner loop, exactly the
    trick the production CUDA kernel uses.
    """

    coefficients: np.ndarray
    cutoff: float
    r_s: float

    @classmethod
    def fit(cls, r_s: float, cutoff: float, order: int = POLY_ORDER) -> "PolynomialForceKernel":
        if r_s <= 0 or cutoff <= 0:
            raise ValueError("scales must be positive")
        # Sample away from r=0 (softened region handled separately).
        r = np.linspace(1e-3 * cutoff, cutoff, 512)
        u = (r / cutoff) ** 2
        target = exact_short_range_factor(r, r_s)
        coeffs = np.polynomial.polynomial.polyfit(u, target, order)
        return cls(coefficients=coeffs, cutoff=cutoff, r_s=r_s)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Evaluate the fitted S(r); zero beyond the cutoff."""
        r = np.asarray(r, dtype=np.float64)
        u = (r / self.cutoff) ** 2
        s = np.polynomial.polynomial.polyval(u, self.coefficients)
        return np.where(r < self.cutoff, s, 0.0)

    def max_fit_error(self) -> float:
        """Max absolute error of the fit strictly inside the cutoff.

        The truncation error *at* the cutoff (where the kernel is
        clamped to zero) is a property of the force split, not of the
        polynomial fit, and is excluded here.
        """
        r = np.linspace(1e-3 * self.cutoff, 0.999 * self.cutoff, 2048)
        return float(np.max(np.abs(self(r) - exact_short_range_factor(r, self.r_s))))


class ShortRangeSolver:
    """Direct particle-particle short-range gravity inside the cutoff.

    Each unordered pair is evaluated once and applied to both ends
    (Newton's third law), in blocks of :data:`_PAIR_CHUNK` pairs so the
    evaluation's temporaries do not grow with the pair count.
    """

    def __init__(self, box: float, r_s: float, cutoff: float, softening: float | None = None):
        self.box = box
        self.r_s = r_s
        self.cutoff = cutoff
        #: Plummer softening; defaults to a small fraction of r_s
        self.softening = softening if softening is not None else 0.02 * r_s
        self.kernel = PolynomialForceKernel.fit(r_s, cutoff)
        #: memoised (positions, i, j) of the last pair search, so the
        #: cost model (:meth:`interaction_count`) and the force
        #: evaluation (:meth:`accelerations`) build the list exactly
        #: once per particle state
        self._pair_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def pair_list(
        self, particles: ParticleData, *, cell_list: CellList | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Unordered pairs (i, j), i < j, inside the cutoff, memoised
        per state.

        Repeated calls at identical positions (the accelerations /
        interaction-count pattern of one force evaluation) reuse the
        stored list; ``cell_list`` additionally reuses a shared spatial
        index (see :class:`~repro.hacc.neighbors.CellListCache`).
        """
        pos = particles.positions
        cached = self._pair_cache
        if (
            cached is not None
            and cached[0].shape == pos.shape
            and np.array_equal(cached[0], pos)
        ):
            return cached[1], cached[2]
        i, j = find_pairs(pos, self.box, self.cutoff, cell_list=cell_list)
        # the first half of the directed list is each pair once, i < j
        half = len(i) // 2
        i, j = i[:half], j[:half]
        self._pair_cache = (pos, i, j)
        return i, j

    def accelerations(
        self,
        particles: ParticleData,
        *,
        use_polynomial: bool = True,
        cell_list: CellList | None = None,
    ) -> np.ndarray:
        """(n, 3) short-range comoving accelerations."""
        pos = particles.positions
        mass = particles.mass
        n = len(particles)
        i, j = self.pair_list(particles, cell_list=cell_list)
        acc = np.zeros((n, 3), dtype=np.asarray(pos).dtype)
        for start in range(0, len(i), _PAIR_CHUNK):
            ci = i[start : start + _PAIR_CHUNK]
            cj = j[start : start + _PAIR_CHUNK]
            d = np.take(pos, ci, axis=0) - np.take(pos, cj, axis=0)
            d = particles.minimum_image(d)
            r2 = xp.rowwise_dot(d, d) + self.softening**2
            r = xp.sqrt(r2)
            factor = self.kernel(r) if use_polynomial else exact_short_range_factor(r, self.r_s)
            # per unit source mass; i is pulled toward j and j toward i
            g = -G_NEWTON * factor / (r2 * r)
            g_i = g * np.take(mass, cj)
            g_j = g * np.take(mass, ci)
            # per-axis bincount scatter: one contiguous C pass per axis,
            # replacing the much slower np.add.at (same sums to round-off)
            for axis in range(3):
                acc[:, axis] += xp.bincount(ci, weights=g_i * d[:, axis], minlength=n)
                acc[:, axis] -= xp.bincount(cj, weights=g_j * d[:, axis], minlength=n)
        return acc

    def interaction_count(
        self, particles: ParticleData, *, cell_list: CellList | None = None
    ) -> int:
        """Number of directed pair interactions (feeds the cost model):
        twice the unordered pairs evaluated."""
        i, _j = self.pair_list(particles, cell_list=cell_list)
        return 2 * len(i)
