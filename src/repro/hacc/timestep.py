"""The adiabatic time stepper: CRK-HACC's dynamical loop.

The driver advances the two-species system with a comoving
kick-drift-kick leapfrog over the paper's schedule (five steps from
z = 200 to z = 50, Section 3.4.3) and calls the hot kernels in the
pattern that produces the paper's seven GPU timers:

    upGeo -> upCor -> upBarEx -> upBarAc -> upBarDu
        (kick, drift)
    upBarAcF -> upBarDuF
        (final half kick)

Physics and performance are decoupled: the driver *computes* with the
vectorised NumPy kernels and *records* a :class:`WorkloadTrace` of
kernel invocations (work-items and interactions per work-item).  The
trace is replayed on the virtual GPUs by
:mod:`repro.kernels.adiabatic`, which is how one physics run prices
every device x variant combination of the paper's study.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.hacc import eos
from repro.hacc.cosmology import Cosmology
from repro.hacc.ic import ICConfig, zeldovich_ics
from repro.hacc.neighbors import CellListCache
from repro.hacc.particles import ParticleData, Species
from repro.hacc.pm import PMConfig, PMSolver
from repro.hacc.short_range import ShortRangeSolver
from repro.hacc.sph.acceleration import compute_acceleration
from repro.hacc.sph.corrections import compute_corrections
from repro.hacc.sph.energy import compute_energy_rate
from repro.hacc.sph.extras import compute_extras
from repro.hacc.sph.geometry import compute_geometry
from repro.hacc.sph.pairs import PairContext
from repro.observability.metrics import INTERACTIONS_BUCKETS, MetricsRegistry
from repro.observability.tracing import TraceRecorder, maybe_span

#: paper timer names, in call order within one step
TIMER_NAMES = (
    "upGeo",
    "upCor",
    "upBarEx",
    "upBarAc",
    "upBarDu",
    "upBarAcF",
    "upBarDuF",
)
#: the short-range gravity kernel (part of "all GPU kernels" but not of
#: the five hydro hotspots)
GRAVITY_KERNEL = "upGravSR"


@dataclass(frozen=True)
class KernelInvocation:
    """Workload of one GPU kernel launch."""

    name: str
    n_workitems: int
    interactions_per_item: float


@dataclass
class WorkloadTrace:
    """Record of every offloaded kernel launch in a run."""

    invocations: list[KernelInvocation] = field(default_factory=list)

    def record(self, name: str, n_workitems: int, interactions_per_item: float) -> None:
        if n_workitems <= 0:
            return
        self.invocations.append(
            KernelInvocation(name, int(n_workitems), float(interactions_per_item))
        )

    def by_kernel(self) -> dict[str, list[KernelInvocation]]:
        out: dict[str, list[KernelInvocation]] = {}
        for inv in self.invocations:
            out.setdefault(inv.name, []).append(inv)
        return out

    def total_interactions(self) -> float:
        return sum(i.n_workitems * i.interactions_per_item for i in self.invocations)


@dataclass(frozen=True)
class SimulationConfig:
    """The scaled-down analogue of the paper's test problem.

    The paper runs 2x 512^3 particles over 8 ranks in a 177 Mpc/h box;
    we default to 2x 16^3 in a box scaled to preserve the mass
    resolution (box = 177 * n/512), exactly the paper's scaling rule
    (Section 3.4.2).
    """

    n_per_side: int = 16
    z_initial: float = 200.0
    z_final: float = 50.0
    n_steps: int = 5
    seed: int = 2023
    pm_mesh: int = 16
    leaf_size: int = 16
    #: subcycle the hydro forces inside each gravity step when the CFL
    #: condition demands it (HACC's stepping structure; off by default
    #: to match the paper's five-step adiabatic run)
    subcycling: bool = False
    #: CFL number for the hydro time-step criterion
    cfl_number: float = 0.25
    #: cap on hydro substeps per gravity step
    max_subcycles: int = 8

    @property
    def box(self) -> float:
        return 177.0 * self.n_per_side / 512.0

    def ic_config(self) -> ICConfig:
        return ICConfig(
            n_per_side=self.n_per_side,
            box=self.box,
            z_initial=self.z_initial,
            seed=self.seed,
        )


@dataclass
class StepDiagnostics:
    """Per-step conservation and state diagnostics."""

    a: float
    kinetic_energy: float
    thermal_energy: float
    total_momentum: np.ndarray
    max_density_contrast: float


class AdiabaticDriver:
    """Runs the adiabatic mini-app and records the workload trace.

    Resilience hooks: :attr:`kernel_hook`, when set, is called as
    ``hook(name, step_index, outputs)`` immediately after each hot
    kernel completes and *before* its outputs are consumed downstream.
    ``outputs`` maps output names to the live arrays, so the hook can
    both screen them (in-flight NaN/Inf guards) and mutate them in
    place (deterministic fault injection).  :attr:`step_index` counts
    completed steps and, together with :meth:`restore`, supports
    restarting a run mid-schedule from a
    :class:`~repro.resilience.restart.SimulationCheckpoint`.
    """

    def __init__(
        self,
        config: SimulationConfig | None = None,
        cosmology: Cosmology | None = None,
        particles: ParticleData | None = None,
    ):
        self.config = config or SimulationConfig()
        self.cosmology = cosmology or Cosmology()
        if particles is None:
            particles = zeldovich_ics(self.config.ic_config(), self.cosmology)
        self.particles = particles
        self.pm = PMSolver(self.config.box, PMConfig(n_mesh=self.config.pm_mesh))
        # the minimum-image pair search requires cutoff < box/2; tiny
        # test boxes clamp the short-range cutoff accordingly
        sr_cutoff = min(self.pm.cutoff, 0.45 * self.config.box)
        self.short_range = ShortRangeSolver(
            self.config.box, self.pm.split_scale, sr_cutoff
        )
        #: the short-range gravity's spatial index, reused while the
        #: positions are unchanged (a step's closing force evaluation
        #: and the next step's opening one)
        self.pair_cache = CellListCache(self.config.box)
        self.trace = WorkloadTrace()
        self.diagnostics: list[StepDiagnostics] = []
        #: completed steps of the configured schedule
        self.step_index = 0
        #: the run's stochastic stream (seeded; captured by checkpoints)
        self.rng = np.random.default_rng(self.config.seed)
        #: resilience hook: hook(kernel_name, step_index, {name: array})
        self.kernel_hook: Callable[[str, int, dict[str, np.ndarray]], None] | None = None
        #: observability sinks: when set, the driver opens a span per
        #: step and per hot-kernel call, and counts launches and
        #: interactions (see repro.observability)
        self.tracer: TraceRecorder | None = None
        self.metrics: MetricsRegistry | None = None
        #: health monitor: when set, its ``observe_step(driver, diag,
        #: wall_seconds)`` runs after every completed step (duck-typed;
        #: see repro.observability.health.HealthMonitor)
        self.health: Any | None = None
        #: hydro subcycles taken by the most recent step (the
        #: timestep-collapse health series)
        self.last_subcycles = 1

    def restore(
        self,
        *,
        particles: ParticleData,
        step_index: int,
        trace: WorkloadTrace | None = None,
        diagnostics: list[StepDiagnostics] | None = None,
        rng_state: dict[str, Any] | None = None,
    ) -> None:
        """Reset the driver to a checkpointed mid-run state."""
        if not 0 <= step_index <= self.config.n_steps:
            raise ValueError(
                f"step index {step_index} outside the "
                f"{self.config.n_steps}-step schedule"
            )
        self.particles = particles
        self.pair_cache.invalidate()
        self.step_index = int(step_index)
        if trace is not None:
            self.trace = trace
        if diagnostics is not None:
            self.diagnostics = diagnostics
        if rng_state is not None:
            self.rng.bit_generator.state = rng_state

    def _record_kernel(
        self,
        name: str,
        n_workitems: int,
        per_item: float,
        outputs: dict[str, np.ndarray],
    ) -> None:
        """Record one kernel launch and run the resilience hook on its
        freshly produced outputs (before anything consumes them)."""
        self.trace.record(name, n_workitems, per_item)
        if self.metrics is not None and n_workitems > 0:
            self.metrics.counter("sim.kernel.launches").inc()
            self.metrics.counter("sim.kernel.interactions").inc(
                n_workitems * per_item
            )
            self.metrics.histogram(
                "sim.kernel.interactions_per_item", INTERACTIONS_BUCKETS
            ).observe(per_item)
        if self.kernel_hook is not None:
            self.kernel_hook(name, self.step_index, outputs)

    def _kernel_span(self, name: str):
        """Wall-clock span around one hot-kernel evaluation."""
        return maybe_span(self.tracer, name, category="kernel", step=self.step_index)

    # Velocity variable convention: the particle "velocities" are the
    # canonical momenta p = a^2 dx/dt (GADGET convention), which pairs
    # with the comoving potential without explicit a factors, the kick
    # integral int dt/a, and the drift integral int dt/a^2.
    # ------------------------------------------------------------------
    def _gravity(self) -> np.ndarray:
        """Total gravitational acceleration; records the GPU kernel."""
        with self._kernel_span(GRAVITY_KERNEL):
            acc = self.pm.accelerations(self.particles)  # host-side FFT
            cl = self.pair_cache.get(self.particles.positions, self.short_range.cutoff)
            acc += self.short_range.accelerations(self.particles, cell_list=cl)
            n = len(self.particles)
            # reuses the memoised pair list the accelerations just built
            pair_count = self.short_range.interaction_count(self.particles)
            self._record_kernel(GRAVITY_KERNEL, n, pair_count / max(1, n), {"acc": acc})
        return acc

    def _gas_view(self):
        """Gas arrays + pair context for the hydro kernels (the pair
        search indexes the gas positions only)."""
        p = self.particles
        mask = p.species_mask(Species.BARYON)
        idx = np.nonzero(mask)[0]
        ctx = PairContext.build(
            p.positions[idx], p.hsml[idx], p.box, metrics=self.metrics
        )
        return mask, idx, ctx

    def _hydro_rates(self, label_suffix: str = "") -> tuple[np.ndarray, np.ndarray, float]:
        """One pass of the five-kernel hydro pipeline.

        Returns per-gas-particle (dv_dt, du_dt, max_signal_speed) and
        records the kernel invocations (with the F suffix for the
        post-drift pass, reproducing the paper's doubled timers).
        """
        p = self.particles
        mask, idx, ctx = self._gas_view()
        n_gas = len(idx)
        per_item = ctx.mean_neighbors()

        h = p.hsml[idx]
        mass = p.mass[idx]
        u = p.u[idx]
        vel = p.velocities[idx]

        if not label_suffix:
            with self._kernel_span("upGeo"):
                geo = compute_geometry(ctx, h)
                self._record_kernel(
                    "upGeo", n_gas, per_item, {"volume": geo.volume, "h_new": geo.h_new}
                )
            p.volume[idx] = geo.volume
            p.hsml[idx] = geo.h_new
            h = geo.h_new

            with self._kernel_span("upCor"):
                corr = compute_corrections(ctx, h, geo.volume)
                self._record_kernel("upCor", n_gas, per_item, {"a": corr.a, "b": corr.b})
            self._corr = corr

            with self._kernel_span("upBarEx"):
                extras = compute_extras(
                    ctx, h, geo.volume, mass, vel, p.pressure[idx], corr
                )
                self._record_kernel(
                    "upBarEx",
                    n_gas,
                    per_item,
                    {
                        "rho": extras.rho,
                        "grad_rho": extras.grad_rho,
                        "div_v": extras.div_v,
                        "grad_p": extras.grad_p,
                    },
                )
            p.rho[idx] = extras.rho
            eos.update_thermodynamics(p)
        else:
            # post-drift pass reuses geometry/corrections (CRK-HACC's
            # final kick re-evaluates only the force kernels)
            corr = self._corr

        volume = p.volume[idx]
        rho = p.rho[idx]
        pressure = p.pressure[idx]
        cs = p.cs[idx]
        with self._kernel_span("upBarAc" + label_suffix):
            accel = compute_acceleration(
                ctx, h, volume, mass, rho, pressure, cs, vel, corr
            )
            self._record_kernel(
                "upBarAc" + label_suffix, n_gas, per_item, {"dv_dt": accel.dv_dt}
            )

        with self._kernel_span("upBarDu" + label_suffix):
            energy = compute_energy_rate(ctx, volume, mass, pressure, vel, accel)
            self._record_kernel(
                "upBarDu" + label_suffix, n_gas, per_item, {"du_dt": energy.du_dt}
            )

        dv_full = np.zeros((len(p), 3))
        du_full = np.zeros(len(p))
        dv_full[idx] = accel.dv_dt
        du_full[idx] = energy.du_dt
        self._gas_idx = idx
        return dv_full, du_full, accel.max_signal_speed

    # ------------------------------------------------------------------
    def cfl_subcycles(self, max_signal_speed: float, drift: float) -> int:
        """Hydro substeps required by the CFL condition.

        The sound/viscous signal must not cross more than ``cfl_number``
        of a smoothing length per hydro substep.  Clamped to
        ``max_subcycles`` (HACC caps the subcycle depth too).
        """
        p = self.particles
        gas = p.species_mask(Species.BARYON)
        if not gas.any() or max_signal_speed <= 0:
            return 1
        h_min = float(p.hsml[gas].min())
        if h_min <= 0:
            return 1
        allowed = self.config.cfl_number * h_min / max_signal_speed
        needed = int(np.ceil(drift / max(allowed, 1e-300)))
        return int(np.clip(needed, 1, self.config.max_subcycles))

    def step(self, a0: float, a1: float) -> StepDiagnostics:
        """One KDK step from scale factor a0 to a1.

        With ``config.subcycling`` enabled, the hydro forces are
        re-evaluated on CFL-sized substeps inside the gravity step --
        the mechanism by which tighter time-step criteria "lead to many
        more calls to the adiabatic kernels" (Section 3.1).
        """
        # mirror cache hit/rebuild counts into whatever registry the
        # caller attached after construction
        self.pair_cache.metrics = self.metrics
        wall_start = time.perf_counter()
        self.last_subcycles = 1
        with maybe_span(
            self.tracer,
            f"step {self.step_index}",
            category="step",
            a0=a0,
            a1=a1,
        ):
            if self.config.subcycling:
                diag = self._step_subcycled(a0, a1)
            else:
                diag = self._step_plain(a0, a1)
        if self.metrics is not None:
            self.metrics.counter("sim.steps").inc()
        if self.health is not None:
            # observe *before* the index bump so alert steps match the
            # step that produced the state
            self.health.observe_step(
                self, diag, wall_seconds=time.perf_counter() - wall_start
            )
        self.step_index += 1
        return diag

    def _step_plain(self, a0: float, a1: float) -> StepDiagnostics:
        p = self.particles
        cosmo = self.cosmology
        kick_half = cosmo.kick_factor(a0, a1) * 0.5
        drift = cosmo.drift_factor(a0, a1)

        grav = self._gravity()
        dv_h, du_h, _sig = self._hydro_rates("")

        # first half kick
        vel = p.velocities + (grav + dv_h) * kick_half
        p.set_velocities(vel)
        p.u[:] = np.maximum(p.u + du_h * kick_half, 0.0)

        # drift
        pos = p.positions + p.velocities * drift
        p.set_positions(pos % p.box)

        # force re-evaluation at the new positions (the "F" kernels)
        grav = self._gravity()
        dv_h, du_h, _sig = self._hydro_rates("F")

        # second half kick
        vel = p.velocities + (grav + dv_h) * kick_half
        p.set_velocities(vel)
        p.u[:] = np.maximum(p.u + du_h * kick_half, 0.0)

        # adiabatic expansion cooling: u ~ a^-2 for a monatomic gas
        p.u[:] *= (a0 / a1) ** 2
        eos.update_thermodynamics(p)

        diag = self._diagnose(a1)
        self.diagnostics.append(diag)
        return diag

    def _step_subcycled(self, a0: float, a1: float) -> StepDiagnostics:
        """KDK step with CFL-driven hydro subcycling."""
        p = self.particles
        cosmo = self.cosmology
        kick_half = cosmo.kick_factor(a0, a1) * 0.5
        drift_total = cosmo.drift_factor(a0, a1)

        # gravity half kick (gravity stays on the outer step)
        grav = self._gravity()
        dv_h, du_h, sig = self._hydro_rates("")
        n_sub = self.cfl_subcycles(sig, drift_total)
        self.last_subcycles = n_sub

        vel = p.velocities + grav * kick_half + dv_h * (kick_half / n_sub)
        p.set_velocities(vel)
        p.u[:] = np.maximum(p.u + du_h * (kick_half / n_sub), 0.0)

        # hydro subcycles: drift + force re-evaluation ("F" timers)
        for sub in range(n_sub):
            pos = p.positions + p.velocities * (drift_total / n_sub)
            p.set_positions(pos % p.box)
            dv_h, du_h, _sig = self._hydro_rates("F")
            # inner kicks use the substep share of the kick integral;
            # the final share is applied together with gravity below
            share = kick_half / n_sub if sub < n_sub - 1 else kick_half / n_sub
            vel = p.velocities + dv_h * share
            p.set_velocities(vel)
            p.u[:] = np.maximum(p.u + du_h * share, 0.0)

        # gravity second half kick at the new positions
        grav = self._gravity()
        p.set_velocities(p.velocities + grav * kick_half)

        p.u[:] *= (a0 / a1) ** 2
        eos.update_thermodynamics(p)
        diag = self._diagnose(a1)
        self.diagnostics.append(diag)
        return diag

    def schedule(self) -> np.ndarray:
        """Scale-factor edges of the configured schedule."""
        return self.cosmology.step_schedule(
            self.config.z_initial, self.config.z_final, self.config.n_steps
        )

    def run(
        self,
        on_step: Callable[["AdiabaticDriver", StepDiagnostics], None] | None = None,
    ) -> list[StepDiagnostics]:
        """Run (or, after :meth:`restore`, resume) the configured
        schedule; returns per-step diagnostics.

        ``on_step(driver, diag)`` fires after each completed step —
        the periodic-checkpoint hook point.
        """
        schedule = self.schedule()
        while self.step_index < self.config.n_steps:
            a0 = float(schedule[self.step_index])
            a1 = float(schedule[self.step_index + 1])
            diag = self.step(a0, a1)
            if on_step is not None:
                on_step(self, diag)
        return self.diagnostics

    # ------------------------------------------------------------------
    def _diagnose(self, a: float) -> StepDiagnostics:
        p = self.particles
        gas = p.species_mask(Species.BARYON)
        rho = p.rho[gas]
        rho_bar = rho.mean() if rho.size else 1.0
        return StepDiagnostics(
            a=a,
            kinetic_energy=p.kinetic_energy(),
            thermal_energy=p.thermal_energy(),
            total_momentum=p.total_momentum(),
            max_density_contrast=float(rho.max() / rho_bar - 1.0) if rho.size else 0.0,
        )
