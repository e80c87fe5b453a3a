"""One benchmark process: a step run, or a service instance.

``run.py`` starts this file in a fresh interpreter for every step
run and every service batch, so peak RSS is per run and a run the
kernel kills (OOM, exit 137) fails alone.  The last stdout line is a
JSON report; exit code 3 means the program could not be imported
(the harness then aborts instead of counting failures)::

    python perfbench/worker.py step <workload> <seed> <plain|telemetry|traced>
    python perfbench/worker.py service <traced> <socket> <tmpdir>

A ``telemetry`` step run attaches only the program's own
``TraceRecorder``/``MetricsRegistry`` (as ``simulate --trace-out``
does); a ``traced`` run also wraps the layer functions (``spans.py``)
and runs ``tracemalloc``.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

from spans import SpanRecorder, clock_offset, graft_kernel_spans, instrument
from workloads import DEFAULT_SEED, lookup

try:
    import numpy as np

    from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
    from repro.hacc.validation import validate_run
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.tracing import TraceRecorder
except ImportError as exc:
    print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
    sys.exit(3)

HERE = Path(__file__).resolve().parent
#: driver set-ups per step run; the median is ``setup_s``
SETUP_REPEATS = 15
#: relative tolerance of the reference diagnostics (loose enough that
#: reordering a float sum passes, tight enough that physics changes fail)
REFERENCE_RTOL = 1e-6


def _start_tracing() -> tuple[SpanRecorder, object]:
    recorder = SpanRecorder(track_alloc=True)
    tracemalloc.start()
    return recorder, instrument(recorder)


def observed_values(driver: AdiabaticDriver) -> dict:
    """The run's checkable outputs: per-step diagnostics and the
    workload trace's interaction total."""
    diags = driver.diagnostics
    return {
        "a": [d.a for d in diags],
        "kinetic_energy": [d.kinetic_energy for d in diags],
        "thermal_energy": [d.thermal_energy for d in diags],
        "max_density_contrast": [d.max_density_contrast for d in diags],
        "total_momentum": [np.asarray(d.total_momentum).tolist() for d in diags],
        "total_mass": float(driver.particles.mass.sum()),
        "total_interactions": driver.trace.total_interactions(),
    }


def compare_to_reference(observed: dict, reference: dict) -> list[str]:
    """Problems of ``observed`` against committed reference values.

    Scalar diagnostics match to :data:`REFERENCE_RTOL`; total momentum
    (a conserved quantity near zero) matches to the same tolerance of
    its natural scale sqrt(2 KE M), which bounds |P|; the interaction
    count matches exactly.
    """
    problems = []
    for key in ("a", "kinetic_energy", "thermal_energy", "max_density_contrast"):
        got, want = np.asarray(observed[key]), np.asarray(reference[key])
        if got.shape != want.shape or not np.allclose(
            got, want, rtol=REFERENCE_RTOL, atol=0.0
        ):
            problems.append(f"{key} {got.tolist()} != reference {want.tolist()}")
    scale = np.sqrt(2.0 * np.asarray(reference["kinetic_energy"]) * reference["total_mass"])
    got = np.asarray(observed["total_momentum"])
    want = np.asarray(reference["total_momentum"])
    if got.shape != want.shape or np.any(
        np.abs(got - want) > REFERENCE_RTOL * scale[:, None]
    ):
        problems.append("total_momentum differs from the reference")
    if observed["total_interactions"] != reference["total_interactions"]:
        problems.append(
            f"total_interactions {observed['total_interactions']!r} != "
            f"reference {reference['total_interactions']!r}"
        )
    return problems


def run_step(workload_name: str, seed: int, mode: str) -> dict:
    workload = lookup(workload_name)
    recorder = undo = None
    if mode == "traced":
        recorder, undo = _start_tracing()

    # set up several times, with derived seeds so no in-process cache
    # of an earlier set-up can hide the cost; the real seed goes last
    setup_seeds = [(seed + 1_000_003 * k) % 2**32 for k in range(1, SETUP_REPEATS)]
    setup_s = []
    for setup_seed in setup_seeds + [seed]:
        config = SimulationConfig(**workload.config_kwargs(setup_seed))
        t0 = time.perf_counter()
        driver = AdiabaticDriver(config)
        setup_s.append(time.perf_counter() - t0)
    if mode != "plain":
        # the program's own sinks, as ``simulate --trace-out`` attaches
        driver.tracer = TraceRecorder()
        driver.metrics = MetricsRegistry()

    schedule = driver.schedule()
    error = None
    t0 = time.perf_counter()
    try:
        for k in range(workload.steps):
            driver.step(float(schedule[k]), float(schedule[k + 1]))
    except Exception as exc:  # noqa: BLE001 - a failed step is a measured outcome
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if undo is not None:
        undo()
        tracemalloc.stop()

    # correctness, outside the timed region
    problems = []
    reference_problems = []
    if error is None:
        report = validate_run(driver)
        problems += [str(v) for v in report.violations]
    observed = observed_values(driver)
    if error is None and seed == DEFAULT_SEED:
        table = json.loads((HERE / "reference.json").read_text())
        if workload_name not in table:
            reference_problems.append(f"no reference values for {workload_name}")
        else:
            reference_problems += compare_to_reference(observed, table[workload_name])

    report = {
        "setup_s": setup_s,
        "steps_done": driver.step_index,
        "steps": workload.steps,
        "wall_s": wall,
        "error": error,
        "problems": problems,
        "reference_problems": reference_problems,
        "observed": observed,
    }
    if mode == "traced":
        spans = graft_kernel_spans(
            recorder.spans, driver.tracer.spans, clock_offset(driver.tracer)
        )
        report["spans"] = [s.as_row() for s in spans]
        report["counters"] = driver.metrics.snapshot()["counters"]
    return report


# ----------------------------------------------------------------------
# service


async def _serve(traced: bool, socket_path: str, tmpdir: str) -> dict:
    from repro.service.api import ServiceAPI
    from repro.service.workers import ServiceConfig, SimulationService

    recorder = undo = None
    if traced:
        recorder, undo = _start_tracing()
    service = SimulationService(ServiceConfig(checkpoint_dir=f"{tmpdir}/ckpt"))
    api = ServiceAPI(service, socket_path)
    await api.start()
    # the harness times from spawning this process to its first ping
    print(json.dumps({"ready": True}), flush=True)
    await api.serve_until_shutdown()
    if undo is not None:
        undo()
        tracemalloc.stop()

    job_s: dict[int, float] = {}
    step_s = []
    for span in service.tracer.spans:
        if span.category == "job":
            job_id = int(span.name.split()[1])
            job_s[job_id] = job_s.get(job_id, 0.0) + span.duration
        elif span.category == "step":
            step_s.append(span.duration)
    report = {"job_s": job_s, "step_s": step_s}
    if traced:
        spans = graft_kernel_spans(
            recorder.spans, service.tracer.spans, clock_offset(service.tracer)
        )
        report["spans"] = [s.as_row() for s in spans]
        report["counters"] = service.metrics.snapshot()["counters"]
    return report


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "step":
        report = run_step(argv[1], int(argv[2]), argv[3])
    elif mode == "service":
        traced, socket_path, tmpdir = argv[1] == "1", argv[2], argv[3]
        report = asyncio.run(_serve(traced, socket_path, tmpdir))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    report["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
