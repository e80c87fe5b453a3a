"""The repository's benchmark: one seeded workload, one JSON result.

    python3 perfbench/run.py --workload step-n12 --seed 1 --seconds 30 --trace 0

Every step run and every service batch runs in its own child process
(``worker.py``), so ``peak_rss_mb`` is per run and a run the kernel
kills counts as failed operations instead of ending the benchmark.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` rotates untraced, telemetry-only and traced runs and
prints the per-layer metrics, derived from in-memory spans around the
program's public functions (see ``spans.py``), which it also writes to
``.perfbench-out/``.  The last stdout line is the JSON result; see
``README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from spans import TIMERS, Span, children_of, outermost, self_times
from workloads import DEFAULT_SEED, ServiceWorkload, StepWorkload, lookup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: every run ends well inside the 180 s a run may take
HARD_LIMIT_S = 165.0
#: runs per step workload, at least (so every median has two samples)
MIN_STEP_RUNS = 2
#: the run modes ``--trace 1`` rotates through on a step workload
TRACE_ROTATION = ("plain", "telemetry", "traced")
#: service starts per untraced batch (the median is ``setup_s``)
SERVICE_SETUPS = 3
#: one job's client-side timeout
JOB_TIMEOUT_S = 120.0
#: ping period of the traced service batch (``service.api.rtt_s``)
PING_PERIOD_S = 0.25


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (no program, broken checkout)."""


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 < q < 1)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# ----------------------------------------------------------------------
# child processes


class Child:
    """A worker process whose stdout lines arrive on a queue."""

    def __init__(self, argv: list[str], tmpdir: Path):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env["TMPDIR"] = str(tmpdir)
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *argv],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def next_json(self, timeout: float) -> dict[str, Any] | None:
        """The next JSON line, or None at EOF / timeout."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                return None
            if line is None:
                return None
            if line.startswith("{"):
                return json.loads(line)

    def finish(self, timeout: float) -> tuple[int, dict[str, Any] | None]:
        """Wait for the exit; (exit code, last JSON line)."""
        last = None
        deadline = time.monotonic() + timeout
        while True:
            report = self.next_json(max(0.0, deadline - time.monotonic()))
            if report is None:
                break
            last = report
        self.stop()
        if self.proc.returncode == 3:
            raise HarnessError("a worker could not import the program (is src/ missing?)")
        return self.proc.returncode, last

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(spans: list[Span], counters: dict[str, float], per: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, per step (step workloads) or
    per executed job (service); per-call medians for IC/analysis/halo."""
    own = self_times(spans)
    per = max(1, per)
    named: dict[str, list[int]] = {}
    for k, s in enumerate(spans):
        named.setdefault(s.name, []).append(k)

    def duration(k: int) -> float:
        return spans[k].end - spans[k].start

    def total(name: str, *, self_time: bool = False) -> float:
        return sum(own[k] if self_time else duration(k) for k in named.get(name, ()))

    def attr(name: str, key: str) -> float:
        return sum(spans[k].attrs.get(key, 0) for k in named.get(name, ()))

    def peak_mb(prefix: str) -> float:
        peaks = [s.peak_bytes or 0 for s in spans if s.name.startswith(prefix)]
        return max(peaks, default=0) / 2**20

    def per_call(name: str) -> float:
        return median([duration(k) for k in named.get(name, ())])

    kids = children_of(spans)
    brute = 0
    for k in named.get("neighbors.search", ()):
        flag = spans[k].attrs.get("brute")
        if flag is None:  # find_pairs binned its own list
            flag = sum(spans[c].attrs.get("brute", 0) for c in kids.get(k, ()))
        brute += flag
    eval_ids = set(named.get("short_range.eval", ()))
    evaluated = sum(
        spans[k].attrs.get("pairs", 0)
        for k in named.get("short_range.pair_list", ())
        if spans[k].parent in eval_ids
    )
    eval_s = total("short_range.eval", self_time=True)
    out = {
        "neighbors.search_s": sum(duration(k) for k in outermost(spans, "neighbors.")) / per,
        "neighbors.calls": len(named.get("neighbors.search", ())) / per,
        "neighbors.bruteforce_calls": brute / per,
        "neighbors.pairs": attr("neighbors.search", "pairs") / per,
        "neighbors.cell_list.builds": counters.get("sim.pairs.cell_list.builds", 0.0) / per,
        "neighbors.cell_list.hits": counters.get("sim.pairs.cell_list.hits", 0.0) / per,
        "neighbors.peak_alloc_mb": peak_mb("neighbors."),
        "short_range.eval_s": eval_s / per,
        "short_range.pairs_per_s": evaluated / eval_s if eval_s > 0 else 0.0,
        "short_range.peak_alloc_mb": peak_mb("short_range.eval"),
        "sph.pairs.build_s": total("sph.pairs.build", self_time=True) / per,
        "sph.pairs.count": attr("sph.pairs.build", "pairs") / per,
        "sph.pairs.peak_alloc_mb": peak_mb("sph.pairs.build"),
    }
    for timer in TIMERS:
        out[f"sph.{timer}_s"] = total(f"sph.{timer}") / per
    out["sph.interactions"] = attr("timestep.step", "interactions") / per
    out.update(
        {
            "pm.deposit_s": total("pm.deposit") / per,
            "pm.fft_s": total("pm.fft") / per,
            "pm.interp_s": total("pm.interp") / per,
            "timestep.integrate_s": total("timestep.step", self_time=True) / per,
            "ic.zeldovich_s": per_call("ic.zeldovich"),
            "analysis.power_spectrum_s": per_call("analysis.power_spectrum"),
            "halo.fof_s": per_call("halo.fof"),
        }
    )
    return out


def write_spans(spans: list[Span], workload: str, seed: int) -> Path:
    out = ROOT / ".perfbench-out" / f"{workload}-seed{seed}-spans.json"
    out.parent.mkdir(exist_ok=True)
    rows = [dict(zip(("name", "start", "end", "parent", "tid", "peak_bytes", "attrs"), s.as_row())) for s in spans]
    out.write_text(json.dumps(rows))
    return out


def merge_spans(runs: list[list[Span]]) -> list[Span]:
    """Concatenate several runs' span lists, re-basing parent indices."""
    merged: list[Span] = []
    for spans in runs:
        base = len(merged)
        for s in spans:
            merged.append(
                Span(s.name, s.start, s.end, None if s.parent is None else s.parent + base, s.tid, s.peak_bytes, s.attrs)
            )
    return merged


# ----------------------------------------------------------------------
# step workloads


def run_steps(workload: StepWorkload, args, tmpdir: Path, started: float) -> dict[str, Any]:
    modes = TRACE_ROTATION if args.trace else ("plain",)
    min_runs = max(MIN_STEP_RUNS, len(modes))
    runs: list[dict[str, Any]] = []
    attempted = failed = 0
    problems: list[str] = []
    durations: list[float] = []
    while True:
        mode = modes[len(runs) % len(modes)]
        t0 = time.monotonic()
        child = Child(["step", workload.name, str(args.seed), mode], tmpdir)
        code, report = child.finish(max(5.0, HARD_LIMIT_S - (t0 - started)))
        durations.append(time.monotonic() - t0)
        attempted += workload.steps
        if code != 0 or report is None:
            failed += workload.steps
            problems.append(f"run {len(runs)} exited with code {code}")
            report = None
        else:
            failed += workload.steps - report["steps_done"]
            problems += report["problems"] + report["reference_problems"]
            if report["error"]:
                problems.append(report["error"])
        runs.append({"mode": mode, "report": report})
        elapsed = time.monotonic() - started
        # start another run if it ends within --seconds give or take half
        # a run, so that overrun and underrun even out
        if len(runs) >= min_runs and elapsed + statistics.fmean(durations) / 2 > args.seconds:
            break
        if elapsed + max(durations) > HARD_LIMIT_S:
            break

    ok = [r for r in runs if r["report"] is not None and r["report"]["error"] is None]
    plain = [r["report"] for r in ok if r["mode"] == "plain"]
    metrics: dict[str, float] = {
        "step_s": median([r["wall_s"] / r["steps"] for r in plain]),
        "setup_s": median([t for r in plain for t in r["setup_s"]]),
        "peak_rss_mb": median([r["maxrss_mb"] for r in plain]),
        "completed_frac": (attempted - failed) / attempted,
    }
    # a job here is one whole run: set-up of its driver plus its steps
    latency = [r["setup_s"][-1] + r["wall_s"] for r in plain]
    metrics["jobs_per_s"] = len(latency) / sum(latency) if latency else 0.0
    metrics["job_latency_p50_s"] = median(latency)
    metrics["job_latency_p90_s"] = percentile(latency, 0.9)
    if args.trace:
        traced_runs = [r["report"] for r in ok if r["mode"] == "traced"]
        spans = merge_spans([[Span.from_row(row) for row in r["spans"]] for r in traced_runs])
        counters: dict[str, float] = {}
        for r in traced_runs:
            for name, value in r["counters"].items():
                counters[name] = counters.get(name, 0.0) + value
        steps = sum(r["steps_done"] for r in traced_runs)
        metrics.update(layer_metrics(spans, counters, steps))
        metrics.update(
            {
                "service.cache.hit_ratio": 0.0,
                "service.coalesced": 0.0,
                "service.wait_p50_s": 0.0,
                "service.api.rtt_s": 0.0,
            }
        )
        # the program's own telemetry only: no wrappers, no tracemalloc
        telemetry_wall = median([r["report"]["wall_s"] for r in ok if r["mode"] == "telemetry"])
        plain_wall = median([r["wall_s"] for r in plain])
        metrics["trace_overhead_frac"] = telemetry_wall / plain_wall - 1.0 if plain_wall else 0.0
        write_spans(spans, workload.name, args.seed)
    correct = bool(ok) and not problems
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics, "problems": problems}


# ----------------------------------------------------------------------
# service workload


def serve_batch(
    workload: ServiceWorkload,
    seed: int,
    traced: bool,
    tmpdir: Path,
    *,
    jobs: int,
    setups: int,
    deadline: float,
) -> dict[str, Any]:
    """Start a service child, drive it with closed-loop clients, stop it."""
    from repro.service.api import request, submit_job
    from repro.service.jobs import ServiceError

    # what a request raises when the service is gone or hangs up
    lost = (OSError, ServiceError)
    socket_path = os.path.relpath(tmpdir / f"svc{int(traced)}.sock", ROOT)

    def start() -> tuple[Child, float | None]:
        """Spawn a service process; seconds until its first ping returns."""
        t0 = time.perf_counter()
        child = Child(["service", "1" if traced else "0", socket_path, str(tmpdir)], tmpdir)
        ready = child.next_json(timeout=max(5.0, deadline - time.monotonic()))
        if ready is None or not ready.get("ready"):
            return child, None
        try:
            request(socket_path, {"op": "ping"}, timeout=30.0)
        except lost:
            return child, None
        return child, time.perf_counter() - t0

    setup_s: list[float] = []
    for k in range(setups + 1):
        child, seconds = start()
        if seconds is not None and k < setups:  # a set-up sample only: stop it again
            try:
                request(socket_path, {"op": "shutdown"}, timeout=30.0)
            except lost:
                seconds = None
        if seconds is None:
            code, _ = child.finish(timeout=5.0)
            return {"failed_start": True, "code": code}
        setup_s.append(seconds)
        if k < setups:
            child.finish(timeout=30.0)
    try:
        stream = workload.job_stream(seed)
        lock = threading.Lock()
        records: list[dict[str, Any]] = []
        t_start = time.monotonic()

        def take() -> dict[str, Any] | None:
            with lock:
                if len(records) >= jobs or time.monotonic() >= deadline:
                    return None
                record = {"spec": next(stream), "ok": False}
                records.append(record)
                return record

        def client() -> None:
            while (record := take()) is not None:
                record["t0"] = time.monotonic()
                try:
                    final = list(submit_job(socket_path, record["spec"], timeout=JOB_TIMEOUT_S))[-1]
                except (*lost, ValueError, IndexError) as exc:
                    final = {"ok": False, "error": repr(exc)}
                record["t1"] = time.monotonic()
                record["ok"] = bool(final.get("ok")) and final.get("state") == "completed"
                record["job_id"] = final.get("job_id")
                record["products"] = final.get("result", {}).get("products")
                record["error"] = final.get("error")

        rtts: list[float] = []
        stop_ping = threading.Event()

        def pinger() -> None:
            while not stop_ping.wait(PING_PERIOD_S):
                t0 = time.perf_counter()
                try:
                    request(socket_path, {"op": "ping"}, timeout=10.0)
                except lost:
                    continue
                rtts.append(time.perf_counter() - t0)

        threads = [threading.Thread(target=client) for _ in range(workload.clients)]
        if traced:
            threads.append(threading.Thread(target=pinger))
        for t in threads:
            t.start()
        for t in threads[: workload.clients]:
            t.join()
        stop_ping.set()
        for t in threads:
            t.join()
        wall = max((r["t1"] for r in records), default=t_start) - t_start
        try:
            stats = request(socket_path, {"op": "stats"}, timeout=30.0).get("stats", {})
            request(socket_path, {"op": "shutdown"}, timeout=30.0)
        except lost:  # the service died mid-batch; its exit code says why
            stats = {}
        code, report = child.finish(timeout=max(5.0, deadline + 10.0 - time.monotonic()))
    finally:
        child.stop()
    return {
        "failed_start": False,
        "code": code,
        "report": report,
        "records": records,
        "wall_s": wall,
        "stats": stats,
        "rtts": rtts,
        "setup_s": setup_s,
    }


def check_batch(batch: dict[str, Any]) -> list[str]:
    """Every job completed; every repeated spec returned the products
    of its first execution."""
    problems = []
    first: dict[str, Any] = {}
    for k, r in enumerate(batch["records"]):
        if not r["ok"]:
            problems.append(f"job {k} did not complete: {r.get('error')}")
            continue
        key = json.dumps(r["spec"], sort_keys=True)
        if key not in first:
            first[key] = r["products"]
        elif r["products"] != first[key]:
            problems.append(f"job {k} repeats a spec but returned different products")
    if batch["code"] != 0 or batch["report"] is None:
        problems.append(f"service exited with code {batch['code']}")
    return problems


def run_service(workload: ServiceWorkload, args, tmpdir: Path, started: float) -> dict[str, Any]:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.service.api  # noqa: F401 - the wire client the batches use
    except ImportError as exc:
        raise HarnessError(f"cannot import the service client: {exc}") from exc
    deadline = started + HARD_LIMIT_S
    # a traced run fits an untraced and a traced batch into --seconds
    jobs = workload.batch_jobs(args.seconds / 2 if args.trace else args.seconds)
    plain = serve_batch(
        workload, args.seed, False, tmpdir,
        jobs=jobs, setups=0 if args.trace else SERVICE_SETUPS - 1, deadline=deadline,
    )
    batches = [plain]
    if args.trace and not plain["failed_start"]:
        batches.append(serve_batch(workload, args.seed, True, tmpdir, jobs=jobs, setups=0, deadline=deadline))
    attempted = failed = 0
    problems: list[str] = []
    for b in batches:
        if b["failed_start"]:
            problems.append(f"service failed to start (exit code {b['code']})")
            attempted += 1
            failed += 1
            continue
        attempted += len(b["records"])
        failed += sum(not r["ok"] for r in b["records"])
        problems += check_batch(b)

    metrics: dict[str, float] = {}
    if not plain["failed_start"]:
        report = plain["report"] or {}
        done = [r for r in plain["records"] if r["ok"]]
        latency = [r["t1"] - r["t0"] for r in done]
        metrics = {
            # mean, not median: n=6 and n=8 steps form two clusters
            "step_s": statistics.fmean(report["step_s"]) if report.get("step_s") else 0.0,
            "setup_s": median(plain["setup_s"]),
            "peak_rss_mb": report.get("maxrss_mb", 0.0),
            "completed_frac": len(done) / max(1, len(plain["records"])),
            "jobs_per_s": len(done) / plain["wall_s"] if plain["wall_s"] > 0 else 0.0,
            "job_latency_p50_s": median(latency),
            "job_latency_p90_s": percentile(latency, 0.9),
        }
    if args.trace and len(batches) == 2 and not batches[1]["failed_start"]:
        batch = batches[1]
        report = batch["report"] or {}
        spans = [Span.from_row(row) for row in report.get("spans", [])]
        job_s = {int(k): v for k, v in report.get("job_s", {}).items()}
        metrics.update(layer_metrics(spans, report.get("counters", {}), len(job_s)))
        waits = [r["t1"] - r["t0"] - job_s.get(r["job_id"], 0.0) for r in batch["records"] if r["ok"]]
        metrics.update(
            {
                "service.cache.hit_ratio": batch["stats"].get("cache", {}).get("hit_rate", 0.0),
                "service.coalesced": batch["stats"].get("counters", {}).get("svc.jobs.coalesced", 0.0),
                "service.wait_p50_s": median(waits),
                "service.api.rtt_s": median(batch["rtts"]),
                # the service's telemetry is always on: this is the cost
                # of the benchmark's own wrappers and tracemalloc
                "trace_overhead_frac": batch["wall_s"] / plain["wall_s"] - 1.0 if plain["wall_s"] else 0.0,
            }
        )
        write_spans(spans, workload.name, args.seed)
    correct = not problems
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics, "problems": problems}


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # the service socket path is relative (unix socket paths are short)
    os.chdir(ROOT)
    started = time.monotonic()
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: no program to measure (src/repro or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = lookup(args.workload)

    tmpdir = ROOT / ".perfbench-tmp" / str(os.getpid())
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        if isinstance(workload, StepWorkload):
            result = run_steps(workload, args, tmpdir, started)
        else:
            result = run_service(workload, args, tmpdir, started)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmpdir.parent.rmdir()
        except OSError:
            pass

    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None:
            if not result["failed"]:
                print(f"perfbench: metric {m['name']} was not measured", file=sys.stderr)
                return 2
            value = 0.0  # its operations failed; `failed` says so
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
