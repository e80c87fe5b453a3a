"""Tiny-size tests of the benchmark itself.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from spans import Span, graft_kernel_spans, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2023",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.fixture(scope="module")
def step_traced() -> dict:
    return result_of(run_bench("tiny-step", 1))


def test_step_run_prints_every_end_to_end_metric():
    result = result_of(run_bench("tiny-step", 0))
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] is True
    assert result["attempted"] >= 2 and result["failed"] == 0
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


def test_traced_step_run_prints_every_per_layer_metric(step_traced):
    assert_metrics(step_traced, SPEC["per_layer"])
    assert step_traced["correct"] is True
    metrics = {k: v["value"] for k, v in step_traced["metrics"].items()}
    for name in ("neighbors.search_s", "neighbors.calls", "short_range.eval_s",
                 "sph.pairs.build_s", "sph.upGeo_s", "sph.upBarDuF_s",
                 "timestep.integrate_s", "ic.zeldovich_s", "neighbors.peak_alloc_mb"):
        assert metrics[name] > 0, name


def test_child_self_times_never_exceed_their_parent(step_traced):
    rows = json.loads((ROOT / ".perfbench-out" / "tiny-step-seed2023-spans.json").read_text())
    spans = [Span(r["name"], r["start"], r["end"], r["parent"], r["tid"], r["peak_bytes"], r["attrs"]) for r in rows]
    assert spans
    own = self_times(spans)
    for k, s in enumerate(spans):
        assert 0.0 <= own[k] <= s.end - s.start + 1e-12
        if s.parent is not None:
            parent = spans[s.parent]
            assert own[k] <= parent.end - parent.start
            assert parent.start <= s.start and s.end <= parent.end


def test_self_time_subtracts_covered_child_time():
    spans = [Span("a", 0.0, 10.0), Span("b", 1.0, 3.0, parent=0), Span("c", 2.0, 4.0, parent=0),
             Span("d", 1.5, 2.5, parent=1)]
    assert self_times(spans) == pytest.approx([7.0, 1.0, 2.0, 1.0])


def copy_bench(dest: Path, *, with_program: bool) -> Path:
    """A checkout at ``dest`` holding BENCHMARK.json and perfbench/, and
    (``with_program``) a link to the program's ``src``."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_program:
        (dest / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return dest


@pytest.mark.parametrize(
    "perturb",
    [
        lambda ref: ref["thermal_energy"].__setitem__(0, ref["thermal_energy"][0] * (1.0 + 1e-4)),
        lambda ref: ref.__setitem__("total_interactions", ref["total_interactions"] + 1),
    ],
    ids=["thermal_energy", "total_interactions"],
)
def test_perturbed_reference_fails_the_check(tmp_path, perturb):
    checkout = copy_bench(tmp_path, with_program=True)
    path = checkout / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    perturb(reference["tiny-step"])
    path.write_text(json.dumps(reference))
    assert result_of(run_bench("tiny-step", 0, cwd=checkout))["correct"] is False


def test_graft_finds_each_kernel_span_its_own_step():
    from repro.observability.tracing import SpanEvent

    # two workers step concurrently; tracer times are 100 s behind
    spans = [Span("timestep.step", 100.0, 110.0, tid=1), Span("timestep.step", 101.0, 105.0, tid=2)]
    events = [
        SpanEvent("step 0", "step", 0.001, 9.998, 0, 0, 0, "step 0"),
        SpanEvent("step 0", "step", 1.001, 3.998, 0, 1, 0, "step 0"),
        SpanEvent("upGeo", "kernel", 2.0, 1.0, 0, 0, 1, "step 0/upGeo"),
        SpanEvent("upGeo", "kernel", 2.5, 1.0, 0, 1, 1, "step 0/upGeo"),
        SpanEvent("upGravSR", "kernel", 5.0, 1.0, 0, 0, 1, "step 0/upGravSR"),
    ]
    grafted = graft_kernel_spans(spans, events, 100.0)
    assert [(s.name, s.parent, s.start, s.end) for s in grafted[2:]] == [
        ("sph.upGeo", 0, 102.0, 103.0),
        ("sph.upGeo", 1, 102.5, 103.5),
    ]


def test_service_batch_prints_every_metric_and_checks_repeats():
    result = result_of(run_bench("tiny-service", 0))
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] is True
    assert result["attempted"] == 4 and result["failed"] == 0

    traced = result_of(run_bench("tiny-service", 1))
    assert_metrics(traced, SPEC["per_layer"])
    assert traced["correct"] is True
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    # the fourth job repeats an earlier spec: a cache hit or a coalesce
    assert metrics["service.cache.hit_ratio"] > 0 or metrics["service.coalesced"] > 0
    for name in ("analysis.power_spectrum_s", "halo.fof_s", "service.api.rtt_s",
                 "service.wait_p50_s", "ic.zeldovich_s"):
        assert metrics[name] > 0, name


def test_fails_without_the_program(tmp_path):
    proc = run_bench("step-n12", 0, cwd=copy_bench(tmp_path, with_program=False))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_killed_run_counts_as_failed_steps(tmp_path, monkeypatch, capsys):
    import run

    fake = tmp_path / "worker.py"
    fake.write_text("import os, signal\nos.kill(os.getpid(), signal.SIGKILL)\n")
    monkeypatch.setattr(run, "WORKER", fake)
    assert run.main(["--workload", "tiny-step", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] >= 2
    assert result["metrics"]["completed_frac"]["value"] == 0.0
