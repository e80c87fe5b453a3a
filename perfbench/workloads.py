"""Seeded workload inputs: what each workload asks the program to do.

The benchmark derives every input from the workload seed; the program
only ever sees the generated :class:`SimulationConfig` or job specs.
Kept free of ``repro`` imports so the harness can generate inputs
without loading the program (the children do that).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Iterator

#: the library's default IC seed; the committed reference values
#: (``reference.json``) are for this seed
DEFAULT_SEED = 2023

#: steps from the start of the z=200 -> 50 schedule in every step run;
#: step 0 does two gravity searches and later steps one, so the count
#: is fixed rather than time-driven
STEPS = 2


@dataclass(frozen=True)
class StepWorkload:
    """A fixed-length :class:`AdiabaticDriver` run on one config."""

    name: str
    n_per_side: int
    pm_mesh: int = 16
    steps: int = STEPS

    def config_kwargs(self, seed: int) -> dict[str, Any]:
        """``SimulationConfig`` keyword arguments for one seed."""
        return {"n_per_side": self.n_per_side, "pm_mesh": self.pm_mesh, "seed": seed}


@dataclass(frozen=True)
class ServiceWorkload:
    """Closed-loop clients submitting jobs to one service instance."""

    name: str
    sizes: tuple[int, ...] = (6, 8)
    steps: int = 2
    products: tuple[str, ...] = ("diagnostics", "power_spectrum", "halo_catalog")
    #: every this-many-th submission repeats an earlier spec
    repeat_every: int = 4
    #: closed-loop clients (one per core of the reference box)
    clients: int = 2
    #: jobs a batch submits per second of ``--seconds``: about the rate
    #: of a 2-core box, so a batch lasts about ``--seconds``.  The count
    #: is fixed rather than time-driven so that every batch of a seed does
    #: the same work (the result cache, and with it the peak RSS, grows
    #: with the number of jobs run)
    jobs_per_s: float = 4.0
    #: jobs a batch submits at least, so that p90 has more than ten
    #: samples beyond it
    min_jobs: int = 110

    def batch_jobs(self, seconds: float) -> int:
        """The number of jobs one batch of ``seconds`` submits."""
        return max(self.min_jobs, round(self.jobs_per_s * seconds))

    def job_stream(self, seed: int) -> Iterator[dict[str, Any]]:
        """The seed's endless sequence of job specs (wire form).

        The mix is fixed so that every batch does the same kind of
        work: new specs alternate through ``sizes``, and every
        ``repeat_every``-th submission repeats a uniformly chosen
        earlier spec (a cache hit, or a coalesced duplicate while the
        original still runs).  The seed picks the IC seeds and which
        spec each repeat repeats.
        """
        rng = random.Random(seed)
        issued: list[dict[str, Any]] = []
        for k in itertools.count(1):
            if k % self.repeat_every == 0:
                yield dict(issued[rng.randrange(len(issued))])
                continue
            spec = {
                "n_per_side": self.sizes[len(issued) % len(self.sizes)],
                "n_steps": self.steps,
                "seed": rng.randrange(2**31),
                "products": list(self.products),
            }
            issued.append(spec)
            yield dict(spec)


#: the workloads ``BENCHMARK.json`` names
WORKLOADS: dict[str, StepWorkload | ServiceWorkload] = {
    "step-n12": StepWorkload("step-n12", n_per_side=12),
    "step-n16-m48": StepWorkload("step-n16-m48", n_per_side=16, pm_mesh=48),
    "service-batch": ServiceWorkload("service-batch"),
}

#: tiny variants the benchmark's own tests run (not in BENCHMARK.json)
TEST_WORKLOADS: dict[str, StepWorkload | ServiceWorkload] = {
    "tiny-step": StepWorkload("tiny-step", n_per_side=6, pm_mesh=8, steps=1),
    "tiny-service": ServiceWorkload(
        "tiny-service", sizes=(6,), steps=1, jobs_per_s=0.0, min_jobs=4
    ),
}


def lookup(name: str) -> StepWorkload | ServiceWorkload:
    try:
        return {**WORKLOADS, **TEST_WORKLOADS}[name]
    except KeyError:
        known = sorted({**WORKLOADS, **TEST_WORKLOADS})
        raise SystemExit(f"unknown workload {name!r} (known: {known})") from None
