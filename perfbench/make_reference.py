"""Regenerate ``reference.json``: each step workload's outputs at the
default seed.

    python3 perfbench/make_reference.py

Only for a change that is meant to alter the physics; a change that
keeps it must pass against the committed values.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, Child, HarnessError
from workloads import DEFAULT_SEED, TEST_WORKLOADS, WORKLOADS, StepWorkload


def main() -> int:
    table = {}
    tmpdir = HERE.parent / ".perfbench-tmp" / "reference"
    tmpdir.mkdir(parents=True, exist_ok=True)
    for name, workload in {**WORKLOADS, **TEST_WORKLOADS}.items():
        if not isinstance(workload, StepWorkload):
            continue
        try:
            code, report = Child(["step", name, str(DEFAULT_SEED), "plain"], tmpdir).finish(600.0)
        except HarnessError as exc:
            print(exc, file=sys.stderr)
            return 2
        # (the comparison with the old reference.json may fail: that is
        # why it is being regenerated)
        if code != 0 or report is None or report["error"] or report["problems"]:
            print(f"{name}: run failed ({code}): {report}", file=sys.stderr)
            return 1
        table[name] = report["observed"]
        print(f"{name}: {report['observed']['total_interactions']:.6g} interactions")
    shutil.rmtree(tmpdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
