"""Record reference outputs for the correctness gate.

    python3 perfbench/record.py [--seeds 0 7919] [--workload NAME ...]

Runs one untraced pass of each workload's 45-second plan and writes its plan and
outputs to ``references/<workload>-<seed>.json``. Re-record only when a change
is meant to alter the program's numbers, and say so in the change.
"""
from __future__ import annotations

import argparse
import json
import sys

import check
import run
import workloads

REFERENCE_SEEDS = (0, 7919)  # the default seed and one held out from tuning


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=list(REFERENCE_SEEDS))
    p.add_argument("--workload", nargs="+", default=list(workloads.WORKLOADS),
                   choices=workloads.WORKLOADS)
    args = p.parse_args(argv)
    env = run.worker_env()
    check.REFERENCES.mkdir(exist_ok=True)
    for workload in args.workload:
        for seed in args.seeds:
            plan = workloads.make_plan(workload, seed, 45.0)
            groups = run.run_worker(plan, env, trace=False, passes=1)["passes"][0]["groups"]
            attempted, failed, report = check.check(plan, groups)
            if failed:
                print(f"{workload} seed {seed}: {failed}/{attempted} ops failed: "
                      f"{report['problems']}", file=sys.stderr)
                return 1
            path = check.reference_path(workload, seed)
            path.write_text(json.dumps({"plan": plan, "groups": [run.outputs(g) for g in groups]},
                                       indent=1) + "\n")
            print(f"wrote {path.name}: {attempted} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
