"""Benchmark of the Fonduer reproduction: KBC pipelines and /v1 serving.

Run from the repository root::

    python3 perfbench/run.py --workload kbc-stream --seed 1 --seconds 12 --trace 0

Workloads (see ``perfbench/definitions.json``): ``kbc-stream``,
``kbc-inmem`` and ``serve-v1``.  With ``--trace 0`` the run
reports the end-to-end metrics, measured with tracing off; with ``--trace 1``
it measures the same way, then repeats the workload with every layer's
public functions wrapped in span recorders and reports the per-layer
breakdown.  Human-readable lines (every metric with its unit and sample
count, the environment, failed checks) come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Everything the run writes goes under ``.perfbench/`` in the repository and
is removed when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kbc-stream", "kbc-inmem", "serve-v1")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--wrong-reference", action="store_true",
        help="corrupt the correctness references (the harness self-check uses "
             "this to see every check fire)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from harness import END_TO_END, PER_LAYER
    from inputs import environment

    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print("perfbench env " + json.dumps(environment(ROOT, work), sort_keys=True))
        if args.workload == "serve-v1":
            from serving import run_serve as run
        else:
            from pipelines import run_pipeline as run
        outcome = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it

    for line in outcome.report:
        print(line)
    for error in outcome.errors:
        print(f"perfbench CHECK FAILED: {error}")
    table = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": outcome.metrics[name], "unit": unit} for name, unit in table
    }
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
