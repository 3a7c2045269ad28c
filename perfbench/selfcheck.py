"""Fast self-check of the benchmark harness (about two minutes).

Runs every workload at a reduced size, untraced and traced, and asserts that

1. every metric BENCHMARK.json names is emitted, with its unit;
2. the per-pid span files of forked pool and server workers merge into the
   traced run's breakdown;
3. the correctness checks fire when handed a deliberately wrong reference,
   and the traced kbc-stream run fails when its trainer wrappers are gone
   (training then no longer accounts for most of its wall).

Run from the repository root::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from typing import Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workloads whose traced run must merge spans from forked worker processes,
#: with the metric that is only non-zero if they did.
FORKED_SPANS = {
    "kbc-stream": "pool.worker_busy_s",
    "serve-v1": "query.busy_s",
}


def reduce_sizes() -> None:
    """Shrink every workload so the whole check runs in a couple of minutes."""
    import harness
    import pipelines
    import serving

    harness.SETUP_REPEATS = 1
    pipelines.N_DOCS = 8
    serving.ServeWorkload.setup_repeats = 1
    serving.N_TUPLES = 4096
    serving.N_SEGMENTS = 8
    serving.N_KB_DOCS = 256
    serving.LADDER_QPS = (200, 400)
    serving.LADDER_SECONDS = 0.5
    serving.WARMUP_SECONDS = 0.5


def run(workload: str, trace: int, wrong: bool = False) -> Tuple[dict, str]:
    """One in-process benchmark run; returns its result line and its output."""
    import run as bench

    seconds = "1.5" if workload == "serve-v1" else "0.1"
    argv = ["--workload", workload, "--seed", "3", "--seconds", seconds,
            "--trace", str(trace)]
    if wrong:
        argv.append("--wrong-reference")
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = bench.main(argv)
    lines = captured.getvalue().splitlines()
    if code != 0 or not lines:
        raise AssertionError(f"{workload}: run exited {code}")
    return json.loads(lines[-1]), captured.getvalue()


@contextlib.contextmanager
def trainer_untraced():
    """Leave the trainer's functions out of the span wrappers."""
    import spans

    saved = spans.PATCHES
    spans.PATCHES = tuple(p for p in saved if not p[2].startswith("trainer."))
    try:
        yield
    finally:
        spans.PATCHES = saved


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    reduce_sizes()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    definitions = json.loads((HERE / "definitions.json").read_text())
    failures = []

    def expect(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    import run as bench

    expect(set(w["name"] for w in spec["workloads"]) <= set(definitions["workloads"])
           == set(bench.WORKLOADS),
           "definitions.json describes every workload run.py offers")
    names = bench.WORKLOADS
    expect(sorted(m["name"] for m in spec["end_to_end"]) == sorted(definitions["end_to_end"]),
           "definitions.json describes exactly the end-to-end metrics")
    for workload in names:
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            result, _output = run(workload, trace)
            emitted = {name: value["unit"] for name, value in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[table]}
            expect(emitted == wanted,
                   f"{workload} --trace {trace}: every {table} metric emitted with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} --trace {trace}: all correctness checks pass")
            if trace and workload in FORKED_SPANS:
                metrics = result["metrics"]
                expect(metrics["trace.span_files"]["value"] >= 2
                       and metrics[FORKED_SPANS[workload]]["value"] > 0,
                       f"{workload}: span files of forked workers merged")
        result, _output = run(workload, 0, wrong=True)
        expect(not result["correct"] and result["failed"] > 0,
               f"{workload}: correctness checks fire on a wrong reference")
    with trainer_untraced():
        result, output = run("kbc-stream", 1)
    expect(not result["correct"] and "trainer wrappers are misplaced" in output,
           "kbc-stream: the training-share check fires without trainer spans")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
