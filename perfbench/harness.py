"""Measurement loop, traced-run analysis and the metric tables.

Every workload is measured the same way: set up several times (the median
is ``setup_s``), then iterate untraced for ``--seconds``; a traced run
(``--trace 1``) then installs the span wrappers, repeats the iterations for
another ``--seconds`` with identical settings, removes the wrappers and
turns the merged spans into per-layer metrics.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent


def _metric_table(kind: str) -> Tuple[Tuple[str, str], ...]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple((metric["name"], metric["unit"]) for metric in spec[kind])


#: End-to-end metrics, measured with tracing off: (name, unit).
END_TO_END = _metric_table("end_to_end")
#: Per-layer metrics of the traced run: (name, unit).  Times are self
#: seconds per iteration (for serve-v1, per second of traced traffic).
PER_LAYER = _metric_table("per_layer")

#: Host-speed calibration: a fixed pure-Python loop, timed before and after
#: every pipeline iteration and every set-up.  On a shared 2-core virtual
#: machine its time swung from 14 to 49 ms within minutes, and the pipeline
#: walls swung with it, so they and every set-up time are scaled by
#: REFERENCE_CALIBRATION_S over the calibration beside them (raw walls are
#: printed too).  Over ten seeds this cut the run-to-run spread of the
#: medians from 0.24 to 0.08 on kbc-stream and from 0.13 to 0.07 on
#: kbc-inmem.  serve-v1's latencies stay raw: they are set by process
#: wake-ups more than by Python speed, and scaling them widened their
#: spread from 0.21 to 0.30.
REFERENCE_CALIBRATION_S = 0.015
CALIBRATION_LOOPS = 200_000
CALIBRATION_REPEATS = 3

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Iterations a run always makes, however long they take.
MIN_ITERATIONS = 3

#: Span name -> per-layer self-time metric.  Every span name the wrappers
#: record maps to exactly one metric, so the self times partition the time
#: the spans cover.
SELF_TIME = {
    "trainer.fit": "trainer.fit_s",
    "trainer.batch": "trainer.batch_s",
    "trainer.checkpoint": "trainer.checkpoint_s",
    "trainer.predict": "trainer.predict_s",
    "shards.slab_load": "shards.slab_load_s",
    "shards.slab_write": "shards.slab_write_s",
    "shards.load": "shards.load_s",
    "shards.stage_complete": "shards.stage_complete_s",
    "shards.mark": "shards.mark_s",
    "integrity.verify": "integrity.verify_s",
    "atomic.write": "atomic.write_s",
    "pool.wave": "pool.wave_s",
    "engine.run_stage": "engine.run_stage_s",
    "parse": "parse.busy_s",
    "nodes": "nodes.busy_s",
    "candidates": "candidates.busy_s",
    "features": "features.busy_s",
    "labeling": "labeling.busy_s",
    "label_model": "label_model.busy_s",
    "label_model.fit": "label_model.busy_s",
    "label_model.batch": "label_model.busy_s",
    "kb.publish": "kb.publish_s",
    "server.parse": "server.parse_s",
    "query": "query.busy_s",
    "server.cache": "server.cache_s",
    "serialize": "serialize.busy_s",
    "arena.build": "arena.build_s",
    "snapshot.reload": "snapshot.reload_s",
    "snapshot": "snapshot.read_s",
    "pipeline": "pipeline.self_s",
}

#: Span counts and counters reported per iteration.
COUNTS = {
    "trainer.batches": ("span", "trainer.batch"),
    "shards.slab_loads": ("span", "shards.slab_load"),
    "shards.slab_writes": ("span", "shards.slab_write"),
    "integrity.verified": ("span", "integrity.verify"),
    "atomic.writes": ("span", "atomic.write"),
    "pool.tasks": ("span", "pool.task"),
    "trainer.slab_evictions": ("counter", "trainer.slab_evictions"),
    "atomic.bytes": ("counter", "atomic.bytes"),
    "atomic.fsyncs": ("counter", "atomic.fsyncs"),
    "parse.docs": ("counter", "parse.docs"),
    "features.rows": ("counter", "features.rows"),
    "labeling.rows": ("counter", "labeling.rows"),
    "kb.segments_written": ("counter", "kb.segments_written"),
    "kb.segments_reused": ("counter", "kb.segments_reused"),
    "query.segments_matched": ("counter", "query.segments_matched"),
}

TRAINING = ("trainer.fit", "trainer.predict")


@dataclass
class Outcome:
    """What one run reports: metric values by name, operation counts, failed
    checks and the human-readable report lines."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    report: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        """Count one correctness check; a failure counts toward ``failed``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)

    def line(self, workload: str, name: str, value: float, unit: str, n: int) -> None:
        self.report.append(f"perfbench {workload} {name} = {value:.6g} {unit} (n={n})")


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def calibrate() -> float:
    """Seconds the calibration loop takes on this host right now: the median
    of :data:`CALIBRATION_REPEATS` timings, so one preemption does not skew
    it."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return median(times)


def host_scale(calibrations) -> float:
    """Factor that converts a timing to the reference host speed."""
    return REFERENCE_CALIBRATION_S / median(calibrations)


def timed_setups(make: Callable[[], object], work: Path, repeats: Optional[int] = None):
    """Set up ``repeats`` (default :data:`SETUP_REPEATS`) times in fresh
    directories; keep the last one.  Set-up times are scaled to the
    reference host speed like the timings they precede.

    Returns ``(workload, setup seconds per repeat)``.
    """
    repeats = repeats or SETUP_REPEATS
    times = []
    workload = None
    for index in range(repeats):
        directory = work / f"setup-{index}"
        directory.mkdir(parents=True)
        if workload is not None:
            workload.close()
            shutil.rmtree(workload.work, ignore_errors=True)
        workload = make()
        before = calibrate()
        start = time.perf_counter()
        workload.setup(directory)
        elapsed = time.perf_counter() - start
        times.append(elapsed * host_scale([(before + calibrate()) / 2]))
    return workload, times


def iterate_for(workload, seconds: float, group: int = 1) -> List[dict]:
    """Iterations for ``seconds`` (at least :data:`MIN_ITERATIONS`), in whole
    groups of ``group`` so every input a workload cycles through is run
    equally often."""
    samples = []
    deadline = time.perf_counter() + seconds
    while (
        len(samples) < MIN_ITERATIONS
        or time.perf_counter() < deadline
        or len(samples) % group
    ):
        samples.append(workload.iterate())
    return samples


def traced(work: Path, main_pid: int, body: Callable[[spans.Tracer], object]):
    """Run ``body`` with every span wrapper installed, then remove them.

    Returns ``(body's result, merged trace, wrappers left installed)``.
    """
    tracer = spans.Tracer(work / "trace")
    spans.install(tracer)
    try:
        result = body(tracer)
    finally:
        tracer.flush()
        left = tracer.uninstall()
    return result, spans.load(tracer.out_dir, main_pid), left


def span_layers(trace: spans.Trace, per: float) -> Dict[str, float]:
    """Self times, span counts and counters of every layer, divided by ``per``."""
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    for span in trace.spans:
        metric = SELF_TIME.get(span.name)
        if metric is not None:
            metrics[metric] += span.self_s
    for metric, (kind, source) in COUNTS.items():
        if kind == "span":
            metrics[metric] = float(len(trace.named(source)))
        else:
            metrics[metric] = float(trace.counters.get(source, 0))
    for name in list(metrics):
        metrics[name] /= per
    slab_loads_in_training = sum(
        1 for span in trace.named("shards.slab_load") if trace.within(span, TRAINING)
    )
    if slab_loads_in_training:
        metrics["shards.rows_per_slab_load"] = (
            trace.counters.get("trainer.slab_rows", 0) / slab_loads_in_training
        )
    metrics["trace.span_files"] = float(trace.n_files)
    return metrics


def pipeline_layers(trace: spans.Trace, samples: List[dict], untraced: List[dict],
                    n_workers: int) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of a traced pipeline phase, plus accounting errors.

    Layer self times of the benchmark's own process plus ``pipeline.self_s``
    (pipeline code no layer covers) add up to the traced wall time; pool
    workers' spans run in parallel with that wall and are reported as busy
    time beside it.
    """
    n = len(samples)
    wall = sum(sample["wall_s"] for sample in samples)
    metrics = span_layers(trace, n)
    errors = []
    main = [span for span in trace.spans if span.pid == trace.main_pid]
    covered = sum(span.self_s for span in main if span.name != "pipeline")
    metrics["pipeline.self_s"] = (wall - covered) / n
    own = sum(span.self_s for span in main if span.name == "pipeline")
    if min((span.self_s for span in trace.spans), default=0.0) < -1e-6:
        errors.append("a span's children cover more than the span itself")
    if abs((wall - covered) - own) > 0.02 * wall + 0.01 * n:
        errors.append(
            f"layer self times ({covered:.3f}s) plus pipeline.self_s "
            f"({own:.3f}s) do not add up to the traced wall ({wall:.3f}s)"
        )
    waves = sum(span.duration for span in trace.named("pool.wave", main_only=True))
    busy = sum(span.duration for span in trace.named("pool.task"))
    metrics["pool.worker_busy_s"] = busy / n
    if waves:
        metrics["pool.utilization"] = busy / (n_workers * waves)
    metrics["pool.respawns"] = sum(
        (sample["stats"]["pool_stats"] or {}).get("n_respawns", 0) for sample in samples
    ) / n
    metrics["cache.hit_rate"] = median(s["stats"]["hit_rate"] for s in samples)
    raw = sum(s["stats"]["n_raw_candidates"] for s in samples)
    kept = sum(s["stats"]["n_candidates"] for s in samples)
    metrics["candidates.kept_ratio"] = kept / raw if raw else 0.0
    training = sum(span.self_s for span in main if span.name.startswith("trainer.")) + sum(
        span.self_s for span in main
        if span.name == "shards.slab_load" and trace.within(span, TRAINING)
    )
    metrics["trace.train_share"] = training / wall
    metrics["trace.wall_s"] = wall / n
    metrics["trace.overhead"] = median(s["wall_s"] for s in samples) / median(
        s["wall_s"] for s in untraced
    )
    return metrics, errors
