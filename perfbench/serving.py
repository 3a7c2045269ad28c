"""The serve-v1 workload: open-loop /v1 traffic against a republished KB.

Set-up publishes a synthetic KB of :data:`N_TUPLES` tuples in
:data:`N_SEGMENTS` segments through the public ``KBStore`` update API and
starts ``create_server(..., workers=max(1, nproc - 1))`` in its own process.
A measured phase then sends a constant-rate open loop of ``/v1/query``
requests from a separate generator process while this process republishes
one segment every :data:`WRITER_PERIOD` seconds, so reads run beside writes
and every publish rotates the response cache's generation.  The request
kinds (their shares and shape are assumptions, see below):

* Zipf-skewed ``entity`` lookups over :data:`N_ENTITY_KEYS` keys (eight
  times the server's 1024-entry response cache);
* ``relation`` + ``min_marginal`` scans, paged by ``cursor``;
* ``doc`` + ``within`` containment queries.

Every :data:`SAMPLE_EVERY`-th response is compared with an in-process
``KBSnapshot.query`` at the generation the response names.
"""

from __future__ import annotations

import http.client
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlencode

import numpy as np

import loadgen
import spans
from harness import (
    END_TO_END,
    PER_LAYER,
    Outcome,
    median,
    percentile,
    span_layers,
    timed_setups,
    traced,
)
from inputs import vm_hwm_mb, zipf_ranks

from repro.kb.query import KBQuery
from repro.kb.store import KBStore

HERE = Path(__file__).resolve().parent

N_TUPLES = 100_000
N_SEGMENTS = 32
RELATIONS = ("has_collector_current", "has_voltage", "has_polarity")
#: Traffic assumptions.  No query log of this system exists, so the shares,
#: the Zipf exponent, the number of documents and the width of a ``within``
#: range are choices, not measurements: enough entity keys to overflow the
#: 1024-entry response cache, every request kind present, entity lookups the
#: most common.  They set the cache hit ratio and the containment-query
#: tail, and so what ``p50_ms`` on serve-v1 rewards; replace them once real
#: traffic has been measured.
N_ENTITY_KEYS = 8192
N_KB_DOCS = 2048
ZIPF_EXPONENT = 1.1
#: Share of entity lookups and cursor scans; the rest are containment queries.
ENTITY_SHARE = 0.7
SCAN_SHARE = 0.2
WITHIN_WIDTH = 200
SCAN_THRESHOLDS = (0.9, 0.95)
SCAN_PAGES = 5
PAGE_LIMIT = 20
#: The reference rate of the measured phases (well below the knee).
REFERENCE_QPS = 300
#: Share of --seconds spent on read-only traffic; the rest runs beside the
#: writer.  The end-to-end latencies come from the read-only part: with the
#: writer, the p99 is set by three or four publish stalls and varied 0.26 to
#: 0.68 s between runs (2-core host), wider than any bound allows.
READ_SHARE = 0.75
#: Rates of the read-only ladder that finds the sustained rate (traced runs).
LADDER_QPS = (300, 600, 900, 1200, 1800)
LADDER_SECONDS = 2.0
#: The sustained rate is the highest rung whose p99 stays within this.
P99_LIMIT_MS = 10.0
WRITER_PERIOD = 1.0
#: Unmeasured read-only traffic before the measured phases.  The response
#: cache starts empty and the arenas' pages cold: on a 2-core host the first
#: 4 s of traffic had a p50 of 0.73 ms, the next 0.49 ms and later ones
#: 0.37-0.44 ms.
WARMUP_SECONDS = 8.0
WRITER_OFFSET = 0.5
SAMPLE_EVERY = 25


def server_workers() -> int:
    return max(1, (os.cpu_count() or 1) - 1)


def connections() -> int:
    """One keep-alive connection per server worker.

    A single generator process spreading requests over more connections than
    workers adds its own 40 ms stalls (measured on a 2-core host), which
    would be charged to the server.
    """
    return server_workers()


def segment_rows(seed: int, position: int, cycle: int) -> List[dict]:
    """The tuples of one segment at one republication cycle (deterministic)."""
    rng = np.random.default_rng([seed, position, cycle])
    per = N_TUPLES // N_SEGMENTS
    keys = rng.integers(N_ENTITY_KEYS, size=per)
    # A segment holds one shard of documents, as the pipeline publishes it.
    docs_per_segment = N_KB_DOCS // N_SEGMENTS
    docs = position * docs_per_segment + rng.integers(docs_per_segment, size=per)
    pres = rng.integers(2000, size=per)
    lengths = rng.integers(1, 20, size=per)
    marginals = np.round(0.5 + rng.random(per) / 2, 6)
    rows = []
    for j in range(per):
        candidate = position * per + j
        part = f"p{int(keys[j]):05x}"
        doc = f"doc_{int(docs[j]):05d}"
        rows.append({
            "relation": RELATIONS[candidate % len(RELATIONS)],
            "doc_name": doc,
            "doc_path": f"docs/{doc}.html",
            "entities": [part, str(candidate % 500)],
            "spans": [["part", f"sent:{candidate % 40}:0-1", part]],
            "interval": [int(pres[j]), int(pres[j] + lengths[j])],
            "marginal": float(marginals[j]),
            "candidate": candidate,
        })
    return rows


def _generate(out_path: Path, port: int, requests, due, sampled) -> None:
    """Generator process body: drive the schedule and pickle the outcome."""
    status = 1
    try:
        result = loadgen.drive("127.0.0.1", port, requests, due, sampled,
                               connections(), timeout=10.0)
        with open(out_path, "wb") as sink:
            pickle.dump(result, sink)
        status = 0
    finally:
        os._exit(status)


class ServeWorkload:
    name = "serve-v1"
    #: Each set-up builds a 100k-tuple KB and its arenas, so it is repeated less.
    setup_repeats = 2

    def __init__(self, seed: int, wrong_reference: bool = False) -> None:
        self.seed = seed
        self.wrong_reference = wrong_reference
        self.work: Optional[Path] = None
        self.server: Optional[subprocess.Popen] = None
        self.rng = np.random.default_rng([seed, 99])

    def params(self) -> Dict[str, object]:
        return {
            "n_tuples": N_TUPLES, "n_segments": N_SEGMENTS,
            "n_entity_keys": N_ENTITY_KEYS, "zipf_exponent": ZIPF_EXPONENT,
            "reference_qps": REFERENCE_QPS, "ladder_qps": list(LADDER_QPS),
            "warmup_s": WARMUP_SECONDS, "read_share": READ_SHARE,
            "writer_period_s": WRITER_PERIOD,
            "server_workers": server_workers(),
            "connections": connections(),
        }

    # ---------------------------------------------------------------- set-up
    def setup(self, work: Path) -> None:
        self.work = work
        self.kb_dir = work / "kb"
        # The benchmark's own view of the KB: heap segments, all cached, so a
        # publish reloads only the segment it rewrote.
        self.store = KBStore(self.kb_dir, max_cached_segments=4 * N_SEGMENTS)
        update = self.store.begin_update()
        self.keys: Dict[int, str] = {}
        for position in range(N_SEGMENTS):
            self.keys[position] = f"c0-{position}"
            update.upsert(position, f"shard-{position}", self.keys[position],
                          segment_rows(self.seed, position, 0))
        snapshot = update.publish(meta={"generation": 0})
        self.snapshots = {snapshot.generation: snapshot}
        self.cycle = 0
        self.scan_pages = self._scan_pages(snapshot)
        self.start_server()

    def _scan_pages(self, snapshot) -> List[Dict[str, str]]:
        """Parameters of the first pages of every scan, cursors included."""
        pages = []
        for relation in RELATIONS:
            for threshold in SCAN_THRESHOLDS:
                query = KBQuery(relation=relation, min_marginal=threshold, limit=PAGE_LIMIT)
                for _ in range(SCAN_PAGES):
                    pages.append(query.to_params())
                    cursor = snapshot.query(query).next_cursor
                    if cursor is None:
                        break
                    query = KBQuery(relation=relation, min_marginal=threshold,
                                    limit=PAGE_LIMIT, cursor=cursor)
        return pages

    def start_server(self, trace_dir: Optional[Path] = None) -> None:
        """Start the server in a fresh interpreter (its RSS is its own)."""
        command = [sys.executable, str(HERE / "server_proc.py"), str(self.kb_dir),
                   str(server_workers())]
        if trace_dir is not None:
            command.append(str(trace_dir))
        self.server = subprocess.Popen(command, stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)
        line = self.server.stdout.readline()
        if not line.strip():
            self.close()
            raise RuntimeError("the server process did not start")
        self.port = int(line)
        self.get("/v1/health")  # the first snapshot maps (or builds) the arenas

    def stop_server(self) -> None:
        """Close the server's stdin (its stop signal) and wait for it."""
        if self.server is None:
            return
        server, self.server = self.server, None
        server.stdin.close()
        try:
            code = server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
            raise RuntimeError("the server process did not stop")
        server.stdout.close()
        if code != 0:
            raise RuntimeError(f"the server process exited with status {code}")

    def close(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server.wait()
            self.server.stdin.close()
            self.server.stdout.close()
            self.server = None

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return json.loads(body)["data"]

    # ---------------------------------------------------------------- traffic
    def _schedule(self, rate: float, seconds: float):
        """Requests, due times and sample flags of one constant-rate phase."""
        n = max(1, int(rate * seconds))
        kinds = self.rng.random(n)
        keys = zipf_ranks(self.rng, n, N_ENTITY_KEYS, ZIPF_EXPONENT)
        key_ids = np.random.default_rng([self.seed, 7]).permutation(N_ENTITY_KEYS)
        params: List[Dict[str, str]] = []
        for i in range(n):
            if kinds[i] < ENTITY_SHARE:
                params.append({"entity": f"p{int(key_ids[keys[i]]):05x}",
                               "limit": str(PAGE_LIMIT)})
            elif kinds[i] < ENTITY_SHARE + SCAN_SHARE:
                params.append(self.scan_pages[int(self.rng.integers(len(self.scan_pages)))])
            else:
                lo = int(self.rng.integers(1800))
                params.append({"doc": f"doc_{int(self.rng.integers(N_KB_DOCS)):05d}",
                               "within": f"{lo}-{lo + WITHIN_WIDTH}",
                               "limit": str(PAGE_LIMIT)})
        requests = [
            f"GET /v1/query?{urlencode(p)} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
            for p in params
        ]
        due = np.arange(n) / rate
        sampled = np.zeros(n, dtype=bool)
        sampled[::SAMPLE_EVERY] = True
        return params, requests, due, sampled

    def republish(self) -> float:
        """Rewrite one segment and publish; returns the upsert + publish time."""
        self.cycle += 1
        position = (self.cycle * 7) % N_SEGMENTS
        rows = segment_rows(self.seed, position, self.cycle)
        key = f"c{self.cycle}-{position}"
        start = time.perf_counter()
        update = self.store.begin_update()
        for other, other_key in self.keys.items():
            if other != position:
                update.reuse_if_current(other, other_key)
        update.upsert(position, f"shard-{position}", key, rows)
        snapshot = update.publish(meta={"generation": self.cycle})
        elapsed = time.perf_counter() - start
        self.keys[position] = key
        self.snapshots[snapshot.generation] = snapshot
        return elapsed

    def traffic(self, rate: float, seconds: float, writer: bool) -> dict:
        """One open-loop phase; returns latencies, failures and checks."""
        params, requests, due, sampled = self._schedule(rate, seconds)
        out_path = self.work / f"gen-{time.perf_counter_ns()}.pkl"
        pid = os.fork()
        if pid == 0:
            _generate(out_path, self.port, requests, due, sampled)
        publish_times = []
        start = time.perf_counter()
        # Publish every WRITER_PERIOD seconds, and at least once however
        # short the phase.
        publishes = list(np.arange(WRITER_OFFSET, seconds - 0.25, WRITER_PERIOD)) or [seconds / 2]
        for offset in publishes if writer else []:
            time.sleep(max(0.0, start + offset - time.perf_counter()))
            publish_times.append(self.republish())
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise RuntimeError(f"the load generator exited with status {status}")
        with open(out_path, "rb") as source:
            result = pickle.load(source)
        out_path.unlink()
        ok = result["status"] == 200
        latency_ms = (result["received"] - result["due"])[ok] * 1000.0
        late_ms = (result["sent"] - result["due"])[~np.isnan(result["sent"])] * 1000.0
        mismatches, counts = self.verify(params, result["bodies"])
        return {
            "n": len(requests), "n_failed": int((~ok).sum()), "latency_ms": latency_ms,
            "late_ms": late_ms, "publish_s": publish_times, "mismatches": mismatches,
            "n_sampled": len(result["bodies"]), "counts": counts, "rate": rate,
            "seconds": float(due[-1]) + 1.0 / rate,
        }

    def verify(self, params, bodies: Dict[int, bytes]) -> Tuple[List[str], Tuple[int, int, int]]:
        """Compare sampled responses with in-process queries at their generation.

        Returns the mismatches and the tuple counts (matching, returned,
        expected) that :func:`answer_f1` turns into an F1.
        """
        mismatches = []
        true_pos = returned = expected = 0
        for index, body in sorted(bodies.items()):
            payload = json.loads(body)
            generation = payload["meta"]["generation"]
            snapshot = self.snapshots.get(generation)
            if snapshot is None:
                mismatches.append(f"request {index}: unknown generation {generation}")
                continue
            query = KBQuery.from_params(dict(params[index]))
            reference = json.loads(json.dumps(snapshot.query(query).to_json()))
            if self.wrong_reference:
                reference["rows"] = reference["rows"][1:]
            data = payload["data"]
            got = [json.dumps(row, sort_keys=True) for row in data["rows"]]
            want = [json.dumps(row, sort_keys=True) for row in reference["rows"]]
            true_pos += len(set(got) & set(want))
            returned += len(got)
            expected += len(want)
            if data != reference:
                mismatches.append(f"request {index} ({params[index]}) differs from "
                                  f"KBSnapshot.query at generation {generation}")
        return mismatches, (true_pos, returned, expected)

    def server_report(self) -> Tuple[dict, float]:
        """The server's /v1/metrics and its workers' peak RSS (from /proc)."""
        metrics = self.get("/v1/metrics")
        pids = [worker["pid"] for worker in metrics["per_worker"]] or [self.server.pid]
        return metrics, max(vm_hwm_mb(pid) for pid in pids)

    def nudge_flush(self) -> None:
        """A few spaced requests so every worker flushes its buffered spans."""
        for _ in range(4 * server_workers()):
            self.get("/v1/stats")
            time.sleep(spans.FLUSH_INTERVAL * 1.2)


def answer_f1(phases: List[dict]) -> float:
    """F1 of the sampled answers' tuples against the reference answers."""
    true_pos, returned, expected = (sum(p["counts"][i] for p in phases) for i in range(3))
    if not returned and not expected:
        return 1.0
    precision = true_pos / returned if returned else 0.0
    recall = true_pos / expected if expected else 0.0
    total = precision + recall
    return 2 * precision * recall / total if total else 0.0


def measured_phases(workload: "ServeWorkload", seconds: float) -> Tuple[dict, dict, dict]:
    """Warm-up traffic, read-only traffic, then the same traffic beside the
    writer.  Only the last two are timed, but every answer is checked."""
    warmup = workload.traffic(REFERENCE_QPS, WARMUP_SECONDS, writer=False)
    reads = workload.traffic(REFERENCE_QPS, seconds * READ_SHARE, writer=False)
    writes = workload.traffic(REFERENCE_QPS, seconds * (1 - READ_SHARE), writer=True)
    return warmup, reads, writes


def _sustained(rungs: List[dict]) -> float:
    """Highest rung with no failures, p99 within the limit and no backlog."""
    best = 0.0
    for rung in rungs:
        latency = rung["latency_ms"]
        n = len(latency)
        backlog = n >= 8 and median(latency[-n // 4:]) > 2 * median(latency[: n // 4]) + 1
        if rung["n_failed"] == 0 and percentile(latency, 99) <= P99_LIMIT_MS and not backlog:
            best = max(best, rung["rate"])
    return best


def run_serve(args, work: Path) -> Outcome:
    workload, setup_times = timed_setups(
        lambda: ServeWorkload(args.seed, wrong_reference=args.wrong_reference),
        work, ServeWorkload.setup_repeats,
    )
    out = Outcome()
    name = workload.name
    out.report.append(f"perfbench {name} params {json.dumps(workload.params(), sort_keys=True)}")
    try:
        untraced = measured_phases(workload, args.seconds)
        _warmup, reads, writes = untraced
        _, peak_rss = workload.server_report()
        for phase in untraced:
            _account(out, phase)
        out.metrics.update(
            p50_ms=percentile(reads["latency_ms"], 50),
            peak_rss_mb=peak_rss,
            f1=answer_f1(list(untraced)),
            setup_s=median(setup_times),
        )
        n = len(reads["latency_ms"])
        for metric, unit in END_TO_END:
            count = {"setup_s": len(setup_times),
                     "f1": sum(phase["n_sampled"] for phase in untraced)}.get(metric, n)
            out.line(name, metric, out.metrics[metric], unit, count)
        out.line(name, "p99_ms", percentile(reads["latency_ms"], 99), "ms", n)
        out.line(name, "v1_publish_s", median(writes["publish_s"]), "s",
                 len(writes["publish_s"]))
        out.line(name, "p50_with_writer_ms", percentile(writes["latency_ms"], 50), "ms",
                 len(writes["latency_ms"]))
        out.line(name, "p99_with_writer_ms", percentile(writes["latency_ms"], 99), "ms",
                 len(writes["latency_ms"]))
        out.line(name, "gen_late_ms_p99", percentile(reads["late_ms"], 99), "ms", n)
        out.line(name, "error_ratio", out.failed / max(1, out.attempted), "ratio",
                 out.attempted)

        if args.trace:
            rungs = [workload.traffic(rate, LADDER_SECONDS, writer=False)
                     for rate in LADDER_QPS]
            for rung in rungs:
                _account(out, rung)
                out.line(name, f"ladder_{rung['rate']}qps_p99_ms",
                         percentile(rung["latency_ms"], 99), "ms", len(rung["latency_ms"]))
            sustained = _sustained(rungs)
            out.line(name, "v1_sustained_qps", sustained, "1/s", len(rungs))
            layers = _traced_phase(workload, args, out, untraced)
            layers["v1.sustained_qps"] = sustained
            out.metrics.update(layers)
            for metric, unit in PER_LAYER:
                out.line(name, metric, out.metrics[metric], unit, int(args.seconds))
    finally:
        workload.close()
        shutil.rmtree(workload.work, ignore_errors=True)
    return out


def _account(out: Outcome, phase: dict) -> None:
    """Requests and sample checks are operations; non-200s and wrong
    samples are failures."""
    out.attempted += phase["n"] + phase["n_sampled"]
    out.failed += phase["n_failed"] + len(phase["mismatches"])
    if phase["n_failed"]:
        out.errors.append(f"{phase['n_failed']} of {phase['n']} requests failed "
                          "or got no answer")
    out.errors.extend(phase["mismatches"])


def _traced_phase(workload: ServeWorkload, args, out: Outcome,
                  untraced: Tuple[dict, dict, dict]) -> dict:
    """Restart the server under the span wrappers and repeat both phases."""
    workload.stop_server()

    def body(tracer):
        workload.start_server(tracer.out_dir)
        before, _ = workload.server_report()
        phases = measured_phases(workload, args.seconds)
        after, _ = workload.server_report()
        workload.nudge_flush()
        workload.stop_server()
        return phases, before, after

    (phases, before, after), trace, left = traced(workload.work, os.getpid(), body)
    for phase in phases:
        _account(out, phase)
    seconds = sum(phase["seconds"] for phase in phases)
    layers = span_layers(trace, seconds)
    server_pids = set(trace.pids) - {trace.main_pid}
    served = sum(span.duration for span in trace.spans
                 if span.pid in server_pids and span.parent_span is None)
    client = sum(phase["latency_ms"].sum() for phase in phases) / 1000.0
    layers["server.other_s"] = (client - served) / seconds
    hits = after["response_cache"]["hits"] - before["response_cache"]["hits"]
    misses = after["response_cache"]["misses"] - before["response_cache"]["misses"]
    layers["server.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["server.shed"] = float(after["n_shed"] - before["n_shed"])
    layers["gen.late_ms_p99"] = percentile(np.concatenate([p["late_ms"] for p in phases]), 99)
    layers["trace.overhead"] = (percentile(phases[1]["latency_ms"], 50)
                                / percentile(untraced[1]["latency_ms"], 50))
    out.check(not left, f"span wrappers left installed: {left}")
    out.check(answer_f1(list(phases)) == answer_f1(list(untraced)),
              "traced run's answers differ from the untraced run's")
    out.check(layers["query.busy_s"] > 0 and bool(server_pids),
              "no spans were collected from the server workers")
    return layers
