"""Span recorder for the benchmark's traced runs.

The traced run times calls into each layer's public functions from outside
the program: before any worker process is forked, :func:`install` replaces
the functions listed in :data:`PATCHES` (class methods, and module-level
functions in every ``repro`` module that imported them) with wrappers that
record one span per call.  Forked pool and server workers inherit the
wrappers.  Each process buffers its spans in memory and appends them to its
own ``spans-<pid>.jsonl`` in the trace directory; :func:`load` merges the
files when the run ends.  :meth:`Tracer.uninstall` puts every original back.

A span is ``(id, parent id, name, start, end)`` with ``time.perf_counter``
clocks (CLOCK_MONOTONIC, comparable across processes).  Counters (units,
bytes, fsyncs, ...) are recorded at the same call boundaries and written
with the spans as per-flush deltas.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: How often (seconds) a process with short top-level spans flushes its buffer.
FLUSH_INTERVAL = 0.05
#: Buffered spans that force a flush regardless of the interval.
FLUSH_SPANS = 512


class Tracer:
    """Per-process span buffer; state resets itself in a forked child."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._pid = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        self._reset()

    # ----------------------------------------------------------- recording
    def _reset(self) -> None:
        self._pid = os.getpid()
        self._local = threading.local()
        self._buffer: List[Tuple[int, int, str, float, float]] = []
        self._counters: Dict[str, float] = {}
        self._next_id = 0
        self._last_flush = time.perf_counter()

    def _stack(self) -> List[Tuple[int, str]]:
        if os.getpid() != self._pid:
            self._reset()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def begin(self, name: str) -> Tuple[int, int, str, float]:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        parent = stack[-1][0] if stack else 0
        stack.append((sid, name))
        return sid, parent, name, time.perf_counter()

    def end(self, token: Tuple[int, int, str, float], name: Optional[str] = None,
            force_flush: bool = False) -> None:
        end = time.perf_counter()
        sid, parent, began_as, start = token
        stack = self._stack()
        if stack and stack[-1][0] == sid:
            stack.pop()
        else:  # a generator span closed out of order: drop it wherever it is
            stack[:] = [entry for entry in stack if entry[0] != sid]
        self._buffer.append((sid, parent, name or began_as, start, end))
        if not stack and (
            force_flush
            or len(self._buffer) >= FLUSH_SPANS
            or end - self._last_flush >= FLUSH_INTERVAL
        ):
            self.flush()

    def count(self, name: str, value: float = 1) -> None:
        if os.getpid() != self._pid:
            self._reset()
        self._counters[name] = self._counters.get(name, 0) + value

    def flush(self) -> None:
        """Append this process's buffered spans and counter deltas to its file."""
        if os.getpid() != self._pid:
            self._reset()
        if not self._buffer and not self._counters:
            return
        record = {"pid": self._pid, "spans": self._buffer, "counters": self._counters}
        self._buffer, self._counters = [], {}
        self._last_flush = time.perf_counter()
        path = self.out_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as sink:
            sink.write(json.dumps(record) + "\n")

    # ------------------------------------------------------------ wrappers
    def wrap(self, func: Callable, name: str, units: Optional[Callable] = None,
             rename: Optional[Callable] = None, force_flush: bool = False) -> Callable:
        """A traced stand-in for ``func``.

        ``units(args, kwargs, result)`` returns counters to add at the
        call's end, counted only when the call is not nested in a span of the
        same name (``process_many`` looping over ``process``);
        ``rename(args, kwargs, result)`` may replace the span's name once the
        result is known.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            nested = tracer.parent_name() == name
            token = tracer.begin(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                final = rename(args, kwargs, result) if rename is not None else None
                if units is not None and not nested:
                    for counter, value in units(args, kwargs, result).items():
                        tracer.count(counter, value)
                tracer.end(token, final, force_flush)

        traced.__perfbench_original__ = func
        return traced

    def wrap_generator(self, func: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            token = tracer.begin(name)
            try:
                yield from func(*args, **kwargs)
            finally:
                tracer.end(token)

        traced.__perfbench_original__ = func
        return traced

    def wrap_context(self, func: Callable, name: str,
                     on_exit: Optional[Callable] = None) -> Callable:
        tracer = self

        @contextlib.contextmanager
        def traced(*args, **kwargs):
            token = tracer.begin(name)
            try:
                with func(*args, **kwargs) as handle:
                    yield handle
                if on_exit is not None:
                    for counter, value in on_exit(args, kwargs).items():
                        tracer.count(counter, value)
            finally:
                tracer.end(token)

        traced.__perfbench_original__ = func
        return traced

    def wrap_counter(self, func: Callable, counter: Callable) -> Callable:
        """Count calls without a span (for calls too frequent to time)."""
        tracer = self

        @functools.wraps(func)
        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            for name, value in counter(args, kwargs, result).items():
                tracer.count(name, value)
            return result

        counted.__perfbench_original__ = func
        return counted

    # ------------------------------------------------------------- patching
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, had_own, original))

    def uninstall(self) -> List[str]:
        """Restore every patched attribute; returns the ones left traced."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        return still_traced()


# ------------------------------------------------------------------ targets
def _len_arg(index: int, counter: str) -> Callable:
    return lambda args, kwargs, result: {counter: len(args[index])}


def _one(counter: str) -> Callable:
    return lambda args, kwargs, result: {counter: 1}


def _rows(counter: str) -> Callable:
    """Rows of one unit's result (``process``)."""
    return lambda args, kwargs, result: {counter: _n_rows(result)} if result is not None else {}


def _rows_many(counter: str) -> Callable:
    """Rows of a batch's results, one block per unit (``process_many``)."""
    return lambda args, kwargs, result: (
        {counter: sum(_n_rows(block) for block in result)} if result is not None else {}
    )


def _n_rows(block: Any) -> int:
    shape = getattr(block, "shape", None)
    return int(shape[0]) if shape is not None else len(block)


def _slab_source(source: Any) -> bool:
    return hasattr(source, "evictions")


def _fit_name(args, kwargs, result):
    """The label model's EM trains through the same Trainer: name it apart."""
    source = args[2] if len(args) > 2 else kwargs.get("source")
    if type(source).__name__ in ("DenseLabelSource", "SlabLabelSource"):
        return "label_model.fit"
    return "trainer.fit"


def _fit_units(args, kwargs, result):
    source = args[2] if len(args) > 2 else kwargs.get("source")
    if _slab_source(source):
        return {"trainer.slab_evictions": source.evictions}
    return {}


def _batch_units(args, kwargs, result):
    """Rows a slab-backed batch served (for rows per slab load)."""
    return {"trainer.slab_rows": len(args[1])} if _slab_source(args[0]) else {}


def _publish_units(args, kwargs, result):
    update = args[0]
    return {
        "kb.segments_written": update.n_written,
        "kb.segments_reused": update.n_reused + update.n_unchanged,
    }


def _file_bytes(args, kwargs):
    try:
        return {"atomic.bytes": os.path.getsize(args[0])}
    except OSError:
        return {}


class _SnapshotRename:
    """Names a ``KBStore.snapshot`` call ``snapshot.reload`` when the
    generation it returns differs from the one this process saw last."""

    def __init__(self) -> None:
        self._seen: Dict[int, Tuple[int, Optional[str]]] = {}

    def __call__(self, args, kwargs, result):
        generation = getattr(result, "generation", None)
        key = id(args[0])
        previous = self._seen.get(key)
        self._seen[key] = (os.getpid(), generation)
        if previous == (os.getpid(), generation):
            return "snapshot"
        return "snapshot.reload"


def _matched(args, kwargs, result):
    return {"query.segments_matched": 1 if len(result) else 0}


#: (module, attribute path, span name, kind, options).  ``kind`` is ``call``,
#: ``generator``, ``context``, ``counter`` or ``pool_init``.
PATCHES: Tuple[Tuple[str, str, str, str, Dict[str, Any]], ...] = (
    ("repro.pipeline.fonduer", "FonduerPipeline.run_streaming", "pipeline", "call", {}),
    ("repro.pipeline.fonduer", "FonduerPipeline.run_from_raw", "pipeline", "call", {}),
    ("repro.pipeline.fonduer", "FonduerPipeline.run", "pipeline", "call", {}),
    ("repro.engine.dag", "PipelineEngine.run_stage", "engine.run_stage", "call", {}),
    ("repro.engine.pool", "PersistentWorkerPool.__init__", "pool.task", "pool_init", {}),
    ("repro.engine.pool", "PersistentWorkerPool.imap", "pool.wave", "generator", {}),
    ("repro.engine.operators", "ParseOp.process", "parse", "call",
     {"units": _one("parse.docs")}),
    ("repro.engine.operators", "ParseOp.process_many", "parse", "call",
     {"units": _len_arg(1, "parse.docs")}),
    ("repro.engine.operators", "NodeTableOp.process", "nodes", "call", {}),
    ("repro.engine.operators", "NodeTableOp.process_many", "nodes", "call", {}),
    ("repro.engine.operators", "CandidateOp.process", "candidates", "call", {}),
    ("repro.engine.operators", "CandidateOp.process_many", "candidates", "call", {}),
    ("repro.engine.operators", "FeaturizeOp.process", "features", "call",
     {"units": _rows("features.rows")}),
    ("repro.engine.operators", "FeaturizeOp.process_many", "features", "call",
     {"units": _rows_many("features.rows")}),
    ("repro.engine.operators", "LabelOp.process", "labeling", "call",
     {"units": _rows("labeling.rows")}),
    ("repro.engine.operators", "LabelOp.process_many", "labeling", "call",
     {"units": _rows_many("labeling.rows")}),
    ("repro.engine.operators", "MarginalsOp.process", "label_model", "call", {}),
    ("repro.learning.trainer", "Trainer.fit", "trainer.fit", "call",
     {"rename": _fit_name, "units": _fit_units}),
    ("repro.learning.trainer", "Trainer.predict", "trainer.predict", "call", {}),
    ("repro.learning.trainer", "InMemoryBatchSource.batch", "trainer.batch", "call",
     {"units": _batch_units}),
    ("repro.learning.trainer", "CandidateBatchSource.batch", "trainer.batch", "call",
     {"units": _batch_units}),
    ("repro.learning.trainer", "SlabBatchSource.batch", "trainer.batch", "call",
     {"units": _batch_units}),
    ("repro.learning.trainer", "DenseLabelSource.batch", "label_model.batch", "call", {}),
    ("repro.learning.trainer", "SlabLabelSource.batch", "label_model.batch", "call", {}),
    ("repro.learning.trainer", "TrainerCheckpoint.save", "trainer.checkpoint", "call", {}),
    ("repro.storage.shards", "ShardStore.load_feature_slab", "shards.slab_load", "call", {}),
    ("repro.storage.shards", "ShardStore.load_label_slab", "shards.slab_load", "call", {}),
    ("repro.storage.shards", "ShardStore.load_marginal_slab", "shards.slab_load", "call", {}),
    ("repro.storage.shards", "ShardStore.load_docs", "shards.load", "call", {}),
    ("repro.storage.shards", "ShardStore.load_node_slab", "shards.load", "call", {}),
    ("repro.storage.shards", "ShardStore.load_candidates", "shards.load", "call", {}),
    ("repro.storage.shards", "ShardStore.load_candidates_meta", "shards.load", "call", {}),
    ("repro.storage.shards", "ShardStore.write_docs", "shards.slab_write", "call", {}),
    ("repro.storage.shards", "ShardStore.write_node_slab", "shards.slab_write", "call", {}),
    ("repro.storage.shards", "ShardStore.write_candidates", "shards.slab_write", "call", {}),
    ("repro.storage.shards", "ShardStore.write_feature_slab", "shards.slab_write", "call", {}),
    ("repro.storage.shards", "ShardStore.write_label_slab", "shards.slab_write", "call", {}),
    ("repro.storage.shards", "ShardStore.write_marginal_slab", "shards.slab_write", "call", {}),
    ("repro.storage.shards", "ShardStore.stage_complete", "shards.stage_complete", "call", {}),
    ("repro.storage.shards", "ShardStore.mark_stage", "shards.mark", "call", {}),
    ("repro.storage.shards", "ShardStore.invalidate_stage", "shards.mark", "call", {}),
    ("repro.storage.shards", "ShardStore.verify_stage", "integrity.verify", "call", {}),
    ("repro.storage.atomic", "atomic_write", "atomic.write", "context",
     {"on_exit": _file_bytes}),
    ("repro.storage.atomic", "fsync_file", "", "counter",
     {"counter": _one("atomic.fsyncs")}),
    ("repro.storage.atomic", "fsync_dir", "", "counter", {"counter": _one("atomic.fsyncs")}),
    ("repro.kb.store", "KBUpdate.upsert", "kb.publish", "call", {}),
    ("repro.kb.store", "KBUpdate.publish", "kb.publish", "call", {"units": _publish_units}),
    ("repro.kb.store", "KBStore.snapshot", "snapshot", "call", {"rename": "snapshot"}),
    ("repro.kb.store", "KBSnapshot.query", "query", "call", {}),
    ("repro.kb.store", "Segment.match", "", "counter", {"counter": _matched}),
    ("repro.kb.arena", "MmapSegment.match", "", "counter", {"counter": _matched}),
    ("repro.kb.arena", "build_arena", "arena.build", "call", {}),
    ("repro.kb.query", "KBQuery.from_params", "server.parse", "call", {}),
    ("repro.kb.query", "KBQuery.canonical_key", "server.parse", "call", {}),
    ("repro.kb.query", "QueryResult.to_json", "serialize", "call", {}),
)


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _make(tracer: Tracer, func: Callable, name: str, kind: str,
          options: Dict[str, Any]) -> Callable:
    if kind == "generator":
        return tracer.wrap_generator(func, name)
    if kind == "context":
        return tracer.wrap_context(func, name, options.get("on_exit"))
    if kind == "counter":
        return tracer.wrap_counter(func, options["counter"])
    if kind == "pool_init":
        # The pool's handler runs inside its forked workers: wrapping it here
        # (before the fork) gives one worker-side span per task.
        @functools.wraps(func)
        def init(pool_self, handler, *args, **kwargs):
            traced = tracer.wrap(handler, name, force_flush=True)
            return func(pool_self, traced, *args, **kwargs)

        init.__perfbench_original__ = func
        return init
    rename = options.get("rename")
    if rename == "snapshot":
        rename = _SnapshotRename()
    return tracer.wrap(func, name, units=options.get("units"), rename=rename)


def install(tracer: Tracer) -> None:
    """Wrap every target in :data:`PATCHES`.

    A module-level function is re-bound in every loaded ``repro`` module
    that holds a reference to it, so callers that imported it by name see
    the wrapper too.
    """
    for module_name, path, name, kind, options in PATCHES:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        wrapped = _make(tracer, original, name, kind, options)
        tracer.patch(owner, attr, wrapped)
        if isinstance(owner, type):
            continue
        for module in list(sys.modules.values()):
            if (
                module is not owner
                and getattr(module, "__name__", "").startswith("repro")
                and getattr(module, attr, None) is original
            ):
                tracer.patch(module, attr, wrapped)


def trace_server(tracer: Tracer, server: Any) -> None:
    """Trace one server instance's response cache and JSON encoding.

    Called in the server process after the server object exists: the cache
    is a per-instance object, and the encoder is the ``json`` module the
    server module imported, re-bound to a namespace whose ``dumps`` is traced.
    """
    import types

    import repro.kb.server as server_module

    cache = server.response_cache
    if cache is not None:
        tracer.patch(cache, "get_or_load", tracer.wrap(cache.get_or_load, "server.cache"))
    real_json = server_module.json
    shim = types.SimpleNamespace(**{k: getattr(real_json, k) for k in dir(real_json)
                                    if not k.startswith("__")})
    shim.dumps = tracer.wrap(real_json.dumps, "serialize")
    tracer.patch(server_module, "json", shim)


def still_traced() -> List[str]:
    """Targets of :data:`PATCHES` that are still wrappers (should be none)."""
    left = []
    for module_name, path, _name, _kind, _options in PATCHES:
        owner, attr = _resolve(module_name, path)
        if hasattr(getattr(owner, attr), "__perfbench_original__"):
            left.append(f"{module_name}:{path}")
        if not isinstance(owner, type):
            for module in list(sys.modules.values()):
                value = getattr(module, attr, None) if getattr(
                    module, "__name__", "").startswith("repro") else None
                if hasattr(value, "__perfbench_original__"):
                    left.append(f"{module.__name__}:{attr}")
    return left


# ------------------------------------------------------------------ merging
class Span:
    __slots__ = ("pid", "sid", "parent", "name", "start", "end", "self_s", "parent_span")

    def __init__(self, pid: int, sid: int, parent: int, name: str, start: float,
                 end: float) -> None:
        self.pid, self.sid, self.parent, self.name = pid, sid, parent, name
        self.start, self.end = start, end
        self.self_s = end - start
        self.parent_span: Optional["Span"] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """All spans and counters of one traced phase, merged across processes."""

    def __init__(self, spans: List[Span], counters: Dict[str, float], n_files: int,
                 main_pid: int) -> None:
        self.spans = spans
        self.counters = counters
        self.n_files = n_files
        self.main_pid = main_pid
        self.pids = sorted({span.pid for span in spans})

    def named(self, name: str, main_only: bool = False) -> List[Span]:
        return [s for s in self.spans if s.name == name
                and (not main_only or s.pid == self.main_pid)]

    def within(self, span: Span, names: Tuple[str, ...]) -> bool:
        """Whether ``span`` has an ancestor named in ``names``."""
        parent = span.parent_span
        while parent is not None:
            if parent.name in names:
                return True
            parent = parent.parent_span
        return False


def load(out_dir: Path, main_pid: int) -> Trace:
    """Merge every per-pid span file under ``out_dir`` into one :class:`Trace`.

    Each span's self time is its duration minus the time its child spans (in
    the same process) cover.
    """
    spans: List[Span] = []
    counters: Dict[str, float] = {}
    files = sorted(Path(out_dir).glob("spans-*.jsonl"))
    for path in files:
        by_id: Dict[int, Span] = {}
        with open(path, encoding="utf-8") as source:
            for line in source:
                record = json.loads(line)
                pid = int(record["pid"])
                for sid, parent, name, start, end in record["spans"]:
                    span = Span(pid, sid, parent, name, start, end)
                    by_id[sid] = span
                    spans.append(span)
                for name, value in record["counters"].items():
                    counters[name] = counters.get(name, 0) + value
        for span in by_id.values():
            parent = by_id.get(span.parent)
            span.parent_span = parent
            if parent is not None:
                parent.self_s -= span.duration
    return Trace(spans, counters, len(files), main_pid)
