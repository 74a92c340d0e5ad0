"""In-memory span tracing of calls into the program's public functions.

A span is one call: name, start, end and the span that was open when it
began.  Functions are wrapped where their callers look them up: every
`odse` module attribute that holds the function gets its own wrapper,
named `<defining module>.<function>@<caller module>`, so a span also
says through which module the call came.  The wrappers are bound only
in the traced worker process; no program file is changed.

Spans live in flat arrays while the workload runs and are written out
once it ends.  A span opened on a pool thread with nothing open on that
thread takes as parent the span open on the main thread: the program
starts its thread pools only from the main thread.

A function called once per sequence (`AlignmentCostModel.encode`, some
10^5 calls a run) is a counted leaf instead: its calls and time are
summed, and its time is subtracted from the enclosing span's self time,
but it keeps no span of its own.  This holds the trace to about one
span per embedded row.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.thread = array("q")
        self.start = array("d")
        self.end = array("d")
        self.cover = array("d")  # time of counted leaves inside each span
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._pairs: set[int] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._threads: dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _open(self, name_id: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            tid = self._threads.setdefault(threading.get_ident(), len(self._threads))
            sid = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.thread.append(tid)
            self.end.append(math.nan)
            self.cover.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished root span timed before tracing began."""
        with self._lock:
            self.name.append(self._name_id(name))
            self.parent.append(-1)
            self.thread.append(self._threads.setdefault(threading.get_ident(), len(self._threads)))
            self.cover.append(0.0)
            self.start.append(start)
            self.end.append(end)

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, fn, name: str, hook=None, keep_spans=True):
        if not keep_spans:
            return self._wrap_counted(fn, name, hook)
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            sid = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, out)
            finally:
                self._close(sid)
            return out

        return _like(traced, fn)

    def _wrap_counted(self, fn, name: str, hook):
        calls, total = f"{name}.calls", f"{name}.total_s"

        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, out)
            dur = time.perf_counter() - t0
            stack = self._stack()
            if stack:
                self.cover[stack[-1]] += dur
            with self._lock:
                self.counters[calls] = self.counters.get(calls, 0) + 1
                self.counters[total] = self.counters.get(total, 0.0) + dur
            return out

        return _like(counted, fn)

    def install(self, targets) -> None:
        """Wrap each (module, function, hook, keep_spans) target of the
        `odse` package.  `function` may be `Class.method`.  A target that
        no longer exists is listed in `missing`."""
        for module_name, attr, hook, keep_spans in targets:
            module = sys.modules.get(f"odse.{module_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, fn_name, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if owner_name:
                wrapped = self.wrap(fn, f"{module_name}.{attr}", hook, keep_spans)
                setattr(owner, fn_name, wrapped)
                continue
            for caller_name, caller in list(sys.modules.items()):
                if caller_name.split(".")[0] == "odse" and getattr(caller, fn_name, None) is fn:
                    via = caller_name.rpartition(".")[2]
                    wrapped = self.wrap(fn, f"{module_name}.{attr}@{via}", hook, keep_spans)
                    setattr(caller, fn_name, wrapped)

    # -- hooks that count work where it is done -----------------------------

    def pair_seen(self, query_id: str, target_id: str, cost_key) -> bool:
        a, b = (query_id, target_id) if query_id <= target_id else (target_id, query_id)
        key = hash((a, b, cost_key))
        if key in self._pairs:
            return True
        self._pairs.add(key)
        return False

    # -- summary -----------------------------------------------------------

    def summarize(self, limit: int | None = None) -> dict:
        """Per-name count, total time, self time and median duration of
        the first `limit` spans; raises if a span lies outside its
        parent's interval."""
        n = len(self.start) if limit is None else limit
        start = np.frombuffer(self.start, dtype=np.float64)[:n].copy()
        end = np.frombuffer(self.end, dtype=np.float64)[:n].copy()
        parent = np.frombuffer(self.parent, dtype=np.int64)[:n].copy()
        thread = np.frombuffer(self.thread, dtype=np.int64)[:n].copy()
        name = np.frombuffer(self.name, dtype=np.int64)[:n].copy()
        if np.isnan(end).any():
            raise AssertionError("a span was still open when tracing ended")
        dur = end - start
        has_parent = parent >= 0
        p = parent[has_parent]
        if np.any(start[has_parent] < start[p]) or np.any(end[has_parent] > end[p]):
            raise AssertionError("spans do not nest: a child lies outside its parent")
        # children on the parent's own thread run one after another, so
        # their cover is the sum of their durations; children on pool
        # threads may overlap and are merged as intervals
        covered = np.frombuffer(self.cover, dtype=np.float64)[:n].copy()
        same = has_parent.copy()
        same[has_parent] = thread[has_parent] == thread[p]
        np.add.at(covered, parent[same], dur[same])
        cross = np.flatnonzero(has_parent & ~same)
        by_parent: dict[int, list[tuple[float, float]]] = {}
        for i in cross:
            by_parent.setdefault(int(parent[i]), []).append((start[i], end[i]))
        for pid, spans in by_parent.items():
            spans.sort()
            union, cur_lo, cur_hi = 0.0, spans[0][0], spans[0][1]
            for lo, hi in spans[1:]:
                if lo > cur_hi:
                    union += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            covered[pid] += union + cur_hi - cur_lo
        self_time = dur - covered
        out = {}
        for nid, nm in enumerate(self.names):
            mask = name == nid
            if mask.any():
                out[nm] = {
                    "count": int(mask.sum()),
                    "total_s": float(dur[mask].sum()),
                    "self_s": float(self_time[mask].sum()),
                    "p50_s": float(np.median(dur[mask])),
                }
        return out

    def write(self, path, limit: int | None = None) -> None:
        n = len(self.start) if limit is None else limit
        t0 = min(self.start[:n]) if n else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,thread,name,start_s,end_s\n")
            for i in range(n):
                fh.write(
                    f"{i},{self.parent[i]},{self.thread[i]},{self.names[self.name[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )


def _like(wrapper, fn):
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", wrapper.__name__)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


# ---------------------------------------------------------------------------
# what the benchmark wraps, and the per-layer metrics built from it


def _rows_hook(tracer, args, out):
    query, proto_mat, proto_lens = args[0], args[1], args[2]
    n_targets, width = proto_mat.shape
    tracer.count("alignment.cells", len(query) * int(proto_lens.sum()))
    tracer.count("alignment.cells_padded", len(query) * n_targets * width)


def _pairs_hook(tracer, args, out):
    query, targets, cm = args[0], args[1], args[2]
    cost_key = (cm.gap_cost, cm.normalization)
    reused = sum(1 for t in targets if tracer.pair_seen(query.id, t.id, cost_key))
    tracer.count("alignment.pairs", len(targets))
    tracer.count("alignment.pairs_reused", reused)


def _encode_hook(tracer, args, out):
    tracer.count("alignment.symbols_encoded", len(out))


def _vector_entropy_hook(tracer, args, out):
    tracer.count("entropy.vector_saturated", 1 if out.normalized >= 1.0 else 0)


def _classify_all_hook(tracer, args, out):
    tracer.count("model.prototypes", len(args[0].representation))


TARGETS = (
    ("sequences", "read_fasta", None, True),
    ("datasets", "load_dataset", None, True),
    ("datasets", "make_split", None, True),
    ("datasets", "k_medoids", None, True),
    ("alignment", "alignment_cost_rows", _rows_hook, True),
    ("alignment", "dissimilarities_to_targets", _pairs_hook, True),
    ("alignment", "AlignmentCostModel.encode", _encode_hook, False),
    ("embedding", "compute_matrix", None, True),
    ("embedding", "embed_one", None, True),
    ("entropy", "normalized_column_entropy", None, True),
    ("entropy", "normalized_vector_entropy", _vector_entropy_hook, True),
    ("classifiers", "smo_solve", None, True),
    ("classifiers", "svm_predict", None, True),
    ("classifiers", "knn_label_from_distances", None, True),
    ("model", "synthesize_instance", None, True),
    ("model", "compress", None, True),
    ("model", "expand", None, True),
    ("model", "save_model", None, True),
    ("model", "load_model", None, True),
    ("model", "classify_all", _classify_all_hook, True),
)

# per-layer metric -> (unit, better, spans it needs)
PER_LAYER = {
    "odse.import_s": ("s", "lower", ()),
    "sequences.read_fasta_s": ("s", "lower", ("sequences.read_fasta",)),
    "datasets.load_dataset_s": ("s", "lower", ("datasets.load_dataset",)),
    "model.load_s": ("s", "lower", ("model.load_model",)),
    "datasets.make_split_s": ("s", "lower", ("datasets.make_split",)),
    "datasets.k_medoids_s": ("s", "lower", ("datasets.k_medoids",)),
    "alignment.calls": ("count", "lower", ("alignment.alignment_cost_rows",)),
    "alignment.cells": ("count", "lower", ("alignment.alignment_cost_rows",)),
    "alignment.cells_padded": ("count", "lower", ("alignment.alignment_cost_rows",)),
    "alignment.pad_efficiency": ("ratio", "higher", ("alignment.alignment_cost_rows",)),
    "alignment.busy_s": ("s", "lower", ("alignment.alignment_cost_rows",)),
    "alignment.mcells_per_s": ("Mcell/s", "higher", ("alignment.alignment_cost_rows",)),
    "alignment.pair_reuse": ("ratio", "lower", ("alignment.dissimilarities_to_targets",)),
    "alignment.encode_s": ("s", "lower", ("alignment.AlignmentCostModel.encode",)),
    "alignment.symbols_encoded": ("count", "lower", ("alignment.AlignmentCostModel.encode",)),
    "embedding.rows": ("count", "lower", ("embedding.embed_one",)),
    "embedding.compute_matrix_s": ("s", "lower", ("embedding.compute_matrix",)),
    "embedding.self_s": ("s", "lower", ("embedding.compute_matrix", "embedding.embed_one")),
    "process.cpu_util": ("ratio", "higher", ()),
    "entropy.column_calls": ("count", "lower", ("entropy.normalized_column_entropy",)),
    "entropy.column_s": ("s", "lower", ("entropy.normalized_column_entropy",)),
    "entropy.vector_s": ("s", "lower", ("entropy.normalized_vector_entropy",)),
    "entropy.vector_saturated": ("count", "lower", ("entropy.normalized_vector_entropy",)),
    "classifiers.smo_calls": ("count", "lower", ("classifiers.smo_solve",)),
    "classifiers.smo_s": ("s", "lower", ("classifiers.smo_solve",)),
    "classifiers.svm_predict_s": ("s", "lower", ("classifiers.svm_predict",)),
    "classifiers.knn_s": ("s", "lower", ("classifiers.knn_label_from_distances",)),
    "model.genomes": ("count", "higher", ("model.synthesize_instance",)),
    "model.genome_p50_s": ("s", "lower", ("model.synthesize_instance",)),
    "model.compress_s": ("s", "lower", ("model.compress",)),
    "model.expand_s": ("s", "lower", ("model.expand",)),
    "model.save_s": ("s", "lower", ("model.save_model",)),
    "model.classify_all_s": ("s", "lower", ("model.classify_all",)),
    "model.prototypes": ("count", "lower", ("model.classify_all",)),
    "experiment.input_tables_s": ("s", "lower", ("embedding.compute_matrix",)),
    "experiment.resamples": ("count", "higher", ("datasets.make_split",)),
}


def per_layer_metrics(tracer: Tracer, summary: dict, cpu_util: float) -> dict:
    """Per-layer metric values; a metric whose wrapped function is gone
    is left out."""

    def spans(prefix: str, via: str | None = None) -> list[dict]:
        return [
            v for k, v in summary.items()
            if k.partition("@")[0] == prefix and (via is None or k.partition("@")[2] == via)
        ]

    def total(prefix, field="total_s", via=None) -> float:
        return float(sum(v[field] for v in spans(prefix, via)))

    def counter(key) -> float:
        return tracer.counters.get(key, 0.0)

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    cells, busy = counter("alignment.cells"), total("alignment.alignment_cost_rows")
    genome_spans = spans("model.synthesize_instance")
    classify_calls = total("model.classify_all", "count")
    values = {
        "odse.import_s": total("odse.import"),
        "sequences.read_fasta_s": total("sequences.read_fasta"),
        "datasets.load_dataset_s": total("datasets.load_dataset"),
        "model.load_s": total("model.load_model"),
        "datasets.make_split_s": total("datasets.make_split"),
        "datasets.k_medoids_s": total("datasets.k_medoids"),
        "alignment.calls": total("alignment.alignment_cost_rows", "count"),
        "alignment.cells": cells,
        "alignment.cells_padded": counter("alignment.cells_padded"),
        "alignment.pad_efficiency": ratio(cells, counter("alignment.cells_padded")),
        "alignment.busy_s": busy,
        "alignment.mcells_per_s": ratio(cells, busy) / 1e6,
        "alignment.pair_reuse": ratio(counter("alignment.pairs_reused"), counter("alignment.pairs")),
        "alignment.encode_s": counter("alignment.AlignmentCostModel.encode.total_s"),
        "alignment.symbols_encoded": counter("alignment.symbols_encoded"),
        "embedding.rows": total("embedding.embed_one", "count"),
        "embedding.compute_matrix_s": total("embedding.compute_matrix"),
        "embedding.self_s": total("embedding.compute_matrix", "self_s")
        + total("embedding.embed_one", "self_s"),
        "process.cpu_util": cpu_util,
        "entropy.column_calls": total("entropy.normalized_column_entropy", "count"),
        "entropy.column_s": total("entropy.normalized_column_entropy"),
        "entropy.vector_s": total("entropy.normalized_vector_entropy"),
        "entropy.vector_saturated": counter("entropy.vector_saturated"),
        "classifiers.smo_calls": total("classifiers.smo_solve", "count"),
        "classifiers.smo_s": total("classifiers.smo_solve"),
        "classifiers.svm_predict_s": total("classifiers.svm_predict"),
        "classifiers.knn_s": total("classifiers.knn_label_from_distances"),
        "model.genomes": total("model.synthesize_instance", "count"),
        # synthesize_instance is reached only through model, so one name
        "model.genome_p50_s": genome_spans[0]["p50_s"] if genome_spans else 0.0,
        "model.compress_s": total("model.compress"),
        "model.expand_s": total("model.expand"),
        "model.save_s": total("model.save_model"),
        "model.classify_all_s": total("model.classify_all"),
        "model.prototypes": ratio(counter("model.prototypes"), classify_calls),
        "experiment.input_tables_s": total("embedding.compute_matrix", via="experiment"),
        "experiment.resamples": total("datasets.make_split", "count", via="experiment"),
    }
    gone = set(tracer.missing)
    return {k: v for k, v in values.items() if gone.isdisjoint(PER_LAYER[k][2])}
