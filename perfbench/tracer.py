"""In-memory span tracer that wraps the calls into lola's layers.

The benchmark never edits the package. ``Tracer.install`` replaces each
probed function with a wrapper in every ``lola`` module namespace that binds
it (or, for the private scoring helper, in the one namespace named), and
``uninstall`` puts the originals back. Each wrapped call records one span:
name, start, end, parent span, op id (the trial, stream, sequence or suite
run it belongs to) and a row count. Spans live in flat arrays until the run
ends; the per-layer metrics are derived from them afterwards, and they are
written to an ``.npz`` file at exit.

A probe whose target no longer exists is reported as absent (``value`` is
``null`` and ``absent`` is true), never as zero.
"""

from __future__ import annotations

import array
import functools
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.op"


def _one_row(args):
    return 1


def _rows_of(pos):
    def rows(args):
        return int(np.shape(args[pos])[0])
    return rows


# (span name, defining module, attribute path, row counter, namespaces).
# ``namespaces`` None means every lola module that binds the same object.
PROBES = [
    ("numerics.validate", "lola.numerics", "as_vector", None, None),
    ("numerics.validate", "lola.numerics", "as_matrix", None, None),
    ("attention.feature_map", "lola.attention", "feature_map_apply", _one_row, None),
    ("attention.feature_map", "lola.attention", "feature_map_batch", _rows_of(1), None),
    ("attention.absorb", "lola.attention", "LinearState.update", _one_row, None),
    ("attention.absorb", "lola.attention", "LinearState.absorb", _rows_of(1), None),
    ("cache.update", "lola.cache", "LolaCache.update", None, None),
    ("cache.score", "lola.cache", "_self_recall_scores", _rows_of(0), ("lola.cache",)),
    ("cache.attend", "lola.cache", "LolaCache.attend", None, None),
    ("cache.accumulate", "lola.cache", "LolaCache.accumulate_window_scores", None, None),
    ("chunkwise.prefill", "lola.chunkwise", "prefill", None, None),
    ("chunkwise.score", "lola.cache", "_self_recall_scores", _rows_of(0), ("lola.chunkwise",)),
    ("chunkwise.attend_after_prefill", "lola.chunkwise", "attend_after_prefill", None, None),
    ("analysis.collision", "lola.analysis", "collision_matrix", None, None),
    ("analysis.rank_study", "lola.analysis", "rank_study", None, None),
    ("harness.eval_recall", "lola.harness.experiments", "eval_recall", None, None),
    ("harness.run_suite", "lola.harness.suite", "run_suite", None, None),
    ("harness.gen_niah", "lola.harness.synthetic", "gen_niah", None, None),
    ("harness.decode_answer", "lola.harness.experiments", "decode_answer", None, None),
    ("harness.io_write", "lola.harness.io", "write_rows_csv", None, None),
    ("harness.io_write", "lola.harness.io", "write_rows_json", None, None),
    ("harness.io_write", "lola.harness.io", "write_manifest", None, None),
    ("harness.io_write", "lola.harness.io", "sha256_file", None, None),
    ("harness.io_write", "lola.analysis", "write_collision_csv", None, None),
    ("harness.io_write", "lola.analysis", "write_gram_csv", None, None),
]

# artifact writers whose output size counts towards harness.io_bytes: position
# of the path argument. The manifest is timed but not counted: it records
# wall-clock timings, so its size changes between identical runs.
_WRITER_PATH_ARG = {
    "write_rows_csv": 0,
    "write_rows_json": 0,
    "write_collision_csv": 1,
    "write_gram_csv": 1,
}

LAYERS = ("numerics", "attention", "cache", "chunkwise", "analysis", "harness")

# Every per-layer metric in report order: (name, unit, span whose probe it
# needs). "_self_s" is time inside the span minus its child spans; a plain
# "_s" is inclusive time. A metric is absent when its span's probe is.
PER_LAYER_METRICS = [
    ("numerics.validate_calls", "count", "numerics.validate"),
    ("numerics.validate_self_s", "s", "numerics.validate"),
    ("attention.feature_map_calls", "count", "attention.feature_map"),
    ("attention.feature_map_rows", "count", "attention.feature_map"),
    ("attention.feature_map_self_s", "s", "attention.feature_map"),
    ("attention.absorb_rows", "count", "attention.absorb"),
    ("attention.absorb_self_s", "s", "attention.absorb"),
    ("attention.distill_s", "s", None),
    ("cache.update_calls", "count", "cache.update"),
    ("cache.update_self_s", "s", "cache.update"),
    ("cache.score_calls", "count", "cache.score"),
    ("cache.score_rows", "count", "cache.score"),
    ("cache.score_self_s", "s", "cache.score"),
    ("cache.score_rows_per_full_eviction", "count", "cache.score"),
    ("cache.attend_calls", "count", "cache.attend"),
    ("cache.attend_self_s", "s", "cache.attend"),
    ("cache.accumulate_calls", "count", "cache.accumulate"),
    ("cache.accumulate_self_s", "s", "cache.accumulate"),
    ("cache.evictions", "count", "cache.update"),
    ("cache.admit_ratio", "ratio", "cache.update"),
    ("cache.max_full_rank_pairs", "count", "cache.update"),
    ("chunkwise.prefill_calls", "count", "chunkwise.prefill"),
    ("chunkwise.prefill_self_s", "s", "chunkwise.prefill"),
    ("chunkwise.score_rows", "count", "chunkwise.score"),
    ("chunkwise.score_self_s", "s", "chunkwise.score"),
    ("chunkwise.attend_after_prefill_s", "s", "chunkwise.attend_after_prefill"),
    ("chunkwise.peak_full_rank", "count", "chunkwise.prefill"),
    ("analysis.collision_replays", "count", "analysis.collision"),
    ("analysis.collision_self_s", "s", "analysis.collision"),
    ("analysis.rank_study_s", "s", "analysis.rank_study"),
    ("harness.eval_recall_self_s", "s", "harness.eval_recall"),
    ("harness.run_suite_self_s", "s", "harness.run_suite"),
    ("harness.gen_niah_calls", "count", "harness.gen_niah"),
    ("harness.gen_niah_s", "s", "harness.gen_niah"),
    ("harness.decode_answer_s", "s", "harness.decode_answer"),
    ("harness.io_write_s", "s", "harness.io_write"),
    ("harness.io_bytes", "bytes", "harness.io_write"),
    *[(f"{layer}.self_s", "s", None) for layer in LAYERS],
    ("bench.self_s", "s", None),
    ("trace.ops", "count", None),
    ("trace.spans", "count", None),
    ("trace.untraced_s", "s", None),
    ("trace.traced_s", "s", None),
    ("trace.overhead_s", "s", None),
    ("trace.overhead_pct", "%", None),
]


class NullTracer:
    """Stand-in used for untraced runs: every hook is a no-op."""

    root_id = 0

    @staticmethod
    def open(name_id: int, rows: int = 0) -> int:
        return -1

    @staticmethod
    def close(idx: int) -> None:
        pass

    def set_op(self, op_id: int) -> None:
        pass


class Tracer(NullTracer):
    """Records spans from the probes that ``install`` puts in place."""

    def __init__(self):
        self.names: list[str] = [ROOT_SPAN]
        # per span: (name id, parent index, op id, rows) and (start, end)
        self._meta = array.array("q")
        self._times = array.array("d")
        self._op_box = [-1]
        self.evictions = 0
        self.admitted = 0
        self.max_full_rank_pairs = 0
        self.peak_full_rank = 0
        self.io_bytes = 0
        self.present: set[str] = set()
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

        # open/close run on every wrapped call, so they are closures over
        # locals rather than methods
        meta_extend, times, times_extend = self._meta.extend, self._times, self._times.extend
        stack = [-1]
        push, pop, op_box = stack.append, stack.pop, self._op_box

        def open(name_id: int, rows: int = 0) -> int:
            idx = len(times) >> 1
            meta_extend((name_id, stack[-1], op_box[0], rows))
            push(idx)
            times_extend((perf_counter(), 0.0))
            return idx

        def close(idx: int) -> None:
            times[2 * idx + 1] = perf_counter()
            pop()

        self.open, self.close = open, close

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def set_op(self, op_id: int) -> None:
        self._op_box[0] = op_id

    # -- probes ----------------------------------------------------------------

    def _wrapper(self, span: str, attr: str, fn, rows_of):
        nid = self.name_id(span)
        tracer, open, close = self, self.open, self.close
        if attr == "LolaCache.update":
            @functools.wraps(fn)
            def traced_update(engine, *args, **kwargs):
                # flag evictions that score a full sparse cache under a dynamic rule
                full = int(
                    engine.scoring.dynamic
                    and engine.sparse_capacity > 0
                    and engine.sparse_size == engine.sparse_capacity
                    and engine.window_size == engine.window_capacity
                )
                idx = open(nid, full)
                try:
                    return fn(engine, *args, **kwargs)
                finally:
                    close(idx)
                    event = engine.last_event
                    if event is not None and event.evicted_index is not None:
                        tracer.evictions += 1
                        tracer.admitted += bool((event.kept_indices == event.evicted_index).any())
                    tracer.max_full_rank_pairs = max(
                        tracer.max_full_rank_pairs, engine.window_size + engine.sparse_size
                    )
            return traced_update
        if attr == "prefill":
            @functools.wraps(fn)
            def traced_prefill(*args, **kwargs):
                idx = open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                tracer.peak_full_rank = max(tracer.peak_full_rank, result[1].peak_full_rank)
                return result
            return traced_prefill
        if attr in _WRITER_PATH_ARG:
            pos = _WRITER_PATH_ARG[attr]

            @functools.wraps(fn)
            def traced_writer(*args, **kwargs):
                idx = open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
                    path = args[pos] if len(args) > pos else kwargs.get("path")
                    if path is not None and os.path.exists(path):
                        tracer.io_bytes += os.path.getsize(path)
            return traced_writer
        if rows_of is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
            return traced

        @functools.wraps(fn)
        def traced_rows(*args, **kwargs):
            idx = open(nid, rows_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return traced_rows

    def install(self) -> None:
        lola_modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "lola" or name.startswith("lola."))
        ]
        # resolve every target before patching any: two probes may share one
        resolved = []
        for span, module_name, path, rows_of, namespaces in PROBES:
            head, _, attr = path.rpartition(".")
            owner = sys.modules.get(module_name)
            holder = getattr(owner, head, None) if head else owner
            original = getattr(holder, attr, None) if holder is not None else None
            resolved.append((span, module_name, path, rows_of, namespaces, head, holder, attr, original))
        for span, module_name, path, rows_of, namespaces, head, holder, attr, original in resolved:
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrapper(span, path, original, rows_of)
            if head:
                # a method: patch the class once, every instance sees it
                self._patch(holder, attr, original, wrapper)
                self.present.add(span)
                continue
            targets = (
                [sys.modules[n] for n in namespaces if n in sys.modules]
                if namespaces is not None else lola_modules
            )
            bound = False
            for module in targets:
                for name, value in list(vars(module).items()):
                    if value is original and (namespaces is None or name == attr):
                        self._patch(module, name, original, wrapper)
                        bound = True
            if bound:
                self.present.add(span)
            else:
                self.missing.append(f"{module_name}.{path} in {namespaces}")

    def _patch(self, holder, name, original, wrapper) -> None:
        self._restore.append((holder, name, original))
        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, name, original = self._restore.pop()
            setattr(holder, name, original)

    # -- derivation ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        meta = np.frombuffer(self._meta, dtype=np.int64).reshape(-1, 4)
        times = np.frombuffer(self._times, dtype=np.float64).reshape(-1, 2)
        return {
            "name": meta[:, 0].copy(),
            "parent": meta[:, 1].copy(),
            "op": meta[:, 2].copy(),
            "rows": meta[:, 3].copy(),
            "start": times[:, 0].copy(),
            "end": times[:, 1].copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, distill_s: float, plain, seen) -> dict:
        """Per-layer metrics derived from the recorded spans, each ``(value, unit)``;
        ``value`` is None for metrics whose probe target is absent. ``plain`` and
        ``seen`` are the untraced and traced measurements of the same calls."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        self_t = dur - np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)

        def of(span):
            return a["name"] == self.name_id(span)

        def calls(span):
            return int(of(span).sum())

        def rows(span):
            return int(a["rows"][of(span)].sum())

        def self_s(span):
            return float(self_t[of(span)].sum())

        def total_s(span):
            return float(dur[of(span)].sum())

        flagged = np.flatnonzero(of("cache.update") & (a["rows"] == 1))
        full_rows = int(a["rows"][of("cache.score") & np.isin(a["parent"], flagged)].sum())
        layer_of = np.array([n.split(".", 1)[0] for n in self.names])[a["name"]]

        values = {
            "numerics.validate_calls": calls("numerics.validate"),
            "numerics.validate_self_s": self_s("numerics.validate"),
            "attention.feature_map_calls": calls("attention.feature_map"),
            "attention.feature_map_rows": rows("attention.feature_map"),
            "attention.feature_map_self_s": self_s("attention.feature_map"),
            "attention.absorb_rows": rows("attention.absorb"),
            "attention.absorb_self_s": self_s("attention.absorb"),
            "attention.distill_s": distill_s,
            "cache.update_calls": calls("cache.update"),
            "cache.update_self_s": self_s("cache.update"),
            "cache.score_calls": calls("cache.score"),
            "cache.score_rows": rows("cache.score"),
            "cache.score_self_s": self_s("cache.score"),
            "cache.score_rows_per_full_eviction": full_rows / flagged.size if flagged.size else 0.0,
            "cache.attend_calls": calls("cache.attend"),
            "cache.attend_self_s": self_s("cache.attend"),
            "cache.accumulate_calls": calls("cache.accumulate"),
            "cache.accumulate_self_s": self_s("cache.accumulate"),
            "cache.evictions": self.evictions,
            "cache.admit_ratio": self.admitted / self.evictions if self.evictions else 0.0,
            "cache.max_full_rank_pairs": self.max_full_rank_pairs,
            "chunkwise.prefill_calls": calls("chunkwise.prefill"),
            "chunkwise.prefill_self_s": self_s("chunkwise.prefill"),
            "chunkwise.score_rows": rows("chunkwise.score"),
            "chunkwise.score_self_s": self_s("chunkwise.score"),
            "chunkwise.attend_after_prefill_s": total_s("chunkwise.attend_after_prefill"),
            "chunkwise.peak_full_rank": self.peak_full_rank,
            "analysis.collision_replays": calls("analysis.collision"),
            "analysis.collision_self_s": self_s("analysis.collision"),
            "analysis.rank_study_s": total_s("analysis.rank_study"),
            "harness.eval_recall_self_s": self_s("harness.eval_recall"),
            "harness.run_suite_self_s": self_s("harness.run_suite"),
            "harness.gen_niah_calls": calls("harness.gen_niah"),
            "harness.gen_niah_s": total_s("harness.gen_niah"),
            "harness.decode_answer_s": total_s("harness.decode_answer"),
            "harness.io_write_s": total_s("harness.io_write"),
            "harness.io_bytes": self.io_bytes,
            **{f"{layer}.self_s": float(self_t[layer_of == layer].sum()) for layer in LAYERS},
            "bench.self_s": float(self_t[layer_of == "bench"].sum()),
            "trace.ops": seen.attempted,
            "trace.spans": int(dur.size),
            "trace.untraced_s": plain.busy_s,
            "trace.traced_s": seen.busy_s,
            "trace.overhead_s": seen.busy_s - plain.busy_s,
            # from the median call time relative to the reference kernel,
            # which other tenants' load leaves alone
            "trace.overhead_pct": 100.0 * (np.median(seen.relative()) / np.median(plain.relative()) - 1.0),
        }
        return {
            name: (values[name] if span is None or span in self.present else None, unit)
            for name, unit, span in PER_LAYER_METRICS
        }
