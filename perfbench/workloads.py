"""The four benchmark workloads.

Each is a closed loop with one client: the next call is issued only after
the previous one returns. ``setup`` builds the feature map and the inputs
from the seed; ``measure`` runs calls until its budget is spent, times each
call, checks every output and returns a ``Measurement``. Checks run outside
the timed region. The engine only ever receives the generated arrays.
"""

from __future__ import annotations

import array
import copy
import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import lola.analysis as AN
import lola.attention as AT
import lola.cache as CA
import lola.chunkwise as CW
from lola.harness import experiments as EX
from lola.harness import suite as SU
from lola.harness import synthetic as SY
from lola.numerics import SeededRng

ORACLE_TOL = 1e-12
HULL_TOL = 1e-9


class TimeBudget:
    """Run until ``seconds`` of wall time have passed."""

    def __init__(self, seconds: float):
        self.deadline = perf_counter() + seconds

    def expired(self) -> bool:
        return perf_counter() >= self.deadline

    def more(self, done: int) -> bool:
        return not self.expired()


class CountBudget:
    """Run exactly ``ops`` operations; used by the traced run so its counts repeat."""

    def __init__(self, ops: int):
        self.ops = ops

    def expired(self) -> bool:
        return False

    def more(self, done: int) -> bool:
        return done < self.ops


class ReferenceKernel:
    """A fixed piece of work that does not touch lola: small matrix-vector
    products, exponentials and Python arithmetic, then a few medium products,
    row norms and a lexsort, the two kinds of work an engine step mixes. With
    ``text`` it also formats a block of floats as CSV, for workloads whose
    calls mostly write CSV.

    Other tenants of a shared machine slow whole stretches of a run, for
    seconds to minutes, by up to 1.9x. Timing this kernel next to the
    measured calls gives the machine's speed at that moment, and a call's time
    divided by it stays put when the machine slows.
    """

    def __init__(self, text: bool = False):
        gen = np.random.default_rng(0)
        self._a = gen.normal(size=(64, 64)) / 8.0
        self._b = gen.normal(size=(128, 16))
        self._m = gen.normal(size=(257, 128)) * 0.1
        self._h = gen.normal(size=(128, 64)) * 0.1
        self._idx = np.arange(257)
        self._cells = gen.normal(size=(24, 64)) if text else None

    def __call__(self) -> float:
        t0 = perf_counter()
        v = np.ones(64)
        acc = 0.0
        for i in range(100):
            v = self._a @ v
            v = v / np.linalg.norm(v)
            acc += float(np.exp(self._b @ v[:16] * 0.1).sum()) + i * 0.5
        for _ in range(8):
            scores = np.linalg.norm(self._m @ self._h, axis=1)
            order = np.lexsort((self._idx, -scores))
            acc += float(self._m[order[:256]].sum())
        if self._cells is not None:
            writer = csv.writer(io.StringIO())
            for row in self._cells:
                writer.writerow([repr(float(x)) for x in row])
        return perf_counter() - t0


class Measurement:
    """Latencies of the timed calls, with the reference kernel timed between
    them after every ``REF_EVERY_S`` of calls, plus outcome bookkeeping."""

    REF_EVERY_S = 0.05

    def __init__(self, reference: ReferenceKernel):
        # flat arrays rather than lists, so that memory does not grow with the
        # call rate by more than 8 bytes a sample and peak_rss_mb stays put
        self.latencies = array.array("d")  # seconds per timed call
        self.refs = array.array("d")       # reference kernel timings
        self.ref_before = array.array("q") # per call: index of the reference timed just before it
        self.units = 0                     # work done: trials, tokens, sequences, suite runs
        self.attempted = 0                 # operations counted for error_rate
        self.failures: list = []           # (op, message)
        self.signature: list = []          # outputs the traced run must reproduce
        self.details: dict = {}
        self._reference = reference
        self._since_ref = 0.0
        self.refs.append(reference())

    def record(self, latency: float) -> None:
        self.latencies.append(latency)
        self.ref_before.append(len(self.refs) - 1)
        self._since_ref += latency
        if self._since_ref >= self.REF_EVERY_S:
            self._since_ref = 0.0
            self.refs.append(self._reference())

    def finish(self) -> None:
        if self.ref_before and self.ref_before[-1] == len(self.refs) - 1:
            self.refs.append(self._reference())

    @property
    def failed(self) -> int:
        return len({op for op, _ in self.failures})

    @property
    def busy_s(self) -> float:
        return math.fsum(self.latencies)

    def relative(self) -> np.ndarray:
        """Each call's time over the mean of the reference timings on either side of it."""
        refs = np.asarray(self.refs)
        before = np.asarray(self.ref_before)
        return np.asarray(self.latencies) / (0.5 * (refs[before] + refs[before + 1]))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _hull_violation(outputs: np.ndarray, values: np.ndarray) -> float:
    """Largest distance by which output t leaves the per-coordinate hull of values 1..t."""
    lo = np.minimum.accumulate(values, axis=0)
    hi = np.maximum.accumulate(values, axis=0)
    return float(max(np.max(lo - outputs, initial=0.0), np.max(outputs - hi, initial=0.0)))


def _outside(y: np.ndarray, values: np.ndarray) -> float:
    """Largest distance by which ``y`` leaves the per-coordinate hull of all ``values``."""
    return float(max(np.max(values.min(axis=0) - y), np.max(y - values.max(axis=0))))


def _oracle_gap(outputs, qs, ks, vs, scale) -> float:
    ref = AT.softmax_attention_oracle(qs, ks, vs, scale)
    return float(np.max(np.abs(outputs - ref)))


def _distill(task, attn, seed):
    """The workload's feature map, distilled as the harness does it."""
    return EX.resolve_feature_map(EX.ExperimentConfig(seed=seed), task, attn)


class Workload:
    name = ""
    op_name = ""                   # what one latency sample times
    REPORTED: dict[str, str] = {}  # the workload's own end-to-end figures: name -> unit
    REFERENCE_TEXT = False         # whether its ReferenceKernel formats CSV text too

    def setup(self, seed: int, work: Path) -> float:
        """Build inputs; returns the seconds spent distilling the feature map."""
        raise NotImplementedError

    def warmup(self, tracer, reference) -> None:
        """One untimed call so lazy set-up is done before timing starts."""
        self.measure(CountBudget(1), tracer, reference)

    def trace_ops(self, seconds: int) -> int:
        """Fixed operation count for the traced run, sized so that the untraced and
        traced passes together take about ``seconds`` at the seed commit."""
        raise NotImplementedError

    def measure(self, budget, tracer, reference) -> Measurement:
        raise NotImplementedError

    def report(self, m: Measurement) -> dict[str, float]:
        """Values for every name in ``REPORTED``."""
        raise NotImplementedError


class RecallBatch(Workload):
    """eval_recall on the acceptance-criteria 05/06 shape, one trial per call."""

    name = "recall-batch"
    op_name = "trial"
    N, D, CODEBOOK, ETA, LAM = 512, 16, 16, 64, 64
    MINORITY = "lola-altscore:overestimate"  # every fourth trial
    REPORTED = {
        "recall_trials_per_s": "trials/s",
        "recall_accuracy": "fraction",
        "recall_accuracy_lola": "fraction",
        "recall_accuracy_overestimate": "fraction",
    }

    def setup(self, seed, work):
        self.seed = seed
        self.task = SY.SyntheticTaskSpec(
            haystack_len=self.N, head_dim=self.D, key_distribution="clustered",
            value_codebook_size=self.CODEBOOK, seed=seed,
        )
        self.attn = AT.AttentionConfig(self.D)
        t0 = perf_counter()
        params = _distill(self.task, self.attn, seed)
        distill_s = perf_counter() - t0
        # eval_recall distills per experiment seed; a saved map lets every call
        # draw fresh trials from its own seed without distilling again
        self.map_path = work / "recall-feature-map.json"
        AT.save_feature_map(params, self.map_path)
        self.params = params
        return distill_s

    def policy(self, i: int) -> str:
        return self.MINORITY if i % 4 == 3 else "lola"

    def experiment(self, i: int) -> EX.ExperimentConfig:
        return EX.ExperimentConfig(
            policy=self.policy(i), window_capacity=self.ETA, sparse_capacity=self.LAM,
            trials=1, feature_map=str(self.map_path), seed=SeededRng(self.seed).child(1000, i).seed,
        )

    def trace_ops(self, seconds):
        return 4 * max(1, round(seconds * 2))

    def measure(self, budget, tracer, reference):
        m = Measurement(reference)
        hits = {"lola": [], self.MINORITY: []}
        i = 0
        while budget.more(i):
            exp = self.experiment(i)
            tracer.set_op(i)
            span = tracer.open(tracer.root_id)
            t0 = perf_counter()
            rec = EX.eval_recall(exp, self.task, name=exp.policy)
            t1 = perf_counter()
            tracer.close(span)
            m.record(t1 - t0)
            m.units += 1
            m.attempted += 1
            problems = []
            if rec.trials != 1 or rec.accuracy not in (0.0, 1.0):
                problems.append(f"record reports {rec.trials} trials at accuracy {rec.accuracy}")
            if rec.effective_cache_size != self.ETA + self.LAM:
                problems.append(f"effective cache size {rec.effective_cache_size}")
            if not (math.isfinite(rec.mean_self_recall_error) and rec.mean_self_recall_error >= 0):
                problems.append(f"mean self-recall error {rec.mean_self_recall_error}")
            if i in (0, 3):
                problems += self._replay(exp, rec.accuracy == 1.0)
            m.failures += [(i, p) for p in problems]
            hits[exp.policy].append(rec.accuracy == 1.0)
            m.signature.append((exp.policy, rec.accuracy, rec.mean_self_recall_error))
            i += 1
        m.details = {
            "hits": sum(sum(h) for h in hits.values()),
            "trials": {p: len(h) for p, h in hits.items()},
            "accuracy": {p: (sum(h) / len(h) if h else None) for p, h in hits.items()},
        }
        m.finish()
        return m

    def _replay(self, exp, hit) -> list[str]:
        """Re-run one trial through the public engine API and check what
        eval_recall only summarizes: conservation, the hull, the decoded answer."""
        inst = SY.gen_niah(self.task, seed=SeededRng(exp.seed).child(100, 0).seed)
        engine = AN.engine_for_policy(exp.policy, self.attn, self.params, self.ETA, self.LAM)
        problems = []
        for t in range(inst.keys.shape[0]):
            engine.update(inst.keys[t], inst.values[t])
            if not engine.scoring.dynamic:
                engine.accumulate_window_scores(inst.keys[t])
            if engine.window_size + engine.sparse_size + engine.linear.count != t + 1:
                problems.append(f"replay: tiers hold {engine.window_size}+{engine.sparse_size}"
                                f"+{engine.linear.count} pairs at t={t + 1}")
                break
        answer = engine.attend(inst.probe)
        gap = _outside(answer, inst.values)
        if gap > HULL_TOL:
            problems.append(f"replay: probe answer leaves the value hull by {gap:.3g}")
        if (EX.decode_answer(answer, inst.codebook) == inst.target_value_id) != hit:
            problems.append("replay: decoded answer disagrees with eval_recall")
        return problems

    def report(self, m):
        acc = m.details["accuracy"]
        return {
            "recall_trials_per_s": m.units / m.busy_s,
            "recall_accuracy": m.details["hits"] / m.units,
            "recall_accuracy_lola": acc["lola"],
            "recall_accuracy_overestimate": acc[self.MINORITY],
        }


class DecodeLong(Workload):
    """One long stream through decode_step at the larger shape, queries separate from keys."""

    name = "decode-long"
    op_name = "decode_step"
    N, D, CODEBOOK, ETA, LAM = 4096, 64, 16, 64, 256
    QUERY_NOISE = 0.2
    REPORTED = {
        "decode_tokens_per_s": "tokens/s",
        "decode_token_p50_us": "us",
        "decode_token_p99_us": "us",
        "decode_token_samples": "count",
    }

    def setup(self, seed, work):
        task = SY.SyntheticTaskSpec(
            haystack_len=self.N, head_dim=self.D, key_distribution="clustered",
            value_codebook_size=self.CODEBOOK, seed=seed,
        )
        self.attn = AT.AttentionConfig(self.D)
        t0 = perf_counter()
        self.params = _distill(task, self.attn, seed)
        distill_s = perf_counter() - t0
        inst = SY.gen_niah(task, seed=seed)
        gen = SeededRng(seed).child(2).generator()
        self.ks, self.vs = inst.keys, inst.values
        # queries come from the same clusters as the keys, in another order
        self.qs = self.ks[gen.permutation(self.N)] + gen.normal(0.0, self.QUERY_NOISE, (self.N, self.D))
        return distill_s

    def warmup(self, tracer, reference):
        engine = CA.LolaCache(self.attn, self.params, self.ETA, self.LAM)
        for t in range(self.ETA + self.LAM + 64):
            engine.decode_step(self.qs[t], self.ks[t], self.vs[t])

    def trace_ops(self, seconds):
        return max(1, round(seconds / 10))

    def measure(self, budget, tracer, reference):
        m = Measurement(reference)
        full_digest = None
        stream = 0
        out = np.empty((self.N, self.D))
        while budget.more(stream):
            tracer.set_op(stream)
            m.attempted += 1
            engine = CA.LolaCache(self.attn, self.params, self.ETA, self.LAM)
            done = 0
            for t in range(self.N):
                if budget.expired():
                    break
                q, k, v = self.qs[t], self.ks[t], self.vs[t]
                span = tracer.open(tracer.root_id)
                t0 = perf_counter()
                y = engine.decode_step(q, k, v)
                t1 = perf_counter()
                tracer.close(span)
                m.record(t1 - t0)
                out[t] = y
                done += 1
                if engine.window_size + engine.sparse_size + engine.linear.count != t + 1:
                    m.failures.append((stream, f"tiers hold {engine.window_size}+{engine.sparse_size}"
                                               f"+{engine.linear.count} pairs at t={t + 1}"))
                    break
            m.units += done
            m.failures += [(stream, p) for p in self._check(out[:done])]
            if done == self.N:
                digest = _digest(out)
                if full_digest is None:
                    full_digest = digest
                elif digest != full_digest:
                    m.failures.append((stream, "a repeated stream gave different outputs"))
                m.signature.append(digest)
            stream += 1
        m.details = {"streams": stream, "decode_steps": len(m.latencies)}
        m.finish()
        return m

    def _check(self, out) -> list[str]:
        problems = []
        w = min(out.shape[0], self.ETA)
        if w:
            gap = _oracle_gap(out[:w], self.qs[:w], self.ks[:w], self.vs[:w], self.attn.scale)
            if gap > ORACLE_TOL:
                problems.append(f"first {w} outputs differ from the oracle by {gap:.3g}")
        gap = _hull_violation(out, self.vs[: out.shape[0]])
        if gap > HULL_TOL:
            problems.append(f"an output leaves the value hull by {gap:.3g}")
        return problems

    def report(self, m):
        lat_us = np.asarray(m.latencies) * 1e6
        return {
            "decode_tokens_per_s": m.units / m.busy_s,
            "decode_token_p50_us": float(np.percentile(lat_us, 50)),
            "decode_token_p99_us": float(np.percentile(lat_us, 99)),
            "decode_token_samples": lat_us.size,
        }


class PrefillLong(Workload):
    """Chunked prefill of long sequences, then one probe through attend_after_prefill."""

    name = "prefill-long"
    op_name = "sequence"
    N, D, CODEBOOK, CHUNK, LAM, POOL = 8192, 16, 16, 64, 64, 8
    REPORTED = {"prefill_tokens_per_s": "tokens/s", "recall_accuracy": "fraction"}

    def setup(self, seed, work):
        task = SY.SyntheticTaskSpec(
            haystack_len=self.N, head_dim=self.D, key_distribution="clustered",
            value_codebook_size=self.CODEBOOK, seed=seed,
        )
        self.attn = AT.AttentionConfig(self.D)
        self.cc = CW.ChunkConfig(self.CHUNK, self.LAM)
        t0 = perf_counter()
        self.params = _distill(task, self.attn, seed)
        distill_s = perf_counter() - t0
        base = SeededRng(seed)
        self.pool = [SY.gen_niah(task, seed=base.child(200, j).seed) for j in range(self.POOL)]
        return distill_s

    def trace_ops(self, seconds):
        return self.POOL * max(1, round(seconds * 1.1))

    def measure(self, budget, tracer, reference):
        m = Measurement(reference)
        first_digest = {}
        hits = 0
        i = 0
        lookback = 3 * self.CHUNK
        while budget.more(i):
            inst = self.pool[i % self.POOL]
            tracer.set_op(i)
            span = tracer.open(tracer.root_id)
            t0 = perf_counter()
            out, state = CW.prefill(inst.keys, inst.keys, inst.values, self.cc, self.attn, self.params)
            answer = CW.attend_after_prefill(state, inst.probe, self.attn, self.params)
            t1 = perf_counter()
            tracer.close(span)
            m.record(t1 - t0)
            m.units += self.N
            m.attempted += 1
            problems = []
            gap = _oracle_gap(out[:lookback], inst.keys[:lookback], inst.keys[:lookback],
                              inst.values[:lookback], self.attn.scale)
            if gap > ORACLE_TOL:
                problems.append(f"first {lookback} outputs differ from the oracle by {gap:.3g}")
            gap = max(_hull_violation(out, inst.values), _outside(answer, inst.values))
            if gap > HULL_TOL:
                problems.append(f"an output leaves the value hull by {gap:.3g}")
            stored = state.recent_indices.size + state.sparse_indices.size + state.linear.count
            if stored != self.N:
                problems.append(f"tiers hold {stored} pairs after {self.N} tokens")
            if state.peak_full_rank > CW.effective_cache_size(self.cc):
                problems.append(f"peak full-rank storage {state.peak_full_rank}")
            digest = _digest(out, answer)
            if first_digest.setdefault(i % self.POOL, digest) != digest:
                problems.append("a repeated sequence gave different outputs")
            m.failures += [(i, p) for p in problems]
            hit = EX.decode_answer(answer, inst.codebook) == inst.target_value_id
            hits += hit
            m.signature.append((digest, hit))
            i += 1
        m.details = {"sequences": i, "hits": hits}
        m.finish()
        return m

    def report(self, m):
        return {
            "prefill_tokens_per_s": m.units / m.busy_s,
            "recall_accuracy": m.details["hits"] / m.attempted,
        }


class SuiteAnalysis(Workload):
    """run_suite on the shipped collision-matrices and gram-study entries.

    At n=512 one suite run takes 4-5 s, so a 20 s measurement holds about five
    of them, too few to see past the machine noise described in README.md;
    the shipped n=128 gives about fifty short suite runs instead.
    """

    name = "suite-analysis"
    op_name = "run_suite"
    REPORTED = {"suite_wall_s": "s"}
    # most of a suite run formats CSV cells; against the numeric reference alone
    # its relative time still moved 7% between runs, against both 3%
    REFERENCE_TEXT = True
    # The shipped suite seed: the suite's own collision-ordering check fails on
    # other seeds (6 of seeds 0..29 at n=128, 5 of 0..11 at n=512), so --seed
    # does not re-key this workload's inputs.
    SUITE_SEED = SU.DEFAULT_SUITE["seed"]
    ENTRIES = ("collision-matrices", "gram-study")

    def setup(self, seed, work):
        shipped = {e["name"]: e for e in SU.DEFAULT_SUITE["experiments"]}
        self.config = {
            "seed": self.SUITE_SEED,
            "experiments": [copy.deepcopy(shipped[name]) for name in self.ENTRIES],
        }
        self.work = work
        collisions = shipped["collision-matrices"]
        task = SY.SyntheticTaskSpec(
            haystack_len=collisions["n"], head_dim=collisions["d"],
            key_distribution=collisions["distribution"],
            value_codebook_size=collisions["codebook"], seed=self.SUITE_SEED,
        )
        t0 = perf_counter()
        # the map the collisions runner resolves, so each timed run finds it distilled
        _distill(task, AT.AttentionConfig(task.head_dim), self.SUITE_SEED)
        return perf_counter() - t0

    def trace_ops(self, seconds):
        return max(1, round(seconds * 1.5))

    def measure(self, budget, tracer, reference):
        m = Measurement(reference)
        first = None
        i = 0
        while budget.more(i):
            out_dir = self.work / f"suite-run-{i}"
            tracer.set_op(i)
            span = tracer.open(tracer.root_id)
            t0 = perf_counter()
            status = SU.run_suite(self.config, out_dir=out_dir)
            t1 = perf_counter()
            tracer.close(span)
            m.record(t1 - t0)
            m.units += 1
            m.attempted += 1
            problems, files = self._check(status, out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
            if first is None:
                first = files
            elif files != first:
                problems.append("artifact checksums changed between identical runs")
            m.failures += [(i, p) for p in problems]
            m.signature.append(files)
            i += 1
        m.details = {"runs": i, "artifact_sha256": first}
        m.finish()
        return m

    def _check(self, status, out_dir):
        problems = []
        if status != 0:
            problems.append(f"run_suite exited {status}")
        manifests = list(out_dir.glob("suite-*/manifest.json"))
        if len(manifests) != 1:
            return problems + [f"expected one manifest, found {len(manifests)}"], {}
        manifest = json.loads(manifests[0].read_text())
        declared = {"collision-ordering", "gram-dominance"}
        checks = {c["check"]: c["passed"] for c in manifest["checks"]}
        if set(checks) != declared or not all(checks.values()):
            problems.append(f"suite checks {checks}")
        files = manifest["files"]
        if len(files) != 7:
            problems.append(f"expected 7 artifacts, manifest lists {len(files)}")
        for name, sha in files.items():
            path = manifests[0].parent / name
            if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != sha:
                problems.append(f"artifact {name} does not match its recorded sha256")
        return problems, files

    def report(self, m):
        return {"suite_wall_s": float(np.median(m.latencies))}


WORKLOADS = {w.name: w for w in (RecallBatch, DecodeLong, PrefillLong, SuiteAnalysis)}
