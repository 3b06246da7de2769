"""The benchmark's workloads: train, correct and data-decode.

A workload prepares seeded inputs several times (set-up), repeats one fixed
job until the run's seconds are spent, set-ups included, then checks what
the program returned. Jobs are fixed so that every repeat does identical
work: the quality figures must repeat exactly, and any difference is a
failed check. A failed operation ends the run once its minimum of jobs is
done, since the timings of a failing run are not used.

Every workload fills the same generic end-to-end metrics; what each one
means per workload is listed in README.md:

- ``job_s``: mean time of one job.
- ``throughput`` and ``throughput2``: the workload's two work rates.
- ``op_ms_p50`` and ``op_ms_p90``: latency of the workload's unit operation.

Their timings are divided by the run's machine slowdown (speed.py); the
report lines show them as measured.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import uuid
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
import oracle
from speed import MachineSpeed
from tracing import Patches, Tracer, observed
from postasr import (channel, datagen, evalkit, initialization, model, pipeline, training,
                     wordpiece)

TIME_METRICS = ("setup_s", "job_s", "op_ms_p50", "op_ms_p90")
RATE_METRICS = ("throughput", "throughput2")

# Inputs of `train` and `correct`: the small preset with a smaller corpus,
# so one gen-data takes about 2 s and set-up can be repeated.
BENCH_DATA = {"corpus": {"n_sentences": 400, "eval_fraction": 0.4},
              "channel": {"calibration_sentences": 32}}
TRAIN_STEPS = 22       # optimizer steps per job
TRAIN_MIN_JOBS = 5     # >= 110 steps, so >= 10 lie beyond p90
LOSS_TAIL = 10         # final steps averaged into loss_end

# Reference-token lengths of the corrected slice: 48 sentences whose total
# length, and hence decoding work, is the same for every seed. The median
# and the 90th percentile of the sentence times fall inside one length
# (10 and 14 tokens), not between two, where they would jump between them.
SLICE_QUOTAS = {5: 2, 6: 3, 7: 5, 8: 5, 9: 6, 10: 7, 11: 6, 12: 5, 13: 2, 14: 5, 15: 2}
WIDTHS = (1, 4)
CORRECT_MIN_JOBS = 3   # >= 144 sentences per width
ORACLE_EVERY = 8       # oracle-check every 8th sentence of the slice

# data-decode: the small preset with 600 sentences and 50 calibration
# sentences, so a pass of the five stages takes about 6 s (90 utterances)
# and several passes fit in a run.
DECODE_DATA = {"corpus": {"n_sentences": 600}, "channel": {"calibration_sentences": 50},
               "eval": {"pairs": pipeline.EVAL_PAIRS_FILE}}
DECODE_STAGES = ("gen-data", "vocab-build", "lm-fit", "decode", "eval")
DECODE_MIN_JOBS = 3    # >= 270 utterances; gen-data artifacts compared across passes
DECODE_SETUPS = 9      # a set-up is one 0.3 s interpreter start: take the median of many
MAX_PROBLEMS = 20      # failed checks reported by text; all are counted


@dataclasses.dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    metrics: dict = dataclasses.field(default_factory=dict)   # generic end-to-end
    report: dict = dataclasses.field(default_factory=dict)    # name -> (value, unit)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)


def p50_p90(values) -> tuple[float, float]:
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def cold_start(src_dir: Path) -> None:
    """A fresh interpreter importing the package, as each CLI stage does.

    No timeout: waiting with one polls every 50 ms, which would quantize
    the set-up time.
    """
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    subprocess.run([sys.executable, "-c", "import postasr.cli"], env=env, check=True)


def bench_data(seed: int, work: Path):
    """Run gen-data and vocab-build on the benchmark's inputs; returns the
    effective config, the vocabulary and the stage directory."""
    cfg = pipeline.effective_config("small", overrides={"seed": seed, **BENCH_DATA})
    out = Path(tempfile.mkdtemp(dir=work))
    pipeline.run_stage("gen-data", cfg, out)
    pipeline.run_stage("vocab-build", cfg, out)
    return cfg, wordpiece.Vocab.load(out / pipeline.VOCAB_FILE), out


class Workload:
    name = ""
    unit = ""          # what one per-layer unit is: a step, a sentence, a pass
    min_jobs = 1
    setups = 3         # set-ups per run; the median is reported
    setups_per_job = 1  # set-ups run after each job until all are done

    def __init__(self, seed: int, work: Path, src_dir: Path):
        self.seed = seed
        self.work = work
        self.src_dir = src_dir
        self.out = Outcome()
        self.digests: set[str] = set()
        self.speed = MachineSpeed()

    # -- overridden per workload ------------------------------------------
    def prepare(self) -> str:
        """Build the job's inputs; returns a digest of them."""
        raise NotImplementedError

    def job(self) -> None:
        """Run the job once, counting its operations in ``self.out``."""
        raise NotImplementedError

    def units_done(self) -> int:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks and end-to-end metrics from everything the jobs recorded.
        A metric without samples is left out; the run has failed then."""
        raise NotImplementedError

    # -- shared run loop ----------------------------------------------------
    def setup(self) -> float:
        """Prepare the inputs once, from a fresh interpreter's import on."""
        t = perf_counter()
        cold_start(self.src_dir)
        self.digests.add(self.prepare())
        seconds = perf_counter() - t
        self.speed.maybe_probe()
        return seconds

    def timed_job(self) -> float:
        """Run the job once; returns its seconds, machine-speed probes
        excluded. A raise out of the job counts as one failed operation."""
        t, probing = perf_counter(), self.speed.spent
        try:
            self.job()
        except Exception as e:
            self.out.attempted += 1
            self.out.fail(f"{self.name} job: {type(e).__name__}: {e}")
        return perf_counter() - t - (self.speed.spent - probing)

    def run_jobs(self, deadline: float, min_jobs: int, job=None,
                 after_job=lambda: None) -> list[float]:
        """Repeat ``job`` (default: the timed job) until ``min_jobs`` are
        done and either an operation failed or the next job, as long as
        the last, would end past ``deadline`` (a ``perf_counter`` time)."""
        job = job or self.timed_job
        times = []
        while True:
            times.append(job())
            after_job()
            if len(times) >= min_jobs and (
                    self.out.failed or perf_counter() + times[-1] > deadline):
                return times

    def check_setups(self) -> None:
        if len(self.digests) != 1:
            self.out.fail("set-up produced different inputs on repeats")

    def measure(self, seconds: float) -> Outcome:
        deadline = perf_counter() + seconds
        # The repeated set-ups sit between the first jobs, so that set-up
        # and jobs both sample the machine at several points of the run.
        setups = [self.setup()]

        def more_setups():
            for _ in range(self.setups_per_job):
                if len(setups) < self.setups:
                    setups.append(self.setup())

        min_jobs = max(self.min_jobs, math.ceil((self.setups - 1) / self.setups_per_job))
        jobs = self.run_jobs(deadline, min_jobs, after_job=more_setups)
        self.check_setups()
        self.finish()
        metrics = self.out.metrics
        metrics.update({
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "job_s": statistics.fmean(jobs),
        })
        self.out.report.update({
            "setup_s": (metrics["setup_s"], "s"),
            "setups": (len(setups), "count"),
            "job_s": (metrics["job_s"], "s"),
            "jobs": (len(jobs), "count"),
            "machine.slowdown": (self.speed.slowdown(), "x"),
            "machine.probes": (self.speed.probes, "count"),
        })
        for name in TIME_METRICS:
            if name in metrics:
                metrics[name] /= self.speed.slowdown()
        for name in RATE_METRICS:
            if name in metrics:
                metrics[name] *= self.speed.slowdown()
        return self.out

    def measure_traced(self, seconds: float, trace_path: Path) -> tuple[Outcome, dict]:
        """Per-layer metrics: traced set-ups, then pairs of one untraced and
        one traced job until the seconds are spent. The tracing overhead
        compares the medians of the two kinds of job."""
        deadline = perf_counter() + seconds
        # Probes would land inside traced spans; a traced run probes once.
        self.speed = MachineSpeed(every_s=math.inf)
        tracer = Tracer(uuid.uuid4().hex)
        with tracer:
            layers.install(tracer)
            for _ in range(self.setups):
                self.setup()
        self.check_setups()
        setup_end = len(tracer)
        setup_counters = dict(tracer.counters)
        tracer.counters.clear()

        plain, traced, units = [], [], 0

        def pair() -> float:
            nonlocal units
            plain.append(self.timed_job())
            before = self.units_done()
            with tracer:
                layers.install(tracer)
                traced.append(self.timed_job())
            units += self.units_done() - before
            return plain[-1] + traced[-1]

        self.run_jobs(deadline, 2, job=pair)
        self.finish()
        tracer.write(trace_path)

        values = layers.per_layer(
            tracer.self_ms(setup_end), tracer.calls(setup_end), tracer.counters, units,
            tracer.self_ms(0, setup_end), setup_counters, self.setups)
        overhead = statistics.median(traced) - statistics.median(plain)
        values["trace.overhead_pct"] = 100.0 * overhead / statistics.median(plain)
        self.out.report.update({
            "trace.overhead_s": (overhead, "s"),
            "trace.job_pairs": (len(traced), "count"),
            "trace.units": (units, self.unit),
        })
        return self.out, values


class Train(Workload):
    """`training.train` at the small preset from a seeded random init on the
    +both pairs; every job trains the same steps from the same weights."""

    name = "train"
    unit = "step"
    min_jobs = TRAIN_MIN_JOBS

    def __init__(self, *args):
        super().__init__(*args)
        self.step_s: list[float] = []
        self.loss_ends: set[float] = set()
        self.counters: dict[str, float] = defaultdict(float)

    def prepare(self):
        cfg, vocab, out = bench_data(self.seed, self.work)
        pairs = datagen.variant(datagen.read_pairs_jsonl(out / pipeline.PAIRS_FILE), "+both",
                                pipeline._datagen_config(cfg))
        shutil.rmtree(out)
        self.spec = pipeline._model_spec(cfg, len(vocab))
        self.encoded = training.encode_pairs(vocab, pairs, self.spec)
        plan = initialization.InitPlan(seed=self.seed)
        self.weights = initialization.build_weights(self.spec, plan,
                                                    vocab_hash=vocab.content_hash()).weights
        self.tcfg = pipeline._train_config(cfg, TRAIN_STEPS)
        self.n_pairs = len(pairs)
        return digest(self.encoded, *self.weights.values())

    def job(self) -> None:
        steps, losses = [], []
        last = perf_counter()

        def log(step, loss):
            nonlocal last
            steps.append(perf_counter() - last)
            losses.append(loss)
            self.speed.maybe_probe()
            last = perf_counter()

        with Patches() as p:
            p.replace(training, "pad_batch",
                      lambda pad_batch: observed(pad_batch, layers.count_batch, self.counters))
            try:
                training.train(self.spec, self.weights, self.encoded, self.tcfg, log=log)
            finally:   # steps done before a raise still count
                self.out.attempted += len(steps)
                self.step_s += steps
                for i, loss in enumerate(losses):
                    if not math.isfinite(loss):
                        self.out.fail(f"step {i + 1}: non-finite loss {loss}")
        self.loss_ends.add(statistics.fmean(losses[-LOSS_TAIL:]))

    def units_done(self) -> int:
        return len(self.step_s)

    def finish(self) -> None:
        if len(self.loss_ends) > 1:
            self.out.fail(f"loss_end differs across repeats: {sorted(self.loss_ends)}")
        if not self.loss_ends or len(self.step_s) < 2:
            return
        busy = sum(self.step_s)
        tokens = self.counters["training.useful_tokens"] / busy
        pairs = self.counters["training.pairs"] / busy
        step_ms = [s * 1000 for s in self.step_s]
        p50, p90 = p50_p90(step_ms)
        self.out.metrics.update({"throughput": tokens, "throughput2": pairs,
                                 "op_ms_p50": p50, "op_ms_p90": p90})
        self.out.report.update({
            "train.tokens_per_s": (tokens, "1/s"),
            "train.pairs_per_s": (pairs, "1/s"),
            "train.step_ms_p50": (p50, "ms"),
            "train.step_ms_p90": (p90, "ms"),
            "train.steps_sampled": (len(step_ms), "count"),
            "train.loss_end": (min(self.loss_ends), "nats"),
            "train.dataset_pairs": (self.n_pairs, "count"),
        })


def stratified_slice(pairs, vocab, seed: int):
    """Pick SLICE_QUOTAS sentences per reference length, in seeded order;
    a length with none left borrows from the nearest length."""
    by_len = defaultdict(list)
    for i in np.random.default_rng([seed, 2]).permutation(len(pairs)):
        by_len[len(wordpiece.encode(vocab, pairs[i].target))].append(pairs[i])
    chosen = []
    for length, quota in SLICE_QUOTAS.items():
        for _ in range(quota):
            nearest = min((n for n, left in by_len.items() if left),
                          key=lambda n: (abs(n - length), n))
            chosen.append(by_len[nearest].pop())
    return chosen


def bench_weights(spec, seed: int) -> dict[str, np.ndarray]:
    """Untrained weights owned by the benchmark: normal(0, 0.02), gains 1, biases 0."""
    rng = np.random.default_rng([seed, 1])
    weights = {}
    for name, shape in model.param_shapes(spec).items():
        if name.endswith(".gain"):
            weights[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith(".bias"):
            weights[name] = np.zeros(shape, dtype=np.float32)
        else:
            weights[name] = rng.normal(0.0, 0.02, shape).astype(np.float32)
    return weights


class Correct(Workload):
    """`model.correct` at widths 1 and 4 over a length-stratified slice of
    eval sources, each capped at its reference length + 2."""

    name = "correct"
    unit = "sentence"
    min_jobs = CORRECT_MIN_JOBS

    def __init__(self, *args):
        super().__init__(*args)
        self.times = {w: [] for w in WIDTHS}
        self.outputs: dict[tuple[int, int], tuple] = {}

    def prepare(self):
        cfg, vocab, out = bench_data(self.seed, self.work)
        spec = pipeline._model_spec(cfg, len(vocab))
        ckpt = out / pipeline.CKPT_DIR
        training.save_training_checkpoint(ckpt, spec, bench_weights(spec, self.seed),
                                          meta={"vocab_sha1": vocab.content_hash()})
        meta, self.weights, _ = training.load_training_checkpoint(ckpt)
        self.spec = pipeline._spec_from_meta(meta)
        eval_pairs = datagen.read_pairs_jsonl(out / pipeline.EVAL_PAIRS_FILE)
        shutil.rmtree(out)
        self.vocab = vocab
        self.items = [
            (training.encode_pair(vocab, p.source, "", self.spec.max_len, self.spec.max_len).src,
             p.target, len(wordpiece.encode(vocab, p.target)) + 2)
            for p in stratified_slice(eval_pairs, vocab, self.seed)]
        return digest(self.items, *self.weights.values())

    def job(self) -> None:
        for i, (src, target, cap) in enumerate(self.items):
            self.speed.maybe_probe()
            for width in WIDTHS:
                self.out.attempted += 1
                t = perf_counter()
                try:
                    hyps = model.correct(self.spec, self.weights, src, width=width, max_out=cap)
                    evalkit.wer(target, wordpiece.decode(self.vocab, hyps[0].ids))
                except Exception as e:  # a raise is a failed sentence; keep going
                    self.out.fail(f"sentence {i} width {width}: {type(e).__name__}: {e}")
                    continue
                self.times[width].append(perf_counter() - t)
                seen = self.outputs.setdefault((i, width), hyps)
                if seen != hyps:
                    self.out.fail(f"sentence {i} width {width}: output differs across repeats")

    def units_done(self) -> int:
        return sum(len(t) for t in self.times.values())

    def finish(self) -> None:
        for i in range(0, len(self.items), ORACLE_EVERY):
            src, _, cap = self.items[i]
            for width, check in ((1, oracle.greedy_problems), (4, oracle.beam_problems)):
                hyps = self.outputs.get((i, width))
                problems = [] if hyps is None else check(self.spec, self.weights, src, cap, hyps)
                for p in problems:
                    self.out.fail(f"oracle, sentence {i} width {width}: {p}")
        if any(len(t) < 2 for t in self.times.values()):
            return
        rate = {w: len(t) / sum(t) for w, t in self.times.items()}
        p50, p90 = p50_p90([s * 1000 for s in self.times[1]])
        self.out.metrics.update({"throughput": rate[1], "throughput2": rate[4],
                                 "op_ms_p50": p50, "op_ms_p90": p90})
        self.out.report.update({
            "correct.w1.sentences_per_s": (rate[1], "1/s"),
            "correct.w4.sentences_per_s": (rate[4], "1/s"),
            "correct.w1.sentence_ms_p50": (p50, "ms"),
            "correct.w1.sentence_ms_p90": (p90, "ms"),
            "correct.sentences_sampled": (len(self.times[1]), "count"),
            "correct.slice_sentences": (len(self.items), "count"),
            "correct.slice_cap_tokens": (sum(cap for _, _, cap in self.items), "count"),
        })


class DataDecode(Workload):
    """The gen-data, vocab-build, lm-fit, decode and eval stages through
    `pipeline.run_stage`, each pass in a fresh directory."""

    name = "data-decode"
    unit = "pass"
    min_jobs = DECODE_MIN_JOBS
    setups = DECODE_SETUPS
    setups_per_job = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.stage_s = defaultdict(list)
        self.utterance_s: list[float] = []
        self.pairs = 0
        self.passes = 0
        self.gen_hashes: set[str] = set()
        self.wers: set[tuple] = set()

    def prepare(self):
        self.cfg = pipeline.effective_config("small", overrides={"seed": self.seed, **DECODE_DATA})
        return digest(sorted(self.cfg.items(), key=str))

    def job(self) -> None:
        # Probe the machine speed inside gen-data and decode as well; the
        # probes' time is taken out of the stage timings below.
        def probing(corrupt):
            def wrapper(*args, **kwargs):
                self.speed.maybe_probe()
                return corrupt(*args, **kwargs)
            return wrapper

        def timing(search):
            def wrapper(*args, **kwargs):
                self.speed.maybe_probe()
                self.out.attempted += 1
                t = perf_counter()
                try:
                    return search(*args, **kwargs)
                except Exception:
                    self.out.failed += 1
                    raise
                finally:
                    self.utterance_s.append(perf_counter() - t)
            return wrapper

        out = Path(tempfile.mkdtemp(dir=self.work))
        summaries = {}
        try:
            with Patches() as p:
                p.replace(pipeline, "fused_beam_search", timing)
                p.replace(channel, "corrupt", probing)
                p.replace(datagen, "corrupt", probing)
                for stage in DECODE_STAGES:
                    self.speed.maybe_probe()
                    self.out.attempted += 1
                    t, probed = perf_counter(), self.speed.spent
                    try:
                        summaries[stage] = pipeline.run_stage(stage, self.cfg, out)
                    except Exception as e:  # a raise fails the stage and the pass
                        self.out.fail(f"stage {stage}: {type(e).__name__}: {e}")
                        return
                    self.stage_s[stage].append(perf_counter() - t - (self.speed.spent - probed))
            self.check_pass(out, summaries)
        finally:
            shutil.rmtree(out)
        self.passes += 1
        self.pairs += summaries["gen-data"]["pairs"]

    def check_pass(self, out: Path, summaries: dict) -> None:
        gen = next(r for r in pipeline.read_manifest(out) if r["subcommand"] == "gen-data")
        self.gen_hashes.add(digest(sorted(gen["outputs"].items())))
        dec = summaries["decode"]
        self.wers.add((dec["greedy_wer"], dec["fused_wer"]))
        if dec["fused_wer"] > dec["greedy_wer"]:
            self.out.fail(f"fused WER {dec['fused_wer']} above greedy {dec['greedy_wer']}")
        with open(out / pipeline.NBEST_FILE) as f:
            lines = sum(1 for _ in f)
        if not lines == dec["utterances"] == summaries["gen-data"]["eval_sentences"]:
            self.out.fail(f"nbest.jsonl has {lines} lines for {dec['utterances']} utterances")

    def units_done(self) -> int:
        return self.passes

    def finish(self) -> None:
        if len(self.gen_hashes) > 1:
            self.out.fail("gen-data artifacts differ across repeats")
        if len(self.wers) > 1:
            self.out.fail(f"decode WERs differ across repeats: {sorted(self.wers)}")
        if not self.passes or len(self.utterance_s) < 2:
            return
        gen_rate = self.pairs / sum(self.stage_s["gen-data"])
        utt_rate = len(self.utterance_s) / sum(self.stage_s["decode"])
        p50, p90 = p50_p90([s * 1000 for s in self.utterance_s])
        stages = [sum(t) for t in zip(*(self.stage_s[s] for s in DECODE_STAGES))]
        greedy, fused = min(self.wers)
        self.out.metrics.update({"throughput": gen_rate, "throughput2": utt_rate,
                                 "op_ms_p50": p50, "op_ms_p90": p90})
        self.out.report.update({
            "gen_data.pairs_per_s": (gen_rate, "1/s"),
            "decode.utterances_per_s": (utt_rate, "1/s"),
            "decode.utterance_ms_p50": (p50, "ms"),
            "decode.utterance_ms_p90": (p90, "ms"),
            "decode.utterances_sampled": (len(self.utterance_s), "count"),
            "decode.fused_wer": (fused, "ratio"),
            "decode.greedy_wer": (greedy, "ratio"),
            "stages_s": (statistics.fmean(stages), "s"),
            **{f"stage.{s}_s": (statistics.fmean(self.stage_s[s]), "s") for s in DECODE_STAGES},
        })


WORKLOADS = {w.name: w for w in (Train, Correct, DataDecode)}
