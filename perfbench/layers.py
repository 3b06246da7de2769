"""Which public functions the traced run wraps, and the per-layer metrics.

Each function is wrapped under the name its caller looks it up by: a
module that did ``from .channel import corrupt`` holds its own reference,
so ``corrupt`` is wrapped both in ``postasr.channel`` and in
``postasr.datagen``. Several lookups share one span name.

Per-layer metrics are self times and counts per unit of work of the
workload: per optimizer step (train), per corrected sentence (correct) or
per pass of the five stages (data-decode). The few layers that only run
while inputs are prepared are reported per set-up instead (SETUP_METRICS).
"""

from __future__ import annotations

import os

from postasr import (channel, checkpoint, corpus, datagen, evalkit, initialization, model,
                     ngram, numkit, pipeline, training, wordpiece)
from postasr.wordpiece import PAD

_NUMKIT_OWN = ("matmul", "gelu", "layer_norm", "softmax", "log_softmax", "embedding",
               "dropout", "broadcast_to")
_NUMKIT_ELEMENTWISE = ("add", "add_scalar", "mul", "mul_scalar", "reshape", "transpose",
                       "tensor_sum", "tensor_mean", "exp", "log", "relu")


def count_batch(counters, args, kwargs, result):
    """Pairs, non-pad and padded source+target tokens of a ``training.pad_batch`` call."""
    src, _, targets = result
    counters["training.pairs"] += len(args[0])
    counters["training.useful_tokens"] += int((src != PAD).sum() + (targets != PAD).sum())
    counters["training.padded_tokens"] += src.size + targets.size


def _count_correct(counters, args, kwargs, result):
    spec = args[0]
    max_out = kwargs.get("max_out")
    cap = spec.max_len if max_out is None else min(max_out, spec.max_len)
    best = result[0]
    counters["model.correct.out_tokens"] += len(best.ids)
    counters["model.correct.cap_hits"] += len(best.ids) == cap - 1


def _count_checkpoint_bytes(counters, args, kwargs, result):
    directory = args[1]
    counters["checkpoint.bytes"] += sum(
        e.stat().st_size for e in os.scandir(directory) if e.is_file())


def _count_frames(counters, args, kwargs, result):
    counters["channel.lattice_frames"] += result.frames()


def _count_variant(counters, args, kwargs, result):
    counters["datagen.variant_in"] += len(args[0])
    counters["datagen.variant_out"] += len(result)


def install(tracer) -> None:
    """Wrap every traced public function; ``tracer.undo()`` undoes it."""
    w = tracer.wrap
    for fn in _NUMKIT_OWN:
        w(numkit, fn, f"numkit.{fn}")
    for fn in _NUMKIT_ELEMENTWISE:
        w(numkit, fn, "numkit.elementwise")
    w(numkit.Tape, "backward", "numkit.backward")

    for owner in (model, training):
        w(owner, "build_forward", "model.forward")
        w(owner, "label_smoothed_loss", "model.loss")
    w(model, "correct", "model.correct", _count_correct)

    w(training, "novograd_step", "optim.step")
    w(training, "token_budget_batches", "training.batching")
    w(training, "pad_batch", "training.batching", count_batch)

    w(initialization, "build_weights", "initialization.build_weights")
    w(checkpoint, "save", "checkpoint.save", _count_checkpoint_bytes)
    w(checkpoint, "load", "checkpoint.load")

    w(wordpiece, "build_vocab", "wordpiece.build_vocab")
    w(wordpiece, "encode", "wordpiece.encode")
    w(training, "wp_encode", "wordpiece.encode")
    w(wordpiece, "decode", "wordpiece.decode")

    w(corpus, "generate_corpus", "corpus.generate")

    w(channel, "calibrate_strength", "channel.calibrate")
    w(channel, "corrupt", "channel.corrupt")
    w(datagen, "corrupt", "channel.corrupt")
    w(channel, "emit_lattice", "channel.emit_lattice", _count_frames)

    w(datagen, "generate", "datagen.generate")
    w(datagen, "write_pairs_jsonl", "datagen.write_pairs")
    w(datagen, "read_pairs_jsonl", "datagen.read_pairs")
    w(datagen, "variant", "datagen.variant", _count_variant)

    w(ngram, "fit", "ngram.fit")
    w(ngram, "save_arpa", "ngram.arpa_io")
    w(ngram, "load_arpa", "ngram.arpa_io")
    w(ngram.NgramModel, "cond_logprob", "ngram.cond_logprob")
    w(ngram.NgramModel, "logprob_sentence", "ngram.logprob_sentence")

    w(pipeline, "fused_beam_search", "decoding.beam")
    w(pipeline, "ctc_greedy", "decoding.greedy")
    w(pipeline, "write_nbest_jsonl", "decoding.write_nbest")

    w(evalkit, "wer", "evalkit.wer")
    w(datagen, "wer", "evalkit.wer")

    w(pipeline, "file_sha256", "pipeline.hash")
    w(pipeline, "append_manifest", "pipeline.manifest")
    w(pipeline, "run_stage", "pipeline.stage")


# metric name -> span name whose self time it reports
_SELF_MS = {f"numkit.{fn}_ms": f"numkit.{fn}" for fn in _NUMKIT_OWN}
_SELF_MS.update({
    "numkit.backward_ms": "numkit.backward",
    "numkit.elementwise_ms": "numkit.elementwise",
    "model.forward_ms": "model.forward",
    "model.loss_ms": "model.loss",
    "model.correct.search_ms": "model.correct",
    "optim.step_ms": "optim.step",
    "training.batching_ms": "training.batching",
    "wordpiece.build_vocab_ms": "wordpiece.build_vocab",
    "wordpiece.decode_ms": "wordpiece.decode",
    "corpus.generate_ms": "corpus.generate",
    "channel.calibrate_ms": "channel.calibrate",
    "channel.corrupt_ms": "channel.corrupt",
    "channel.emit_lattice_ms": "channel.emit_lattice",
    "datagen.generate_ms": "datagen.generate",
    "datagen.write_pairs_ms": "datagen.write_pairs",
    "datagen.read_pairs_ms": "datagen.read_pairs",
    "ngram.fit_ms": "ngram.fit",
    "ngram.arpa_io_ms": "ngram.arpa_io",
    "ngram.cond_logprob_ms": "ngram.cond_logprob",
    "ngram.logprob_sentence_ms": "ngram.logprob_sentence",
    "decoding.beam_ms": "decoding.beam",
    "decoding.greedy_ms": "decoding.greedy",
    "decoding.write_nbest_ms": "decoding.write_nbest",
    "evalkit.wer_ms": "evalkit.wer",
    "pipeline.hash_ms": "pipeline.hash",
    "pipeline.manifest_ms": "pipeline.manifest",
    "pipeline.stage_self_ms": "pipeline.stage",
})
_CALLS = {
    "channel.corrupt_calls": "channel.corrupt",
    "ngram.cond_logprob_calls": "ngram.cond_logprob",
    "evalkit.wer_calls": "evalkit.wer",
}
# Layers that only run while a workload prepares its inputs.
SETUP_METRICS = {
    "initialization.build_weights_ms": "initialization.build_weights",
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
    "wordpiece.encode_ms": "wordpiece.encode",
}

UNITS = {name: "ms" for name in (*_SELF_MS, *SETUP_METRICS)}
UNITS.update({name: "count" for name in _CALLS})
UNITS.update({
    "numkit.ops": "count",
    "model.correct.forward_calls": "count",
    "model.correct.out_tokens": "count",
    "model.correct.cap_hit_ratio": "ratio",
    "training.tokens_per_step": "count",
    "training.pad_ratio": "ratio",
    "checkpoint.bytes": "bytes",
    "channel.lattice_frames": "count",
    "datagen.keep_ratio": "ratio",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(self_ms: dict, calls: dict, counters: dict, units: float,
              setup_self_ms: dict, setup_counters: dict, setups: int) -> dict[str, float]:
    """Per-layer metric values from span self times, call counts and counters.

    ``units`` is the workload's count of steps, sentences or passes over
    the measured spans; ``setups`` the number of traced set-ups.
    """
    out = {m: _ratio(self_ms.get(span, 0.0), units) for m, span in _SELF_MS.items()}
    out.update({m: _ratio(calls.get(span, 0), units) for m, span in _CALLS.items()})
    out.update({m: _ratio(setup_self_ms.get(span, 0.0), setups)
                for m, span in SETUP_METRICS.items()})
    out["checkpoint.bytes"] = _ratio(setup_counters.get("checkpoint.bytes", 0), setups)
    out["numkit.ops"] = _ratio(sum(n for span, n in calls.items()
                                   if span.startswith("numkit.") and span != "numkit.backward"),
                               units)
    n_correct = calls.get("model.correct", 0)
    out["model.correct.forward_calls"] = _ratio(calls.get("model.forward", 0), n_correct)
    out["model.correct.out_tokens"] = _ratio(counters.get("model.correct.out_tokens", 0), n_correct)
    out["model.correct.cap_hit_ratio"] = _ratio(counters.get("model.correct.cap_hits", 0), n_correct)
    out["training.tokens_per_step"] = _ratio(counters.get("training.useful_tokens", 0),
                                             calls.get("optim.step", 0))
    out["training.pad_ratio"] = _ratio(counters.get("training.useful_tokens", 0),
                                       counters.get("training.padded_tokens", 0))
    out["channel.lattice_frames"] = _ratio(counters.get("channel.lattice_frames", 0), units)
    out["datagen.keep_ratio"] = _ratio(counters.get("datagen.variant_out", 0),
                                       counters.get("datagen.variant_in", 0))
    out["trace.spans"] = _ratio(sum(calls.values()), units)
    return out
