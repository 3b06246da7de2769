"""Acceptance checks, one test per numbered criterion.

Each test prints a single ``criterion N: PASS`` line with the measured
numbers (visible under ``pytest -s`` or in the captured-output section of
a verbose run). Bounds are asserted, so a miss fails the test rather than
just changing the printed line.

Criteria 7 and 9 run real pipelines and dominate the suite's runtime;
everything else finishes in seconds.
"""

import math
import time

import numpy as np
import pytest

import test_decoding as oracle_dec
import test_evalkit as oracle_wer
import test_ngram as oracle_lm
from conftest import finite_difference_check, make_random_checkpoint

from postasr import channel as ch
from postasr import cli
from postasr import corpus as corpus_mod
from postasr import datagen as dg
from postasr import ngram
from postasr import pipeline as pl
from postasr import wordpiece as wpm
from postasr.training import TrainConfig, encode_pair, encode_pairs, evaluate_loss, train
from postasr.decoding import FusionConfig, fused_beam_search
from postasr.evalkit import wer
from postasr.initialization import InitPlan, build_weights, transfer_decoder
from postasr.model import BOS, EOS, PAD, ModelSpec, build_forward, label_smoothed_loss, param_shapes
from postasr.optim import OptimizerConfig


def report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


class TestCriterion1:
    def test_criterion_1_gradient_correctness(self):
        t0 = time.monotonic()
        spec = ModelSpec(L=1, H=8, A=2, V=16, P_drop=0.0, max_len=8)
        names = list(param_shapes(spec))
        weights = build_weights(spec, InitPlan(seed=20)).weights
        src = np.array([[4, 5, 6, 7, PAD]])
        tgt = np.array([[BOS, 8, 9, 10]])
        targets = np.array([[8, 9, 10, EOS]])

        def build(tape, leaves):
            tensors = dict(zip(names, leaves))
            logits = build_forward(tape, spec, tensors, src, tgt, train=False, seed=0)
            return label_smoothed_loss(logits, targets)

        worst = finite_difference_check(
            build, [weights[n] for n in names], h=1e-4, rel_tol=1e-4, max_entries=4, seed=20
        )
        elapsed = time.monotonic() - t0
        assert worst < 1e-4
        assert elapsed < 60.0, f"criterion 1: FAIL (gradcheck took {elapsed:.1f}s >= 60s)"
        report(1, f"max rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2:
    def test_criterion_2_decoding_oracle(self):
        t0 = time.monotonic()
        lm = oracle_dec.tiny_lm()
        matches = 0
        total = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            chars = "- ab"[: int(rng.integers(2, 5))]
            frames = int(rng.integers(1, 5))
            lat = oracle_dec.random_lattice(rng, frames, chars)
            for lam in (0.0, 0.5, 2.0):
                got = fused_beam_search(lat, lm, FusionConfig(lam=lam, width=256)).top().text
                want = oracle_dec.brute_force_best(lat, lm, lam)
                total += 1
                matches += got == want
        elapsed = time.monotonic() - t0
        assert matches == total == 300, f"criterion 2: FAIL ({matches}/{total} matched)"
        assert elapsed < 60.0, f"criterion 2: FAIL (took {elapsed:.1f}s >= 60s)"
        report(2, f"100 lattices x 3 weights, {matches}/{total} exact, {elapsed:.1f}s")


class TestCriterion3:
    def test_criterion_3_wer_oracle(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(33)
        words = ["a", "b", "c"]
        for _ in range(500):
            ref = " ".join(rng.choice(words) for _ in range(rng.integers(0, 6)))
            hyp = " ".join(rng.choice(words) for _ in range(rng.integers(0, 6)))
            got = wer(ref, hyp)
            s, d, ins = oracle_wer.oracle_breakdown(ref, hyp)
            assert (got.substitutions, got.deletions, got.insertions) == (s, d, ins), (
                f"criterion 3: FAIL on ref={ref!r} hyp={hyp!r}"
            )
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"criterion 3: FAIL (took {elapsed:.1f}s >= 30s)"
        report(3, f"500 pairs exact, {elapsed:.1f}s")


class TestCriterion4:
    def test_criterion_4_ngram_hand_checks(self):
        m = ngram.fit(["a b"], order=2, discount=0.0)
        assert m.cond_logprob("a", (ngram.BOS,)) == 0.0
        assert m.cond_logprob("b", ("a",)) == 0.0
        assert m.cond_logprob(ngram.EOS, ("b",)) == 0.0

        # "a a" + "a b": context "a" continues to a, b, </s> once each.
        m = ngram.fit(["a a", "a b"], order=2, discount=0.0)
        for w in ("a", "b", ngram.EOS):
            assert math.exp(m.cond_logprob(w, ("a",))) == pytest.approx(1 / 3, abs=1e-12)

        checked = 0
        m3 = ngram.fit(
            ["the cat sat on the mat", "the dog sat", "a cat sat on a dog"],
            order=3,
            discount=0.1,
        )
        for ctx in oracle_lm.random_contexts(m3, 100, seed=4):
            assert oracle_lm.context_prob_sum(m3, ctx) == pytest.approx(1.0, abs=1e-6)
            checked += 1
        assert checked == 100
        report(4, "hand counts exact at d=0, 100 contexts normalized within 1e-6")


class TestCriterion5:
    def test_criterion_5_transfer_rule(self):
        spec = ModelSpec(L=3, H=16, A=4, V=24, P_drop=0.0, max_len=10)
        ckpt = make_random_checkpoint(spec, seed=9, vocab_hash="f" * 40)
        dec = transfer_decoder(ckpt, spec)
        compared = 0
        for layer in range(spec.L):
            for proj in ("q", "k", "v", "out"):
                for part in ("weight", "bias"):
                    a = dec[f"decoder.{layer}.cross_attn.{proj}.{part}"]
                    b = dec[f"decoder.{layer}.self_attn.{proj}.{part}"]
                    assert a.tobytes() == b.tobytes(), (
                        f"criterion 5: FAIL at layer {layer} {proj}.{part}"
                    )
                    compared += 1
            for part in ("gain", "bias"):
                a = dec[f"decoder.{layer}.cross_attn.norm.{part}"]
                b = dec[f"decoder.{layer}.self_attn.norm.{part}"]
                assert a.tobytes() == b.tobytes()
                compared += 1
        report(5, f"{compared} tensors bit-exact over {spec.L} layers")


class TestCriterion6:
    def test_criterion_6_dataset_structure(self):
        sentences = corpus_mod.generate_corpus(corpus_mod.CorpusConfig(n_sentences=60, seed=6))
        folds = [ch.default_config(dropout_strength=1.2, seed=100 + f) for f in range(5)]
        cfg = dg.DataGenConfig(folds=5, n_dropout_rounds=2, cutout_rate=0.05, seed=60)
        pairs = dg.generate(sentences, cfg, folds)

        sizes = {v: len(dg.variant(pairs, v, cfg)) for v in ("base", "+cutout", "+dropout", "+both")}
        assert sizes["base"] < sizes["+cutout"], f"criterion 6: FAIL (sizes {sizes})"
        assert sizes["base"] < sizes["+dropout"], f"criterion 6: FAIL (sizes {sizes})"
        key = lambda rows: {(p.source, p.target) for p in rows}
        union = key(dg.variant(pairs, "+cutout", cfg)) | key(dg.variant(pairs, "+dropout", cfg))
        assert key(dg.variant(pairs, "+both", cfg)) == union, "criterion 6: FAIL (+both != union)"

        # Boundary of the WER filter: 0.5 stays, anything above goes.
        at_half = dg.ParallelPair(source="a x", target="a b", wer=0.5, tag=dg.TAG_BASE, fold=0, seed=0)
        above = dg.ParallelPair(source="x y", target="a b", wer=1.0, tag=dg.TAG_BASE, fold=0, seed=0)
        kept = dg.filter_dedup([at_half, above], wer_max=0.5)
        assert kept == [at_half], "criterion 6: FAIL (0.5 boundary misfiltered)"
        report(6, f"variant sizes {sizes}, union and 0.5 boundary hold")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One shared small-scale pipeline run: gen-data through correct."""
    out = tmp_path_factory.mktemp("accept_small")
    cfg = pl.effective_config("small", overrides={"seed": 7})
    t0 = time.monotonic()
    for stage in ("gen-data", "vocab-build", "train", "correct"):
        pl.run_stage(stage, cfg, out)
    elapsed = time.monotonic() - t0
    return out, elapsed


class TestCriterion7:
    def test_criterion_7_end_to_end_reduction(self, small_run):
        out, elapsed = small_run
        train_sents = corpus_mod.load_corpus(out / pl.CORPUS_FILE)
        eval_sents = corpus_mod.load_corpus(out / pl.EVAL_CORPUS_FILE)
        n_total = len(train_sents) + len(eval_sents)
        word_vocab = {w for s in train_sents + eval_sents for w in s.split()}
        assert n_total >= 2000, f"criterion 7: FAIL (corpus has {n_total} sentences)"
        assert len(word_vocab) <= 200, f"criterion 7: FAIL ({len(word_vocab)} distinct words)"

        records = [r for r in pl.read_manifest(out) if r["subcommand"] == "gen-data"]
        channel_wer = records[-1]["summary"]["eval_channel_wer"]
        assert 0.12 <= channel_wer <= 0.18, f"criterion 7: FAIL (channel WER {channel_wer})"

        corrected = [r for r in pl.read_manifest(out) if r["subcommand"] == "correct"]
        summary = corrected[-1]["summary"]
        reduction = summary["relative_reduction"]
        assert reduction >= 0.40, (
            f"criterion 7: FAIL (WER {summary['wer_before']:.4f} -> {summary['wer_after']:.4f}, "
            f"relative reduction {reduction:.3f} < 0.40)"
        )
        assert elapsed < 1800.0, f"criterion 7: FAIL (pipeline took {elapsed:.0f}s >= 1800s)"
        report(
            7,
            f"corpus {n_total}/{len(word_vocab)} words, channel WER {channel_wer:.3f}, "
            f"corrected {summary['wer_before']:.3f} -> {summary['wer_after']:.3f} "
            f"({reduction:.0%} relative), {elapsed:.0f}s",
        )

    def test_criterion_7_pretrained_cell_not_slower(self, small_run):
        out, _ = small_run
        vocab = wpm.Vocab.load(out / pl.VOCAB_FILE)
        rows = dg.read_pairs_jsonl(out / pl.PAIRS_FILE)
        spec = ModelSpec(L=2, H=64, A=4, V=len(vocab), P_drop=0.0, max_len=40)
        encoded = encode_pairs(vocab, rows[:32], spec)
        cfg = TrainConfig(steps=2000, token_budget=4000, smoothing=0.0, seed=7)

        steps = {}
        for cell, enc_src in (("rand/rand", "random"), ("pre/rand", "pretrained")):
            plan = InitPlan(
                encoder_source=enc_src,
                decoder_source="random",
                checkpoint_path=str(out / pl.PRETRAINED_DIR) if enc_src == "pretrained" else None,
                seed=7,
            )
            weights = build_weights(spec, plan, vocab_hash=vocab.content_hash()).weights
            result = train(spec, weights, encoded, cfg, stop_threshold=0.1, check_every=25)
            assert result.stopped_at is not None, (
                f"criterion 7: FAIL ({cell} never reached loss 0.1 in {cfg.steps} steps)"
            )
            steps[cell] = result.stopped_at
        assert steps["pre/rand"] <= steps["rand/rand"], f"criterion 7: FAIL (steps {steps})"
        report(7, f"init cells reach loss<0.1 at {steps} steps, pretrained not slower")


class TestCriterion8:
    def test_criterion_8_memorize_32_pairs(self):
        t0 = time.monotonic()
        sentences = corpus_mod.generate_corpus(corpus_mod.CorpusConfig(n_sentences=80, seed=8))
        vocab = wpm.build_vocab(sentences, target_size=96)
        cc = ch.default_config(dropout_strength=1.5, seed=88)
        pairs = [(ch.corrupt(cc, s), s) for s in sentences]
        pairs = [(src, tgt) for src, tgt in pairs if src != tgt][:32]
        assert len(pairs) == 32
        # Memorization check, so no dropout regularizing the fit.
        spec = ModelSpec(L=1, H=32, A=2, V=len(vocab), P_drop=0.0, max_len=32)
        encoded = [encode_pair(vocab, src, tgt, spec.max_len, spec.max_len) for src, tgt in pairs]

        cfg = TrainConfig(
            steps=2000, token_budget=4000, smoothing=0.0, seed=8,
            optim=OptimizerConfig(lr0=0.001, beta1=0.95, beta2=0.25),
        )
        weights = build_weights(spec, InitPlan(seed=8)).weights
        result = train(spec, weights, encoded, cfg, stop_threshold=0.1, check_every=25)
        final = evaluate_loss(spec, result.weights, encoded, smoothing=0.0)
        elapsed = time.monotonic() - t0
        assert result.stopped_at is not None and final < 0.1, (
            f"criterion 8: FAIL (loss {final:.3f} after {result.steps_run} steps)"
        )
        assert elapsed < 300.0, f"criterion 8: FAIL (took {elapsed:.0f}s >= 300s)"
        report(8, f"loss {final:.4f} at step {result.stopped_at}, {elapsed:.0f}s")


class TestCriterion9:
    def test_criterion_9_demo_determinism(self, tmp_path, capsys):
        runs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = cli.main(["demo", "--scale", "tiny", "--seed", "5", "--out-dir", str(out)])
            assert code == 0
            runs.append(out)
        capsys.readouterr()

        def snapshot(root):
            files = [root / pl.CORPUS_FILE, root / pl.REPORT_FILE]
            files += sorted((root / pl.CKPT_DIR).rglob("*"))
            return {p.relative_to(root): p.read_bytes() for p in files if p.is_file()}

        a, b = snapshot(runs[0]), snapshot(runs[1])
        assert set(a) == set(b)
        diff = [str(rel) for rel in a if a[rel] != b[rel]]
        assert not diff, f"criterion 9: FAIL (differing files: {diff})"
        report(9, f"{len(a)} corpus/checkpoint/report files byte-identical across runs")
