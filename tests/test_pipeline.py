"""End-to-end checks for the stage pipeline on a micro workload."""

import fcntl
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_evalkit import read_table
from postasr import datagen, evalkit
from postasr import pipeline as pl
from postasr import wordpiece as wp
from postasr.channel import config_from_json

# Small enough that the full demo composition runs in seconds.
MICRO = {
    "corpus": {"n_sentences": 60, "eval_fraction": 0.2},
    "vocab": {"target_size": 80},
    "channel": {"calibration_sentences": 30},
    "data": {"folds": 2, "n_dropout_rounds": 1},
    "model": {"L": 1, "H": 16, "A": 2, "max_len": 24},
    "train": {"steps": 8, "token_budget": 400, "pretrain_steps": 4},
    "lm": {"order": 2},
    "decode": {"width": 3},
    "ablate": {"steps": 4},
}


REMOVED_FIELDS = (
    ("channel", "calibrate", True),
    ("channel", "dropout_strength", 1.0),
    ("data", "cutout", True),
    ("data", "dedup", True),
    ("data", "hist_bin_width", 0.05),
    ("train", "duplicate_cross_attention", True),
    ("decode", "word_bonus", 0.0),
    ("ablate", "variant", "+both"),
    ("ablate", "width", 1),
)


# Leaves whose range only a typed config checks, each with a value it
# rejects; the message names the config section and the field.
TYPED_RULES = (
    ("channel", "del_prob", 2),
    ("channel", "ins_prob", -0.1),
    ("channel", "cutout_len", [5, 2]),
    ("data", "dropout_boost", -1),
    ("data", "cutout_rate", 5),
    ("train", "lr0", 0),
    ("train", "beta1", 1.5),
    ("train", "beta2", -0.5),
    ("train", "weight_decay", -1),
    ("train", "poly_power", -1),
)


def config_leaves(tree, prefix=""):
    """(dotted path, default) of every leaf of a config tree."""
    for key, val in tree.items():
        if isinstance(val, dict):
            yield from config_leaves(val, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", val


def nested(path, value):
    """The config overriding the leaf at dotted ``path`` with ``value``."""
    for part in reversed(path.split(".")):
        value = {part: value}
    return value


DIAGNOSTICS = ("distinct_outputs", "mean_output_tokens", "cap_hits", "worse_than_input")


def micro_config(**overrides):
    return pl.effective_config("tiny", file_config=MICRO, overrides=overrides)


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    pl.run_stage("demo", micro_config(), out)
    return out


class TestConfig:
    def test_defaults_pass_validation(self):
        for scale in pl.SCALE_PRESETS:
            cfg = pl.effective_config(scale)
            assert cfg["scale"] == scale

    def test_unknown_field_named(self):
        with pytest.raises(pl.ConfigError, match="data.varian"):
            pl.effective_config("tiny", file_config={"data": {"varian": "base"}})
        # Fields that only ever took one value are gone and now unknown.
        for section, field, value in REMOVED_FIELDS:
            with pytest.raises(pl.ConfigError, match=f"unknown config field: {section}.{field}"):
                pl.effective_config("tiny", file_config={section: {field: value}})

    def test_head_split_constraint_named(self):
        with pytest.raises(pl.ConfigError, match="model.H.*model.A"):
            pl.effective_config("tiny", file_config={"model": {"H": 30, "A": 4}})

    def test_scalar_where_section_expected(self):
        with pytest.raises(pl.ConfigError, match="model"):
            pl.effective_config("tiny", file_config={"model": 3})

    def test_bad_variant_rejected(self):
        with pytest.raises(pl.ConfigError, match="data.variant"):
            pl.effective_config("tiny", file_config={"data": {"variant": "+everything"}})

    def test_unknown_scale(self):
        with pytest.raises(pl.ConfigError, match="scale"):
            pl.effective_config("huge")

    def test_flag_overrides_beat_file_config(self):
        cfg = pl.effective_config("tiny", file_config={"seed": 5}, overrides={"seed": 9})
        assert cfg["seed"] == 9

    def test_boolean_rejected_for_numeric_field(self):
        numeric = [path for path, default in config_leaves(pl._DEFAULTS)
                   if isinstance(default, (int, float))]
        assert len(numeric) == 34
        for path in numeric:
            for bad in (True, "x", float("nan"), float("inf")):
                with pytest.raises(pl.ConfigError, match=re.escape(path)):
                    pl.effective_config("tiny", file_config=nested(path, bad))

    @pytest.mark.parametrize("value", [[2], [2, 5, 7], [2.0, 5], [True, 5], "2-5"])
    def test_cutout_len_needs_two_integers(self, value):
        with pytest.raises(pl.ConfigError, match="channel.cutout_len"):
            pl.effective_config("tiny", file_config={"channel": {"cutout_len": value}})

    def test_float_leaf_takes_an_integer(self):
        cfg = pl.effective_config("tiny", file_config={"train": {"lr0": 1}},
                                  overrides={"train": {"lr0": 0.5}})
        assert cfg["train"]["lr0"] == 0.5

    @pytest.mark.parametrize("section,field,value", TYPED_RULES,
                             ids=[f"{s}.{f}" for s, f, _ in TYPED_RULES])
    def test_typed_config_rule_applies(self, section, field, value):
        with pytest.raises(pl.ConfigError, match=f"config section {section}: .*{field}"):
            pl.effective_config("tiny", file_config={section: {field: value}})

    def test_folds_beyond_training_sentences_rejected(self):
        # 10 sentences less 2 held out leave 8 for the default 10 folds.
        with pytest.raises(pl.ConfigError, match="data.folds"):
            pl.effective_config("small", file_config={"corpus": {"n_sentences": 10}})
        cfg = pl.effective_config("small", file_config={"corpus": {"n_sentences": 10},
                                                        "data": {"folds": 8}})
        assert cfg["data"]["folds"] == 8

    def test_config_file_errors(self, tmp_path):
        with pytest.raises(pl.MissingInputError):
            pl.load_config_file(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(pl.ConfigError, match="JSON"):
            pl.load_config_file(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(pl.ConfigError, match="object"):
            pl.load_config_file(arr)


class TestLockAndDispatch:
    def test_unknown_subcommand(self, tmp_path):
        with pytest.raises(pl.ConfigError, match="subcommand"):
            pl.run_stage("compile", micro_config(), tmp_path)

    def test_locked_directory_rejected(self, tmp_path):
        with pl.directory_lock(tmp_path):
            with pytest.raises(pl.LockError, match="locked"):
                pl.run_stage("gen-data", micro_config(), tmp_path)
        assert not (tmp_path / pl.CORPUS_FILE).exists()

    def test_lock_of_a_killed_run_is_dropped(self, tmp_path):
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import sys\nfrom postasr import pipeline as pl\n"
             "with pl.directory_lock(sys.argv[1]):\n"
             "    print('held', flush=True)\n    sys.stdin.read()\n", str(tmp_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(pl.__file__).parents[1])})
        try:
            assert holder.stdout.readline() == "held\n"
            with pytest.raises(pl.LockError, match="locked"):
                pl.run_stage("gen-data", micro_config(), tmp_path)
        finally:
            holder.kill()
            holder.wait(timeout=60)
        assert holder.returncode == -signal.SIGKILL
        pl.run_stage("gen-data", micro_config(), tmp_path)
        assert (tmp_path / pl.CORPUS_FILE).exists()

    def test_lock_released_after_failure(self, tmp_path):
        with pytest.raises(pl.MissingInputError):
            pl.run_stage("vocab-build", micro_config(), tmp_path)
        with open(tmp_path / pl.LOCK_FILE) as f:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)  # raises while still held
        pl.run_stage("gen-data", micro_config(), tmp_path)
        assert (tmp_path / pl.CORPUS_FILE).exists()


class TestMissingInputs:
    def test_each_stage_names_its_missing_file(self, tmp_path):
        for stage, missing in (("vocab-build", pl.CORPUS_FILE),
                               ("lm-fit", pl.CORPUS_FILE),
                               ("train", pl.VOCAB_FILE),
                               ("correct", pl.VOCAB_FILE),
                               ("decode", pl.LM_FILE),
                               ("eval", pl.CORRECTED_FILE),
                               ("ablate", pl.VOCAB_FILE)):
            with pytest.raises(pl.MissingInputError, match=missing):
                pl.run_stage(stage, micro_config(), tmp_path / stage)


class TestGenData:
    def test_corpora_split_and_disjoint(self, demo_dir):
        from postasr.corpus import load_corpus

        train_s = load_corpus(demo_dir / pl.CORPUS_FILE)
        eval_s = load_corpus(demo_dir / pl.EVAL_CORPUS_FILE)
        assert len(train_s) == 48 and len(eval_s) == 12
        assert not set(train_s) & set(eval_s)

    def test_channel_config_round_trips(self, demo_dir):
        cfg = config_from_json((demo_dir / pl.CHANNEL_FILE).read_text())
        assert cfg.dropout_strength > 0

    def test_pairs_carry_expected_tags(self, demo_dir):
        pairs = datagen.read_pairs_jsonl(demo_dir / pl.PAIRS_FILE)
        tags = {p.tag for p in pairs}
        assert tags == {datagen.TAG_BASE, datagen.dropout_tag(0), datagen.TAG_CUTOUT}

    def test_eval_pairs_match_their_stored_wer(self, demo_dir):
        pairs = datagen.read_pairs_jsonl(demo_dir / pl.EVAL_PAIRS_FILE)
        assert len(pairs) == 12
        for p in pairs:
            assert p.tag == pl.EVAL_TAG
            assert p.wer == pytest.approx(evalkit.wer(p.target, p.source).rate)

    def test_histogram_counts_total_train_pairs(self, demo_dir):
        cfg = micro_config()
        pairs = datagen.read_pairs_jsonl(demo_dir / pl.PAIRS_FILE)
        chosen = datagen.variant(pairs, cfg["data"]["variant"], pl._datagen_config(cfg))
        lines = (demo_dir / pl.HISTOGRAM_FILE).read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        total = sum(int(row.split(",")[2]) for row in lines[1:])
        assert total == len(chosen)


class TestTrainAndCorrect:
    def test_checkpoint_meta_binds_vocab(self, demo_dir):
        from postasr.training import load_training_checkpoint

        vocab = wp.Vocab.load(demo_dir / pl.VOCAB_FILE)
        meta, weights, spec = load_training_checkpoint(demo_dir / pl.CKPT_DIR)
        assert meta["vocab_sha1"] == vocab.content_hash()
        assert meta["init"] == "random/random"
        assert spec.V == len(vocab)
        for arr in weights.values():
            assert np.isfinite(arr).all()

    def test_corrected_pairs_align_with_eval_pairs(self, demo_dir):
        eval_pairs = datagen.read_pairs_jsonl(demo_dir / pl.EVAL_PAIRS_FILE)
        corrected = datagen.read_pairs_jsonl(demo_dir / pl.CORRECTED_FILE)
        assert len(corrected) == len(eval_pairs)
        for before, after in zip(eval_pairs, corrected):
            assert after.target == before.target
            assert after.tag == pl.CORRECTED_TAG
            assert after.wer == pytest.approx(evalkit.wer(after.target, after.source).rate)

    def test_correct_summary_has_diagnostics(self, demo_dir):
        eval_pairs = datagen.read_pairs_jsonl(demo_dir / pl.EVAL_PAIRS_FILE)
        corrected = datagen.read_pairs_jsonl(demo_dir / pl.CORRECTED_FILE)
        summary = json.loads((demo_dir / pl.REPORT_FILE).read_text())["stages"]["correct"]
        record = next(r for r in pl.read_manifest(demo_dir) if r["subcommand"] == "correct")
        assert record["summary"] == summary
        n, cap = len(corrected), MICRO["model"]["max_len"]
        assert set(DIAGNOSTICS) <= set(summary)
        assert 1 <= summary["distinct_outputs"] <= n
        assert summary["distinct_outputs"] == len({p.source for p in corrected})
        assert 0 <= summary["mean_output_tokens"] <= cap - 1
        assert 0 <= summary["cap_hits"] <= n
        assert summary["worse_than_input"] == sum(
            after.wer > before.wer for before, after in zip(eval_pairs, corrected))

    def test_vocab_swap_detected(self, demo_dir, tmp_path):
        import shutil

        for name in (pl.VOCAB_FILE, pl.EVAL_PAIRS_FILE):
            shutil.copy(demo_dir / name, tmp_path / name)
        shutil.copytree(demo_dir / pl.CKPT_DIR, tmp_path / pl.CKPT_DIR)
        vocab = wp.Vocab.load(tmp_path / pl.VOCAB_FILE)
        wp.Vocab(vocab.pieces + ("##zz",)).save(tmp_path / pl.VOCAB_FILE)
        with pytest.raises(pl.ConfigError, match="vocab"):
            pl.run_stage("correct", micro_config(), tmp_path)

    def test_pretrained_init_logged_and_reused(self, tmp_path):
        cfg = micro_config()
        pl.run_stage("gen-data", cfg, tmp_path)
        pl.run_stage("vocab-build", cfg, tmp_path)
        pre = micro_config()
        pre["train"] = dict(pre["train"], steps=2, encoder_init="pretrained",
                            decoder_init="random")
        pl.run_stage("train", pre, tmp_path)
        assert (tmp_path / pl.PRETRAINED_DIR / "manifest.txt").exists()
        record = pl.read_manifest(tmp_path)[-1]
        fallback = record["notes"]["random_fallback"]
        assert fallback and all(name.startswith("decoder.") for name in fallback)
        assert f"{pl.PRETRAINED_DIR}/manifest.txt" in record["outputs"]

        # A second pretrained run finds the checkpoint instead of remaking it.
        pl.run_stage("train", pre, tmp_path)
        record = pl.read_manifest(tmp_path)[-1]
        assert f"{pl.PRETRAINED_DIR}/manifest.txt" in record["inputs"]


class TestDecodeAndEval:
    def test_nbest_file_covers_eval_corpus(self, demo_dir):
        lines = (demo_dir / pl.NBEST_FILE).read_text().splitlines()
        assert len(lines) == 12
        for line in lines:
            assert len(json.loads(line)["nbest"]) >= 1

    def test_eval_summary_matches_recomputation(self, demo_dir):
        pairs = datagen.read_pairs_jsonl(demo_dir / pl.CORRECTED_FILE)
        expected = evalkit.wer_corpus((p.target, p.source) for p in pairs).rate
        summary = json.loads((demo_dir / pl.REPORT_FILE).read_text())["stages"]["eval"]
        assert summary["wer"] == pytest.approx(expected, abs=1e-6)
        assert summary["pairs"] == len(pairs)

    def test_eval_of_identical_pairs_is_zero(self, tmp_path):
        pairs = [datagen.ParallelPair(s, s, 0.0, 0, "x", 0)
                 for s in ("a b c", "the cat sat")]
        datagen.write_pairs_jsonl(tmp_path / "perfect.jsonl", pairs)
        summary = pl.run_stage("eval", micro_config(eval={"pairs": "perfect.jsonl"}), tmp_path)
        assert summary["wer"] == 0.0


class TestAblate:
    def test_tables_have_expected_cells(self, demo_dir):
        t1 = read_table((demo_dir / pl.TABLE1_FILE).read_text())
        t2 = read_table((demo_dir / pl.TABLE2_FILE).read_text())
        assert [r[0] for r in t1] == list(datagen.VARIANTS)
        assert [r[0] for r in t2] == [c[0] for c in pl.INIT_CELLS]
        for _, dataset, value in t1 + t2:
            assert dataset == "eval"
            assert 0.0 <= value

    def test_every_cell_has_corrector_diagnostics(self, demo_dir):
        record = next(r for r in pl.read_manifest(demo_dir) if r["subcommand"] == "ablate")
        cells = record["notes"]["diagnostics"]
        assert set(cells) == set(record["notes"]["final_losses"])
        for diagnostics in cells.values():
            assert set(diagnostics) == set(DIAGNOSTICS)


class TestManifest:
    def test_one_record_per_stage_plus_demo(self, demo_dir):
        records = pl.read_manifest(demo_dir)
        assert [r["subcommand"] for r in records] == list(pl._DEMO_STAGES) + ["demo"]
        for r in records:
            assert r["version"] == pl.VERSION
            assert r["seed"] == 0
            assert "wall_clock_s" in r and "config" in r

    def test_output_hashes_verify(self, demo_dir):
        for record in pl.read_manifest(demo_dir):
            for rel, digest in record["outputs"].items():
                assert pl.file_sha256(demo_dir / rel) == digest

    def test_train_timing_is_in_the_notes_not_the_summary(self, demo_dir):
        record = next(r for r in pl.read_manifest(demo_dir) if r["subcommand"] == "train")
        assert set(record["summary"]) == {"pairs", "steps", "final_loss"}
        notes = record["notes"]
        assert notes["train_s"] > 0
        assert notes["steps_per_s"] == pytest.approx(record["summary"]["steps"] / notes["train_s"],
                                                     rel=0.05)

    def test_missing_manifest_reads_empty(self, tmp_path):
        assert pl.read_manifest(tmp_path) == []


# SHA-256 of the micro config's gen-data and decode artifacts, recorded
# before the channel tables and the sparse-label beam replaced per-character
# Generator.choice draws and the all-label beam (numpy 2.4.6, x86-64). A
# refactor of either path must leave these bytes unchanged.
GOLDEN_SHA256 = {
    pl.CHANNEL_FILE: "f2a0cd77820d9f06f91b1c208f8a15de9a027fe98e292aad3e0835ba9f14dade",
    pl.PAIRS_FILE: "0c94e6ecb7f3231faaee84bdbce64727349486bc53beab3476af8bf138c89df1",
    pl.EVAL_PAIRS_FILE: "0bb5581454824e35082abb45f9213d41497b89f9df1895c1969f35bf03f8cf29",
    pl.NBEST_FILE: "0ecb88c1429af05861e9baa7b402136db48b8c3d419fdf9761a58d70e8bc5e47",
}


class TestDeterminism:
    def test_gen_data_and_decode_match_golden_digests(self, tmp_path):
        cfg = micro_config()
        for stage in ("gen-data", "lm-fit", "decode"):
            pl.run_stage(stage, cfg, tmp_path)
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
        assert got == GOLDEN_SHA256

    def test_demo_repeats_byte_identical(self, demo_dir, tmp_path_factory):
        again = tmp_path_factory.mktemp("demo_again")
        pl.run_stage("demo", micro_config(), again)
        tracked = [pl.CORPUS_FILE, pl.EVAL_CORPUS_FILE, pl.CHANNEL_FILE, pl.PAIRS_FILE,
                   pl.EVAL_PAIRS_FILE, pl.HISTOGRAM_FILE, pl.VOCAB_FILE, pl.LM_FILE,
                   pl.CORRECTED_FILE, pl.NBEST_FILE, pl.TABLE1_FILE, pl.TABLE2_FILE,
                   pl.REPORT_FILE, "ckpt/manifest.txt", "ckpt/tensors.bin",
                   "pretrained/manifest.txt", "pretrained/tensors.bin"]
        for rel in tracked:
            a = (demo_dir / rel).read_bytes()
            b = (again / rel).read_bytes()
            assert a == b, f"artifact {rel} differs between identical runs"
