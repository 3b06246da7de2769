"""End-to-end checks for the stage pipeline on a micro workload."""

import fcntl
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
        with pytest.raises(pl.ConfigError, match="train.steps"):
            pl.effective_config("tiny", file_config={"train": {"steps": True}})

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
        t1 = evalkit.AblationReport.parse_csv((demo_dir / pl.TABLE1_FILE).read_text())
        t2 = evalkit.AblationReport.parse_csv((demo_dir / pl.TABLE2_FILE).read_text())
        assert [r[0] for r in t1.rows] == list(datagen.VARIANTS)
        assert [r[0] for r in t2.rows] == [c[0] for c in pl.INIT_CELLS]
        for _, dataset, value in t1.rows + t2.rows:
            assert dataset == "eval"
            assert 0.0 <= value


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

    def test_missing_manifest_reads_empty(self, tmp_path):
        assert pl.read_manifest(tmp_path) == []


class TestDeterminism:
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
