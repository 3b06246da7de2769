"""Exit codes, flag handling, and printed output of the command line."""

import json

import pytest

from postasr import pipeline as pl
from postasr.cli import main
from postasr import datagen

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


@pytest.fixture
def micro_cfg_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MICRO))
    return str(path)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_missing_input_exits_4(tmp_path, capsys):
    code = main(["eval", "--scale", "tiny", "--out-dir", str(tmp_path)])
    assert code == 4
    assert pl.CORRECTED_FILE in capsys.readouterr().err


def test_malformed_config_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["gen-data", "--config", str(bad), "--out-dir", str(tmp_path)])
    assert code == 3
    assert "JSON" in capsys.readouterr().err


def test_unknown_config_field_exits_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trian": {"steps": 5}}))
    code = main(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 3
    assert "trian" in capsys.readouterr().err


def test_head_split_violation_exits_3_naming_fields(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"H": 30, "A": 4}}))
    code = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "model.H" in err and "model.A" in err


def test_absent_config_file_exits_4(tmp_path, capsys):
    code = main(["gen-data", "--config", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 4


def test_locked_dir_exits_1(tmp_path, micro_cfg_file, capsys):
    with pl.directory_lock(tmp_path):
        code = main(["gen-data", "--scale", "tiny", "--config", micro_cfg_file,
                     "--out-dir", str(tmp_path)])
    assert code == 1
    assert "locked" in capsys.readouterr().err


def test_eval_prints_wer_zero_for_identical_pairs(tmp_path, micro_cfg_file, capsys):
    pairs = [datagen.ParallelPair(s, s, 0.0, 0, "x", 0)
             for s in ("a b c", "the cat sat on the mat")]
    datagen.write_pairs_jsonl(tmp_path / pl.CORRECTED_FILE, pairs)
    code = main(["eval", "--scale", "tiny", "--config", micro_cfg_file,
                 "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "WER 0.00"


def test_json_mode_prints_machine_summary(tmp_path, micro_cfg_file, capsys):
    code = main(["gen-data", "--scale", "tiny", "--config", micro_cfg_file,
                 "--json", "--out-dir", str(tmp_path)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["train_sentences"] == 48


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(MICRO, seed=3)))
    code = main(["gen-data", "--scale", "tiny", "--config", str(cfg),
                 "--seed", "11", "--out-dir", str(tmp_path)])
    assert code == 0
    records = pl.read_manifest(tmp_path)
    assert records[-1]["seed"] == 11
    assert records[-1]["config"]["seed"] == 11


def test_stage_summary_plain_output(tmp_path, micro_cfg_file, capsys):
    code = main(["gen-data", "--scale", "tiny", "--config", micro_cfg_file,
                 "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert any(line.startswith("eval_channel_wer ") for line in out.splitlines())


def test_ablate_on_a_stale_pretrained_checkpoint_exits_3(tmp_path, capsys):
    # vocab-build again with another size leaves pretrained/ on the old vocabulary.
    out = tmp_path / "out"
    configs = []
    for size in (80, 70):
        path = tmp_path / f"config{size}.json"
        path.write_text(json.dumps({**MICRO, "vocab": {"target_size": size}}))
        configs.append(str(path))

    def run(stage, config):
        return main([stage, "--scale", "tiny", "--config", config, "--out-dir", str(out)])

    for stage in ("gen-data", "vocab-build", "ablate"):
        assert run(stage, configs[0]) == 0
    tables = {name: (out / name).read_bytes() for name in (pl.TABLE1_FILE, pl.TABLE2_FILE)}
    assert run("vocab-build", configs[1]) == 0
    capsys.readouterr()
    assert run("ablate", configs[1]) == 3
    assert "initialization failed" in capsys.readouterr().err
    for name, before in tables.items():
        assert (out / name).read_bytes() == before
