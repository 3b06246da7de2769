"""Pipeline stages behind the command-line interface.

Every stage operates on a single output directory with fixed artifact
names, so stages compose by file contract alone: `gen-data` writes the
corpora and parallel pairs, `vocab-build`/`lm-fit` derive text models,
`train` fits the corrector, `correct`/`decode`/`eval` consume it, and
`demo` is nothing but the stages run back to back. Each invocation
appends one record to ``manifest.jsonl`` describing its effective
config, input/output hashes, and wall-clock time. Wall-clock lives only
in the manifest; the artifacts themselves are byte-reproducible.
"""

from __future__ import annotations

import dataclasses
import fcntl
import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

from . import channel as chan
from . import checkpoint as ck
from . import datagen, evalkit, ngram
from . import wordpiece as wp
from .decoding import FusionConfig, ctc_greedy, fused_beam_search, write_nbest_jsonl
from .initialization import InitPlan, build_weights
from .model import ModelSpec, correct
from .training import (TrainConfig, encode_pair, encode_pairs,
                       load_training_checkpoint, make_pretrained_checkpoint,
                       save_training_checkpoint, train)

VERSION = "0.1.0"

CORPUS_FILE = "corpus.txt"
EVAL_CORPUS_FILE = "eval_corpus.txt"
CHANNEL_FILE = "channel.json"
PAIRS_FILE = "pairs.jsonl"
EVAL_PAIRS_FILE = "eval_pairs.jsonl"
HISTOGRAM_FILE = "histogram.csv"
VOCAB_FILE = "vocab.txt"
LM_FILE = "lm.arpa"
PRETRAINED_DIR = "pretrained"
CKPT_DIR = "ckpt"
CORRECTED_FILE = "corrected.jsonl"
NBEST_FILE = "nbest.jsonl"
TABLE1_FILE = "table1.csv"
TABLE2_FILE = "table2.csv"
REPORT_FILE = "report.json"
MANIFEST_FILE = "manifest.jsonl"
LOCK_FILE = ".lock"

EVAL_TAG = "eval"
CORRECTED_TAG = "corrected"

HISTOGRAM_BIN_WIDTH = 0.05  # WER bin width of histogram.csv

INIT_CELLS = (
    ("rand/rand", "random", "random"),
    ("pre/rand", "pretrained", "random"),
    ("rand/pre", "random", "pretrained"),
    ("pre/pre", "pretrained", "pretrained"),
)


class ConfigError(ValueError):
    """Config that parsed but fails validation; exits with its own code."""


class MissingInputError(FileNotFoundError):
    """A stage input file that an earlier stage should have produced."""


class LockError(RuntimeError):
    """Another run holds the output directory."""


# ---------------------------------------------------------------- config

_DEFAULTS: dict = {
    "seed": 0,
    "corpus": {"n_sentences": 2000, "eval_fraction": 0.15},
    "vocab": {"target_size": 200},
    "channel": {
        "del_prob": 0.004,
        "ins_prob": 0.003,
        "cutout_len": [2, 5],
        "target_wer": 0.15,
        "calibration_sentences": 200,
    },
    "data": {
        "folds": 10,
        "n_dropout_rounds": 3,
        "dropout_boost": 2.0,
        "cutout_rate": 0.03,
        "wer_max": 0.5,
        "variant": "+both",
    },
    "model": {"L": 2, "H": 64, "A": 4, "P_drop": 0.1, "max_len": 40, "ffn_mult": 4},
    "train": {
        "steps": 1500,
        "token_budget": 2000,
        "lr0": 0.001,
        "beta1": 0.95,
        "beta2": 0.25,
        "weight_decay": 0.0,
        "poly_power": 1.0,
        "smoothing": 0.1,
        "encoder_init": "random",
        "decoder_init": "random",
        "pretrain_steps": 300,
    },
    "lm": {"order": 3, "discount": 0.1},
    "decode": {"lam": 0.5, "width": 8},
    "correct": {"width": 1},
    "eval": {"pairs": CORRECTED_FILE},
    "ablate": {"steps": 300},
}

# "small" is the full-size run; "tiny" trades accuracy for a demo that
# finishes in a couple of minutes. The full-size run starts from pretrained
# weights, which the paper finds "required to achieve good performance"; tiny
# keeps the random init of the defaults.
SCALE_PRESETS: dict[str, dict] = {
    "small": {"train": {"encoder_init": "pretrained", "decoder_init": "pretrained"}},
    "tiny": {
        "corpus": {"n_sentences": 160, "eval_fraction": 0.2},
        "vocab": {"target_size": 120},
        "channel": {"calibration_sentences": 64},
        "data": {"folds": 4, "n_dropout_rounds": 1},
        "model": {"L": 1, "H": 32, "A": 2},
        "train": {"steps": 400, "token_budget": 800, "pretrain_steps": 60},
        "lm": {"order": 2},
        "decode": {"width": 6},
        "ablate": {"steps": 150},
    },
}


def _deep_merge(base: dict, over: dict, prefix: str = "") -> dict:
    """Override leaves of `base`; unknown keys are rejected by name."""
    out = dict(base)
    for key, val in over.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config field: {path}")
        cur = base[key]
        if isinstance(cur, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config field {path} must be a section, got {type(val).__name__}")
            out[key] = _deep_merge(cur, val, prefix=path + ".")
        else:
            out[key] = val
    return out


def _expect(cfg: dict, path: str, kinds, pred=None, what: str = "") -> None:
    node = cfg
    for part in path.split("."):
        node = node[part]
    if isinstance(node, bool) and bool not in (kinds if isinstance(kinds, tuple) else (kinds,)):
        raise ConfigError(f"config field {path} must be {what or 'a number'}, got a boolean")
    if not isinstance(node, kinds):
        raise ConfigError(f"config field {path} has wrong type: {type(node).__name__}")
    if pred is not None and not pred(node):
        raise ConfigError(f"config field {path} is out of range: {node!r}" + (f" ({what})" if what else ""))


def validate_config(cfg: dict) -> None:
    num = (int, float)
    _expect(cfg, "seed", int, lambda v: v >= 0, "seed must be >= 0")
    _expect(cfg, "corpus.n_sentences", int, lambda v: v >= 10)
    _expect(cfg, "corpus.eval_fraction", num, lambda v: 0 < v < 1)
    _expect(cfg, "vocab.target_size", int, lambda v: v > len(wp.RESERVED))
    _expect(cfg, "channel.target_wer", num, lambda v: 0 < v < 1)
    _expect(cfg, "channel.calibration_sentences", int, lambda v: v >= 1)
    _expect(cfg, "data.folds", int, lambda v: v >= 2)
    _expect(cfg, "data.n_dropout_rounds", int, lambda v: v >= 0)
    _expect(cfg, "data.wer_max", num, lambda v: 0 < v <= 1)
    if cfg["data"]["variant"] not in datagen.VARIANTS:
        raise ConfigError(f"config field data.variant must be one of {datagen.VARIANTS}")
    for field in ("L", "H", "A", "max_len", "ffn_mult"):
        _expect(cfg, f"model.{field}", int, lambda v: v >= 1)
    if cfg["model"]["H"] % cfg["model"]["A"] != 0:
        raise ConfigError(
            f"config field model.H must be divisible by model.A "
            f"(H={cfg['model']['H']}, A={cfg['model']['A']})")
    _expect(cfg, "model.P_drop", num, lambda v: 0 <= v < 1)
    _expect(cfg, "train.steps", int, lambda v: v >= 1)
    _expect(cfg, "train.token_budget", int, lambda v: v >= 2)
    _expect(cfg, "train.pretrain_steps", int, lambda v: v >= 1)
    _expect(cfg, "train.smoothing", num, lambda v: 0 <= v < 1)
    for field in ("encoder_init", "decoder_init"):
        if cfg["train"][field] not in ("random", "pretrained"):
            raise ConfigError(f"config field train.{field} must be 'random' or 'pretrained'")
    _expect(cfg, "lm.order", int, lambda v: v >= 1)
    _expect(cfg, "lm.discount", num, lambda v: 0 <= v < 1)
    _expect(cfg, "decode.lam", num, lambda v: v >= 0)
    _expect(cfg, "decode.width", int, lambda v: v >= 1)
    _expect(cfg, "correct.width", int, lambda v: v >= 1)
    _expect(cfg, "eval.pairs", str, lambda v: bool(v))
    _expect(cfg, "ablate.steps", int, lambda v: v >= 1)


def load_config_file(path) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise MissingInputError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def effective_config(scale: str = "small", file_config: dict | None = None,
                     overrides: dict | None = None) -> dict:
    """Defaults <- scale preset <- config file <- flag overrides."""
    if scale not in SCALE_PRESETS:
        raise ConfigError(f"unknown scale {scale!r}; choose from {sorted(SCALE_PRESETS)}")
    cfg = _deep_merge(_DEFAULTS, SCALE_PRESETS[scale])
    cfg = _deep_merge(cfg, file_config or {})
    cfg = _deep_merge(cfg, overrides or {})
    cfg["scale"] = scale
    validate_config(cfg)
    return cfg


# -------------------------------------------------------- manifest, lock

def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            block = f.read(1 << 20)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


def _artifact_hashes(out_dir: Path, names) -> dict[str, str]:
    hashes = {}
    for name in names:
        path = out_dir / name
        if path.is_dir():
            for sub in sorted(p for p in path.rglob("*") if p.is_file()):
                hashes[str(sub.relative_to(out_dir))] = file_sha256(sub)
        else:
            hashes[name] = file_sha256(path)
    return hashes


def append_manifest(out_dir, record: dict) -> None:
    with open(Path(out_dir) / MANIFEST_FILE, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def read_manifest(out_dir) -> list[dict]:
    path = Path(out_dir) / MANIFEST_FILE
    if not path.exists():
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


@contextmanager
def directory_lock(out_dir):
    """One writer per output directory: an exclusive ``flock`` on ``.lock``.

    The kernel drops the lock when its holder exits or is killed, so a
    crashed run never leaves the directory locked. The file stays in place
    and is never removed, so every run locks the same inode.
    """
    path = Path(out_dir) / LOCK_FILE
    with open(path, "a") as f:
        try:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise LockError(f"output directory {out_dir} is locked by another run "
                            f"(it holds a flock on {path})") from None
        yield


# ---------------------------------------------------------------- stages

@dataclasses.dataclass(frozen=True)
class StageResult:
    summary: dict
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    notes: dict | None = None


def _require(out_dir: Path, name: str) -> Path:
    path = out_dir / name
    probe = path / ck.MANIFEST_NAME if path.is_dir() else path
    if not probe.exists():
        raise MissingInputError(f"missing input file: {path}")
    return path


def _derived_seed(seed: int, k: int) -> int:
    return (seed * 131 + k) % (2**31 - 1)


_EVAL_CHANNEL_KEY = 999983


def _channel_base(cfg: dict) -> chan.ChannelConfig:
    c = cfg["channel"]
    return chan.default_config(
        del_prob=c["del_prob"], ins_prob=c["ins_prob"],
        cutout_len=tuple(c["cutout_len"]), seed=cfg["seed"])


def _datagen_config(cfg: dict) -> datagen.DataGenConfig:
    d = cfg["data"]
    return datagen.DataGenConfig(
        folds=d["folds"], n_dropout_rounds=d["n_dropout_rounds"],
        dropout_boost=d["dropout_boost"], cutout_rate=d["cutout_rate"],
        wer_max=d["wer_max"], seed=cfg["seed"])


def _model_spec(cfg: dict, vocab_size: int) -> ModelSpec:
    m = cfg["model"]
    return ModelSpec(L=m["L"], H=m["H"], A=m["A"], P_drop=m["P_drop"],
                     V=vocab_size, max_len=m["max_len"], ffn_mult=m["ffn_mult"])


def _train_config(cfg: dict, steps: int) -> TrainConfig:
    t = cfg["train"]
    return TrainConfig(steps=steps, token_budget=t["token_budget"], lr0=t["lr0"],
                       beta1=t["beta1"], beta2=t["beta2"],
                       weight_decay=t["weight_decay"], poly_power=t["poly_power"],
                       smoothing=t["smoothing"], seed=cfg["seed"])


def _gen_data(cfg: dict, out_dir: Path) -> StageResult:
    from .corpus import CorpusConfig, generate_corpus, save_corpus, train_eval_split

    seed = cfg["seed"]
    sentences = generate_corpus(CorpusConfig(n_sentences=cfg["corpus"]["n_sentences"], seed=seed))
    train_s, eval_s = train_eval_split(sentences, cfg["corpus"]["eval_fraction"], seed)
    save_corpus(out_dir / CORPUS_FILE, train_s)
    save_corpus(out_dir / EVAL_CORPUS_FILE, eval_s)

    sample = train_s[: cfg["channel"]["calibration_sentences"]]
    base = chan.calibrate_strength(_channel_base(cfg), sample, cfg["channel"]["target_wer"])
    (out_dir / CHANNEL_FILE).write_text(chan.config_to_json(base) + "\n")

    dg = _datagen_config(cfg)
    fold_channels = [dataclasses.replace(base, seed=_derived_seed(seed, 1000 + f))
                     for f in range(dg.folds)]
    pairs = datagen.generate(train_s, dg, fold_channels)
    datagen.write_pairs_jsonl(out_dir / PAIRS_FILE, pairs)

    eval_cc = dataclasses.replace(base, seed=_derived_seed(seed, _EVAL_CHANNEL_KEY))
    eval_pairs = []
    for s in eval_s:
        hyp = chan.corrupt(eval_cc, s)
        eval_pairs.append(datagen.ParallelPair(
            source=hyp, target=s, wer=evalkit.wer(s, hyp).rate,
            fold=-1, tag=EVAL_TAG, seed=eval_cc.seed))
    datagen.write_pairs_jsonl(out_dir / EVAL_PAIRS_FILE, eval_pairs)

    train_variant = datagen.variant(pairs, cfg["data"]["variant"], dg)
    hist = evalkit.wer_histogram(((p.target, p.source) for p in train_variant),
                                 HISTOGRAM_BIN_WIDTH)
    (out_dir / HISTOGRAM_FILE).write_text(hist.to_csv())

    eval_wer = evalkit.wer_corpus((p.target, p.source) for p in eval_pairs).rate
    summary = {
        "train_sentences": len(train_s),
        "eval_sentences": len(eval_s),
        "pairs": len(pairs),
        "train_pairs": len(train_variant),
        "channel_strength": round(base.dropout_strength, 6),
        "eval_channel_wer": round(eval_wer, 6),
    }
    return StageResult(summary, outputs=(CORPUS_FILE, EVAL_CORPUS_FILE, CHANNEL_FILE,
                                         PAIRS_FILE, EVAL_PAIRS_FILE, HISTOGRAM_FILE))


def _vocab_build(cfg: dict, out_dir: Path) -> StageResult:
    from .corpus import load_corpus

    sentences = load_corpus(_require(out_dir, CORPUS_FILE))
    vocab = wp.build_vocab(sentences, cfg["vocab"]["target_size"])
    vocab.save(out_dir / VOCAB_FILE)
    summary = {"pieces": len(vocab), "vocab_sha1": vocab.content_hash()}
    return StageResult(summary, inputs=(CORPUS_FILE,), outputs=(VOCAB_FILE,))


def _lm_fit(cfg: dict, out_dir: Path) -> StageResult:
    from .corpus import load_corpus

    sentences = load_corpus(_require(out_dir, CORPUS_FILE))
    model = ngram.fit(sentences, order=cfg["lm"]["order"], discount=cfg["lm"]["discount"])
    ngram.save_arpa(model, out_dir / LM_FILE)
    summary = {"order": model.order, "words": len(model.vocab)}
    return StageResult(summary, inputs=(CORPUS_FILE,), outputs=(LM_FILE,))


def _ensure_pretrained(cfg: dict, out_dir: Path, spec: ModelSpec,
                       vocab: wp.Vocab) -> tuple[Path, tuple[str, ...], tuple[str, ...]]:
    """Reuse an existing synthesized-pretraining checkpoint or create one.

    Returns the checkpoint path and the manifest entries it adds: a reused
    checkpoint is an input; a created one is an output made from the corpus.
    """
    from .corpus import load_corpus

    path = out_dir / PRETRAINED_DIR
    if (path / ck.MANIFEST_NAME).exists():
        return path, (PRETRAINED_DIR,), ()
    sentences = load_corpus(_require(out_dir, CORPUS_FILE))
    pre_cfg = _train_config(cfg, cfg["train"]["pretrain_steps"])
    ckpt = make_pretrained_checkpoint(spec, vocab, sentences, pre_cfg)
    ck.save(ckpt, path)
    return path, (CORPUS_FILE,), (PRETRAINED_DIR,)


def _init_plan(cfg: dict, enc_src: str, dec_src: str, ckpt_path: Path | None) -> InitPlan:
    return InitPlan(encoder_source=enc_src, decoder_source=dec_src,
                    checkpoint_path=None if ckpt_path is None else str(ckpt_path),
                    seed=cfg["seed"])


def _fit_cells(spec: ModelSpec, vocab: wp.Vocab, cells, tcfg: TrainConfig):
    """Build the initial weights of every (plan, pairs) cell, then train each.

    A checkpoint that does not fit the spec or the vocabulary is a
    ConfigError raised before any cell trains. Yields (init, result) per
    cell, training each only when it is asked for.
    """
    try:
        inits = [build_weights(spec, plan, vocab_hash=vocab.content_hash()) for plan, _ in cells]
    except ValueError as e:
        raise ConfigError(f"initialization failed: {e}")
    return ((init, train(spec, init.weights, encode_pairs(vocab, pairs, spec), tcfg))
            for init, (_, pairs) in zip(inits, cells))


def _train_stage(cfg: dict, out_dir: Path) -> StageResult:
    vocab = wp.Vocab.load(_require(out_dir, VOCAB_FILE))
    pairs = datagen.read_pairs_jsonl(_require(out_dir, PAIRS_FILE))
    spec = _model_spec(cfg, len(vocab))
    dg = _datagen_config(cfg)
    train_pairs = datagen.variant(pairs, cfg["data"]["variant"], dg)
    if not train_pairs:
        raise ConfigError(f"data.variant {cfg['data']['variant']!r} selects no pairs")

    enc_src = cfg["train"]["encoder_init"]
    dec_src = cfg["train"]["decoder_init"]
    inputs = (VOCAB_FILE, PAIRS_FILE)
    outputs = (CKPT_DIR,)
    ckpt_path = None
    if "pretrained" in (enc_src, dec_src):
        ckpt_path, pre_in, pre_out = _ensure_pretrained(cfg, out_dir, spec, vocab)
        inputs, outputs = inputs + pre_in, outputs + pre_out
    plan = _init_plan(cfg, enc_src, dec_src, ckpt_path)
    [(init, result)] = _fit_cells(spec, vocab, [(plan, train_pairs)],
                                  _train_config(cfg, cfg["train"]["steps"]))
    save_training_checkpoint(out_dir / CKPT_DIR, spec, result.weights,
                             meta={"vocab_sha1": vocab.content_hash(),
                                   "init": f"{enc_src}/{dec_src}",
                                   "steps": str(result.steps_run)})

    notes = {"init_random": sum(1 for s in init.sources.values() if s == "random"),
             "init_checkpoint": sum(1 for s in init.sources.values() if s != "random")}
    if plan.needs_checkpoint:
        notes["random_fallback"] = sorted(n for n, s in init.sources.items() if s == "random")
    summary = {"pairs": len(train_pairs), "steps": result.steps_run,
               "final_loss": round(float(result.losses[-1]), 6)}
    return StageResult(summary, inputs=inputs, outputs=outputs, notes=notes)


_spec_from_meta = ModelSpec.from_meta  # the name the benchmark calls


def _apply_corrector(spec: ModelSpec, weights, vocab: wp.Vocab, pairs, width: int):
    """Run the corrector over pair sources; returns corrected ParallelPairs."""
    out = []
    for p in pairs:
        src = encode_pair(vocab, p.source, "", spec.max_len, spec.max_len).src
        best = correct(spec, weights, src, width=width)[0]
        text = wp.decode(vocab, best.ids)
        out.append(datagen.ParallelPair(
            source=text, target=p.target, wer=evalkit.wer(p.target, text).rate,
            fold=p.fold, tag=CORRECTED_TAG, seed=p.seed))
    return out


def _correct_stage(cfg: dict, out_dir: Path) -> StageResult:
    vocab = wp.Vocab.load(_require(out_dir, VOCAB_FILE))
    meta, weights, spec = load_training_checkpoint(_require(out_dir, CKPT_DIR))
    stored = meta.get("vocab_sha1")
    if stored is not None and stored != vocab.content_hash():
        raise ConfigError(f"checkpoint was trained with vocabulary {stored}, "
                          f"but {VOCAB_FILE} hashes to {vocab.content_hash()}")
    eval_pairs = datagen.read_pairs_jsonl(_require(out_dir, EVAL_PAIRS_FILE))

    corrected = _apply_corrector(spec, weights, vocab, eval_pairs, cfg["correct"]["width"])
    datagen.write_pairs_jsonl(out_dir / CORRECTED_FILE, corrected)

    before = evalkit.wer_corpus((p.target, p.source) for p in eval_pairs).rate
    after = evalkit.wer_corpus((p.target, p.source) for p in corrected).rate
    summary = {"pairs": len(corrected),
               "wer_before": round(before, 6),
               "wer_after": round(after, 6)}
    if before > 0:
        summary["relative_reduction"] = round(1.0 - after / before, 6)
    return StageResult(summary, inputs=(VOCAB_FILE, CKPT_DIR, EVAL_PAIRS_FILE),
                       outputs=(CORRECTED_FILE,))


def _decode_stage(cfg: dict, out_dir: Path) -> StageResult:
    from .corpus import load_corpus

    lm = ngram.load_arpa(_require(out_dir, LM_FILE))
    eval_s = load_corpus(_require(out_dir, EVAL_CORPUS_FILE))
    base = chan.config_from_json(_require(out_dir, CHANNEL_FILE).read_text())
    eval_cc = dataclasses.replace(base, seed=_derived_seed(cfg["seed"], _EVAL_CHANNEL_KEY))
    fusion = FusionConfig(lam=cfg["decode"]["lam"], width=cfg["decode"]["width"])

    nbests, greedy_pairs, fused_pairs = [], [], []
    for s in eval_s:
        lattice = chan.emit_lattice(eval_cc, s)
        nbest = fused_beam_search(lattice, lm, fusion)
        nbests.append(nbest)
        greedy_pairs.append((s, ctc_greedy(lattice)))
        fused_pairs.append((s, nbest.top().text))
    write_nbest_jsonl(out_dir / NBEST_FILE, nbests)

    summary = {"utterances": len(nbests),
               "greedy_wer": round(evalkit.wer_corpus(greedy_pairs).rate, 6),
               "fused_wer": round(evalkit.wer_corpus(fused_pairs).rate, 6)}
    return StageResult(summary, inputs=(LM_FILE, EVAL_CORPUS_FILE, CHANNEL_FILE),
                       outputs=(NBEST_FILE,))


def _eval_stage(cfg: dict, out_dir: Path) -> StageResult:
    name = cfg["eval"]["pairs"]
    pairs = datagen.read_pairs_jsonl(_require(out_dir, name))
    b = evalkit.wer_corpus((p.target, p.source) for p in pairs)
    summary = {"pairs": len(pairs), "wer": round(b.rate, 6),
               "substitutions": b.substitutions, "insertions": b.insertions,
               "deletions": b.deletions, "ref_words": b.ref_words}
    return StageResult(summary, inputs=(name,))


def _ablate_stage(cfg: dict, out_dir: Path) -> StageResult:
    vocab = wp.Vocab.load(_require(out_dir, VOCAB_FILE))
    pairs = datagen.read_pairs_jsonl(_require(out_dir, PAIRS_FILE))
    eval_pairs = datagen.read_pairs_jsonl(_require(out_dir, EVAL_PAIRS_FILE))
    spec = _model_spec(cfg, len(vocab))
    dg = _datagen_config(cfg)
    tcfg = _train_config(cfg, cfg["ablate"]["steps"])
    ckpt_path, pre_in, pre_out = _ensure_pretrained(cfg, out_dir, spec, vocab)
    cell_pairs = datagen.variant(pairs, cfg["data"]["variant"], dg)
    rand = _init_plan(cfg, "random", "random", None)
    cells = ([("data", label, (rand, datagen.variant(pairs, label, dg)))
              for label in datagen.VARIANTS]
             + [("init", label, (_init_plan(cfg, enc_src, dec_src, ckpt_path), cell_pairs))
                for label, enc_src, dec_src in INIT_CELLS])
    fitted = _fit_cells(spec, vocab, [cell for _, _, cell in cells], tcfg)

    losses, runs = {}, {"data": [], "init": []}
    for (table, label, _), (_, result) in zip(cells, fitted):
        losses[f"{table}:{label}"] = round(float(result.losses[-1]), 6)
        corrected = _apply_corrector(spec, result.weights, vocab, eval_pairs,
                                     cfg["correct"]["width"])
        runs[table].append((label, "eval", [(p.target, p.source) for p in corrected]))
    table1 = evalkit.ablation_report(runs["data"])
    table2 = evalkit.ablation_report(runs["init"])
    (out_dir / TABLE1_FILE).write_text(table1.to_csv())
    (out_dir / TABLE2_FILE).write_text(table2.to_csv())

    summary = {
        "table1": {label: w for label, _, w in table1.rows},
        "table2": {label: w for label, _, w in table2.rows},
    }
    return StageResult(summary, inputs=(VOCAB_FILE, PAIRS_FILE, EVAL_PAIRS_FILE) + pre_in,
                       outputs=(TABLE1_FILE, TABLE2_FILE) + pre_out,
                       notes={"final_losses": losses})


_DEMO_STAGES = ("gen-data", "vocab-build", "lm-fit", "train",
                "correct", "decode", "eval", "ablate")


def _demo_stage(cfg: dict, out_dir: Path) -> StageResult:
    stage_summaries = {}
    for name in _DEMO_STAGES:
        stage_summaries[name] = _run_locked(name, cfg, out_dir)
    report = {"version": VERSION, "scale": cfg["scale"], "seed": cfg["seed"],
              "stages": stage_summaries}
    (out_dir / REPORT_FILE).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    summary = {
        "eval_channel_wer": stage_summaries["gen-data"]["eval_channel_wer"],
        "corrected_wer": stage_summaries["correct"]["wer_after"],
        "fused_wer": stage_summaries["decode"]["fused_wer"],
        "report": REPORT_FILE,
    }
    return StageResult(summary, outputs=(REPORT_FILE,))


_STAGES = {
    "gen-data": _gen_data,
    "vocab-build": _vocab_build,
    "lm-fit": _lm_fit,
    "train": _train_stage,
    "correct": _correct_stage,
    "decode": _decode_stage,
    "eval": _eval_stage,
    "ablate": _ablate_stage,
    "demo": _demo_stage,
}

SUBCOMMANDS = tuple(_STAGES)


def _run_locked(name: str, cfg: dict, out_dir: Path) -> dict:
    t0 = time.monotonic()
    result = _STAGES[name](cfg, out_dir)
    record = {
        "subcommand": name,
        "version": VERSION,
        "seed": cfg["seed"],
        "scale": cfg["scale"],
        "config": cfg,
        "inputs": _artifact_hashes(out_dir, result.inputs),
        "outputs": _artifact_hashes(out_dir, result.outputs),
        "summary": result.summary,
        "wall_clock_s": round(time.monotonic() - t0, 3),
    }
    if result.notes:
        record["notes"] = result.notes
    append_manifest(out_dir, record)
    return result.summary


def run_stage(name: str, cfg: dict, out_dir) -> dict:
    """Run one subcommand under the directory lock; returns its summary."""
    if name not in _STAGES:
        raise ConfigError(f"unknown subcommand {name!r}; choose from {SUBCOMMANDS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with directory_lock(out):
        return _run_locked(name, cfg, out)
