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
import math
import time
from contextlib import contextmanager
from pathlib import Path

from . import channel as chan
from . import checkpoint as ck
from . import datagen, evalkit, ngram
from . import wordpiece as wp
from .atomic import atomic_write
from .corpus import (CorpusConfig, eval_count, generate_corpus, load_corpus, save_corpus,
                     train_eval_split)
from .decoding import FusionConfig, ctc_greedy, fused_beam_search, write_nbest_jsonl
from .initialization import INIT_SOURCES, InitPlan, build_weights
from .model import LossConfig, ModelSpec, correct
from .optim import OptimizerConfig
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


def _fits(default, val) -> bool:
    if isinstance(val, bool) != isinstance(default, bool):
        return False
    if isinstance(val, float) and not math.isfinite(val):
        return False  # NaN and Infinity, which Python's json reads but JSON lacks
    if isinstance(default, list):
        return (isinstance(val, list) and len(val) == len(default)
                and all(_fits(d, v) for d, v in zip(default, val)))
    return isinstance(val, (int, float) if isinstance(default, float) else type(default))


def _deep_merge(base: dict, over: dict, defaults: dict = _DEFAULTS, prefix: str = "") -> dict:
    """Override leaves of ``base``; unknown keys and leaves not of their
    default's JSON type are rejected by name. A float leaf also takes an
    int, a list takes as many items as its default, a boolean passes only
    where the default is one, and no number may be NaN or infinite."""
    out = dict(base)
    for key, val in over.items():
        path = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config field: {path}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config field {path} must be a section, got {type(val).__name__}")
            out[key] = _deep_merge(base[key], val, default, prefix=path + ".")
        elif not _fits(default, val):
            raise ConfigError(f"config field {path} must have the type of its default "
                              f"{json.dumps(default)}, got {json.dumps(val)}")
        else:
            out[key] = val
    return out


# Ranges of the leaves that no typed config checks.
_RANGES = (
    ("seed", lambda v: v >= 0, "must be >= 0"),
    ("corpus.n_sentences", lambda v: v >= 10, "must be >= 10"),
    ("corpus.eval_fraction", lambda v: 0 < v < 1, "must be in (0, 1)"),
    ("vocab.target_size", lambda v: v > len(wp.RESERVED), f"must be > {len(wp.RESERVED)}"),
    ("channel.target_wer", lambda v: 0 < v < 1, "must be in (0, 1)"),
    ("channel.calibration_sentences", lambda v: v >= 1, "must be >= 1"),
    ("data.variant", lambda v: v in datagen.VARIANTS, f"must be one of {datagen.VARIANTS}"),
    ("train.encoder_init", lambda v: v in INIT_SOURCES, f"must be one of {INIT_SOURCES}"),
    ("train.decoder_init", lambda v: v in INIT_SOURCES, f"must be one of {INIT_SOURCES}"),
    ("lm.order", lambda v: v >= 1, "must be >= 1"),
    ("lm.discount", lambda v: 0 <= v < 1, "must be in [0, 1)"),
    ("correct.width", lambda v: v >= 1, "must be >= 1"),
    ("eval.pairs", bool, "must not be empty"),
)


def validate_config(cfg: dict) -> None:
    """Range-check a merged config by building the typed configs the stages
    run with (``vocab.target_size`` standing in for the vocabulary size)."""
    for path, ok, rule in _RANGES:
        section, _, field = path.rpartition(".")
        val = cfg[section][field] if section else cfg[field]
        if not ok(val):
            raise ConfigError(f"config field {path} {rule}, got {val!r}")
    m, t = cfg["model"], cfg["train"]
    if m["A"] >= 1 and m["H"] % m["A"]:  # ModelSpec's rule, restated to name both fields
        raise ConfigError(f"config field model.H must be divisible by model.A "
                          f"(H={m['H']}, A={m['A']})")
    for section, build in (
            ("model", lambda: _model_spec(cfg, cfg["vocab"]["target_size"])),
            ("train", lambda: _train_config(cfg, t["steps"])),
            ("train (pretrain_steps)", lambda: _train_config(cfg, t["pretrain_steps"])),
            ("train", lambda: LossConfig(smoothing=t["smoothing"])),
            ("ablate", lambda: _train_config(cfg, cfg["ablate"]["steps"])),
            ("decode", lambda: FusionConfig(**cfg["decode"])),
            ("channel", lambda: _channel_base(cfg)),
            ("data", lambda: list(datagen._rounds(_datagen_config(cfg), _channel_base(cfg))))):
        try:
            build()
        except ValueError as e:
            raise ConfigError(f"config section {section}: {e}") from None
    n, folds = cfg["corpus"]["n_sentences"], cfg["data"]["folds"]
    n_train = n - eval_count(n, cfg["corpus"]["eval_fraction"])
    if folds > n_train:
        raise ConfigError(f"config field data.folds ({folds}) exceeds the {n_train} training "
                          f"sentences of corpus.n_sentences and corpus.eval_fraction")


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
    optim = OptimizerConfig(lr0=t["lr0"], beta1=t["beta1"], beta2=t["beta2"],
                            weight_decay=t["weight_decay"], poly_power=t["poly_power"])
    return TrainConfig(steps=steps, token_budget=t["token_budget"], smoothing=t["smoothing"],
                       seed=cfg["seed"], optim=optim)


def _gen_data(cfg: dict, out_dir: Path) -> StageResult:
    seed = cfg["seed"]
    sentences = generate_corpus(CorpusConfig(n_sentences=cfg["corpus"]["n_sentences"], seed=seed))
    train_s, eval_s = train_eval_split(sentences, cfg["corpus"]["eval_fraction"], seed)
    save_corpus(out_dir / CORPUS_FILE, train_s)
    save_corpus(out_dir / EVAL_CORPUS_FILE, eval_s)

    sample = train_s[: cfg["channel"]["calibration_sentences"]]
    base = chan.calibrate_strength(_channel_base(cfg), sample, cfg["channel"]["target_wer"])
    with atomic_write(out_dir / CHANNEL_FILE) as f:
        f.write(chan.config_to_json(base) + "\n")

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
    with atomic_write(out_dir / HISTOGRAM_FILE) as f:
        f.write(hist.to_csv())

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
    sentences = load_corpus(_require(out_dir, CORPUS_FILE))
    try:
        vocab = wp.build_vocab(sentences, cfg["vocab"]["target_size"])
    except ValueError as e:
        if not sentences:  # an empty corpus file is a broken artifact, not a config fault
            raise
        raise ConfigError(f"config field vocab.target_size does not fit {CORPUS_FILE}: {e}") from None
    vocab.save(out_dir / VOCAB_FILE)
    summary = {"pieces": len(vocab), "vocab_sha1": vocab.content_hash()}
    return StageResult(summary, inputs=(CORPUS_FILE,), outputs=(VOCAB_FILE,))


def _lm_fit(cfg: dict, out_dir: Path) -> StageResult:
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
    cells = _fit_cells(spec, vocab, [(plan, train_pairs)], _train_config(cfg, cfg["train"]["steps"]))
    t0 = time.perf_counter()
    [(init, result)] = cells  # trains the cell
    train_s = time.perf_counter() - t0
    save_training_checkpoint(out_dir / CKPT_DIR, spec, result.weights,
                             meta={"vocab_sha1": vocab.content_hash(),
                                   "init": f"{enc_src}/{dec_src}",
                                   "steps": str(result.steps_run)})

    # Timings go in the notes: the summary is compared across runs (criterion 9).
    notes = {"init_random": sum(1 for s in init.sources.values() if s == "random"),
             "init_checkpoint": sum(1 for s in init.sources.values() if s != "random"),
             "train_s": round(train_s, 3), "steps_per_s": round(result.steps_run / train_s, 3)}
    if plan.needs_checkpoint:
        notes["random_fallback"] = sorted(n for n, s in init.sources.items() if s == "random")
    summary = {"pairs": len(train_pairs), "steps": result.steps_run,
               "final_loss": round(float(result.losses[-1]), 6)}
    return StageResult(summary, inputs=inputs, outputs=outputs, notes=notes)


_spec_from_meta = ModelSpec.from_meta  # the name the benchmark calls


def _apply_corrector(spec: ModelSpec, weights, vocab: wp.Vocab, pairs, width: int):
    """Run the corrector over pair sources: (corrected ParallelPairs, diagnostics).

    The diagnostics count distinct outputs, the mean output length in
    pieces, the outputs cut at the length cap (``spec.max_len`` less the
    start marker) and the sentences whose WER the correction raised.
    """
    out, lengths = [], []
    for p in pairs:
        src = encode_pair(vocab, p.source, "", spec.max_len, spec.max_len).src
        best = correct(spec, weights, src, width=width)[0]
        text = wp.decode(vocab, best.ids)
        lengths.append(len(best.ids))
        out.append(datagen.ParallelPair(
            source=text, target=p.target, wer=evalkit.wer(p.target, text).rate,
            fold=p.fold, tag=CORRECTED_TAG, seed=p.seed))
    diagnostics = {
        "distinct_outputs": len({p.source for p in out}),
        "mean_output_tokens": round(sum(lengths) / len(lengths), 6),
        "cap_hits": sum(n == spec.max_len - 1 for n in lengths),
        "worse_than_input": sum(after.wer > before.wer for before, after in zip(pairs, out)),
    }
    return out, diagnostics


def _correct_stage(cfg: dict, out_dir: Path) -> StageResult:
    vocab = wp.Vocab.load(_require(out_dir, VOCAB_FILE))
    meta, weights, spec = load_training_checkpoint(_require(out_dir, CKPT_DIR))
    stored = meta.get("vocab_sha1")
    if stored is not None and stored != vocab.content_hash():
        raise ConfigError(f"checkpoint was trained with vocabulary {stored}, "
                          f"but {VOCAB_FILE} hashes to {vocab.content_hash()}")
    eval_pairs = datagen.read_pairs_jsonl(_require(out_dir, EVAL_PAIRS_FILE))

    corrected, diagnostics = _apply_corrector(spec, weights, vocab, eval_pairs,
                                              cfg["correct"]["width"])
    datagen.write_pairs_jsonl(out_dir / CORRECTED_FILE, corrected)

    before = evalkit.wer_corpus((p.target, p.source) for p in eval_pairs).rate
    after = evalkit.wer_corpus((p.target, p.source) for p in corrected).rate
    summary = {"pairs": len(corrected),
               "wer_before": round(before, 6),
               "wer_after": round(after, 6),
               **diagnostics}
    if before > 0:
        summary["relative_reduction"] = round(1.0 - after / before, 6)
    return StageResult(summary, inputs=(VOCAB_FILE, CKPT_DIR, EVAL_PAIRS_FILE),
                       outputs=(CORRECTED_FILE,))


def _decode_stage(cfg: dict, out_dir: Path) -> StageResult:
    lm = ngram.load_arpa(_require(out_dir, LM_FILE))
    eval_pairs = datagen.read_pairs_jsonl(_require(out_dir, EVAL_PAIRS_FILE))
    base = chan.config_from_json(_require(out_dir, CHANNEL_FILE).read_text())
    eval_cc = dataclasses.replace(base, seed=_derived_seed(cfg["seed"], _EVAL_CHANNEL_KEY))
    fusion = FusionConfig(**cfg["decode"])

    # gen-data wrote each eval sentence with its eval-channel corruption.
    nbests, greedy_pairs, fused_pairs = [], [], []
    for p in eval_pairs:
        lattice = chan.emit_lattice(eval_cc, p.target, p.source)
        nbest = fused_beam_search(lattice, lm, fusion)
        nbests.append(nbest)
        greedy_pairs.append((p.target, ctc_greedy(lattice)))
        fused_pairs.append((p.target, nbest.top().text))
    write_nbest_jsonl(out_dir / NBEST_FILE, nbests)

    summary = {"utterances": len(nbests),
               "greedy_wer": round(evalkit.wer_corpus(greedy_pairs).rate, 6),
               "fused_wer": round(evalkit.wer_corpus(fused_pairs).rate, 6)}
    return StageResult(summary, inputs=(LM_FILE, EVAL_PAIRS_FILE, CHANNEL_FILE),
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

    losses, diagnostics, runs = {}, {}, {"data": [], "init": []}
    for (table, label, _), (_, result) in zip(cells, fitted):
        losses[f"{table}:{label}"] = round(float(result.losses[-1]), 6)
        corrected, diagnostics[f"{table}:{label}"] = _apply_corrector(
            spec, result.weights, vocab, eval_pairs, cfg["correct"]["width"])
        runs[table].append((label, "eval", [(p.target, p.source) for p in corrected]))
    table1 = evalkit.ablation_report(runs["data"])
    table2 = evalkit.ablation_report(runs["init"])
    for name, table in ((TABLE1_FILE, table1), (TABLE2_FILE, table2)):
        with atomic_write(out_dir / name) as f:
            f.write(table.to_csv())

    summary = {
        "table1": {label: w for label, _, w in table1.rows},
        "table2": {label: w for label, _, w in table2.rows},
    }
    return StageResult(summary, inputs=(VOCAB_FILE, PAIRS_FILE, EVAL_PAIRS_FILE) + pre_in,
                       outputs=(TABLE1_FILE, TABLE2_FILE) + pre_out,
                       notes={"final_losses": losses, "diagnostics": diagnostics})


_DEMO_STAGES = ("gen-data", "vocab-build", "lm-fit", "train",
                "correct", "decode", "eval", "ablate")


def _demo_stage(cfg: dict, out_dir: Path) -> StageResult:
    stage_summaries = {}
    for name in _DEMO_STAGES:
        stage_summaries[name] = _run_locked(name, cfg, out_dir)
    report = {"version": VERSION, "scale": cfg["scale"], "seed": cfg["seed"],
              "stages": stage_summaries}
    with atomic_write(out_dir / REPORT_FILE) as f:
        f.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
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
