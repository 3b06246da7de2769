"""Word-level backoff n-gram language model with absolute discounting.

The estimate interpolates every order down to a uniform base over the event
space E = training vocabulary + end-of-sentence + unknown:

    P_k(w | c) = max(cnt(c,w) - d, 0)/cnt(c) + gamma(c) * P_{k-1}(w | c')

where c' drops the oldest context word and gamma(c) = d * N1+(c) / cnt(c)
is the mass freed by discounting (N1+ counts distinct continuations); an
unseen context passes through to the shorter one with no gamma factor.
With d = 0 this is plain maximum likelihood and unseen events score -inf.

Stored tables hold the final interpolated probabilities, so scoring is a
plain backoff walk: take the stored value if the n-gram is present, else
multiply by the context's gamma and retry one order lower. Every unigram
event is stored (unknown included), so the walk always terminates. The
ARPA-style file holds exactly these quantities; a reloaded model scores
identically to the in-memory one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .atomic import atomic_write

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

LOG10_SENTINEL = -99.0
LN10 = math.log(10.0)


@dataclass(frozen=True)
class NgramModel:
    order: int
    discount: float
    vocab: frozenset[str]
    # logprob[k]: seen (k+1)-gram tuple -> interpolated ln P(last | rest);
    # gamma[k]: k-word context tuple -> ln backoff weight, 1 <= k < order.
    logprob: tuple[dict[tuple[str, ...], float], ...]
    gamma: tuple[dict[tuple[str, ...], float], ...]
    _events: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_events", frozenset(self.vocab | {EOS, UNK}))

    @property
    def events(self) -> frozenset[str]:
        """The outcome space every conditional normalizes over."""
        return self._events

    def cond_logprob(self, word: str, context: tuple[str, ...] = ()) -> float:
        """ln P(word | context); -inf only possible at discount 0."""
        if word not in self._events:
            word = UNK
        context = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        return self._walk(word, context)

    def _walk(self, word: str, context: tuple[str, ...]) -> float:
        while True:
            hit = self.logprob[len(context)].get(context + (word,))
            if hit is not None:
                return hit
            if not context:
                # Unigram table covers all of E; missing only via -inf pruning.
                return -math.inf
            g = self.gamma[len(context)].get(context)
            if g is None:
                context = context[1:]
                continue
            rest = self._walk(word, context[1:])
            return -math.inf if rest == -math.inf or g == -math.inf else g + rest

    def logprob_sentence(self, sentence: str) -> float:
        """Total ln-probability of the word sequence including </s>."""
        words = sentence.split()
        history = (BOS,) * (self.order - 1)
        total = 0.0
        for w in words + [EOS]:
            lp = self.cond_logprob(w, history)
            if lp == -math.inf:
                return -math.inf
            total += lp
            if self.order > 1:
                history = history[1:] + (w,)
        return total


def fit(corpus, order: int, discount: float = 0.1) -> NgramModel:
    """Count n-grams of all orders over the corpus and precompute the
    interpolated estimates."""
    corpus = list(corpus)
    if not corpus:
        raise ValueError("fit: empty corpus")
    if order < 1:
        raise ValueError("fit: order must be >= 1")
    if not 0.0 <= discount < 1.0:
        raise ValueError("fit: discount must be in [0, 1)")

    vocab = set()
    counts = [Counter() for _ in range(order + 1)]  # counts[k]: k-gram tuples
    for sentence in corpus:
        words = sentence.split()
        vocab.update(words)
        padded = [BOS] * (order - 1) + words + [EOS]
        for i in range(order - 1, len(padded)):
            for k in range(1, order + 1):
                if i - k + 1 >= 0:
                    counts[k][tuple(padded[i - k + 1: i + 1])] += 1
    if vocab & {BOS, EOS, UNK}:
        raise ValueError("fit: corpus contains reserved symbols")

    events = vocab | {EOS, UNK}
    uniform = 1.0 / len(events)

    ctx_total = [Counter() for _ in range(order)]
    ctx_types = [Counter() for _ in range(order)]
    for k in range(1, order + 1):
        for gram, c in counts[k].items():
            ctx_total[k - 1][gram[:-1]] += c
            ctx_types[k - 1][gram[:-1]] += 1

    def prob(word, context):
        k = len(context)
        if k == 0:
            total = ctx_total[0][()]
            g0 = discount * ctx_types[0][()] / total
            return max(counts[1].get((word,), 0) - discount, 0.0) / total + g0 * uniform
        total = ctx_total[k].get(context, 0)
        lower = prob(word, context[1:])
        if total == 0:
            return lower
        cnt = counts[k + 1].get(context + (word,), 0)
        g = discount * ctx_types[k][context] / total
        return max(cnt - discount, 0.0) / total + g * lower

    def ln(p):
        return math.log(p) if p > 0 else -math.inf

    logprob: list[dict] = [dict() for _ in range(order)]
    gamma: list[dict] = [dict() for _ in range(order)]
    for k in range(1, order + 1):
        for gram in counts[k]:
            logprob[k - 1][gram] = ln(prob(gram[-1], gram[:-1]))
    # The unknown event is never counted but always scoreable.
    logprob[0][(UNK,)] = ln(prob(UNK, ()))
    for k in range(1, order):
        for context, total in ctx_total[k].items():
            gamma[k][context] = ln(discount * ctx_types[k][context] / total)
        # All-<s> contexts are never counted as grams; give them carrier
        # entries so serialization keeps their gammas.
        bos_ctx = (BOS,) * k
        if bos_ctx in gamma[k]:
            logprob[k - 1].setdefault(bos_ctx, -math.inf)

    return NgramModel(
        order=order,
        discount=discount,
        vocab=frozenset(vocab),
        logprob=tuple(logprob),
        gamma=tuple(gamma),
    )


def _to_log10(lp: float) -> str:
    return f"{LOG10_SENTINEL}" if lp == -math.inf else f"{lp / LN10:.17g}"


def _from_log10(text: str) -> float:
    v = float(text)
    return -math.inf if v <= LOG10_SENTINEL + 0.1 else v * LN10


def save_arpa(model: NgramModel, path) -> None:
    """Plain-text model file: per-order blocks of (log10 interpolated
    probability, n-gram, log10 backoff weight of the n-gram as a context)."""
    with atomic_write(path) as f:
        f.write("\\data\\\n")
        for k in range(model.order):
            f.write(f"ngram {k + 1}={len(model.logprob[k])}\n")
        f.write("\n")
        for k in range(model.order):
            f.write(f"\\{k + 1}-grams:\n")
            for gram in sorted(model.logprob[k]):
                line = f"{_to_log10(model.logprob[k][gram])}\t{' '.join(gram)}"
                if k + 1 < model.order and gram in model.gamma[k + 1]:
                    line += f"\t{_to_log10(model.gamma[k + 1][gram])}"
                f.write(line + "\n")
            f.write("\n")
        f.write("\\end\\\n")


def load_arpa(path) -> NgramModel:
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f]
    if "\\data\\" not in lines:
        raise ValueError("load_arpa: missing \\data\\ header")
    order = 0
    for ln in lines:
        if ln.startswith("ngram "):
            order = max(order, int(ln.split("=")[0].split()[1]))
    if order == 0:
        raise ValueError("load_arpa: no ngram counts in header")

    logprob: list[dict] = [dict() for _ in range(order)]
    gamma: list[dict] = [dict() for _ in range(order)]
    vocab = set()
    k = None
    for ln in lines:
        if ln.endswith("-grams:") and ln.startswith("\\"):
            k = int(ln[1:].split("-")[0]) - 1
            continue
        if not ln or ln in ("\\data\\", "\\end\\") or ln.startswith("ngram ") or k is None:
            continue
        parts = ln.split("\t")
        gram = tuple(parts[1].split(" "))
        if len(gram) != k + 1:
            raise ValueError(f"load_arpa: {len(gram)}-gram in {k + 1}-gram block: {parts[1]!r}")
        logprob[k][gram] = _from_log10(parts[0])
        if len(parts) > 2:
            gamma[k + 1][gram] = _from_log10(parts[2])
        vocab.update(w for w in gram if w not in (BOS, EOS, UNK))

    return NgramModel(
        order=order,
        discount=math.nan,
        vocab=frozenset(vocab),
        logprob=tuple(logprob),
        gamma=tuple(gamma),
    )
