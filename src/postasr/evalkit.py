"""Word error rate computation, corpus aggregation, and report rendering."""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["WerBreakdown", "wer", "wer_corpus", "wer_histogram", "Histogram", "AblationReport", "ablation_report"]


@dataclass(frozen=True)
class WerBreakdown:
    substitutions: int
    insertions: int
    deletions: int
    ref_words: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def rate(self) -> float | None:
        """Errors over reference length; None when undefined (empty reference
        with a non-empty hypothesis)."""
        if self.ref_words == 0:
            return 0.0 if self.errors == 0 else None
        return self.errors / self.ref_words


def wer(reference: str, hypothesis: str) -> WerBreakdown:
    """Minimal word-level edit distance with a deterministic breakdown.

    Unit costs for substitution, deletion, insertion. Among minimal-cost
    alignments the one with the most substitutions is reported (equivalently
    the fewest deletions), so substitution wins ties against deletion and
    insertion. That choice also makes the breakdown argument-dual:
    wer(r, h).deletions == wer(h, r).insertions.
    """
    ref = reference.split()
    hyp = hypothesis.split()
    n, m = len(ref), len(hyp)
    if ref == hyp:
        return WerBreakdown(0, 0, 0, n)

    # dp[j] = cost * k + deletions for the current row: deletions never
    # exceed n < k, so one integer orders as the pair (cost, deletions).
    k = n + 1
    prev = list(range(0, (m + 1) * k, k))
    for i, r in enumerate(ref, 1):
        left = i * k + i
        cur = [left]
        for h, diag, up in zip(hyp, prev, prev[1:]):
            if r != h:
                diag += k
            up += k + 1
            left += k
            if up < diag:
                diag = up
            left = diag if diag < left else left
            cur.append(left)
        prev = cur

    cost, deletions = divmod(prev[m], k)
    insertions = deletions - (n - m)
    substitutions = cost - deletions - insertions
    return WerBreakdown(substitutions, insertions, deletions, n)


def wer_corpus(pairs) -> WerBreakdown:
    """Aggregate over (reference, hypothesis) pairs: counts are summed, then
    divided; this is not the mean of per-sentence rates."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("wer_corpus: no pairs")
    s = i = d = n = 0
    for ref, hyp in pairs:
        b = wer(ref, hyp)
        s += b.substitutions
        i += b.insertions
        d += b.deletions
        n += b.ref_words
    return WerBreakdown(s, i, d, n)


@dataclass(frozen=True)
class Histogram:
    bin_width: float
    counts: tuple[int, ...]

    def bin_range(self, k: int) -> tuple[float, float]:
        return k * self.bin_width, (k + 1) * self.bin_width

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("bin_lo,bin_hi,count\n")
        for k, c in enumerate(self.counts):
            lo, hi = self.bin_range(k)
            out.write(f"{lo:g},{hi:g},{c}\n")
        return out.getvalue()


def wer_histogram(pairs, bin_width: float) -> Histogram:
    """Sentence counts per WER bin [k*w, (k+1)*w) over (ref, hyp) pairs.

    Bins are taken from the exact rate errors/words against the decimal
    width, so a rate on an edge (3/20 at width 0.05) opens its bin; float
    division would put it in the bin below.
    """
    if bin_width <= 0:
        raise ValueError("wer_histogram: bin_width must be > 0")
    width = Fraction(str(bin_width))
    bins = []
    for ref, hyp in pairs:
        b = wer(ref, hyp)
        if b.rate is None:
            raise ValueError("wer_histogram: undefined rate (empty reference, non-empty hypothesis)")
        bins.append(Fraction(b.errors, max(b.ref_words, 1)) // width)
    counts = [0] * (max(bins, default=0) + 1)
    for k in bins:
        counts[k] += 1
    return Histogram(bin_width, tuple(counts))


@dataclass(frozen=True)
class AblationReport:
    """Rows of (system label, dataset label, WER*100), one per run."""

    rows: tuple[tuple[str, str, float], ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("system,dataset,wer\n")
        for label, dataset, w in self.rows:
            out.write(f"{label},{dataset},{w:.2f}\n")
        return out.getvalue()


def ablation_report(runs) -> AblationReport:
    """Build the report from (label, dataset, pairs) runs; labels must be
    unique per dataset."""
    runs = list(runs)
    if not runs:
        raise ValueError("ablation_report: no runs")
    seen = set()
    rows = []
    for label, dataset, pairs in runs:
        key = (label, dataset)
        if key in seen:
            raise ValueError(f"ablation_report: duplicate cell {key}")
        seen.add(key)
        rate = wer_corpus(pairs).rate
        if rate is None:
            raise ValueError(f"ablation_report: undefined corpus WER for {key}")
        rows.append((label, dataset, round(rate * 100, 2)))
    return AblationReport(tuple(rows))
