"""Word error rate computation, corpus aggregation, and report rendering."""

from __future__ import annotations

import io
from dataclasses import dataclass

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

    # dp[j] = (cost, deletions) for the current row, compared lexicographically.
    prev = [(j, 0) for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [(i, i)] + [None] * m
        for j in range(1, m + 1):
            sub_cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            c, d = prev[j - 1]
            best = (c + sub_cost, d)
            c, d = prev[j]
            best = min(best, (c + 1, d + 1))
            c, d = cur[j - 1]
            best = min(best, (c + 1, d))
            cur[j] = best
        prev = cur

    cost, deletions = prev[m]
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
    """Sentence counts per WER bin [k*w, (k+1)*w) over (ref, hyp) pairs."""
    if bin_width <= 0:
        raise ValueError("wer_histogram: bin_width must be > 0")
    rates = []
    for ref, hyp in pairs:
        r = wer(ref, hyp).rate
        if r is None:
            raise ValueError("wer_histogram: undefined rate (empty reference, non-empty hypothesis)")
        rates.append(r)
    if not rates:
        return Histogram(bin_width, (0,))
    top = max(int(r / bin_width) for r in rates)
    counts = [0] * (top + 1)
    for r in rates:
        counts[int(r / bin_width)] += 1
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

    @staticmethod
    def parse_csv(text: str) -> "AblationReport":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "system,dataset,wer":
            raise ValueError("not an ablation report CSV")
        rows = []
        for ln in lines[1:]:
            label, dataset, w = ln.split(",")
            rows.append((label, dataset, float(w)))
        return AblationReport(tuple(rows))


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
