import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postasr.evalkit import AblationReport, ablation_report, wer, wer_corpus, wer_histogram

WORDS = ["a", "b", "c", "d", "e"]


def all_alignments(ref, hyp):
    """Every achievable (S, D, I) triple for aligning ref to hyp.

    Plain recursive enumeration with memo; independent of the DP in evalkit.
    """
    memo = {}

    def rec(i, j):
        key = (i, j)
        if key in memo:
            return memo[key]
        if i == len(ref) and j == len(hyp):
            out = {(0, 0, 0)}
        else:
            out = set()
            if i < len(ref) and j < len(hyp):
                ds = 0 if ref[i] == hyp[j] else 1
                out |= {(s + ds, d, ins) for s, d, ins in rec(i + 1, j + 1)}
            if i < len(ref):
                out |= {(s, d + 1, ins) for s, d, ins in rec(i + 1, j)}
            if j < len(hyp):
                out |= {(s, d, ins + 1) for s, d, ins in rec(i, j + 1)}
        memo[key] = out
        return out

    return rec(0, 0)


def oracle_breakdown(ref, hyp):
    """Min-cost triple, ties broken toward fewest deletions (= most subs)."""
    triples = all_alignments(ref.split(), hyp.split())
    return min(triples, key=lambda t: (sum(t), t[1]))


class TestWer:
    def test_identical(self):
        assert wer("a b c", "a b c").rate == 0

    def test_single_substitution(self):
        b = wer("a b c", "a x c")
        assert (b.substitutions, b.insertions, b.deletions) == (1, 0, 0)
        assert b.rate == pytest.approx(1 / 3)

    def test_single_insertion(self):
        b = wer("a b", "a x b")
        assert (b.substitutions, b.insertions, b.deletions) == (0, 1, 0)
        assert b.rate == pytest.approx(1 / 2)

    def test_empty_hypothesis_all_deletions(self):
        b = wer("a b c", "")
        assert b.deletions == 3
        assert b.rate == 1.0

    def test_empty_reference_undefined(self):
        assert wer("", "a b").rate is None

    def test_both_empty(self):
        assert wer("", "").rate == 0.0

    def test_substitution_beats_del_plus_ins(self):
        b = wer("a b", "x y")
        assert (b.substitutions, b.deletions, b.insertions) == (2, 0, 0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(WORDS), max_size=5),
        st.lists(st.sampled_from(WORDS), max_size=5),
    )
    def test_matches_exhaustive_search(self, ref, hyp):
        b = wer(" ".join(ref), " ".join(hyp))
        assert (b.substitutions, b.deletions, b.insertions) == oracle_breakdown(" ".join(ref), " ".join(hyp))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(WORDS), max_size=6),
        st.lists(st.sampled_from(WORDS), max_size=6),
    )
    def test_argument_duality(self, ref, hyp):
        fwd = wer(" ".join(ref), " ".join(hyp))
        rev = wer(" ".join(hyp), " ".join(ref))
        assert fwd.deletions == rev.insertions
        assert fwd.insertions == rev.deletions
        assert fwd.substitutions == rev.substitutions


class TestWerCorpus:
    def test_summed_counts_not_mean_of_rates(self):
        pairs = [("a b c", "a b c"), ("a b c", "a x c")]
        assert wer_corpus(pairs).rate == pytest.approx(1 / 6)

    def test_all_perfect(self):
        assert wer_corpus([("a", "a"), ("b c", "b c")]).rate == 0

    def test_bounded_by_worst_sentence(self):
        pairs = [("a b", "a b"), ("a b", "x y"), ("a b c d", "a b c x")]
        rates = [wer(r, h).rate for r, h in pairs]
        assert wer_corpus(pairs).rate <= max(rates)

    def test_concatenation_equals_count_sum(self):
        part1 = [("a b", "a x")]
        part2 = [("c d e", "c d"), ("a", "a")]
        whole = wer_corpus(part1 + part2)
        b1, b2 = wer_corpus(part1), wer_corpus(part2)
        assert whole.errors == b1.errors + b2.errors
        assert whole.ref_words == b1.ref_words + b2.ref_words

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wer_corpus([])


class TestHistogram:
    def test_all_zero_single_bin(self):
        h = wer_histogram([("a b", "a b")] * 5, 0.25)
        assert h.counts == (5,)

    def test_counts_sum_to_pair_count(self):
        pairs = [("a b c d", "a b c d"), ("a b c d", "x b c d"), ("a b", "x y"), ("a", "x")]
        h = wer_histogram(pairs, 0.1)
        assert sum(h.counts) == len(pairs)

    def test_hand_binning(self):
        # rates 0, 0.2, 0.25, 0.6 with width 0.25:
        # [0,.25) gets {0, 0.2}, [.25,.5) gets {0.25}, [.5,.75) gets {0.6}
        pairs = [
            ("a b c d", "a b c d"),
            ("a b c d e", "a b c d x"),
            ("a b c d", "a b c x"),
            ("a b c d e", "x y z d e"),
        ]
        rates = [wer(r, h).rate for r, h in pairs]
        assert rates == [0.0, 0.2, 0.25, 0.6]
        h = wer_histogram(pairs, 0.25)
        assert h.counts == (2, 1, 1)
        # A rate on an edge opens its bin: 3/20 = 0.15 is bin 3 and 3/5 = 0.6
        # bin 12 at width 0.05, where float division gives 2.999... and 11.999...
        ref = [f"w{i}" for i in range(20)]
        edge_pairs = [(" ".join(ref), " ".join(["x", "y", "z"] + ref[3:])), pairs[3]]
        assert [wer(r, h).rate for r, h in edge_pairs] == [0.15, 0.6]
        counts = wer_histogram(edge_pairs, 0.05).counts
        assert len(counts) == 13 and counts[3] == counts[12] == 1 and sum(counts) == 2

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            wer_histogram([("a", "a")], 0.0)

    def test_csv_shape(self):
        h = wer_histogram([("a b", "a x")], 0.25)
        lines = h.to_csv().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == len(h.counts) + 1


class TestAblationReport:
    def test_single_cell_formatting(self):
        pairs = [("a b c", "a b c"), ("a b c", "a x c")]
        rep = ablation_report([("greedy", "base", pairs)])
        assert rep.rows == (("greedy", "base", 16.67),)
        assert "16.67" in rep.to_csv()

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            ablation_report([])

    def test_duplicate_cell_rejected(self):
        pairs = [("a", "a")]
        with pytest.raises(ValueError):
            ablation_report([("m", "d", pairs), ("m", "d", pairs)])

    def test_csv_round_trip(self):
        runs = [
            ("greedy", "base", [("a b c", "a x c")]),
            ("corrector", "base", [("a b c", "a b c")]),
        ]
        rep = ablation_report(runs)
        assert AblationReport.parse_csv(rep.to_csv()) == rep

    def test_text_and_csv_agree(self):
        rep = ablation_report([("m", "d", [("a b c d e f", "a b c d e x")])])
        assert "16.67" in rep.to_csv()
