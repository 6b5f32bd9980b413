from decimal import Decimal
from fractions import Fraction
from itertools import accumulate

import pytest

from pronvar import errors, lexbuild
from pronvar.attnalign import AttnConfig, Segmentation, extract_variants_attn
from pronvar.dpalign import AlignConfig, extract_variants_dp
from pronvar.phonecore import AnySymbol, ReferenceDictionary, parse_segmented_file
from pronvar.synthbench import (
    DEFAULT_RULES,
    ConfusionRule,
    boundary_f1,
    build_corpus,
    corrupt,
    identity_attention,
    jittered_attention,
    oracle_align,
    parse_rules_file,
    recovery_report,
)

DOESNT = ("D", "AH", "Z", "N", "T")
EVERYTHING = ("EH", "V", "R", "IY", "TH", "IH", "NG")


class TestRules:
    def test_parse(self, inv):
        rules = parse_rules_file("Z\tS\t1.0\nV\tB\t0.25\n", inv)
        assert rules == (ConfusionRule("Z", "S", 1.0), ConfusionRule("V", "B", 0.25))

    def test_comments_skipped(self):
        assert parse_rules_file("# devoicing\nZ\tS\t0.5\n") == (ConfusionRule("Z", "S", 0.5),)

    def test_bad_probability(self):
        with pytest.raises(errors.BadRule):
            parse_rules_file("Z\tS\t1.5")

    def test_self_rule(self):
        with pytest.raises(errors.BadRule):
            ConfusionRule("Z", "Z", 0.5)

    @pytest.mark.parametrize("probability", ["0.5", True, False, None, 1j, Decimal("0.5")])
    def test_a_probability_that_is_not_a_real_number_is_rejected(self, probability):
        with pytest.raises(ValueError, match=r"^probability must be a real number, got "):
            ConfusionRule("Z", "S", probability)

    @pytest.mark.parametrize("probability", [0, 1, 0.5, Fraction(1, 3)])
    def test_a_real_probability_in_range_is_kept(self, probability):
        assert ConfusionRule("Z", "S", probability).probability == probability

    @pytest.mark.parametrize("probability", [1.5, -0.25, float("nan"), Fraction(3, 2)])
    def test_a_real_probability_out_of_range_keeps_its_error(self, probability):
        with pytest.raises(errors.BadRule, match=r"^probability .* out of \[0, 1\]$"):
            ConfusionRule("Z", "S", probability)

    def test_unknown_phone(self, inv):
        with pytest.raises(errors.UnknownPhone):
            parse_rules_file("QX\tS\t0.5", inv)

    def test_malformed(self):
        with pytest.raises(errors.MalformedLine):
            parse_rules_file("Z S 0.5")

    @pytest.mark.parametrize("line, error", [("Z\tÉ\t0.5", errors.MalformedLine), ("Z|\tS\t0.5", errors.ReservedSymbol)])
    def test_without_an_inventory_the_symbol_rule_holds(self, line, error):
        with pytest.raises(error) as err:
            parse_rules_file(f"Z\tS\t0.5\n{line}\n")
        assert err.value.line == 2

    def test_default_ruleset_covers_the_usual_confusions(self):
        assert {(r.source, r.target) for r in DEFAULT_RULES} == {
            ("Z", "S"),
            ("V", "B"),
            ("TH", "S"),
            ("TH", "T"),
        }


class TestCorrupt:
    def test_certain_devoicing(self, seg):
        ref = seg("u1", [("doesn't", DOESNT)])
        result = corrupt(ref, [ConfusionRule("Z", "S", 1.0)], seed=11)
        assert result.sequence.phones == ("D", "AH", "S", "N", "T")
        assert result.truth.cuts == ()

    def test_zero_probability_is_identity(self, seg):
        ref = seg("u1", [("the", ["DH", "AH"]), ("cat", ["K", "AE", "T"])])
        result = corrupt(ref, [ConfusionRule("K", "G", 0.0)], seed=5)
        assert result.sequence.phones == ref.phones
        assert result.truth.cuts == (2,)

    def test_everything_pattern(self, seg):
        ref = seg("u1", [("everything", EVERYTHING)])
        rules = [ConfusionRule("V", "B", 1.0), ConfusionRule("TH", "T", 1.0)]
        result = corrupt(ref, rules, seed=0)
        assert result.sequence.phones == ("EH", "B", "R", "IY", "T", "IH", "NG")

    def test_first_firing_rule_wins(self, seg):
        ref = seg("u1", [("thing", ["TH", "IH", "NG"])])
        rules = [ConfusionRule("TH", "S", 1.0), ConfusionRule("TH", "T", 1.0)]
        result = corrupt(ref, rules, seed=3)
        assert result.sequence.phones[0] == "S"

    def test_later_rule_reachable_when_first_misses(self, seg):
        ref = seg("u1", [("thing", ["TH", "IH", "NG"])])
        rules = [ConfusionRule("TH", "S", 0.0), ConfusionRule("TH", "T", 1.0)]
        result = corrupt(ref, rules, seed=3)
        assert result.sequence.phones[0] == "T"

    def test_seeded_reproducibility(self, seg):
        ref = seg("u1", [("cats", ["K", "AE", "T", "S"]), ("buzz", ["B", "AH", "Z"])])
        rules = [ConfusionRule("Z", "S", 0.5), ConfusionRule("AE", "AH", 0.5)]
        first = corrupt(ref, rules, seed=99)
        second = corrupt(ref, rules, seed=99)
        assert first == second

    def test_rule_phone_must_be_in_inventory(self, seg):
        ref = seg("u1", [("cat", ["K", "AE", "T"])])
        with pytest.raises(errors.UnknownPhone):
            corrupt(ref, [ConfusionRule("QX", "K", 1.0)], seed=1)

    @pytest.mark.parametrize("probability", [1.5, -0.5, 1.0, float("inf")])
    def test_an_indel_probability_outside_zero_to_one_is_a_value_error(self, seg, probability):
        ref = seg("u1", [("cat", ["K", "AE", "T"])])
        with pytest.raises(ValueError, match=r"^indel_probability must be in \[0, 1\)$"):
            corrupt(ref, [], seed=1, indel_probability=probability)

    def test_indels_keep_words_nonempty(self, seg):
        ref = seg(
            "u1",
            [("a", ["K"]), ("be", ["B", "IY"]), ("cat", ["K", "AE", "T"])],
        )
        for seed in range(40):
            result = corrupt(ref, [], seed=seed, indel_probability=0.8)
            spans = result.truth.spans(result.sequence.phones)
            assert len(spans) == 3
            assert all(len(s) >= 1 for s in spans)

    def test_a_reference_on_the_symbol_rule_needs_an_inventory_only_to_insert(self, inv):
        text = "u1\tK AE T # Z\tcat z\n"
        [anywhere], [listed] = parse_segmented_file(text, AnySymbol()), parse_segmented_file(text, inv)
        result = corrupt(anywhere, DEFAULT_RULES, 1)
        expected = corrupt(listed, DEFAULT_RULES, 1)
        assert (result.sequence.phones, result.truth) == (expected.sequence.phones, expected.truth)
        with pytest.raises(ValueError, match="insertions need a PhoneInventory"):
            corrupt(anywhere, DEFAULT_RULES, 1, indel_probability=0.05)


class TestOracleAlign:
    def test_trivial_match(self):
        assert oracle_align(["X"], ["X"]) == 0

    def test_single_substitution(self):
        assert oracle_align(list(DOESNT), ["D", "AH", "S", "N", "T"]) == 1

    def test_empty_side_costs_gaps(self):
        cfg = AlignConfig(gap_penalty=2.5)
        assert oracle_align([], ["A", "B", "C"], cfg) == 3 * 2.5

    def test_size_bound(self):
        with pytest.raises(errors.SizeBound):
            oracle_align(["A"] * 8, ["B"] * 7)

    def test_agrees_with_edit_distance_on_unit_costs(self):
        import random

        from pronvar.attnalign import edit_distance

        rng = random.Random(7)
        for _ in range(100):
            a = [rng.choice("AB") for _ in range(rng.randint(0, 6))]
            b = [rng.choice("AB") for _ in range(rng.randint(0, 6))]
            assert oracle_align(a, b) == edit_distance(a, b)


class TestBoundaryF1:
    def test_perfect(self):
        pred = Segmentation((2, 5), 7)
        assert boundary_f1(pred, pred) == (1.0, 1.0, 1.0)

    def test_partial(self):
        pred = Segmentation((2,), 7)
        truth = Segmentation((2, 5), 7)
        p, r, f1 = boundary_f1(pred, truth)
        assert (p, r) == (1.0, 0.5)
        assert f1 == pytest.approx(2 / 3)

    def test_both_empty(self):
        pred = Segmentation((), 4)
        assert boundary_f1(pred, pred) == (1.0, 1.0, 1.0)


class TestRecoveryReport:
    def test_exact_recovery(self):
        built = lexbuild.accumulate([("a", ("K",)), ("b", ("T",))])
        assert recovery_report(built, built) == (1.0, 1.0)

    def test_spurious_variant_costs_precision(self):
        truth = lexbuild.accumulate([("a", ("K",))])
        built = lexbuild.accumulate([("a", ("K",)), ("a", ("T",))])
        precision, recall = recovery_report(built, truth)
        assert precision == 0.5
        assert recall == 1.0

    def test_missing_half_costs_recall(self):
        truth = lexbuild.accumulate([("a", ("K",)), ("b", ("T",))])
        built = lexbuild.accumulate([("a", ("K",))])
        precision, recall = recovery_report(built, truth)
        assert precision == 1.0
        assert recall == 0.5

    def test_canonical_entries_leave_precision_alone(self):
        canonical = ReferenceDictionary({"a": [("AA",)]})
        truth = lexbuild.accumulate([("a", ("K",))])
        built = lexbuild.accumulate([("a", ("K",)), ("a", ("AA",))])
        assert recovery_report(built, truth, canonical) == (1.0, 1.0)


class TestSyntheticMaps:
    def test_identity_square(self):
        amap = identity_attention("u", ("A", "B"), ("A", "B"))
        assert amap.weights == ((1.0, 0.0), (0.0, 1.0))

    def test_identity_rectangular(self):
        amap = identity_attention("u", ("A", "B", "C"), ("A", "B"))
        assert amap.weights == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))

    def test_jitter_stays_within_radius_and_is_seeded(self):
        cols = tuple("ABCDEFGH")
        first = jittered_attention("u", cols, cols, radius=2, seed=5)
        second = jittered_attention("u", cols, cols, radius=2, seed=5)
        assert first == second
        for r, row in enumerate(first.weights):
            peak = row.index(1.0)
            assert abs(peak - r) <= 2


class TestBuildCorpus:
    def dictionary(self):
        return ReferenceDictionary(
            {
                "doesn't": [DOESNT],
                "everything": [EVERYTHING],
                "cat": [("K", "AE", "T")],
            }
        )

    def test_deterministic(self):
        d = self.dictionary()
        a = build_corpus(d, DEFAULT_RULES, vocabulary=3, utterances=20, seed=42)
        b = build_corpus(d, DEFAULT_RULES, vocabulary=3, utterances=20, seed=42)
        assert a == b

    def test_truth_lexicon_holds_only_injected_variants(self):
        d = self.dictionary()
        corpus = build_corpus(d, DEFAULT_RULES, vocabulary=3, utterances=50, seed=1)
        for word, pron, _ in corpus.truth_lexicon.pairs():
            assert pron not in d.pronunciations(word)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"vocabulary": 0}, "vocabulary and utterances must be >= 1"),
            ({"utterances": 0}, "vocabulary and utterances must be >= 1"),
            ({"utterances": -3, "jitter_radius": -1}, "vocabulary and utterances must be >= 1"),
            ({"attention": "jitter", "jitter_radius": -1}, "jitter_radius must be >= 0"),
            ({"jitter_radius": -1}, "jitter_radius must be >= 0"),
            ({"indel_probability": 1.5}, "indel_probability must be in [0, 1)"),
            ({"indel_probability": -0.5}, "indel_probability must be in [0, 1)"),
            ({"indel_probability": 1.0}, "indel_probability must be in [0, 1)"),
            ({"indel_probability": float("nan")}, "indel_probability must be in [0, 1)"),
        ],
    )
    def test_a_value_out_of_range_is_a_value_error(self, values, message):
        # vocabulary 0 and jitter radius -1 used to fail inside randrange; indel 1.5 and -0.5 were taken
        d = self.dictionary()
        with pytest.raises(ValueError) as caught:
            build_corpus(d, DEFAULT_RULES, **({"vocabulary": 3, "utterances": 2, "seed": 1} | values))
        assert str(caught.value) == message

    def test_no_rules_means_no_variants_and_true_bounds(self):
        d = self.dictionary()
        corpus = build_corpus(d, [], vocabulary=3, utterances=10, seed=3)
        assert corpus.truth_lexicon.entry_count == 0
        for ref, (utt_id, seg) in zip(corpus.references, corpus.truth_bounds):
            assert ref.utterance_id == utt_id
            assert seg.cuts == tuple(accumulate(len(w.phones) for w in ref.words[:-1]))

    def test_full_pipeline_recovers_certain_corruption(self):
        # every word contains Z, the rule always fires, maps are exact:
        # both aligners must recover every injected variant
        d = ReferenceDictionary(
            {
                "zoo": [("Z", "UW")],
                "buzz": [("B", "AH", "Z")],
                "zigzag": [("Z", "IH", "G", "Z", "AE", "G")],
            }
        )
        rules = (ConfusionRule("Z", "S", 1.0),)
        corpus = build_corpus(d, rules, vocabulary=3, utterances=30, seed=9)
        assert corpus.truth_lexicon.entry_count == 3

        dp = extract_variants_dp(corpus.hypotheses, corpus.references, d, AlignConfig())
        _, dp_recall = recovery_report(lexbuild.accumulate(dp.pairs), corpus.truth_lexicon, d)
        assert dp_recall == 1.0

        attn = extract_variants_attn(corpus.maps, corpus.references, d, AttnConfig())
        _, attn_recall = recovery_report(lexbuild.accumulate(attn.pairs), corpus.truth_lexicon, d)
        assert attn_recall == 1.0
