import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pronvar import errors
from pronvar.dpalign import (
    INSERT,
    MATCH,
    AlignConfig,
    EditOp,
    _cost_rows,
    _exact,
    _resolve_reference,
    edit_distance,
    extract_variants_dp,
    nw_align,
    pair_by_id,
    project_boundaries,
)
from pronvar.phonecore import (
    PhoneInventory,
    PhoneSequence,
    ReferenceDictionary,
    SegmentedUtterance,
    WordSpan,
)
from pronvar.synthbench import oracle_align

ABC = PhoneInventory.from_phones(["A", "B", "C"])


def abc_seq(phones, utt_id="u"):
    return PhoneSequence(utt_id, tuple(phones), ABC)


class TestAlignConfig:
    def test_defaults_are_unit_costs(self):
        cfg = AlignConfig()
        assert (cfg.match_score, cfg.mismatch_score, cfg.gap_penalty) == (0.0, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AlignConfig(mismatch_score=-1)
        with pytest.raises(ValueError):
            AlignConfig(gap_penalty=0)


class TestNwAlign:
    def test_identical_sequences(self, seq):
        al = nw_align(seq("u1", ["D", "AH", "Z", "N", "T"]), ["D", "AH", "Z", "N", "T"])
        assert al.total_cost == 0
        assert [op.kind for op in al.ops] == ["match"] * 5

    def test_single_substitution(self, seq):
        hyp = seq("u1", ["D", "AH", "S", "N", "T"])
        ref = ["D", "AH", "Z", "N", "T"]
        assert oracle_align(hyp.phones, ref) == 1
        al = nw_align(hyp, ref)
        assert al.total_cost == 1
        assert [op.kind for op in al.ops] == [
            "match",
            "match",
            "substitute",
            "match",
            "match",
        ]

    def test_single_insertion(self, seq):
        hyp = seq("u1", ["AE", "B"])
        ref = ["AE", "K", "B"]
        assert oracle_align(hyp.phones, ref) == 1
        al = nw_align(hyp, ref)
        assert al.total_cost == 1
        assert al.ops == (
            EditOp(MATCH, 0, 0),
            EditOp(INSERT, None, 1),
            EditOp(MATCH, 1, 2),
        )

    def test_empty_sides(self, seq):
        assert nw_align(seq("u1", []), []).total_cost == 0
        assert nw_align(seq("u1", []), ["K", "AE", "T"]).total_cost == 3
        assert nw_align(seq("u1", ["K", "AE", "T"]), []).total_cost == 3

    def test_inventory_mismatch(self):
        with pytest.raises(errors.InventoryMismatch):
            nw_align(abc_seq(["A"]), ["Z"])

    def test_tie_break_is_frozen(self):
        # both [match(0,0), insert(1)] and [insert(0), match(0,1)] cost 1;
        # diagonal-first backtracking from the corner picks the latter
        al = nw_align(abc_seq(["A"]), ["A", "A"])
        assert al.ops == (EditOp(INSERT, None, 0), EditOp(MATCH, 0, 1))

    def test_determinism(self, seq):
        hyp = seq("u1", ["K", "AE", "T", "S"])
        ref = ["K", "S", "AE", "T"]
        assert nw_align(hyp, ref) == nw_align(hyp, ref)


short = st.lists(st.sampled_from(["A", "B", "C"]), max_size=6)


@settings(max_examples=80, deadline=None)
@given(short, short)
def test_cost_matches_exhaustive_oracle(a, b):
    assert nw_align(abc_seq(a), b).total_cost == oracle_align(a, b)


@given(short, short)
def test_cost_symmetry(a, b):
    assert nw_align(abc_seq(a), b).total_cost == nw_align(abc_seq(b), a).total_cost


@given(short)
def test_self_and_empty_costs(a):
    cfg = AlignConfig(match_score=0, mismatch_score=2, gap_penalty=3)
    assert nw_align(abc_seq(a), a, cfg).total_cost == len(a) * cfg.match_score
    assert nw_align(abc_seq(a), [], cfg).total_cost == len(a) * cfg.gap_penalty


@given(short, short)
def test_ops_form_a_monotone_global_alignment(a, b):
    cfg = AlignConfig(match_score=0, mismatch_score=3, gap_penalty=2)
    al = nw_align(abc_seq(a), b, cfg)
    hyp_indices = [op.hyp_index for op in al.ops if op.hyp_index is not None]
    ref_indices = [op.ref_index for op in al.ops if op.ref_index is not None]
    assert hyp_indices == list(range(len(a)))
    assert ref_indices == list(range(len(b)))
    per_op = {
        "match": cfg.match_score,
        "substitute": cfg.mismatch_score,
        "delete": cfg.gap_penalty,
        "insert": cfg.gap_penalty,
    }
    assert al.total_cost == sum(per_op[op.kind] for op in al.ops)


# Costs whose sums are not exact in binary, so any change to the order of
# the additions would show up as an unequal float.
costs = st.builds(
    AlignConfig,
    st.sampled_from([0.0, 0.1]),
    st.sampled_from([0.1, 0.3, 0.7]),
    st.sampled_from([0.1, 0.2, 0.3]),
)
longer = st.lists(st.sampled_from(["A", "B", "C"]), max_size=9)


@settings(max_examples=300, deadline=None)
@given(longer, longer, costs)
def test_edit_distance_is_the_nw_align_cost_bit_for_bit(a, b, cfg):
    assert edit_distance(a, b, cfg) == nw_align(abc_seq(a), b, cfg).total_cost
    assert edit_distance(b, a, cfg) == nw_align(abc_seq(a), b, cfg).total_cost


def min_recurrence_rows(a, b, cfg, row=None):
    """The kernel's rows as computed with ``min()`` before it compared twice, kept as the oracle."""
    match, mismatch, gap = cfg.match_score, cfg.mismatch_score, cfg.gap_penalty
    if row is None:
        row = [0]
        for _ in b:
            row.append(row[-1] + gap)
    yield row
    for x in a:
        prev, left = row, row[0] + gap
        row = [left]
        for j, y in enumerate(b):
            left = min(prev[j] + (match if x == y else mismatch), prev[j + 1] + gap, left + gap)
            row.append(left)
        yield row


@settings(max_examples=300, deadline=None)
@given(longer, longer, st.one_of(st.none(), longer), costs, st.booleans())
def test_cost_rows_equal_the_min_recurrence(a, b, before, cfg, exact):
    # ``before`` stands for what a starting row has already aligned against
    # ``b``; the oracle makes that row, so both kernels start from the same one
    cfg = _exact(cfg) if exact else cfg
    row = None if before is None else list(min_recurrence_rows(before, b, cfg))[-1]
    assert list(_cost_rows(a, b, cfg, row)) == list(min_recurrence_rows(a, b, cfg, row))


class TestProjectBoundaries:
    def test_identity_projection(self, seq, seg):
        ref = seg("u1", [("the", ["DH", "AH"]), ("cat", ["K", "AE", "T"])])
        al = nw_align(seq("u1", ["DH", "AH", "K", "AE", "T"]), ref.phones)
        assert project_boundaries(al, ref) == [
            ("the", ("DH", "AH")),
            ("cat", ("K", "AE", "T")),
        ]

    def test_substituted_phone_stays_in_its_word(self, seq, seg):
        ref = seg("u1", [("the", ["DH", "AH"]), ("cat", ["K", "AE", "T"])])
        al = nw_align(seq("u1", ["D", "AH", "K", "AE", "T"]), ref.phones)
        assert project_boundaries(al, ref) == [
            ("the", ("D", "AH")),
            ("cat", ("K", "AE", "T")),
        ]

    def test_fully_missing_word_comes_out_empty(self, seq, seg):
        ref = seg("u1", [("the", ["DH", "AH"]), ("cat", ["K", "AE", "T"])])
        al = nw_align(seq("u1", ["K", "AE", "T"]), ref.phones)
        assert project_boundaries(al, ref) == [
            ("the", ()),
            ("cat", ("K", "AE", "T")),
        ]

    def test_deleted_phone_attaches_to_following_word(self, seq, seg):
        ref = seg("u1", [("a", ["DH", "AH"]), ("b", ["K", "AE"])])
        al = nw_align(seq("u1", ["DH", "AH", "S", "K", "AE"]), ref.phones)
        assert project_boundaries(al, ref) == [
            ("a", ("DH", "AH")),
            ("b", ("S", "K", "AE")),
        ]

    def test_trailing_deletion_attaches_to_last_word(self, seq, seg):
        ref = seg("u1", [("cat", ["K", "AE", "T"])])
        al = nw_align(seq("u1", ["K", "AE", "T", "S"]), ref.phones)
        assert project_boundaries(al, ref) == [("cat", ("K", "AE", "T", "S"))]

    def test_reference_mismatch(self, seq, seg):
        ref = seg("u1", [("cat", ["K", "AE", "T"])])
        other = seg("u1", [("dog", ["D", "AO", "G"])])
        al = nw_align(seq("u1", ["K", "AE", "T"]), ref.phones)
        with pytest.raises(errors.AlignmentReferenceMismatch):
            project_boundaries(al, other)


@settings(max_examples=80, deadline=None)
@given(short, st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=6), st.data())
def test_projection_partitions_the_hypothesis(hyp_phones, ref_phones, data):
    # random word segmentation of the reference
    n_cuts = data.draw(st.integers(min_value=0, max_value=len(ref_phones) - 1))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(ref_phones) - 1), min_size=0, max_size=n_cuts))) if len(ref_phones) > 1 else []
    bounds = [0, *cuts, len(ref_phones)]
    words = [
        (f"w{i}", ref_phones[a:b]) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
    ]
    from pronvar.phonecore import SegmentedUtterance, WordSpan

    ref = SegmentedUtterance("u", tuple(WordSpan(w, tuple(p)) for w, p in words), ABC)
    al = nw_align(abc_seq(hyp_phones), ref.phones)
    projected = project_boundaries(al, ref)
    flattened = [p for _, span in projected for p in span]
    assert flattened == list(hyp_phones)


class TestExtractVariantsDp:
    def test_harvests_the_devoiced_variant(self, seq, seg, inv):
        d = ReferenceDictionary({"doesn't": [("D", "AH", "Z", "N", "T")]})
        result = extract_variants_dp(
            [seq("u1", ["D", "AH", "S", "N", "T"])],
            [seg("u1", [("doesn't", ["D", "AH", "Z", "N", "T"])])],
            d,
        )
        assert result.pairs == (("doesn't", ("D", "AH", "S", "N", "T")),)

    def test_identical_hypothesis_yields_canonical(self, seq, seg):
        d = ReferenceDictionary({"the": [("DH", "AH")], "cat": [("K", "AE", "T")]})
        result = extract_variants_dp(
            [seq("u1", ["DH", "AH", "K", "AE", "T"])],
            [seg("u1", [("the", ["DH", "AH"]), ("cat", ["K", "AE", "T"])])],
            d,
        )
        assert result.pairs == (("the", ("DH", "AH")), ("cat", ("K", "AE", "T")))
        assert result.empty_spans == 0

    def test_missing_utterance(self, seq, seg):
        d = ReferenceDictionary({"cat": [("K", "AE", "T")]})
        hyps = [seq("u1", ["K", "AE", "T"]), seq("u2", ["K", "AE", "T"])]
        refs = [seg("u1", [("cat", ["K", "AE", "T"])])]
        with pytest.raises(errors.MissingUtterance) as exc:
            extract_variants_dp(hyps, refs, d)
        assert exc.value.utterance_id == "u2"

    def test_unpaired_reference_is_also_an_error(self, seq, seg):
        d = ReferenceDictionary({"cat": [("K", "AE", "T")]})
        with pytest.raises(errors.MissingUtterance):
            extract_variants_dp(
                [seq("u1", ["K", "AE", "T"])],
                [
                    seg("u1", [("cat", ["K", "AE", "T"])]),
                    seg("u2", [("cat", ["K", "AE", "T"])]),
                ],
                d,
            )

    def test_empty_span_counted_not_emitted(self, seq, seg):
        d = ReferenceDictionary({"the": [("DH", "AH")], "cat": [("K", "AE", "T")]})
        result = extract_variants_dp(
            [seq("u1", ["K", "AE", "T"])],
            [seg("u1", [("the", ["DH", "AH"]), ("cat", ["K", "AE", "T"])])],
            d,
        )
        assert result.pairs == (("cat", ("K", "AE", "T")),)
        assert result.empty_spans == 1

    def test_min_cost_dictionary_variant_is_used(self, seq, seg):
        # 'cat' lists two pronunciations; the hypothesis matches the second,
        # so alignment should run against it even though the reference file
        # carried the first
        d = ReferenceDictionary({"cat": [("K", "AE", "T"), ("K", "AH", "T")]})
        result = extract_variants_dp(
            [seq("u1", ["K", "AH", "T"])],
            [seg("u1", [("cat", ["K", "AE", "T"])])],
            d,
        )
        assert result.pairs == (("cat", ("K", "AH", "T")),)

    def test_variant_tie_keeps_file_order(self, seq, seg):
        d = ReferenceDictionary({"cat": [("K", "AE", "T"), ("K", "AH", "T")]})
        # hypothesis equidistant from both variants; file-first must win,
        # which here changes nothing about the emitted span
        result = extract_variants_dp(
            [seq("u1", ["K", "IH", "T"])],
            [seg("u1", [("cat", ["K", "AE", "T"])])],
            d,
        )
        assert result.pairs == (("cat", ("K", "IH", "T")),)

    def test_output_follows_hypothesis_order(self, seq, seg):
        d = ReferenceDictionary({"cat": [("K", "AE", "T")], "dog": [("D", "AO", "G")]})
        result = extract_variants_dp(
            [seq("b", ["D", "AO", "G"]), seq("a", ["K", "AE", "T"])],
            [seg("a", [("cat", ["K", "AE", "T"])]), seg("b", [("dog", ["D", "AO", "G"])])],
            d,
        )
        assert [w for w, _ in result.pairs] == ["dog", "cat"]

    def test_losing_alternative_outside_the_inventory_is_an_error(self):
        inventory = PhoneInventory.from_phones(["A", "B"])
        hyp = PhoneSequence("u", ("A", "B"), inventory)
        ref = SegmentedUtterance("u", (WordSpan("w", ("A",)), WordSpan("v", ("B",))), inventory)
        d = ReferenceDictionary({"w": [("A",), ("Z",)]})
        with pytest.raises(errors.InventoryMismatch, match="reference phone 'Z'"):
            extract_variants_dp([hyp], [ref], d)

    def test_later_span_outside_the_inventory_is_an_error_of_the_resolver(self):
        # 'w' has alternatives that are all in the hypothesis inventory; the
        # reference's own inventory admits 'Z', which only the later 'v' carries
        hyp = PhoneSequence("u", ("A", "B"), PhoneInventory.from_phones(["A", "B"]))
        ref = SegmentedUtterance(
            "u", (WordSpan("w", ("A",)), WordSpan("v", ("Z",))), PhoneInventory.from_phones(["A", "B", "Z"])
        )
        d = ReferenceDictionary({"w": [("A",), ("B", "B")], "v": [("Z",)]})
        message = "^reference phone 'Z' not in the hypothesis inventory$"
        with pytest.raises(errors.InventoryMismatch, match=message):
            _resolve_reference(hyp, ref, d, AlignConfig())


def resolve_reference_by_full_alignment(hyp, ref_seg, dictionary, cfg):
    """The resolver as it was before the cost-only kernel, kept as the oracle."""
    spans = list(ref_seg.words)
    changed = False
    for wi, span in enumerate(spans):
        if span.word not in dictionary:
            continue
        variants = dictionary.pronunciations(span.word)
        if len(variants) < 2:
            continue
        best = None
        best_cost = None
        for pron in variants:
            candidate = [p for s in spans[:wi] for p in s.phones]
            candidate.extend(pron)
            candidate.extend(p for s in spans[wi + 1 :] for p in s.phones)
            cost = nw_align(hyp, candidate, cfg).total_cost
            if best_cost is None or cost < best_cost:
                best, best_cost = pron, cost
        if best != span.phones:
            spans[wi] = WordSpan(span.word, best)
            changed = True
    if not changed:
        return ref_seg
    return SegmentedUtterance(ref_seg.utterance_id, tuple(spans), ref_seg.inventory)


pronunciation = st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=3).map(tuple)
# (span the reference carries, 1-3 dictionary pronunciations or None for a
# word outside the dictionary) per word; the span may be none of them
ref_words = st.lists(
    st.lists(pronunciation, min_size=1, max_size=3, unique=True).flatmap(
        lambda prons: st.tuples(
            st.one_of(st.sampled_from(prons), pronunciation), st.one_of(st.just(prons), st.none())
        )
    ),
    min_size=1,
    max_size=8,
)
dyadic_costs = st.builds(
    AlignConfig, st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.5, 1.0, 3.0])
)


def in_fractions(cfg):
    """``cfg`` with the exact values of its float costs, so the oracle's sums do not round."""
    return AlignConfig(Fraction(cfg.match_score), Fraction(cfg.mismatch_score), Fraction(cfg.gap_penalty))


@settings(max_examples=300, deadline=None)
@given(
    longer,
    ref_words,
    st.one_of(costs.map(lambda cfg: (cfg, in_fractions(cfg))), dyadic_costs.map(lambda cfg: (cfg, cfg))),
)
# both pronunciations of w0 cost 0.6 exactly; summed in floats, 'A' costs
# 0.6000000000000001 and 'B B' 0.6
@example(
    ("A", "B", "A", "A", "A"),
    [(("A",), [("A",), ("B", "B")]), (("B",), [("B",)])],
    (AlignConfig(0.0, 0.1, 0.2), in_fractions(AlignConfig(0.0, 0.1, 0.2))),
)
def test_resolved_reference_matches_the_full_alignment_oracle(hyp_phones, words, configs):
    # dyadic costs sum exactly in floats, so there the float oracle is the
    # old behaviour itself; other costs are compared in exact arithmetic,
    # where a tie is a tie and goes to file order
    cfg, oracle_cfg = configs
    ref = SegmentedUtterance("u", tuple(WordSpan(f"w{i}", p) for i, (p, _) in enumerate(words)), ABC)
    d = ReferenceDictionary({f"w{i}": prons for i, (_, prons) in enumerate(words) if prons is not None})
    hyp = abc_seq(hyp_phones)
    assert _resolve_reference(hyp, ref, d, cfg) == resolve_reference_by_full_alignment(hyp, ref, d, oracle_cfg)


def test_pair_by_id_duplicate_detection(seq):
    with pytest.raises(errors.DuplicateUtteranceId):
        pair_by_id([seq("u1", []), seq("u1", [])], [seq("u1", [])])


def test_thousand_seeded_pairs_match_oracle():
    rng = random.Random(424242)
    alphabet = ["A", "B", "C"]
    for _ in range(200):
        a = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
        b = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
        assert nw_align(abc_seq(a), b).total_cost == oracle_align(a, b)
