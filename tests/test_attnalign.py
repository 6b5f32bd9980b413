import functools
import random
import weakref
from fractions import Fraction
from itertools import pairwise, product

import pytest
from hypothesis import example, given, settings, strategies as st

import old_attention as old
from pronvar import errors
from pronvar.attnalign import (
    AttentionMap,
    AttnConfig,
    BoundaryOutcome,
    Segmentation,
    _best_global_shift,
    _best_per_boundary,
    _offset_order,
    _repair,
    _span_scorer,
    align_word_boundaries,
    edit_distance,
    emit_attention_file,
    emit_bounds_file,
    extract_variants_attn,
    parse_attention_file,
    parse_bounds_file,
    place_boundaries,
    split_by_attention,
)
from pronvar.phonecore import PhoneInventory, ReferenceDictionary, SegmentedUtterance, WordSpan
from pronvar.synthbench import identity_attention, jittered_attention


def weight_rows(*rows):
    return tuple(tuple(float(x) for x in row) for row in rows)


def peak_map(utt_id, col_phones, row_phones, peaks):
    """Map with a single 1.0 per row at the given column."""
    weights = tuple(
        tuple(1.0 if c == peak else 0.0 for c in range(len(col_phones)))
        for peak in peaks
    )
    return AttentionMap(utt_id, tuple(col_phones), tuple(row_phones), weights)


class TestParseAttentionFile:
    def test_identity_2x2(self, inv):
        text = "u1 2 2\nK AE\nK AE\n1 0\n0 1\n"
        maps = parse_attention_file(text, inv)
        assert len(maps) == 1
        assert maps[0].weights == weight_rows([1, 0], [0, 1])
        assert maps[0].row_phones == ("K", "AE")
        assert maps[0].col_phones == ("K", "AE")

    def test_extra_weight_rows(self, inv):
        text = "u1 2 2\nK AE\nK AE\n1 0\n0 1\n1 1\n"
        with pytest.raises(errors.DimensionMismatch):
            parse_attention_file(text, inv)

    def test_five_by_five_round_trip(self, inv):
        rows = "D AH Z N T".split()
        cols = "D AH S N T".split()
        amap = peak_map("doesnt1", cols, rows, peaks=[0, 1, 2, 3, 4])
        parsed = parse_attention_file(emit_attention_file([amap]), inv)
        assert parsed == [amap]

    def test_multiple_records(self, inv):
        text = "u1 1 1\nK\nK\n1\n\n\nu2 1 2\nAE\nK T\n0.5 0.25\n"
        maps = parse_attention_file(text, inv)
        assert [m.utterance_id for m in maps] == ["u1", "u2"]
        assert maps[1].weights == ((0.5, 0.25),)

    def test_negative_weight(self, inv):
        with pytest.raises(errors.NegativeWeight):
            parse_attention_file("u1 1 2\nK\nK T\n0.5 -0.1\n", inv)

    def test_unknown_phone(self, inv):
        with pytest.raises(errors.UnknownPhone):
            parse_attention_file("u1 1 1\nQX\nK\n1\n", inv)

    def test_axis_count_disagreement(self, inv):
        with pytest.raises(errors.DimensionMismatch):
            parse_attention_file("u1 2 1\nK\nK\n1\n1\n", inv)

    def test_bad_weight_token(self, inv):
        with pytest.raises(errors.MalformedLine):
            parse_attention_file("u1 1 1\nK\nK\nx\n", inv)
        with pytest.raises(errors.MalformedLine):
            parse_attention_file("u1 1 1\nK\nK\nnan\n", inv)

    def test_duplicate_id(self, inv):
        text = "u1 1 1\nK\nK\n1\n\nu1 1 1\nK\nK\n1\n"
        with pytest.raises(errors.DuplicateUtteranceId):
            parse_attention_file(text, inv)


class TestSegmentation:
    def test_spans(self):
        seg = Segmentation((2, 4), 5)
        assert seg.spans("abcde") == (("a", "b"), ("c", "d"), ("e",))
        assert seg.word_count == 3
        assert () not in seg.spans("abcde")

    def test_tie_allowed_only_at_the_end(self):
        seg = Segmentation((3, 5, 5), 5)
        assert () in seg.spans("abcde")
        with pytest.raises(ValueError):
            Segmentation((2, 2, 4), 5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Segmentation((0,), 5)
        with pytest.raises(ValueError):
            Segmentation((6,), 5)


def test_bounds_file_round_trip():
    bounds = [("u1", Segmentation((2, 4), 6)), ("u2", Segmentation((), 3))]
    text = emit_bounds_file(bounds)
    assert text == "u1\t2 4\nu2\t\n"
    assert parse_bounds_file(text) == [("u1", (2, 4)), ("u2", ())]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
    st.sampled_from(["u", "u_1"]),
)
@example([1e16, 1e-05, 0.0, 5e-324], "u")
@example([1e16, 1e-05, 0.0, 5e-324], "u_1")
def test_every_weight_emit_writes_parses_back(inv, row, utt_id):
    # an id holding "_" makes the parser check each weight row on its own
    amap = AttentionMap(utt_id, ("K",) * len(row), ("K",), (tuple(row),))
    assert parse_attention_file(emit_attention_file([amap]), inv) == [amap]


class TestPlaceBoundaries:
    def test_diagonal_reproduces_reference_lengths(self, seg):
        ref = seg("u1", [("the", ["DH", "AH"]), ("cat", ["K", "AE", "T"])])
        amap = identity_attention("u1", ref.phones, ref.phones)
        assert place_boundaries(amap, ref).cuts == (2,)

    def test_cut_follows_the_argmax_column(self, seg):
        ref = seg("u1", [("the", ["DH", "AH"]), ("cat", ["K", "AE", "T"])])
        amap = peak_map("u1", ref.phones, ref.phones, peaks=[0, 3, 2, 3, 4])
        assert place_boundaries(amap, ref).cuts == (4,)

    def test_single_word_has_no_cuts(self, seg):
        ref = seg("u1", [("doesn't", ["D", "AH", "Z", "N", "T"])])
        amap = jittered_attention("u1", ref.phones, ref.phones, radius=3, seed=1)
        assert place_boundaries(amap, ref).cuts == ()

    def test_row_mismatch(self, seg):
        ref = seg("u1", [("cat", ["K", "AE", "T"])])
        amap = identity_attention("u1", ("K",), ("K", "AE"))
        with pytest.raises(errors.RowMismatch):
            place_boundaries(amap, ref)

    def test_argmax_tie_takes_earliest_column(self, seg):
        ref = seg("u1", [("ab", ["K", "AE"]), ("c", ["T"])])
        amap = AttentionMap("u1", ("K", "AE", "T"), ref.phones, weight_rows([1, 0, 0], [0.5, 0.5, 0.5], [0, 0, 1]))
        assert place_boundaries(amap, ref).cuts == (1,)

    def test_crossing_argmaxes_are_repaired(self, seg):
        ref = seg("u1", [("a", ["K"]), ("b", ["AE"]), ("c", ["T"])])
        # rows 0 and 1 both peak on the last column; repair forces order
        amap = peak_map("u1", ref.phones, ref.phones, peaks=[2, 0, 2])
        placed = place_boundaries(amap, ref)
        assert placed.cuts == (3, 3)
        assert placed.repaired == 1
        assert () in placed.spans(amap.col_phones)


class TestSplitByAttention:
    def make(self, seg, base_cut=2, length=5):
        ref = seg("u1", [("the", ["DH", "AH"]), ("cat", ["K", "AE", "T"])])
        amap = peak_map("u1", ref.phones, ref.phones, peaks=[0, base_cut - 1, 2, 3, 4])
        return amap, ref

    def test_radius_one(self, seg):
        amap, ref = self.make(seg)
        cands = split_by_attention(amap, ref, AttnConfig(shift_radius=1))
        assert [c.cuts for c in cands] == [(1,), (2,), (3,)]

    def test_radius_three_clamps_and_dedups(self, seg):
        amap, ref = self.make(seg)
        cands = split_by_attention(amap, ref, AttnConfig(shift_radius=3))
        assert [c.cuts for c in cands] == [(1,), (2,), (3,), (4,), (5,)]
        # the first occurrence of (1,) came from shift -3, repaired
        assert cands[0].repaired == 1

    def test_radius_zero(self, seg):
        amap, ref = self.make(seg)
        cands = split_by_attention(amap, ref, AttnConfig(shift_radius=0))
        assert [c.cuts for c in cands] == [(2,)]

    def test_variant_count_law(self, seg):
        ref = seg("u1", [("a", ["K", "AE", "T", "S"]), ("b", ["D", "AO", "G", "Z", "IY", "UW"])])
        amap = identity_attention("u1", ref.phones, ref.phones)
        for radius in (0, 1, 3):
            cands = split_by_attention(amap, ref, AttnConfig(shift_radius=radius))
            assert len(cands) == 2 * radius + 1

    def test_mode_is_not_read(self, seg):
        amap, ref = self.make(seg)
        per_boundary = AttnConfig(shift_radius=1, mode="per_boundary")
        cands = split_by_attention(amap, ref, per_boundary)
        assert [c.cuts for c in cands] == [(1,), (2,), (3,)]


@pytest.mark.parametrize("radius", [2.5, float("inf"), True, 3.0])
def test_a_radius_that_is_not_an_int_is_rejected(radius):
    with pytest.raises(ValueError, match="^shift_radius must be an int$"):
        AttnConfig(radius)


@pytest.mark.parametrize("threshold", [True, False, "0.5", None])
def test_a_threshold_that_is_not_a_real_number_is_rejected(threshold):
    with pytest.raises(ValueError, match="^threshold must be a real number"):
        AttnConfig(threshold=threshold)


@pytest.mark.parametrize("threshold", [0, 1, 0.5, Fraction(1, 3)])
def test_a_real_threshold_in_range_is_kept(threshold):
    assert AttnConfig(threshold=threshold).threshold == threshold


@pytest.mark.parametrize("utt_id", ["a b", "", "u\t1", 7, None])
def test_an_attention_map_checks_its_utterance_id(utt_id):
    # "a b" used to be written as the header "a b 1 1", which the parser rejects
    with pytest.raises(ValueError) as caught:
        AttentionMap(utt_id, ("K",), ("K",), ((1.0,),))
    assert str(caught.value) == f"bad utterance id {utt_id!r}"


class TestEditDistance:
    def test_identical(self):
        assert edit_distance(["D", "AH", "Z", "N", "T"], ["D", "AH", "Z", "N", "T"]) == 0

    def test_all_insertions(self):
        assert edit_distance([], ["K", "AE", "T"]) == 3

    def test_single_substitution(self):
        assert edit_distance(["D", "AH", "S", "N", "T"], ["D", "AH", "Z", "N", "T"]) == 1


def reference_distance(a, b):
    """Brute-force recursion with memoization; independent of the module."""

    @functools.lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        best = go(i + 1, j + 1) + (a[i] != b[j])
        return min(best, go(i + 1, j) + 1, go(i, j + 1) + 1)

    return go(0, 0)


phones_st = st.lists(st.sampled_from(["A", "B", "C"]), max_size=8).map(tuple)


@settings(max_examples=120, deadline=None)
@given(phones_st, phones_st)
def test_edit_distance_matches_reference(a, b):
    assert edit_distance(a, b) == reference_distance(a, b)


@given(phones_st, phones_st, phones_st)
def test_edit_distance_is_a_metric(a, b, c):
    assert edit_distance(a, b) >= 0
    assert (edit_distance(a, b) == 0) == (a == b)
    assert edit_distance(a, b) == edit_distance(b, a)
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


class TestAlignWordBoundaries:
    def test_exact_hypothesis_accepted_at_zero(self, seg):
        ref = seg("u1", [("the", ["DH", "AH"]), ("cat", ["K", "AE", "T"])])
        amap = identity_attention("u1", ref.phones, ref.phones)
        out = align_word_boundaries(amap, ref)
        assert out.accepted
        assert out.total_distance == 0
        assert out.variants == (("the", ("DH", "AH")), ("cat", ("K", "AE", "T")))

    def test_shift_search_recovers_a_misplaced_cut(self, seg):
        ref = seg("u1", [("the", ["DH", "AH"]), ("cat", ["K", "AE", "T"])])
        d = ReferenceDictionary({"the": [("DH", "AH")], "cat": [("K", "AE", "T")]})
        cols = ("D", "AH", "K", "AE", "T")
        # row 1 (end of 'the') peaks at column 2, proposing the cut at 3
        amap = peak_map("u1", cols, ref.phones, peaks=[0, 2, 2, 3, 4])
        out = align_word_boundaries(amap, ref, AttnConfig(shift_radius=1), d)
        assert out.accepted
        assert out.segmentation.cuts == (2,)
        assert out.total_distance == 1
        assert out.normalized_distance == pytest.approx(0.2)
        assert out.variants == (("the", ("D", "AH")), ("cat", ("K", "AE", "T")))

    def test_zero_threshold_rejects_any_mismatch(self, seg):
        ref = seg("u1", [("cat", ["K", "AE", "T"])])
        amap = identity_attention("u1", ("K", "AE", "S"), ref.phones)
        out = align_word_boundaries(amap, ref, AttnConfig(threshold=0.0))
        assert not out.accepted
        assert out.normalized_distance == pytest.approx(1 / 3)

    def test_dictionary_variants_lower_the_distance(self, seg):
        ref = seg("u1", [("cat", ["K", "AE", "T"])])
        amap = identity_attention("u1", ("K", "AH", "T"), ref.phones)
        without = align_word_boundaries(amap, ref)
        assert without.total_distance == 1
        d = ReferenceDictionary({"cat": [("K", "AE", "T"), ("K", "AH", "T")]})
        with_dict = align_word_boundaries(amap, ref, dictionary=d)
        assert with_dict.total_distance == 0

    def test_per_boundary_moves_the_first_of_five_cuts(self, seg):
        ref = seg(
            "u1",
            [("a", ["K", "AE"]), ("b", ["T", "S", "D", "G", "Z"]), ("c", ["M", "N"]),
             ("d", ["P", "B"]), ("e", ["F", "V"]), ("f", ["L", "R"])],
        )
        # the end of 'a' (row 1) peaks three columns late, proposing cut 5
        peaks = [0, 4, *range(2, 15)]
        amap = peak_map("u1", ref.phones, ref.phones, peaks)
        assert place_boundaries(amap, ref).cuts == (5, 7, 9, 11, 13)
        out = align_word_boundaries(amap, ref, AttnConfig(shift_radius=3, mode="per_boundary"))
        assert out.segmentation.cuts == (2, 7, 9, 11, 13)
        assert out.total_distance == 0
        assert out.accepted


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.integers(0, 3))
def test_selected_distance_never_exceeds_the_base(seed, radius):
    rng = random.Random(seed)
    inventory = PhoneInventory.from_phones(["A", "B", "C"])
    from pronvar.phonecore import SegmentedUtterance, WordSpan

    words = tuple(
        WordSpan(f"w{i}", tuple(rng.choice("ABC") for _ in range(rng.randint(1, 3))))
        for i in range(rng.randint(1, 4))
    )
    ref = SegmentedUtterance("u", words, inventory)
    cols = tuple(rng.choice("ABC") for _ in range(len(ref.phones)))
    amap = jittered_attention("u", cols, ref.phones, radius=2, seed=seed ^ 99)
    cfg = AttnConfig(shift_radius=radius)
    base = place_boundaries(amap, ref)
    base_distance = sum(
        edit_distance(span, word.phones)
        for span, word in zip(base.spans(cols), ref.words)
    )
    candidates = split_by_attention(amap, ref, cfg)
    assert 1 <= len(candidates) <= 2 * radius + 1
    assert base in candidates
    out = align_word_boundaries(amap, ref, cfg)
    assert out.total_distance <= base_distance
    flattened = [p for _, span in out.variants for p in span]
    assert tuple(flattened) == cols  # emitted spans partition the columns


class TestExtractVariantsAttn:
    def test_accepts_and_rejects(self, seg):
        good_ref = seg("u1", [("cat", ["K", "AE", "T"])])
        bad_ref = seg("u2", [("dog", ["D", "AO", "G"])])
        maps = [
            identity_attention("u1", ("K", "AE", "T"), good_ref.phones),
            identity_attention("u2", ("UW", "UW", "UW"), bad_ref.phones),
        ]
        result = extract_variants_attn(maps, [good_ref, bad_ref])
        assert result.pairs == (("cat", ("K", "AE", "T")),)
        assert result.rejects == (("u2", 1.0),)
        assert [u for u, _ in result.segmentations] == ["u1"]

    def test_missing_utterance(self, seg):
        ref = seg("u1", [("cat", ["K", "AE", "T"])])
        amap = identity_attention("u2", ("K",), ("K",))
        with pytest.raises(errors.MissingUtterance):
            extract_variants_attn([amap], [ref])

    def test_holds_one_map_of_a_stream_at_a_time(self, seg):
        words = [("cat", ("K", "AE", "T")), ("dog", ("D", "AO", "G"))]
        phones = tuple(p for _, pron in words for p in pron)
        refs = [seg(f"u{i}", words) for i in range(6)]
        yielded = []
        most_alive = 0

        def stream():
            nonlocal most_alive
            for ref in refs:
                most_alive = max(most_alive, sum(map_ref() is not None for map_ref in yielded))
                amap = identity_attention(ref.utterance_id, phones, phones)
                yielded.append(weakref.ref(amap))
                yield amap

        result = extract_variants_attn(stream(), refs)
        assert [u for u, _ in result.segmentations] == [ref.utterance_id for ref in refs]
        assert most_alive <= 1


ABC = PhoneInventory.from_phones(["A", "B", "C"])
short_pron = st.lists(st.sampled_from("ABC"), min_size=1, max_size=3).map(tuple)


@st.composite
def search_cases(draw, max_words, pron=short_pron):
    """An utterance, a dictionary with 1-3 ``pron`` pronunciations per listed
    word, hypothesis columns and one attention peak per reference row."""
    names = draw(st.lists(st.sampled_from(["w0", "w1", "w2"]), min_size=1, max_size=max_words))
    listed = {
        name: draw(st.lists(pron, min_size=1, max_size=3, unique=True))
        for name in set(names)
        if draw(st.booleans())
    }
    words = tuple(WordSpan(name, draw(short_pron)) for name in names)
    ref = SegmentedUtterance("u", words, ABC)
    cols = tuple(draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=len(ref.phones) + 2)))
    peaks = [draw(st.integers(0, len(cols) - 1)) for _ in ref.phones]
    return peak_map("u", cols, ref.phones, peaks), ref, ReferenceDictionary(listed)


def brute_force_per_boundary(amap, ref, radius, dictionary):
    """Every offset tuple, keyed (total, repaired by the tuple, position)."""
    base = place_boundaries(amap, ref)
    prons = [
        dictionary.pronunciations(w.word) if w.word in dictionary else (w.phones,)
        for w in ref.words
    ]
    best = None
    combos = product(_offset_order(radius), repeat=len(base.cuts))
    for position, combo in enumerate(combos):
        cuts, repaired = _repair([c + o for c, o in zip(base.cuts, combo)], base.length)
        spans = Segmentation(cuts, base.length).spans(amap.col_phones)
        total = sum(min(edit_distance(s, p) for p in ps) for s, ps in zip(spans, prons))
        key = (total, repaired, position)
        if best is None or key < best[0]:
            best = (key, cuts, spans)
    (total, repaired, _), cuts, spans = best
    return total, cuts, repaired, tuple(zip((w.word for w in ref.words), spans))


@settings(max_examples=150, deadline=None)
@given(search_cases(max_words=5), st.integers(0, 3), st.sampled_from([0.0, 0.3, 1.0]))
def test_per_boundary_matches_the_brute_force(case, radius, threshold):
    amap, ref, dictionary = case
    cfg = AttnConfig(shift_radius=radius, mode="per_boundary", threshold=threshold)
    out = align_word_boundaries(amap, ref, cfg, dictionary)
    total, cuts, repaired, variants = brute_force_per_boundary(amap, ref, radius, dictionary)
    assert out.total_distance == total
    assert out.segmentation.cuts == cuts
    assert out.segmentation.repaired == repaired
    assert out.variants == variants
    assert out.accepted == (total / len(ref.phones) <= threshold)


@settings(max_examples=200, deadline=None)
@given(search_cases(max_words=3), st.sampled_from([(1, 0), (1, 1), (1, 7), (3, 2)]), st.booleans())
def test_a_radius_past_the_column_count_acts_as_the_column_count(case, scale_extra, use_dictionary):
    amap, ref, dictionary = case
    dictionary = dictionary if use_dictionary else ReferenceDictionary({})
    length = len(amap.col_phones)
    scale, extra = scale_extra
    radius = scale * length + extra
    # global: the candidates of every shift -radius..radius, as before the cap
    base = place_boundaries(amap, ref)
    uncapped: dict[tuple[int, ...], int] = {}
    for shift in range(-radius, radius + 1):
        cuts, moved = _repair([c + shift for c in base.cuts], length)
        uncapped.setdefault(cuts, moved)
    candidates = split_by_attention(amap, ref, AttnConfig(radius))
    assert [(c.cuts, c.repaired) for c in candidates] == list(uncapped.items())
    # per-boundary: the best of every offset tuple at the full radius
    out = align_word_boundaries(amap, ref, AttnConfig(radius, "per_boundary"), dictionary)
    found = (out.total_distance, out.segmentation.cuts, out.segmentation.repaired, out.variants)
    assert found == brute_force_per_boundary(amap, ref, radius, dictionary)
    for mode in ("global_shift", "per_boundary"):
        at_length = align_word_boundaries(amap, ref, AttnConfig(length, mode), dictionary)
        past = align_word_boundaries(amap, ref, AttnConfig(radius, mode), dictionary)
        assert past == at_length
        assert past.segmentation.repaired == at_length.segmentation.repaired


@settings(max_examples=100, deadline=None)
@given(search_cases(max_words=6), st.integers(0, 3))
def test_per_boundary_never_loses_to_global(case, radius):
    amap, ref, dictionary = case
    per_boundary = align_word_boundaries(amap, ref, AttnConfig(radius, "per_boundary"), dictionary)
    global_shift = align_word_boundaries(amap, ref, AttnConfig(radius, "global_shift"), dictionary)
    assert per_boundary.total_distance <= global_shift.total_distance


def global_shift_scoring_loop(amap, ref_seg, cfg, dictionary):
    """The global-mode search as it was before span scores were memoised."""
    candidates = split_by_attention(amap, ref_seg, cfg)
    ref_variants = []
    for span in ref_seg.words:
        if dictionary is not None and span.word in dictionary:
            ref_variants.append(dictionary.pronunciations(span.word))
        else:
            ref_variants.append((span.phones,))

    best = None
    best_spans = ()
    best_key = None
    for order, candidate in enumerate(candidates):
        spans = candidate.spans(amap.col_phones)
        total = sum(
            min(edit_distance(span, pron) for pron in prons)
            for span, prons in zip(spans, ref_variants)
        )
        key = (total, candidate.repaired, order)
        if best_key is None or key < best_key:
            best, best_spans, best_key = candidate, spans, key

    total_ref = len(ref_seg.phones)
    normalized = best_key[0] / total_ref
    variants = tuple((span.word, hyp) for span, hyp in zip(ref_seg.words, best_spans))
    return BoundaryOutcome(
        utterance_id=amap.utterance_id,
        accepted=normalized <= cfg.threshold,
        segmentation=best,
        variants=variants,
        total_distance=best_key[0],
        normalized_distance=normalized,
    )


@settings(max_examples=150, deadline=None)
@given(search_cases(max_words=6), st.integers(0, 3), st.sampled_from([0.0, 0.3, 1.0]), st.booleans())
def test_memoised_global_shift_matches_the_scoring_loop(case, radius, threshold, use_dictionary):
    amap, ref, dictionary = case
    dictionary = dictionary if use_dictionary else None
    cfg = AttnConfig(shift_radius=radius, threshold=threshold)
    out = align_word_boundaries(amap, ref, cfg, dictionary)
    expected = global_shift_scoring_loop(amap, ref, cfg, dictionary)
    assert out == expected
    assert out.segmentation.repaired == expected.segmentation.repaired


@settings(max_examples=150, deadline=None)
@given(
    # D is in no pronunciation; the long columns take more than one 64-bit word
    st.one_of(
        st.lists(st.sampled_from("ABCD"), max_size=8), st.lists(st.sampled_from("ABCD"), min_size=60, max_size=100)
    ).map(tuple),
    st.lists(st.lists(short_pron, min_size=1, max_size=3, unique=True), min_size=1, max_size=4),
    st.data(),
)
def test_span_scorer_matches_edit_distance(cols, prons, data):
    n = len(cols)
    # one start first asked its ends from the last down, so its passes run
    # to the end before any shorter span is read back
    word, start = data.draw(st.integers(0, len(prons) - 1)), data.draw(st.integers(0, n))
    requests = [(word, start, end) for end in range(n, start - 1, -1)]
    if n <= 8:
        every = [(w, a, b) for w in range(len(prons)) for a in range(n + 1) for b in range(a, n + 1)]
        requests += data.draw(st.permutations(every))
    else:
        span = st.tuples(st.integers(0, len(prons) - 1), st.integers(0, n), st.integers(0, n))
        requests += [(w, min(a, b), max(a, b)) for w, a, b in data.draw(st.lists(span, max_size=30))]
    score = _span_scorer(cols, prons)
    for word, start, end in requests:
        got = score(word, start, end)
        assert type(got) is float
        assert got == min(edit_distance(cols[start:end], p) for p in prons[word])
    # an empty span costs its word's shortest pronunciation, wherever it starts
    for word, variants in enumerate(prons):
        assert score(word, n, n) == score(word, 0, 0) == min(map(len, variants))


def best_global_shift_by_full_scan(amap, ref_seg, cfg, score):
    """The global search before its branch-and-bound, verbatim: every candidate scored in full."""
    best: Segmentation | None = None
    best_key: tuple[float, int, int] | None = None
    for order, candidate in enumerate(split_by_attention(amap, ref_seg, cfg)):
        bounds = (0, *candidate.cuts, candidate.length)
        total = sum(score(j, a, b) for j, (a, b) in enumerate(pairwise(bounds)))
        key = (total, candidate.repaired, order)
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    return best, best_key[0]


# alternatives of 1-5 phones, so a word's pronunciation lengths differ and
# its floors are loose
loose_cases = search_cases(max_words=8, pron=st.lists(st.sampled_from("ABC"), min_size=1, max_size=5).map(tuple))


def placed_cuts(cols, prons, cuts):
    """Unlisted words whose attention places the cuts given."""
    ref = SegmentedUtterance("u", tuple(WordSpan(f"w{j}", pron) for j, pron in enumerate(prons)), ABC)
    finals = {sum(map(len, prons[: j + 1])) - 1: cut - 1 for j, cut in enumerate(cuts)}
    peaks = [finals.get(row, 0) for row in range(len(ref.phones))]
    return peak_map("u", cols, ref.phones, peaks), ref, ReferenceDictionary({})


@settings(max_examples=300, deadline=None)
@given(loose_cases, st.integers(0, 3), st.booleans())
# cut 1 (shift -2 clamped: floor 0, one repair) scores 2 and is visited first;
# cut 2 (floor 2) ties it at 2 with no repair and wins
@example(placed_cuts("CAB", [("A",), ("B", "B")], [2]), 2, False)
# cut 2 (floor 0) scores 2 and is visited first; cut 1, generated first
# (floor 2), ties it at 2 with the same repairs and wins
@example(placed_cuts("ABC", [("A", "A"), ("B",)], [2]), 1, False)
def test_bounded_global_shift_matches_the_full_scan(case, radius, use_dictionary):
    amap, ref, dictionary = case
    dictionary = dictionary if use_dictionary else None
    prons = [
        dictionary.pronunciations(w.word) if dictionary is not None and w.word in dictionary else (w.phones,)
        for w in ref.words
    ]
    cfg = AttnConfig(radius)
    best, total = best_global_shift_by_full_scan(amap, ref, cfg, _span_scorer(amap.col_phones, prons))
    out = align_word_boundaries(amap, ref, cfg, dictionary)
    assert out.segmentation.cuts == best.cuts
    assert out.total_distance == total
    assert out.segmentation.repaired == best.repaired
    assert out.variants == tuple(zip((w.word for w in ref.words), best.spans(amap.col_phones)))


@settings(max_examples=300, deadline=None)
@given(loose_cases, st.integers(0, 3), st.booleans())
@example(placed_cuts("CAB", [("A",), ("B", "B")], [2]), 2, False)
@example(placed_cuts("ABC", [("A", "A"), ("B",)], [2]), 1, False)
def test_global_shift_from_ranges_asks_what_the_floor_table_asked(case, radius, use_dictionary):
    # the search on per-word length ranges against its old self on a
    # words x columns floor table: the same winner, and the same spans asked
    amap, ref, dictionary = case
    dictionary = dictionary if use_dictionary else None
    prons = [
        dictionary.pronunciations(w.word) if dictionary is not None and w.word in dictionary else (w.phones,)
        for w in ref.words
    ]
    cfg = AttnConfig(radius)
    ranges = [(min(map(len, p)), max(map(len, p))) for p in prons]
    floors = old._span_floors(prons, len(amap.col_phones))
    searches = (
        lambda score: _best_global_shift(place_boundaries(amap, ref), radius, ranges, score),
        lambda score: old._best_global_shift(amap, ref, cfg, floors, score),
    )
    found = []
    for search in searches:
        scorer = _span_scorer(amap.col_phones, prons)
        asked = []

        def score(word, start, end, scorer=scorer, asked=asked):
            asked.append((word, start, end))
            return scorer(word, start, end)

        best, total = search(score)
        found.append((best.cuts, best.length, best.repaired, total, asked))
    assert found[0] == found[1]


def test_global_shift_scores_only_the_spans_of_an_exact_shift_zero(seg):
    # one pronunciation per word and the hypothesis is the reference: the
    # shift-0 cuts score 0, and every other shift moves the first span off
    # its pronunciation's length, so every other candidate has a floor
    ref = seg("u", [("a", ["K", "AE", "T"]), ("b", ["DH", "AH"]), ("c", ["S", "IH", "T", "S"]), ("d", ["Z"])])
    amap = identity_attention("u", ref.phones, ref.phones)
    prons = [(w.phones,) for w in ref.words]
    scorer = _span_scorer(amap.col_phones, prons)
    asked = []

    def score(word, start, end):
        asked.append((word, start, end))
        return scorer(word, start, end)

    ranges = [(len(w.phones), len(w.phones)) for w in ref.words]
    best, total = _best_global_shift(place_boundaries(amap, ref), 3, ranges, score)
    assert (best.cuts, total) == ((3, 5, 9), 0)
    assert asked == [(0, 0, 3), (1, 3, 5), (2, 5, 9), (3, 9, 10)]


def best_per_boundary_by_full_dp(base, radius, score):
    """The per-boundary search before its bound, verbatim: the backward DP over every transition."""
    length = base.length
    offsets = _offset_order(min(radius, length))
    k = len(base.cuts)
    reach = [{0}]
    for target in base.cuts:
        reach.append({old._clamp(target + o, prev, length) for prev in reach[-1] for o in offsets})

    # best[i][prev]: (distance, clamps, cut i) of the best completion from
    # cut i on, with cut i-1 at prev; best[k] scores the last word alone.
    best: list[dict[int, tuple[float, int, int]]] = [{} for _ in range(k)]
    best.append({prev: (score(k, prev, length), 0, length) for prev in reach[k]})
    for i in reversed(range(k)):
        target = base.cuts[i]
        for prev in reach[i]:
            choice = None
            for o in offsets:
                cut = old._clamp(target + o, prev, length)
                distance, clamps, _ = best[i + 1][cut]
                option = (score(i, prev, cut) + distance, clamps + (cut != target + o), cut)
                if choice is None or option[:2] < choice[:2]:
                    choice = option
            best[i][prev] = choice

    total, clamps, _ = best[0][0]
    cuts = []
    prev = 0
    for row in best[:k]:
        prev = row[prev][2]
        cuts.append(prev)
    return Segmentation(cuts, length, repaired=clamps), total


def per_boundary_both_ways(case, radius):
    """Run the bounded and the full search on one case; return each result and
    the (word, start) row passes each asked for."""
    amap, ref, dictionary = case
    prons = [dictionary.pronunciations(w.word) if w.word in dictionary else (w.phones,) for w in ref.words]
    base = place_boundaries(amap, ref)
    searches = (
        (_best_per_boundary, ([(min(map(len, p)), max(map(len, p))) for p in prons],)),
        (best_per_boundary_by_full_dp, ()),
    )
    found = []
    for search, extra in searches:
        scorer = _span_scorer(amap.col_phones, prons)
        passes = set()

        def score(word, start, end, scorer=scorer, passes=passes):
            passes.add((word, start))
            return scorer(word, start, end)

        best, total = search(base, radius, *extra, score)
        found.append(((total, best.cuts, best.repaired), passes))
    return found


@settings(max_examples=300, deadline=None)
@given(loose_cases, st.integers(0, 6))
# equal total and equal clamps: cuts 2 and 1 (offsets -1 and -2) both total 3
@example(placed_cuts("BBB", [("A",), ("A",)], [3]), 2)
# equal total, different clamps: tuples before the winner (2, 3) tie it at 2
# with a clamp
@example(placed_cuts("ABA", [("B",), ("A",), ("B",)], [1, 2]), 1)
# clamped at the sequence end: offset +1 reaches the winner's cut 2 = length
# with a clamp, offset 0 without one, and offset -1 ties the total at cut 1
@example(placed_cuts("BA", [("A",), ("C",)], [2]), 2)
def test_bounded_per_boundary_matches_the_full_dp(case, radius):
    (bounded, _), (full, _) = per_boundary_both_ways(case, radius)
    assert bounded == full


@settings(max_examples=150, deadline=None)
@given(loose_cases, st.integers(0, 6))
def test_bounded_per_boundary_opens_no_more_passes(case, radius):
    (_, bounded), (_, full) = per_boundary_both_ways(case, radius)
    assert bounded <= full  # every pass opened is one the full search opens


@settings(max_examples=300, deadline=None)
@given(loose_cases, st.integers(0, 6))
@example(placed_cuts("BBB", [("A",), ("A",)], [3]), 2)
@example(placed_cuts("ABA", [("B",), ("A",), ("B",)], [1, 2]), 1)
@example(placed_cuts("BA", [("A",), ("C",)], [2]), 2)
def test_per_boundary_asks_what_its_loop_with_calls_asked(case, radius):
    # the loop with _clamp and h in place against its old self, which calls
    # _clamp and max: the same winner, and the same spans asked in the same order
    amap, ref, dictionary = case
    prons = [dictionary.pronunciations(w.word) if w.word in dictionary else (w.phones,) for w in ref.words]
    ranges = [(min(map(len, p)), max(map(len, p))) for p in prons]
    base = place_boundaries(amap, ref)
    found = []
    for search in (_best_per_boundary, old._best_per_boundary):
        scorer = _span_scorer(amap.col_phones, prons)
        asked = []

        def score(word, start, end, scorer=scorer, asked=asked):
            asked.append((word, start, end))
            return scorer(word, start, end)

        best, total = search(base, radius, ranges, score)
        found.append((best.cuts, best.length, best.repaired, total, asked))
    assert found[0] == found[1]


@settings(max_examples=300, deadline=None)
@given(search_cases(max_words=6), st.sampled_from([0, 1, 3]), st.integers(0, 3))
def test_split_by_attention_lists_the_old_candidates_in_the_old_order(case, scale, extra):
    # the shifts enumerated once as cut tuples against their old self, which
    # made each a record as it went: scale 0 draws radii 0-3, and scales 1
    # and 3 draw radii at and past the column count
    amap, ref, _ = case
    cfg = AttnConfig(scale * len(amap.col_phones) + extra)
    found = [
        [(c.cuts, c.length, c.repaired) for c in search(amap, ref, cfg)]
        for search in (split_by_attention, old.split_by_attention)
    ]
    assert found[0] == found[1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-5, 15), max_size=8), st.integers(1, 10))
@example([4, 2, 3, 1], 6)  # crossing
@example([5, 9, 12, 13], 10)  # out of range
@example([-3, -1, 0, 2], 4)  # negative
def test_repair_with_its_clamp_in_place_matches_its_old_self(cuts, length):
    assert _repair(cuts, length) == old._repair(cuts, length)
