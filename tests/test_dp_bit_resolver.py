"""align-dp's dictionary-variant resolver on bit rows at unit costs times one
gap, against the cell-row resolver and extraction loop it replaced
(``old_dp_resolver``)."""

from operator import sub
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import old_dp_resolver as old
from pronvar import dpalign, errors
from pronvar.dpalign import (
    AlignConfig,
    _bit_rows,
    _checked_reference,
    _column_masks,
    _exact,
    _last_row,
    _least_difference,
    edit_distance,
    extract_variants_dp,
)
from pronvar.phonecore import AnySymbol, PhoneInventory, PhoneSequence, ReferenceDictionary, SegmentedUtterance, WordSpan
from test_dp_traceback import utterance
from test_dpalign import ABC, costs, longer, pronunciation, ref_words, resolve

# mostly short, sometimes wider than one 64-bit machine word
hyp_phones = st.one_of(longer, st.lists(st.sampled_from(["A", "B", "C"]), min_size=60, max_size=100).map(tuple))

unit_costs = st.one_of(
    st.just(AlignConfig()),
    # scaled unit costs: dyadic gaps, whose float sums are exact, and 0.1, whose are not
    st.sampled_from([0.5, 2.0, 0.1, 3.0]).map(lambda g: AlignConfig(0.0, g, g)),
)
# costs the bit rows do not take; (0, 1, 0.5) sums exactly in floats, so its
# final ops are traced through the resolver's cell rows
other_costs = st.one_of(costs, st.just(AlignConfig(0.0, 1.0, 0.5)), st.just(AlignConfig(0.5, 1.0, 1.0)))


@st.composite
def near_2_53(draw):
    """An utterance whose gap's integer numerator times ``len(hyp) + len(ref)``,
    at the given reference, is at most 2**53 or just above it."""
    phones, words = draw(longer), draw(ref_words)
    length = len(phones) + sum(len(p) for p, _ in words)
    gap = 2**53 // length + draw(st.sampled_from([0, 1]))
    return phones, words, AlignConfig(0.0, float(gap), float(gap))


# both alternatives of w0 are one phone long, so the resolved reference is as
# long as the given one: len(hyp) + len(ref) = 8, and a gap of 2**50 sums to
# 2**53 at most
EDGE_HYP = ("A", "B", "C", "A", "B")
EDGE_WORDS = [(("A",), [("C",), ("A",)]), (("B", "C"), None)]

# 'B' and 'A B' both cost 1 against 'A', though they differ in length
UNEQUAL_TIE_HYP = ("A",)

# w1's given span 'C' is listed behind 'A', which costs as much against 'A B'
GIVEN_TIED_HYP = ("A", "B")
GIVEN_TIED_WORDS = [(("A",), [("A",), ("C",)]), (("C",), [("A",), ("C",)])]
# w1's given span 'C' is listed behind 'B', which costs less
GIVEN_BEATEN_WORDS = [(("A",), [("A",), ("C",)]), (("C",), [("B",), ("C",)])]
# w2's one pronunciation lies between words with alternatives
SINGLE_BETWEEN_HYP = ("A", "B", "C", "A", "B", "B")
SINGLE_BETWEEN_WORDS = [
    (("A",), [("A",), ("B", "B")]),
    (("C",), [("B",), ("C",)]),
    (("C",), [("C",)]),
    (("A",), [("C",), ("A",)]),
    (("B",), [("B",), ("A", "A")]),
]
# w0's given span 'C' is listed behind 'B', which costs as much against 'A B'
# and wins the tie; listed ahead of it, 'C' keeps it
BOUND_TIE_HYP = ("A", "B")
GIVEN_AFTER_TIE_WORDS = [(("C",), [("B",), ("C",)]), (("B",), None)]
GIVEN_BEFORE_TIE_WORDS = [(("C",), [("C",), ("B",)]), (("B",), None)]
# 'C' bounds at 1, the cost of the given 'B' listed ahead of it, against 'A'
BOUND_AT_GIVEN_WORDS = [(("B",), [("B",), ("C",)])]
# at w1, 'C' bounds at 1, the cost of 'B' listed ahead of it, against 'A B C A'
BOUND_AT_BEST_HYP = ("A", "B", "C", "A")
BOUND_AT_BEST_WORDS = [(("A",), [("A",), ("B",), ("C",)])] * 3
# w0's given span is not listed, so its first alternative is bounded by nothing
UNLISTED_WORDS = [(("A", "A"), [("C",), ("A",), ("B",)]), (("C",), None)]
# alternatives 1, 2 and 5 phones long for w0's given span of 3
LENGTHS_HYP = ("A", "B", "C", "A", "B")
LENGTHS_WORDS = [(("A", "B", "C"), [("A",), ("A", "B"), ("A", "B", "C", "A", "B"), ("A", "B", "C")]), (("A",), None)]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(hyp_phones, ref_words, unit_costs),
        st.tuples(hyp_phones, ref_words, other_costs),
        near_2_53(),
    )
)
@example((EDGE_HYP, EDGE_WORDS, AlignConfig(0.0, 2.0**50, 2.0**50)))
@example((EDGE_HYP, EDGE_WORDS, AlignConfig(0.0, 2.0**50 + 1, 2.0**50 + 1)))
@example((UNEQUAL_TIE_HYP, [(("A",), [("B",), ("A", "B")])], AlignConfig()))
@example((UNEQUAL_TIE_HYP, [(("A",), [("A", "B"), ("B",)])], AlignConfig()))
@example((UNEQUAL_TIE_HYP, [(("A",), [("A", "B"), ("B",)]), (("C",), [("C",), ("C", "C", "C")])], AlignConfig()))
@example((GIVEN_TIED_HYP, GIVEN_TIED_WORDS, AlignConfig()))
@example((GIVEN_TIED_HYP, GIVEN_BEATEN_WORDS, AlignConfig()))
@example((SINGLE_BETWEEN_HYP, SINGLE_BETWEEN_WORDS, AlignConfig()))
@example((SINGLE_BETWEEN_HYP, SINGLE_BETWEEN_WORDS, AlignConfig(0.0, 0.5, 0.5)))
@example((BOUND_TIE_HYP, GIVEN_AFTER_TIE_WORDS, AlignConfig()))
@example((BOUND_TIE_HYP, GIVEN_BEFORE_TIE_WORDS, AlignConfig()))
@example((UNEQUAL_TIE_HYP, BOUND_AT_GIVEN_WORDS, AlignConfig()))
@example((BOUND_AT_BEST_HYP, BOUND_AT_BEST_WORDS, AlignConfig()))
@example((BOUND_AT_BEST_HYP, UNLISTED_WORDS, AlignConfig()))
@example((LENGTHS_HYP, LENGTHS_WORDS, AlignConfig()))
# the same ties on cell rows, in the exact costs 0, 3 and 2
@example((BOUND_TIE_HYP, GIVEN_AFTER_TIE_WORDS, AlignConfig(0.0, 1.5, 1.0)))
@example((BOUND_TIE_HYP, GIVEN_BEFORE_TIE_WORDS, AlignConfig(0.0, 1.5, 1.0)))
@example((UNEQUAL_TIE_HYP, BOUND_AT_GIVEN_WORDS, AlignConfig(0.0, 1.5, 1.0)))
@example((BOUND_AT_BEST_HYP, BOUND_AT_BEST_WORDS, AlignConfig(0.0, 1.5, 1.0)))
@example((BOUND_AT_BEST_HYP, UNLISTED_WORDS, AlignConfig(0.0, 1.5, 1.0)))
def test_extraction_is_the_cell_row_resolver_and_loop(case):
    phones, words, cfg = case
    hyp, ref, d = utterance(phones, words)
    assert extract_variants_dp([hyp], [ref], d, cfg) == old.extract_variants_dp([hyp], [ref], d, cfg)
    exact = _exact(cfg)
    assert resolve(hyp, ref, d, cfg)[0] == old._resolve_reference(hyp, ref, d, exact)[0]


@settings(max_examples=300, deadline=None)
@given(hyp_phones, ref_words, unit_costs)
@example(EDGE_HYP, EDGE_WORDS, AlignConfig())
@example(UNEQUAL_TIE_HYP, [(("A",), [("A", "B"), ("B",)]), (("C",), [("C",), ("C", "C", "C")])], AlignConfig())
@example(GIVEN_TIED_HYP, GIVEN_TIED_WORDS, AlignConfig())
@example(GIVEN_TIED_HYP, GIVEN_BEATEN_WORDS, AlignConfig())
@example(SINGLE_BETWEEN_HYP, SINGLE_BETWEEN_WORDS, AlignConfig())
@example(SINGLE_BETWEEN_HYP, SINGLE_BETWEEN_WORDS, AlignConfig(0.0, 0.5, 0.5))
@example(BOUND_TIE_HYP, GIVEN_AFTER_TIE_WORDS, AlignConfig())
@example(BOUND_TIE_HYP, GIVEN_BEFORE_TIE_WORDS, AlignConfig())
@example(UNEQUAL_TIE_HYP, BOUND_AT_GIVEN_WORDS, AlignConfig())
@example(BOUND_AT_BEST_HYP, BOUND_AT_BEST_WORDS, AlignConfig())
@example(BOUND_AT_BEST_HYP, UNLISTED_WORDS, AlignConfig())
@example(LENGTHS_HYP, LENGTHS_WORDS, AlignConfig())
def test_the_resolver_rows_are_one_bit_row_pass_over_the_resolved_phones(phones, words, cfg):
    # these are the rows the final ops are traced through
    hyp, ref, d = utterance(phones, words)
    resolved, rows = resolve(hyp, ref, d, cfg)
    masks, width = _column_masks(hyp.phones), len(hyp.phones)
    expected = [_bit_rows((), masks, width)]
    _bit_rows(resolved.phones, masks, width, out=expected)
    assert rows is None or rows == expected


@st.composite
def swapped_word(draw):
    """A reference's words, the index of one of them and an alternative of 1-5 phones for it."""
    words = draw(ref_words)
    alt = st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=5).map(tuple)
    return words, draw(st.integers(0, len(words) - 1)), draw(alt)


@settings(max_examples=300, deadline=None)
@given(hyp_phones, swapped_word(), other_costs)
@example(BOUND_TIE_HYP, ([(("C",), None), (("B",), None)], 0, ("B",)), AlignConfig(0.0, 1.5, 1.0))
@example(LENGTHS_HYP, ([(("A", "B", "C"), None), (("A",), None)], 0, ("A", "B", "C", "A", "B")), AlignConfig(0.0, 1.0, 0.5))
@example(BOUND_AT_BEST_HYP, ([(("A",), None), (("A", "A"), None)], 1, ("B", "A")), AlignConfig(0.5, 1.0, 1.0))
def test_the_row_difference_bounds_an_alternative_from_below(phones, case, cfg):
    words, wi, alt = case
    hyp, ref, _ = utterance(phones, words)
    given_phones, span = ref.phones, ref.words[wi].phones
    at = ref.ends[wi] - len(span)
    masks, width = _column_masks(hyp.phones), len(hyp.phones)
    rows = [_bit_rows((), masks, width)]
    _bit_rows(given_phones, masks, width, 0, rows[0], rows)
    least = _least_difference(_bit_rows(alt, masks, width, 0, rows[at]), rows[at + len(span)], len(alt) - len(span))
    # the cells of the same two rows, from the cell-row kernel
    unit = _exact(AlignConfig())
    alt_cells = _last_row((*given_phones[:at], *alt), hyp.phones, unit)
    given_cells = _last_row(given_phones[: at + len(span)], hyp.phones, unit)
    assert least == min(map(sub, alt_cells, given_cells))
    # the given reference's cost plus the least difference never exceeds the
    # cost with the alternative swapped in
    swapped = (*given_phones[:at], *alt, *given_phones[at + len(span) :])
    assert edit_distance(hyp.phones, given_phones) + least <= edit_distance(hyp.phones, swapped)
    # at other costs, the same bound on the cell rows in exact costs
    exact = _exact(cfg)
    alt_cells = _last_row((*given_phones[:at], *alt), hyp.phones, exact)
    given_cells = _last_row(given_phones[: at + len(span)], hyp.phones, exact)
    given_cost, swapped_cost = (_last_row(phones, hyp.phones, exact)[-1] for phones in (given_phones, swapped))
    assert given_cost + min(map(sub, alt_cells, given_cells)) <= swapped_cost


@pytest.mark.parametrize(
    "prons, chosen",
    [
        ([("B",), ("A", "B")], ("B",)),
        ([("A", "B"), ("B",)], ("A", "B")),
        ([("C",), ("B",)], ("C",)),
        ([("B",), ("C",)], ("B",)),
    ],
)
@pytest.mark.parametrize("cfg", [AlignConfig(), AlignConfig(0.0, 0.1, 0.1), AlignConfig(0.0, 2.0, 2.0)])
def test_a_tie_goes_to_the_first_listed_pronunciation(prons, chosen, cfg):
    # each pronunciation costs one edit against 'A'
    hyp, ref, d = utterance(UNEQUAL_TIE_HYP, [(("A",), prons)])
    resolved, _ = resolve(hyp, ref, d, cfg)
    assert resolved.words[0].phones == chosen
    assert resolved == old._resolve_reference(hyp, ref, d, _exact(cfg))[0]


AB = PhoneInventory.from_phones(["A", "B"])
ABZY = PhoneInventory.from_phones(["A", "B", "Y", "Z"])


@pytest.mark.parametrize(
    "given_phones, prons, message",
    [
        # a bad given phone is reported before any alternative is tried
        (("A", "Z"), [("A",), ("Y",)], "'Z'"),
        (("A", "B"), [("A",), ("Y",), ("Z",)], "'Y'"),
        (("A", "B"), [("Z",), ("Y",)], "'Z'"),
    ],
)
@pytest.mark.parametrize("cfg", [AlignConfig(), AlignConfig(0.0, 1.5, 1.0)])
def test_a_phone_outside_the_inventory_is_reported_as_before(given_phones, prons, message, cfg):
    hyp = PhoneSequence("u", ("A", "B"), AB)
    ref = SegmentedUtterance("u", (WordSpan("w", given_phones[:1]), WordSpan("v", given_phones[1:])), ABZY)
    d = ReferenceDictionary({"w": prons})
    with pytest.raises(errors.InventoryMismatch, match=f"^reference phone {message} not in") as new:
        extract_variants_dp([hyp], [ref], d, cfg)
    with pytest.raises(errors.InventoryMismatch) as was:
        old.extract_variants_dp([hyp], [ref], d, cfg)
    assert str(new.value) == str(was.value)


@pytest.mark.parametrize("cfg", [AlignConfig(), AlignConfig(0.0, 1.5, 1.0)])
def test_a_bad_given_phone_is_named_before_a_bad_alternative_after_a_checked_one(cfg):
    # u1 leaves ('A',) checked; u2's given reference holds 'Z', and the second
    # alternative of its word w, ('Y',), is outside the inventory too
    hyps = [PhoneSequence(u, ("A", "B"), AB) for u in ("u1", "u2")]
    refs = [
        SegmentedUtterance("u1", (WordSpan("x", ("A",)), WordSpan("v", ("B",))), ABZY),
        SegmentedUtterance("u2", (WordSpan("w", ("A",)), WordSpan("v", ("Z",))), ABZY),
    ]
    d = ReferenceDictionary({"x": [("A",), ("B",)], "w": [("A",), ("Y",)]})
    with pytest.raises(errors.InventoryMismatch, match="^reference phone 'Z' not in") as new:
        extract_variants_dp(hyps, refs, d, cfg)
    with pytest.raises(errors.InventoryMismatch) as was:
        old.extract_variants_dp(hyps, refs, d, cfg)
    assert str(new.value) == str(was.value)


@pytest.mark.parametrize("cfg", [AlignConfig(), AlignConfig(0.0, 1.5, 1.0)])
def test_a_pronunciation_passed_on_one_inventory_is_checked_again_on_another(cfg):
    # ('Y',) passes u1's inventory, which holds 'Y', and fails u2's
    aby = PhoneInventory.from_phones(["A", "B", "Y"])
    hyps = [PhoneSequence("u1", ("A", "B"), aby), PhoneSequence("u2", ("A", "B"), AB)]
    refs = [SegmentedUtterance(u, (WordSpan("w", ("A",)), WordSpan("v", ("B",))), ABZY) for u in ("u1", "u2")]
    d = ReferenceDictionary({"w": [("A",), ("Y",)]})
    extract_variants_dp(hyps[:1], refs[:1], d, cfg)
    with pytest.raises(errors.InventoryMismatch, match="^reference phone 'Y' not in"):
        extract_variants_dp(hyps, refs, d, cfg)


#: two inventories that hold the same phones, but are not one object
ABC_AGAIN = PhoneInventory.from_phones(["A", "B", "C"])


@st.composite
def corpora(draw):
    """1-5 utterances over one dictionary of 1-4 words; the hypotheses before a drawn
    index are on one inventory, and those from it on another that holds the same phones."""
    listed = draw(st.lists(st.lists(pronunciation, min_size=1, max_size=3, unique=True), min_size=1, max_size=4))
    count = draw(st.integers(1, 5))
    switch = draw(st.integers(0, count))
    hyps, refs = [], []
    for k in range(count):
        words = draw(st.lists(st.integers(0, len(listed) - 1), min_size=1, max_size=4))
        spans = tuple(WordSpan(f"w{i}", draw(st.one_of(st.sampled_from(listed[i]), pronunciation))) for i in words)
        refs.append(SegmentedUtterance(f"u{k}", spans, ABC))
        hyps.append(PhoneSequence(f"u{k}", draw(longer), ABC if k < switch else ABC_AGAIN))
    return hyps, refs, ReferenceDictionary({f"w{i}": prons for i, prons in enumerate(listed)})


@settings(max_examples=200, deadline=None)
@given(corpora(), st.sampled_from([AlignConfig(), AlignConfig(0.0, 1.5, 1.0)]))
def test_each_pronunciation_is_checked_once_for_each_inventory(corpus, cfg):
    hyps, refs, d = corpus
    with mock.patch.object(dpalign, "_checked_reference", wraps=dpalign._checked_reference) as checked:
        extraction = extract_variants_dp(hyps, refs, d, cfg)
    assert extraction == old.extract_variants_dp(hyps, refs, d, cfg)
    given_refs = {id(ref.phones) for ref in refs}
    alternatives = [(id(c.args[0].inventory), c.args[1]) for c in checked.call_args_list if id(c.args[1]) not in given_refs]
    # the given reference of each utterance, and each alternative of a word with
    # two or more once for each inventory it meets
    assert checked.call_count - len(alternatives) == len(refs)
    expected = {
        (id(hyp.inventory), pron)
        for hyp, ref in zip(hyps, refs)
        for span in ref.words
        if len(d.pronunciations(span.word)) > 1
        for pron in d.pronunciations(span.word)
    }
    assert sorted(alternatives) == sorted(expected)


def walked_reference(hyp, ref):
    """``_checked_reference`` as it was before its set test: one ``in`` per phone."""
    for symbol in ref:
        if symbol not in hyp.inventory:
            raise errors.InventoryMismatch(f"reference phone {symbol!r} not in the hypothesis inventory")
    return tuple(ref)


KNOWN = ("A", "B", "A", "C")


# a phone outside a PhoneInventory, and phones that break the symbol rule AnySymbol applies
@pytest.mark.parametrize(
    "inventory, unknown",
    [(lambda: PhoneInventory.from_phones("ABC"), "Z"), (AnySymbol, "A|B"), (AnySymbol, "É"), (AnySymbol, "K AE")],
)
@pytest.mark.parametrize("at", range(len(KNOWN) + 1))
def test_the_set_test_names_the_first_missing_phone_as_the_walk_does(inventory, unknown, at):
    one = (*KNOWN[:at], unknown, *KNOWN[at:])
    # a second missing phone follows the first, which is the one named
    for ref in (one, (*one, "Q|")):
        for hyp in (PhoneSequence("u", ("A",), inventory()), PhoneSequence("u", KNOWN, inventory())):
            with pytest.raises(errors.InventoryMismatch) as fast:
                _checked_reference(hyp, ref)
            with pytest.raises(errors.InventoryMismatch) as walk:
                walked_reference(hyp, ref)
            assert str(fast.value) == str(walk.value) == f"reference phone {unknown!r} not in the hypothesis inventory"
            assert _checked_reference(hyp, KNOWN) == walked_reference(hyp, KNOWN) == KNOWN


def test_the_bit_rows_resolve_only_at_unit_costs_times_a_gap():
    hyp, ref, d = utterance(("A", "B", "C", "A"), [(("A",), [("A",), ("B", "B")]), (("C",), [("C",), ("A",)])])
    cases = [
        (AlignConfig(), False),
        (AlignConfig(0.0, 0.5, 0.5), False),
        (AlignConfig(match_score=0.5), True),
        (AlignConfig(0.0, 1.5, 1.0), True),
    ]
    for cfg, cells in cases:
        with (
            mock.patch.object(dpalign, "_cost_rows", wraps=dpalign._cost_rows) as cell_rows,
            mock.patch.object(dpalign, "_bit_rows", wraps=dpalign._bit_rows) as bit_rows,
        ):
            extract_variants_dp([hyp], [ref], d, cfg)
        assert cell_rows.called == cells, cfg
        assert bit_rows.called != cells, cfg


# over the 8 phones of hypothesis and reference, sums of 2**50 + 1 pass 2**53, where
# float sums round, and sums of 2**1022 pass the float range
@pytest.mark.parametrize("gap", [2.0**50, 2.0**50 + 1, 2.0**1022])
def test_the_ops_come_from_the_bit_rows_at_every_gap(gap):
    hyp, ref, d = utterance(EDGE_HYP, EDGE_WORDS)
    with (
        mock.patch.object(dpalign, "nw_align", wraps=dpalign.nw_align) as aligned,
        mock.patch.object(dpalign, "_cost_rows", wraps=dpalign._cost_rows) as cell_rows,
    ):
        extract_variants_dp([hyp], [ref], d, AlignConfig(0.0, gap, gap))
    assert not aligned.called
    assert not cell_rows.called


ONE_PHONE = [("A",), ("B",), ("C",)]


# Against the hypothesis 'A B C A'. Two calls fill the given reference's rows
# (the top edge, then its phones). At a word with alternatives, the given span
# makes no call; any other alternative makes one for its own row, and one
# more, the carry through the given phones after its word, only if its bound
# is below the cost it must beat.
@pytest.mark.parametrize(
    "words, calls, rows",
    [
        # total 2. w0: B and C bound at 2, the given A's cost, and make one
        # call each. w1: B bounds at 1, carries 'A' and wins at 1; C bounds at
        # 1. w2: B bounds at 1; C bounds at 0 and carries nothing, at 1
        ([(("A",), ONE_PHONE)] * 3, 2 + 2 + 3 + 3, 3 + 2 + 3 + 2),
        # total 3. w0: A carries 'C C' and wins at 2; B bounds at 2. w1: A
        # carries 'C' at 2, then B at 1, which wins. w2: A carries nothing and
        # wins at 1, a tie with the given C, listed after it; B bounds at 1
        ([(("C",), ONE_PHONE)] * 3, 2 + 3 + 4 + 3, 3 + 4 + 4 + 2),
        # total 2. w0 as in the first case. w1's given span is not listed: A
        # carries 'A' at 2, B carries 'A' and wins at 1, and C bounds at 1.
        # w2 as in the first case
        ([(("A",), ONE_PHONE), (("A", "A"), ONE_PHONE), (("A",), ONE_PHONE)], 2 + 2 + 5 + 3, 4 + 2 + 5 + 2),
        # total 1. w0: B and C bound at 1. w1 has one pronunciation and makes
        # no call. w2 as in the first case
        ([(("A",), ONE_PHONE), (("B",), [("B",)]), (("A",), ONE_PHONE)], 2 + 2 + 3, 3 + 2 + 2),
        # total 2. w0: B and C bound at 2. w1: A carries nothing and wins at
        # 2, a tie with the given B, listed after it; C bounds at 2
        ([(("A",), ONE_PHONE), (("B",), ONE_PHONE)], 2 + 2 + 3, 2 + 2 + 2),
        # total 1. w1: B's row after 'A B' is the given A's but for one more
        # in its last cell, so it bounds at 1, loses, and makes one call
        ([(("A", "B"), None), (("A",), [("A",), ("B",)])], 2 + 1, 3 + 1),
        # total 1. w1: C's row after 'A B' is the given A's but for one less
        # in the cell before the last, so it bounds at 0 and carries nothing,
        # yet it costs 1 and loses
        ([(("A", "B"), None), (("A",), [("A",), ("C",)])], 2 + 2, 3 + 1),
    ],
)
def test_a_given_span_after_the_first_resolved_word_costs_no_kernel_call(words, calls, rows):
    hyp, ref, d = utterance(("A", "B", "C", "A"), words)
    with mock.patch.object(dpalign, "_bit_rows", wraps=dpalign._bit_rows) as bit_rows:
        extract_variants_dp([hyp], [ref], d, AlignConfig())
    assert bit_rows.call_count == calls
    assert sum(len(call.args[0]) for call in bit_rows.call_args_list) == rows


# Against 'A B C A' at the exact costs 0, 3 and 2, counting the rows each
# _cost_rows call fills. Two calls fill the given reference's rows (the top
# edge, then its phones); the rule is the one the bit rows follow above.
@pytest.mark.parametrize(
    "words, calls, rows",
    [
        # total 5. w0: B and C bound at 5, the given A's cost, and make one
        # call each. w1: B bounds at 2, carries 'A' and wins at 2; C bounds at
        # 2. w2: B bounds at 2; C bounds at -1 and carries nothing, at 2
        ([(("A",), ONE_PHONE)] * 3, 2 + 2 + 3 + 3, 3 + 2 + 3 + 2),
        # total 5. w0's given span is not listed, and each alternative bounds
        # at 3: C carries 'C' at 7, A carries 'C' and wins at 4, and B carries
        # 'C' at 4, a tie with A, listed before it
        ([(("A", "A"), [("C",), ("A",), ("B",)]), (("C",), None)], 2 + 6, 3 + 6),
    ],
)
def test_the_cell_rows_skip_the_carry_of_an_alternative_that_cannot_win(words, calls, rows):
    hyp, ref, d = utterance(("A", "B", "C", "A"), words)
    with mock.patch.object(dpalign, "_cost_rows", wraps=dpalign._cost_rows) as cell_rows:
        extract_variants_dp([hyp], [ref], d, AlignConfig(0.0, 1.5, 1.0))
    assert cell_rows.call_count == calls
    assert sum(len(call.args[0]) for call in cell_rows.call_args_list) == rows
