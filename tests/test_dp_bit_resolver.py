"""align-dp's dictionary-variant resolver on bit rows at unit costs times one
gap, against the cell-row resolver and extraction loop it replaced
(``old_dp_resolver``)."""

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
    _resolve_reference,
    extract_variants_dp,
)
from pronvar.phonecore import AnySymbol, PhoneInventory, PhoneSequence, ReferenceDictionary, SegmentedUtterance, WordSpan
from test_dp_traceback import utterance
from test_dpalign import costs, longer, ref_words

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
def test_extraction_is_the_cell_row_resolver_and_loop(case):
    phones, words, cfg = case
    hyp, ref, d = utterance(phones, words)
    assert extract_variants_dp([hyp], [ref], d, cfg) == old.extract_variants_dp([hyp], [ref], d, cfg)
    exact = _exact(cfg)
    assert _resolve_reference(hyp, ref, d, exact)[0] == old._resolve_reference(hyp, ref, d, exact)[0]


@settings(max_examples=300, deadline=None)
@given(hyp_phones, ref_words, unit_costs)
@example(EDGE_HYP, EDGE_WORDS, AlignConfig())
@example(UNEQUAL_TIE_HYP, [(("A",), [("A", "B"), ("B",)]), (("C",), [("C",), ("C", "C", "C")])], AlignConfig())
def test_the_resolver_rows_are_one_bit_row_pass_over_the_resolved_phones(phones, words, cfg):
    # these are the rows the final ops are traced through
    hyp, ref, d = utterance(phones, words)
    resolved, rows = _resolve_reference(hyp, ref, d, _exact(cfg))
    masks, width = _column_masks(hyp.phones), len(hyp.phones)
    expected = [_bit_rows((), masks, width)]
    _bit_rows(resolved.phones, masks, width, out=expected)
    assert rows is None or rows == expected


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
    resolved, _ = _resolve_reference(hyp, ref, d, _exact(cfg))
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


@pytest.mark.parametrize("gap, calls", [(2.0**50, 0), (2.0**50 + 1, 1)])
def test_the_ops_come_from_the_bit_rows_while_sums_of_the_gap_are_exact(gap, calls):
    hyp, ref, d = utterance(EDGE_HYP, EDGE_WORDS)
    with mock.patch.object(dpalign, "nw_align", wraps=dpalign.nw_align) as spy:
        extract_variants_dp([hyp], [ref], d, AlignConfig(0.0, gap, gap))
    assert spy.call_count == calls
