"""align-dp's final alignment, traced back through the resolver's rows, against
the code it replaced (``old_dpalign``), run in exact costs."""

import struct
from dataclasses import astuple
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import old_dp_resolver
import old_dpalign as old
from pronvar import dpalign
from pronvar.cli import main
from pronvar.dpalign import (
    AlignConfig,
    _cell_steps,
    _cost_rows,
    _exact,
    _trace,
    extract_variants_dp,
    nw_align,
    project_boundaries,
)
from pronvar.phonecore import ReferenceDictionary, SegmentedUtterance, WordSpan
from test_dpalign import (
    ABC,
    abc_seq,
    costs,
    dyadic_costs,
    in_fractions,
    longer,
    ref_words,
    resolve_reference_by_full_alignment,
    rounded,
)


def bits(rows):
    return [[struct.pack("<d", x) for x in row] for row in rows]


@settings(max_examples=300, deadline=None)
@given(longer, longer, costs)
def test_the_transposed_fill_is_the_old_fill_bit_for_bit(hyp, ref, cfg):
    # nw_align used to fill hypothesis rows against reference columns
    assert bits(zip(*_cost_rows(ref, hyp, cfg))) == bits(_cost_rows(hyp, ref, cfg))


#: the non-dyadic costs times 2**1021, whose sums pass the float range
huge_costs = costs.map(lambda cfg: AlignConfig(*(c * 2.0**1021 for c in astuple(cfg))))


@settings(max_examples=300, deadline=None)
@given(longer, longer, st.one_of(costs, huge_costs))
def test_nw_align_is_the_old_nw_align(hyp, ref, cfg):
    new, was = nw_align(abc_seq(hyp), ref, cfg), old.nw_align(abc_seq(hyp), ref, in_fractions(cfg))
    assert new.ops == was.ops
    assert bits([[new.total_cost]]) == bits([[rounded(was.total_cost)]])


@settings(max_examples=300, deadline=None)
@given(longer, longer, st.one_of(costs, huge_costs))
def test_the_cell_row_walk_traces_the_ops_the_cell_row_traceback_did(hyp, ref, cfg):
    exact = _exact(cfg)
    rows = list(_cost_rows(ref, hyp, exact))
    assert _trace(hyp, ref, _cell_steps(hyp, ref, rows, exact)) == old_dp_resolver._trace(hyp, ref, rows, exact)


def utterance(hyp_phones, words):
    """A hypothesis, its reference and dictionary from ``ref_words``' draw."""
    ref = SegmentedUtterance("u", tuple(WordSpan(f"w{i}", p) for i, (p, _) in enumerate(words)), ABC)
    d = ReferenceDictionary({f"w{i}": prons for i, (_, prons) in enumerate(words) if prons is not None})
    return abc_seq(hyp_phones), ref, d


@st.composite
def near_2_53(draw):
    """An utterance whose largest scaled cost times ``len(hyp) + len(ref)``, at
    the given reference, is at most 2**53 or just above it."""
    hyp_phones, words = draw(longer), draw(ref_words)
    length = len(hyp_phones) + sum(len(p) for p, _ in words)
    top = 2**53 // length + draw(st.sampled_from([0, 1]))
    mismatch, gap = draw(st.permutations([top, draw(st.sampled_from([top - 1, top // 2 + 1, 1]))]))
    match = draw(st.sampled_from([0, 1]))
    unit = 2.0 ** -draw(st.sampled_from([0, 40]))
    return hyp_phones, words, AlignConfig(match * unit, mismatch * unit, gap * unit)


TIE_HYP = ("A", "B", "A", "A", "A")
TIE_WORDS = [(("A",), [("A",), ("B", "B")]), (("B",), [("B",)])]


BOUNDARY_HYP = ("A", "B", "A")
# both alternatives are one phone long, so the resolved reference is as long
# as the given one: len(hyp) + len(ref) = 5
BOUNDARY_WORDS = [(("A",), [("A",), ("B",)]), (("C",), None)]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(longer, ref_words, costs),
        st.tuples(longer, ref_words, dyadic_costs),
        near_2_53(),
    )
)
@example((BOUNDARY_HYP, BOUNDARY_WORDS, AlignConfig(0.0, 2**53 // 5, 2**53 // 10 + 1)))
@example((BOUNDARY_HYP, BOUNDARY_WORDS, AlignConfig(0.0, 2**53 // 5 + 1, 2**53 // 10 + 1)))
@example((BOUNDARY_HYP, BOUNDARY_WORDS, AlignConfig(1.0, 2**53 // 10 + 1, 2**53 // 5)))
@example((BOUNDARY_HYP, BOUNDARY_WORDS, AlignConfig(1.0, 2**53 // 10 + 1, 2**53 // 5 + 1)))
# both pronunciations of w0 cost 0.6 exactly at these costs; summed in
# floats, 'A' costs 0.6000000000000001 and 'B B' 0.6
@example((TIE_HYP, TIE_WORDS, AlignConfig(0.0, 0.1, 0.2)))
def test_extraction_is_the_old_resolve_then_align_loop(case):
    hyp_phones, words, cfg = case
    hyp, ref, d = utterance(hyp_phones, words)
    assert extract_variants_dp([hyp], [ref], d, cfg) == old.extract_variants_dp([hyp], [ref], d, in_fractions(cfg))


def test_the_rows_are_reused_at_every_cost():
    # with no alternatives the resolver fills no rows, and the extraction
    # fills them itself; nw_align never fills the matrix again
    hyp, ref, d = utterance(TIE_HYP, TIE_WORDS)
    one_each = ReferenceDictionary({"w0": [("A",)], "w1": [("B",)]})
    for dictionary in (d, one_each):
        for cfg in (AlignConfig(), AlignConfig(0.0, 0.5, 3.0), AlignConfig(0.0, 0.1, 0.2)):
            with mock.patch.object(dpalign, "nw_align", wraps=dpalign.nw_align) as spy:
                got = extract_variants_dp([hyp], [ref], dictionary, cfg)
            assert not spy.called, cfg
            assert got == old.extract_variants_dp([hyp], [ref], dictionary, in_fractions(cfg))


def test_tiny_costs_give_the_exact_oracle_pairs(tmp_path):
    # scaled to integers, a gap of 1e-300 is too large for a float; checked
    # as an AlignConfig it raised OverflowError
    (tmp_path / "dict.txt").write_text("w\tA\nw\tB B\nv\tB\n", encoding="utf-8")
    (tmp_path / "hyp.txt").write_text("u1\tA B A A A\n", encoding="utf-8")
    (tmp_path / "ref.txt").write_text("u1\tA # B\tw v\n", encoding="utf-8")
    out = tmp_path / "out.pairs"
    argv = ["align-dp", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt")]
    argv += ["--dict", str(tmp_path / "dict.txt"), "--mismatch", "3", "--gap", "1e-300", "--out", str(out)]
    assert main(argv) == 0

    hyp = abc_seq(TIE_HYP, "u1")
    ref = SegmentedUtterance("u1", (WordSpan("w", ("A",)), WordSpan("v", ("B",))), ABC)
    d = ReferenceDictionary({"w": [("A",), ("B", "B")], "v": [("B",)]})
    exact = in_fractions(AlignConfig(0.0, 3.0, 1e-300))
    resolved = resolve_reference_by_full_alignment(hyp, ref, d, exact)
    pairs = project_boundaries(nw_align(hyp, resolved.phones, exact), resolved)
    assert out.read_text() == "".join(f"{word}\t1\t{' '.join(span)}\n" for word, span in pairs)
