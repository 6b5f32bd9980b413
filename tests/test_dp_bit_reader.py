"""align-dp's word spans at unit costs, read off the bit-row traceback walk,
against the projection of the ops that walk traces (``project_boundaries`` of
``_trace_bits``)."""

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from pronvar import dpalign
from pronvar.dpalign import (
    AlignConfig,
    Alignment,
    _bit_rows,
    _bit_spans,
    _column_masks,
    _exact,
    _harvest,
    _resolve_reference,
    _trace_bits,
    extract_variants_dp,
    project_boundaries,
)
from pronvar.phonecore import ReferenceDictionary
from test_dp_traceback import utterance
from test_dpalign import abc_seq, longer, pronunciation

# 1-4 words: (given span, 1-3 pronunciations or None for a word outside the dictionary)
words = st.lists(
    st.tuples(pronunciation, st.one_of(st.none(), st.lists(pronunciation, min_size=1, max_size=3, unique=True))),
    min_size=1,
    max_size=4,
)
unit_costs = st.sampled_from([AlignConfig(), AlignConfig(0.0, 0.5, 0.5), AlignConfig(0.0, 3.0, 3.0)])


def bit_rows(hyp, ref):
    masks = _column_masks(hyp)
    rows = [_bit_rows((), masks, len(hyp))]
    _bit_rows(ref, masks, len(hyp), out=rows)
    return rows


def projected(hyp, ref_seg, rows):
    ops = _trace_bits(hyp, ref_seg.phones, rows)
    return project_boundaries(Alignment(hyp, ref_seg.phones, ops, 0.0), ref_seg)


# the empty hypothesis inserts every reference phone along the left edge
EMPTY = ((), [(("A",), None), (("B", "C"), None)])
ONE_WORD = (("C", "A", "B"), [(("A", "B", "C"), None)])
# a hypothesis that shares no phone with the reference deletes what is left
# along the top edge, and one shorter than it inserts along the left edge
TOP_EDGE = (("C", "C", "C", "C", "C"), [(("A",), None), (("B",), None)])
LEFT_EDGE = (("C",), [(("A",), None), (("B", "A"), None), (("B",), None)])
# the first and last words take no phone
EMPTY_SPANS = (("B", "B"), [(("A",), None), (("B", "B"), None), (("C", "A"), None)])


@settings(max_examples=500, deadline=None)
@given(longer, words)
@example(*EMPTY)
@example(*ONE_WORD)
@example(*TOP_EDGE)
@example(*LEFT_EDGE)
@example(*EMPTY_SPANS)
def test_the_spans_are_the_projection_of_the_traced_ops(phones, ref_words):
    hyp, ref, _ = utterance(phones, ref_words)
    rows = bit_rows(hyp.phones, ref.phones)
    assert _bit_spans(hyp.phones, ref, rows) == projected(hyp.phones, ref, rows)


@settings(max_examples=300, deadline=None)
@given(longer, words, unit_costs)
@example(*EMPTY, AlignConfig())
@example(*EMPTY_SPANS, AlignConfig(0.0, 3.0, 3.0))
def test_extraction_harvests_the_projection_of_the_traced_ops(phones, ref_words, cfg):
    # with and without dictionary alternatives: the resolver's rows, or rows
    # the extraction fills itself
    hyp, ref, d = utterance(phones, ref_words)
    resolved, rows = _resolve_reference(hyp, ref, d, _exact(cfg))
    pairs = []
    empty = _harvest(projected(hyp.phones, resolved, rows or bit_rows(hyp.phones, resolved.phones)), pairs)
    with mock.patch.object(dpalign, "nw_align", wraps=dpalign.nw_align) as spy:
        extraction = extract_variants_dp([hyp], [ref], d, cfg)
    assert (extraction.pairs, extraction.empty_spans) == (tuple(pairs), empty)
    assert not spy.called


@pytest.mark.parametrize(
    "case, spans",
    [
        (EMPTY, [("w0", ()), ("w1", ())]),
        (ONE_WORD, [("w0", ("C", "A", "B"))]),
        (TOP_EDGE, [("w0", ("C", "C", "C", "C")), ("w1", ("C",))]),
        (LEFT_EDGE, [("w0", ()), ("w1", ()), ("w2", ("C",))]),
        (EMPTY_SPANS, [("w0", ()), ("w1", ("B", "B")), ("w2", ())]),
    ],
)
def test_edge_paths_cut_as_projected(case, spans):
    phones, ref_words = case
    hyp, ref, _ = utterance(phones, ref_words)
    rows = bit_rows(hyp.phones, ref.phones)
    assert _bit_spans(hyp.phones, ref, rows) == spans == projected(hyp.phones, ref, rows)
    one_each = ReferenceDictionary({span.word: [span.phones] for span in ref.words})
    extraction = extract_variants_dp([abc_seq(phones)], [ref], one_each)
    assert extraction.pairs == tuple((word, span) for word, span in spans if span)
    assert extraction.empty_spans == sum(not span for _, span in spans)
