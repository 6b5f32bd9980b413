"""align-dp's word spans, read off either kernel's backward walk (``_spans``),
against the projection of the ops that walk traces (``project_boundaries`` of
``_trace``)."""

from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from pronvar import dpalign
from pronvar.dpalign import (
    AlignConfig,
    Alignment,
    _exact,
    _harvest,
    _kernel,
    _resolve_reference,
    _spans,
    _trace,
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
#: unit costs times one gap, on the bit rows, and other costs, on the cell rows
COSTS = [
    AlignConfig(),
    AlignConfig(0.0, 0.5, 0.5),
    AlignConfig(0.0, 3.0, 3.0),
    AlignConfig(0.0, 1.5, 1.0),
    AlignConfig(0.1, 0.7, 0.3),
    AlignConfig(0.5, 1.0, 1.0),
]
all_costs = st.sampled_from(COSTS)
#: the costs at which a substitute is no dearer than a delete and an insert,
#: as the edge paths below assume
EDGE_COSTS = [cfg for cfg in COSTS if cfg.mismatch_score <= 2 * cfg.gap_penalty]


def filled(hyp, ref, cfg):
    """The backward walk of the kernel of ``hyp`` at ``cfg``'s costs, and every row of ``ref`` on it."""
    exact = _exact(cfg)
    kernel = _kernel(exact)
    state = kernel.state(hyp, exact)
    rows = [kernel.start(state)]
    kernel.fill(state, ref, rows[0], rows)
    return partial(kernel.steps, state), rows


def projected(hyp, ref_seg, steps, rows):
    ops = _trace(hyp, ref_seg.phones, steps(ref_seg.phones, rows))
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
@given(longer, words, all_costs)
@example(*EMPTY, AlignConfig())
@example(*ONE_WORD, AlignConfig())
@example(*TOP_EDGE, AlignConfig())
@example(*LEFT_EDGE, AlignConfig())
@example(*EMPTY_SPANS, AlignConfig())
@example(*EMPTY, AlignConfig(0.0, 1.5, 1.0))
@example(*TOP_EDGE, AlignConfig(0.1, 0.7, 0.3))
@example(*LEFT_EDGE, AlignConfig(0.1, 0.7, 0.3))
@example(*EMPTY_SPANS, AlignConfig(0.0, 1.5, 1.0))
def test_the_spans_are_the_projection_of_the_traced_ops(phones, ref_words, cfg):
    hyp, ref, _ = utterance(phones, ref_words)
    steps, rows = filled(hyp.phones, ref.phones, cfg)
    assert _spans(hyp.phones, ref, steps(ref.phones, rows)) == projected(hyp.phones, ref, steps, rows)


@settings(max_examples=300, deadline=None)
@given(longer, words, all_costs)
@example(*EMPTY, AlignConfig())
@example(*EMPTY_SPANS, AlignConfig(0.0, 3.0, 3.0))
@example(*EMPTY_SPANS, AlignConfig(0.1, 0.7, 0.3))
def test_extraction_harvests_the_projection_of_the_traced_ops(phones, ref_words, cfg):
    # with and without dictionary alternatives, on the resolver's rows
    hyp, ref, d = utterance(phones, ref_words)
    exact = _exact(cfg)
    kernel = _kernel(exact)
    state = kernel.state(hyp.phones, exact)
    resolved, rows = _resolve_reference(hyp, ref, d, kernel, state, set())
    pairs = []
    empty = _harvest(projected(hyp.phones, resolved, partial(kernel.steps, state), rows), pairs)
    with mock.patch.object(dpalign, "nw_align", wraps=dpalign.nw_align) as spy:
        extraction = extract_variants_dp([hyp], [ref], d, cfg)
    assert (extraction.pairs, extraction.empty_spans) == (tuple(pairs), empty)
    assert not spy.called


@pytest.mark.parametrize("cfg", EDGE_COSTS)
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
def test_edge_paths_cut_as_projected(case, spans, cfg):
    phones, ref_words = case
    hyp, ref, _ = utterance(phones, ref_words)
    steps, rows = filled(hyp.phones, ref.phones, cfg)
    assert _spans(hyp.phones, ref, steps(ref.phones, rows)) == spans == projected(hyp.phones, ref, steps, rows)
    one_each = ReferenceDictionary({span.word: [span.phones] for span in ref.words})
    extraction = extract_variants_dp([abc_seq(phones)], [ref], one_each, cfg)
    assert extraction.pairs == tuple((word, span) for word, span in spans if span)
    assert extraction.empty_spans == sum(not span for _, span in spans)
