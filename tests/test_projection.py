"""Word ends and phones of a segmented reference, and align-dp's projection of them onto
the hypothesis, against the projection it replaced (``tests/old_projection.py``)."""

import dataclasses
import random
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

from old_projection import project_boundaries as old_project_boundaries
from pronvar import errors
from pronvar.dpalign import DELETE, INSERT, MATCH, SUBSTITUTE, Alignment, EditOp, nw_align, project_boundaries
from pronvar.phonecore import (
    AnySymbol,
    PhoneSequence,
    SegmentedUtterance,
    WordSpan,
    emit_segmented_file,
    parse_segmented_file,
)

PHONES = ("A", "B", "C", "D")


@st.composite
def segmented(draw, phones):
    """A reference over ``phones``, cut into 1..len(phones) non-empty words."""
    cuts = sorted(draw(st.sets(st.integers(1, len(phones) - 1))) if len(phones) > 1 else ())
    bounds = (0, *cuts, len(phones))
    words = tuple(WordSpan(f"w{i}", tuple(phones[a:b])) for i, (a, b) in enumerate(zip(bounds, bounds[1:])))
    return SegmentedUtterance("u", words, AnySymbol())


@st.composite
def walks(draw):
    """A valid global alignment, drawn as a random monotone walk of match,
    substitute, delete and insert steps, and a segmentation of its reference."""
    kinds = draw(
        st.lists(st.sampled_from((MATCH, SUBSTITUTE, DELETE, INSERT)), min_size=1, max_size=40).filter(
            lambda kinds: any(kind != DELETE for kind in kinds)
        )
    )
    hyp: list[str] = []
    ref: list[str] = []
    ops = []
    for kind in kinds:
        phone = draw(st.sampled_from(PHONES))
        ops.append(EditOp(kind, None if kind == INSERT else len(hyp), None if kind == DELETE else len(ref)))
        if kind != DELETE:
            ref.append(phone)
        if kind == MATCH:
            hyp.append(phone)
        elif kind != INSERT:
            hyp.append(draw(st.sampled_from([p for p in PHONES if p != phone])))
    return Alignment(tuple(hyp), tuple(ref), tuple(ops), 0.0), draw(segmented(ref))


@settings(max_examples=1500, deadline=None)
@given(walks())
def test_projection_matches_the_old_one_on_any_valid_alignment(case):
    alignment, ref = case
    assert project_boundaries(alignment, ref) == old_project_boundaries(alignment, ref)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PHONES), max_size=12), st.lists(st.sampled_from(PHONES), min_size=1, max_size=12).flatmap(segmented))
def test_projection_matches_the_old_one_on_the_optimal_alignment(hyp, ref):
    alignment = nw_align(PhoneSequence("u", hyp, AnySymbol()), ref.phones)
    assert project_boundaries(alignment, ref) == old_project_boundaries(alignment, ref)


@settings(max_examples=300, deadline=None)
@given(walks(), st.data())
def test_an_alignment_missing_an_op_is_refused(case, data):
    alignment, ref = case
    drop = data.draw(st.integers(0, len(alignment.ops) - 1))
    ops = alignment.ops[:drop] + alignment.ops[drop + 1 :]
    with pytest.raises(errors.AlignmentReferenceMismatch):
        project_boundaries(Alignment(alignment.hyp_phones, alignment.ref_phones, ops, 0.0), ref)


AB_C = SegmentedUtterance("u", (WordSpan("a", ("A", "B")), WordSpan("b", ("C",))), AnySymbol())


@pytest.mark.parametrize(
    "ops",
    [
        # no ops: both hypothesis phones would be lost
        (),
        # a reference index past the reference
        (EditOp(MATCH, 0, 0), EditOp(INSERT, None, 5), EditOp(MATCH, 1, 2)),
        # word b's first phone never taken: a bare cut pass gives one entry for two words
        (EditOp(MATCH, 0, 0), EditOp(INSERT, None, 1), EditOp(DELETE, 1)),
        # hypothesis phones out of order
        (EditOp(MATCH, 1, 0), EditOp(INSERT, None, 1), EditOp(MATCH, 0, 2)),
        # a hypothesis phone taken twice
        (EditOp(MATCH, 0, 0), EditOp(SUBSTITUTE, 0, 1), EditOp(MATCH, 1, 2)),
        # a hypothesis index past the hypothesis
        (EditOp(MATCH, 0, 0), EditOp(INSERT, None, 1), EditOp(MATCH, 1, 2), EditOp(DELETE, 2)),
    ],
)
def test_malformed_ops_are_refused(ops):
    with pytest.raises(errors.AlignmentReferenceMismatch, match="once, in order"):
        project_boundaries(Alignment(("A", "C"), ("A", "B", "C"), ops, 0.0), AB_C)


A_C = SegmentedUtterance("u", (WordSpan("a", ("A",)), WordSpan("b", ("C",))), AnySymbol())


@pytest.mark.parametrize(
    "op",
    [
        EditOp(DELETE, 0, 0),
        EditOp(INSERT, 0, 0),
        EditOp(MATCH, 0, None),
        EditOp(SUBSTITUTE, None, 0),
        EditOp("frobnicate", 0, 0),
        EditOp("frobnicate", None, None),
    ],
)
def test_an_op_whose_indices_are_not_those_of_its_kind_is_refused(op):
    # with its first kind read as a substitute, this walk projects cleanly
    alignment = Alignment(("X", "C"), ("A", "C"), (op, EditOp(MATCH, 1, 1)), 0.0)
    with pytest.raises(errors.AlignmentReferenceMismatch, match=f"op {op.kind!r} cannot take"):
        project_boundaries(alignment, A_C)
    valid = Alignment(("X", "C"), ("A", "C"), (EditOp(SUBSTITUTE, 0, 0), EditOp(MATCH, 1, 1)), 0.0)
    assert project_boundaries(valid, A_C) == [("a", ("X",)), ("b", ("C",))]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(PHONES), min_size=1, max_size=20).flatmap(segmented))
@example(AB_C)
def test_ends_are_the_running_sums_of_the_span_lengths(ref):
    assert ref.ends[-1] == len(ref.phones)
    starts = (0, *ref.ends[:-1])
    assert [ref.phones[a:b] for a, b in zip(starts, ref.ends)] == [span.phones for span in ref.words]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(PHONES), min_size=1, max_size=20).flatmap(segmented), st.randoms())
@example(AB_C, random.Random(0))
def test_phones_is_stored_once_from_the_spans(ref, rng):
    assert ref.phones is ref.phones
    assert ref.phones == tuple(chain.from_iterable(span.phones for span in ref.words))
    assert ref.ends[-1] == len(ref.phones)
    assert repr(ref) == f"SegmentedUtterance(utterance_id='u', words={ref.words!r}, inventory=AnySymbol())"
    other = SegmentedUtterance("u", ref.words, AnySymbol())
    object.__setattr__(other, "phones", ())
    assert ref == other and hash(ref) == hash(other)
    words = rng.sample(ref.words, len(ref.words))
    shuffled = dataclasses.replace(ref, words=words)
    assert shuffled.phones == tuple(chain.from_iterable(span.phones for span in words))
    (parsed,) = parse_segmented_file(emit_segmented_file([ref]), AnySymbol())
    assert parsed.phones == ref.phones


def test_ends_are_left_out_of_equality_hash_and_repr():
    ref = SegmentedUtterance("u", (WordSpan("a", ("A", "B")), WordSpan("b", ("C",))), AnySymbol())
    assert ref.ends == (2, 3)
    assert repr(ref) == (
        "SegmentedUtterance(utterance_id='u', words=(WordSpan(word='a', phones=('A', 'B')), "
        "WordSpan(word='b', phones=('C',))), inventory=AnySymbol())"
    )
    other = SegmentedUtterance("u", ref.words, AnySymbol())
    object.__setattr__(other, "ends", ())
    assert ref == other and hash(ref) == hash(other)


def test_ends_are_read_only():
    with pytest.raises(AttributeError):
        AB_C.ends = (1, 3)
