"""align-dp's dictionary-variant resolver and extraction loop as they were
before the resolver ran on bit rows at unit costs, kept as the oracle.

Verbatim: every cost setting resolves on the cell rows of ``_cost_rows``,
with a backward pass and the Hirschberg split at each word's end, and the
final ops are traced back through those rows with ``_trace``, the cell-row
traceback as it was then. The kernel ``_cost_rows``, the reference check, the
fallback ``nw_align`` and the projection are the package's own.
"""

from collections.abc import Iterable, Sequence
from itertools import islice
from operator import add, itemgetter

from pronvar.dpalign import (
    DELETE,
    INSERT,
    MATCH,
    SUBSTITUTE,
    AlignConfig,
    Alignment,
    DpExtraction,
    EditOp,
    _checked_reference,
    _cost_rows,
    _exact,
    _ExactCosts,
    _harvest,
    _last_row,
    nw_align,
    pair_by_id,
    project_boundaries,
)
from pronvar.phonecore import PhoneSequence, ReferenceDictionary, SegmentedUtterance, WordSpan


def _trace(hyp: Sequence[str], ref: Sequence[str], score: list[list[int]], exact: _ExactCosts) -> tuple[EditOp, ...]:
    """The ops of :func:`nw_align`, traced back through ``score``.

    ``score`` holds the rows of :func:`_cost_rows` of ``ref`` against ``hyp``
    in ``exact``'s costs. From the last cell back, the diagonal (match or
    substitute) is taken when it gives the cell's cost, else the delete of a
    hypothesis phone, else the insert of a reference phone.
    """
    match, mismatch, gap = exact.match_score, exact.mismatch_score, exact.gap_penalty
    ops: list[EditOp] = []
    i, j = len(ref), len(hyp)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            same = ref[i - 1] == hyp[j - 1]
            if score[i][j] == score[i - 1][j - 1] + (match if same else mismatch):
                ops.append(EditOp(MATCH if same else SUBSTITUTE, j - 1, i - 1))
                i, j = i - 1, j - 1
                continue
        if j > 0 and score[i][j] == score[i][j - 1] + gap:
            ops.append(EditOp(DELETE, j - 1))
            j -= 1
            continue
        ops.append(EditOp(INSERT, None, i - 1))
        i -= 1
    ops.reverse()
    return tuple(ops)


def _resolve_reference(
    hyp: PhoneSequence,
    ref_seg: SegmentedUtterance,
    dictionary: ReferenceDictionary,
    exact: _ExactCosts,
) -> tuple[SegmentedUtterance, list[list[int]] | None]:
    """Swap in the dictionary variant that aligns cheapest, word by word.

    Words are resolved left to right. Words with a single listed
    pronunciation (or none) keep the span they came with. For a word with
    alternatives, each is tried in place, with the words before it as
    resolved and the words after it at their given spans, and the cost of
    aligning the whole utterance decides. Costs are compared in the
    integers of :func:`_exact`; ties keep the dictionary's file order.
    The given reference's phones are checked against the hypothesis
    inventory first, then each alternative's as it is tried.

    The whole-utterance cost is split at the word's end (Hirschberg, 1975):
    it is ``min_i F[i] + B[i]``, where ``F`` continues the resolved prefix's
    rows through the alternative and ``B[i]``, from one backward pass,
    is the cost of ``hyp[i:]`` against the given spans after the word. The
    work is O(n·m·(1 + alternatives)) for n hypothesis and m reference
    phones, not one full alignment per alternative.

    Returns the resolved utterance and the resolved prefix's rows, which by
    the end are every row of :func:`_cost_rows` of its phones against the
    hypothesis in the exact costs. When no word has alternatives the
    utterance comes back as given, with no rows.
    """
    spans = list(ref_seg.words)
    choices = [dictionary.pronunciations(s.word) if s.word in dictionary else () for s in spans]
    if all(len(variants) < 2 for variants in choices):
        return ref_seg, None
    _checked_reference(hyp, ref_seg.phones)
    hyp_phones = hyp.phones
    reversed_hyp = hyp_phones[::-1]
    edge = _last_row((), hyp_phones, exact)
    # backward[wi][j]: cost of the last j hypothesis phones against the given
    # spans after word wi
    backward = [edge]
    for span in reversed(spans[1:]):
        backward.append(_last_row(span.phones[::-1], reversed_hyp, exact, backward[-1]))
    backward.reverse()

    rows = [edge]
    changed = False
    for wi, (span, variants) in enumerate(zip(spans, choices)):
        if len(variants) < 2:
            rows.extend(islice(_cost_rows(span.phones, hyp_phones, exact, rows[-1]), 1, None))
            continue
        suffix_cost = backward[wi][::-1]
        scored = []
        for pron in variants:
            _checked_reference(hyp, pron)
            tried = list(islice(_cost_rows(pron, hyp_phones, exact, rows[-1]), 1, None))
            scored.append((min(map(add, tried[-1], suffix_cost)), pron, tried))
        _, best, best_rows = min(scored, key=itemgetter(0))
        rows.extend(best_rows)
        if best != span.phones:
            spans[wi] = WordSpan(span.word, best)
            changed = True
    if not changed:
        return ref_seg, rows
    return SegmentedUtterance(ref_seg.utterance_id, tuple(spans), ref_seg.inventory), rows


def extract_variants_dp(
    hyps: Iterable[PhoneSequence],
    refs: Iterable[SegmentedUtterance],
    dictionary: ReferenceDictionary,
    cfg: AlignConfig = AlignConfig(),
) -> DpExtraction:
    """Align every utterance and emit one (word, span) pair per non-empty span.

    Hypotheses and references are paired by utterance id; output order
    follows the hypothesis order.

    Where the resolver returns its rows, the ops are traced back through
    them instead of :func:`nw_align` filling the matrix again in floats.
    That gives :func:`nw_align`'s alignment when no float sum rounds: a cell
    sums at most ``len(hyp) + len(ref)`` costs, so while that many of the
    largest scaled cost stay within 2**53, every float the DP adds is the
    exact integer over a power of two, and its comparisons are the
    integers' comparisons.
    """
    exact = _exact(cfg)
    longest_exact = 2**53 // max(abs(exact.match_score), abs(exact.mismatch_score), exact.gap_penalty)
    pairs: list[tuple[str, tuple[str, ...]]] = []
    empty = 0
    for hyp, ref_seg in pair_by_id(hyps, refs):
        resolved, rows = _resolve_reference(hyp, ref_seg, dictionary, exact)
        ref = resolved.phones
        if rows is not None and len(hyp.phones) + len(ref) <= longest_exact:
            ops = _trace(hyp.phones, ref, rows, exact)
            alignment = Alignment(hyp.phones, ref, ops, rows[-1][-1] / exact.scale)
        else:
            alignment = nw_align(hyp, ref, cfg)
        empty += _harvest(project_boundaries(alignment, resolved), pairs)
    return DpExtraction(tuple(pairs), empty)
