"""align-dp's alignment as it was before the final alignment was traced back
through the resolver's rows, kept as the oracle.

Verbatim: the resolver costs in ``AlignConfig`` integers and drops its rows,
and every utterance is aligned again by the float ``nw_align``. The kernel,
the reference check and the projection are the package's own, which this
change left as they were.
"""

import math
from collections.abc import Iterable, Sequence
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
    _last_row,
    pair_by_id,
    project_boundaries,
)
from pronvar.phonecore import PhoneSequence, ReferenceDictionary, SegmentedUtterance, WordSpan


def _exact(cfg: AlignConfig) -> AlignConfig:
    """``cfg`` with its costs scaled to integers by one common denominator.

    Sums of the scaled costs are exact, so alignment costs compare as they
    would in real arithmetic, where float sums can round a tie apart. Unit
    costs come out as the integers 0 and 1.
    """
    ratios = [c.as_integer_ratio() for c in (cfg.match_score, cfg.mismatch_score, cfg.gap_penalty)]
    scale = math.lcm(*(d for _, d in ratios))
    return AlignConfig(*(n * (scale // d) for n, d in ratios))


def nw_align(hyp: PhoneSequence, ref: Sequence[str], cfg: AlignConfig = AlignConfig()) -> Alignment:
    """Minimum-cost global alignment of ``hyp`` against ``ref``.

    Backtracking ties are broken deterministically: diagonal
    (match/substitute) first, then delete (gap in the reference), then
    insert.
    """
    a = hyp.phones
    b = _checked_reference(hyp, ref)
    score = list(_cost_rows(a, b, cfg))

    ops: list[EditOp] = []
    i, j = len(a), len(b)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            same = a[i - 1] == b[j - 1]
            if score[i][j] == score[i - 1][j - 1] + (cfg.match_score if same else cfg.mismatch_score):
                ops.append(EditOp(MATCH if same else SUBSTITUTE, i - 1, j - 1))
                i, j = i - 1, j - 1
                continue
        if i > 0 and score[i][j] == score[i - 1][j] + cfg.gap_penalty:
            ops.append(EditOp(DELETE, i - 1))
            i -= 1
            continue
        ops.append(EditOp(INSERT, None, j - 1))
        j -= 1
    ops.reverse()
    return Alignment(a, b, tuple(ops), score[-1][-1])


def _resolve_reference(
    hyp: PhoneSequence,
    ref_seg: SegmentedUtterance,
    dictionary: ReferenceDictionary,
    cfg: AlignConfig,
) -> SegmentedUtterance:
    """Swap in the dictionary variant that aligns cheapest, word by word.

    Words are resolved left to right. Words with a single listed
    pronunciation (or none) keep the span they came with. For a word with
    alternatives, each is tried in place, with the words before it as
    resolved and the words after it at their given spans, and the cost of
    aligning the whole utterance decides. Costs are compared exactly (see
    :func:`_exact`); ties keep the dictionary's file order.

    The whole-utterance cost is split at the word's end (Hirschberg, 1975):
    it is ``min_i F[i] + B[i]``, where ``F`` continues the resolved prefix's
    last row through the alternative and ``B[i]``, from one backward pass,
    is the cost of ``hyp[i:]`` against the given spans after the word. The
    work is O(n·m·(1 + alternatives)) for n hypothesis and m reference
    phones, not one full alignment per alternative.
    """
    spans = list(ref_seg.words)
    choices = [dictionary.pronunciations(s.word) if s.word in dictionary else () for s in spans]
    if all(len(variants) < 2 for variants in choices):
        return ref_seg
    exact = _exact(cfg)
    hyp_phones = hyp.phones
    reversed_hyp = hyp_phones[::-1]
    edge = _last_row((), hyp_phones, exact)
    # backward[wi][j]: cost of the last j hypothesis phones against the given
    # spans after word wi
    backward = [edge]
    for span in reversed(spans[1:]):
        backward.append(_last_row(span.phones[::-1], reversed_hyp, exact, backward[-1]))
    backward.reverse()

    given = ref_seg.phones
    given_end = 0
    forward = edge
    changed = checked = False
    for wi, (span, variants) in enumerate(zip(spans, choices)):
        given_start, given_end = given_end, given_end + len(span.phones)
        if len(variants) < 2:
            forward = _last_row(span.phones, hyp_phones, exact, forward)
            continue
        after = given[given_end:]
        suffix_cost = backward[wi][::-1]
        scored = []
        for pron in variants:
            # The first alternative is checked with the given phones around
            # it; by the next one, every phone of a reference tried except
            # the alternative's own has been checked.
            _checked_reference(hyp, pron if checked else given[:given_start] + pron + after)
            checked = True
            row = _last_row(pron, hyp_phones, exact, forward)
            scored.append((min(map(add, row, suffix_cost)), pron, row))
        _, best, forward = min(scored, key=itemgetter(0))
        if best != span.phones:
            spans[wi] = WordSpan(span.word, best)
            changed = True
    if not changed:
        return ref_seg
    return SegmentedUtterance(ref_seg.utterance_id, tuple(spans), ref_seg.inventory)


def extract_variants_dp(
    hyps: Iterable[PhoneSequence],
    refs: Iterable[SegmentedUtterance],
    dictionary: ReferenceDictionary,
    cfg: AlignConfig = AlignConfig(),
) -> DpExtraction:
    """Align every utterance and emit one (word, span) pair per non-empty span.

    Hypotheses and references are paired by utterance id; output order
    follows the hypothesis order.
    """
    pairs: list[tuple[str, tuple[str, ...]]] = []
    empty = 0
    for hyp, ref_seg in pair_by_id(hyps, refs):
        resolved = _resolve_reference(hyp, ref_seg, dictionary, cfg)
        alignment = nw_align(hyp, resolved.phones, cfg)
        for word, span in project_boundaries(alignment, resolved):
            if span:
                pairs.append((word, span))
            else:
                empty += 1
    return DpExtraction(tuple(pairs), empty)
