"""Global alignment of non-native phone sequences against native references.

Both aligners share one row recurrence with :class:`AlignConfig` costs.
:func:`edit_distance` keeps one row and returns the cost. :mod:`pronvar.attnalign`
scores word spans from the rows themselves, many span ends per pass.
Dictionary alternatives are costed here from forward and backward rows of
the same recurrence. :func:`nw_align` keeps the whole matrix to backtrack
the ops, and native word boundaries are projected through them to carve
the hypothesis into per-word variants.
"""

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from operator import add, itemgetter

from .errors import (
    AlignmentReferenceMismatch,
    DuplicateUtteranceId,
    InventoryMismatch,
    MissingUtterance,
)
from .phonecore import (
    PhoneSequence,
    ReferenceDictionary,
    SegmentedUtterance,
    WordSpan,
)

MATCH = "match"
SUBSTITUTE = "substitute"
DELETE = "delete"
INSERT = "insert"


@dataclass(frozen=True)
class AlignConfig:
    """Costs (minimized). Defaults are unit Levenshtein costs."""

    match_score: float = 0.0
    mismatch_score: float = 1.0
    gap_penalty: float = 1.0

    def __post_init__(self):
        for name in ("match_score", "mismatch_score", "gap_penalty"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.mismatch_score < self.match_score:
            raise ValueError("mismatch_score must be >= match_score")
        if self.gap_penalty <= 0:
            raise ValueError("gap_penalty must be positive")


@dataclass(frozen=True)
class EditOp:
    """One alignment step. ``hyp_index`` is None for inserts, ``ref_index``
    for deletes (a delete consumes a hypothesis phone the reference lacks)."""

    kind: str
    hyp_index: int | None = None
    ref_index: int | None = None


@dataclass(frozen=True)
class Alignment:
    """A monotone global alignment and its total cost."""

    hyp_phones: tuple[str, ...]
    ref_phones: tuple[str, ...]
    ops: tuple[EditOp, ...]
    total_cost: float


def _cost_rows(
    a: Sequence[str], b: Sequence[str], cfg: AlignConfig, row: list[float] | None = None
) -> Iterator[list[float]]:
    """Cost-matrix rows 0..len(a) of ``a`` (rows) against ``b`` (columns).

    Row 0 is ``row`` when given, the last row of a matrix whose rows aligned
    what precedes ``a``; by default it is the top edge. The edges are running
    sums of the gap penalty; an inner cell is the least of diagonal (match or
    substitute), up (delete) and left (insert).
    """
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
            # the least of left, up and diagonal; only its value is kept, so
            # which of equal candidates wins does not matter
            left += gap
            up = prev[j + 1] + gap
            if up < left:
                left = up
            diag = prev[j] + (match if x == y else mismatch)
            if diag < left:
                left = diag
            row.append(left)
        yield row


def edit_distance(a: Sequence[str], b: Sequence[str], cfg: AlignConfig = AlignConfig()) -> float:
    """Least cost of aligning ``a`` with ``b``, bit for bit :func:`nw_align`'s total.

    Keeps one row. The longer sequence is the outer loop: one gap cost serves
    both directions, so the swapped matrix is the exact transpose.
    """
    if len(a) < len(b):
        a, b = b, a
    return _last_row(a, b, cfg)[-1]


def _last_row(
    a: Sequence[str], b: Sequence[str], cfg: AlignConfig, row: list[float] | None = None
) -> list[float]:
    """The last of :func:`_cost_rows`, keeping one row at a time."""
    for row in _cost_rows(a, b, cfg, row):
        pass
    return row


def _exact(cfg: AlignConfig) -> AlignConfig:
    """``cfg`` with its costs scaled to integers by one common denominator.

    Sums of the scaled costs are exact, so alignment costs compare as they
    would in real arithmetic, where float sums can round a tie apart. Unit
    costs come out as the integers 0 and 1.
    """
    ratios = [c.as_integer_ratio() for c in (cfg.match_score, cfg.mismatch_score, cfg.gap_penalty)]
    scale = math.lcm(*(d for _, d in ratios))
    return AlignConfig(*(n * (scale // d) for n, d in ratios))


def _checked_reference(hyp: PhoneSequence, ref: Sequence[str]) -> tuple[str, ...]:
    for symbol in ref:
        if symbol not in hyp.inventory:
            raise InventoryMismatch(f"reference phone {symbol!r} not in the hypothesis inventory")
    return tuple(ref)


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


def project_boundaries(
    alignment: Alignment, ref_seg: SegmentedUtterance
) -> list[tuple[str, tuple[str, ...]]]:
    """Carve the hypothesis into per-word spans using the reference boundaries.

    Each word receives the hypothesis phones whose alignment ops touch
    that word's reference positions. A hypothesis phone consumed by a
    delete attaches to the word of the nearest following reference
    position, or to the last word when the delete closes the utterance.
    Spans partition the hypothesis; a word may come out empty.
    """
    ref_phones = ref_seg.phones
    if alignment.ref_phones != ref_phones:
        raise AlignmentReferenceMismatch(
            f"alignment reference has {len(alignment.ref_phones)} phones, "
            f"segmentation has {len(ref_phones)}"
        )
    word_of: list[int] = []
    for wi, span in enumerate(ref_seg.words):
        word_of.extend([wi] * len(span.phones))

    spans: list[list[str]] = [[] for _ in ref_seg.words]
    pending: list[str] = []  # deleted hyp phones awaiting the next ref position
    for op in alignment.ops:
        if op.kind == DELETE:
            pending.append(alignment.hyp_phones[op.hyp_index])
            continue
        wi = word_of[op.ref_index]
        if pending:
            spans[wi].extend(pending)
            pending.clear()
        if op.hyp_index is not None:
            spans[wi].append(alignment.hyp_phones[op.hyp_index])
    if pending:
        spans[-1].extend(pending)
    return [(span.word, tuple(phones)) for span, phones in zip(ref_seg.words, spans)]


@dataclass(frozen=True)
class DpExtraction:
    """Variant pairs harvested by the aligner, plus the empty-span tally."""

    pairs: tuple[tuple[str, tuple[str, ...]], ...]
    empty_spans: int


def pair_by_id(left: Iterable, right: Iterable) -> list[tuple]:
    """Pair two utterance collections by id, preserving left order.

    Any id present on one side only raises :class:`MissingUtterance`.
    """
    left = list(left)
    right_map: dict[str, object] = {}
    for item in right:
        if item.utterance_id in right_map:
            raise DuplicateUtteranceId(item.utterance_id)
        right_map[item.utterance_id] = item
    seen: set[str] = set()
    pairs = []
    for item in left:
        if item.utterance_id in seen:
            raise DuplicateUtteranceId(item.utterance_id)
        seen.add(item.utterance_id)
        if item.utterance_id not in right_map:
            raise MissingUtterance(item.utterance_id)
        pairs.append((item, right_map[item.utterance_id]))
    for utt_id in right_map:
        if utt_id not in seen:
            raise MissingUtterance(utt_id)
    return pairs


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
