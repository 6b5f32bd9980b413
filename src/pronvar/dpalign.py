"""Global alignment of non-native phone sequences against native references.

Two kernels compute the rows of one alignment matrix. :func:`_cost_rows`
takes any :class:`AlignConfig` costs, one step per cell. :func:`_bit_rows`
takes unit costs and computes a whole row as bit vectors in a few ``int``
operations, from the top edge or carried on from any row it gave. It
returns its last row, and appends every row after the start to an ``out``
list when given one. Both kernels give the same cells, so which one runs
never changes an output.

:func:`edit_distance` keeps one row of :func:`_cost_rows` and returns the
cost. :mod:`pronvar.attnalign` scores word spans, always at unit costs, from
the row :func:`_bit_rows` returns, every span end of one start at once.
:func:`nw_align` keeps the whole matrix to backtrack the ops. It collects
the bit rows through ``out`` at unit costs times one gap cost, while float
sums of that cost are exact, as at the default costs, and takes
:func:`_cost_rows` otherwise. Native word boundaries are projected through
the ops to carve the hypothesis into per-word variants.

Dictionary alternatives are costed in exact integer costs. At unit costs
times one gap, each alternative costs two :func:`_bit_rows` calls with no
backward pass: one collects its rows, and one carries its last row on
through the rest of the utterance and returns the final row, whose cost two
``bit_count`` calls read. At other costs the cost comes from forward and
backward rows of :func:`_cost_rows`. Where the resolver's forward rows
already form the final matrix and float sums of the costs are exact, the
ops are traced back through those rows instead.
"""

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice, pairwise
from operator import add, itemgetter
from typing import NamedTuple

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
    _check_real,
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
            _check_real(getattr(self, name), name)
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.mismatch_score < self.match_score:
            raise ValueError("mismatch_score must be >= match_score")
        if self.gap_penalty <= 0:
            raise ValueError("gap_penalty must be positive")


class _ExactCosts(NamedTuple):
    """:class:`AlignConfig`'s costs as integers, and the denominator that scaled them."""

    match_score: int
    mismatch_score: int
    gap_penalty: int
    scale: int


class EditOp(NamedTuple):
    """One alignment step. ``hyp_index`` is None for inserts, ``ref_index``
    for deletes (a delete consumes a hypothesis phone the reference lacks).
    A tuple, so it compares equal to a plain tuple of its fields."""

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
    a: Sequence[str], b: Sequence[str], cfg: AlignConfig | _ExactCosts, row: list[float] | None = None
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


def _column_masks(b: Sequence[str]) -> dict[str, int]:
    """One bit mask per phone of ``b``: bit j is set where ``b[j]`` is that phone."""
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | 1 << j
    return masks


def _bit_rows(
    a: Sequence[str],
    masks: dict[str, int],
    width: int,
    shift: int = 0,
    row: tuple[int, int, int] | None = None,
    out: list[tuple[int, int, int]] | None = None,
) -> tuple[int, int, int]:
    """The last unit-cost row of ``a`` (rows) against ``width`` columns, as bit vectors.

    The columns are those that :func:`_column_masks` describes, from column
    ``shift`` on. Row 0, the start row, is the top edge 0..width, and the
    left edge counts the rows. Row i is ``(plus, minus, same)``: bit j-1 of
    ``plus`` (``minus``) is set where cell j is one more (less) than cell
    j-1, and bit j-1 of ``same`` where cell j equals cell j-1 of row i-1
    (none in the top edge). So cell j of row i is ``i + (plus &
    low).bit_count() - (minus & low).bit_count()`` with ``low = (1 << j) -
    1``. Given ``row``, a row that this function gave for what precedes
    ``a``, the start row is ``row`` instead of the top edge, and row i is
    row i of ``a`` after it: the left edge adds one a row, wherever the rows
    started, so they carry on unchanged. Row ``len(a)`` is returned, the
    start row when ``a`` is empty; rows 1..len(a) are appended to ``out``
    when it is given. One row takes a fixed number of ``int`` operations
    whatever its width: Myers' bit-vector recurrence (J. ACM 46(3), 1999) in
    Hyyrö's global edit-distance form (Nordic J. Computing 10(1), 2003), with
    rows and columns named as in :func:`_cost_rows`.
    """
    full = (1 << width) - 1
    plus, minus, same = (full, 0, 0) if row is None else row
    for x in a:
        eq = masks.get(x, 0) >> shift
        same = ((((eq & plus) + plus) ^ plus) | eq | minus) & full
        # the column deltas of row i against row i-1; column 0's is +1
        up = (minus | ~(same | plus)) << 1 | 1
        down = (plus & same) << 1
        plus = (down | ~(same | up)) & full
        minus = up & same
        if out is not None:
            out.append((plus, minus, same))
    return plus, minus, same


def edit_distance(a: Sequence[str], b: Sequence[str], cfg: AlignConfig = AlignConfig()) -> float:
    """Least cost of aligning ``a`` with ``b``, bit for bit :func:`nw_align`'s total.

    Keeps one row. The longer sequence is the outer loop: one gap cost serves
    both directions, so the swapped matrix is the exact transpose.
    """
    if len(a) < len(b):
        a, b = b, a
    return _last_row(a, b, cfg)[-1]


def _last_row(
    a: Sequence[str], b: Sequence[str], cfg: AlignConfig | _ExactCosts, row: list[float] | None = None
) -> list[float]:
    """The last of :func:`_cost_rows`, keeping one row at a time."""
    for row in _cost_rows(a, b, cfg, row):
        pass
    return row


def _exact(cfg: AlignConfig) -> _ExactCosts:
    """``cfg``'s costs scaled to integers by one common denominator, and the denominator.

    Sums of the scaled costs are exact, so alignment costs compare as they
    would in real arithmetic, where float sums can round a tie apart. Unit
    costs come out as the integers 0 and 1. The denominator is a power of
    two; for tiny costs such as ``1e-300`` it is so large that the scaled
    integers have no float value, which is why they are not an
    :class:`AlignConfig`.
    """
    ratios = [c.as_integer_ratio() for c in (cfg.match_score, cfg.mismatch_score, cfg.gap_penalty)]
    scale = math.lcm(*(d for _, d in ratios))
    return _ExactCosts(*(n * (scale // d) for n, d in ratios), scale)


def _checked_reference(hyp: PhoneSequence, ref: Sequence[str]) -> tuple[str, ...]:
    """``ref`` as a tuple, once its phones are found in the hypothesis inventory.

    One set test passes the phones the inventory holds already; the walk
    that names the first missing phone runs only when it fails.
    """
    if not hyp.inventory._has_all(ref):
        for symbol in ref:
            if symbol not in hyp.inventory:
                raise InventoryMismatch(f"reference phone {symbol!r} not in the hypothesis inventory")
    return tuple(ref)


def nw_align(hyp: PhoneSequence, ref: Sequence[str], cfg: AlignConfig = AlignConfig()) -> Alignment:
    """Minimum-cost global alignment of ``hyp`` against ``ref``.

    Backtracking ties are broken deterministically: diagonal
    (match/substitute) first, then delete (gap in the reference), then
    insert.

    At unit costs times one gap cost ``g`` (``match_score == 0`` and
    ``mismatch_score == gap_penalty``), while float sums of ``g`` are exact,
    the rows come from :func:`_bit_rows` and the ops are traced from their
    bits (:func:`_trace_bits`). A cell sums at most ``len(hyp) + len(ref)``
    gaps, so that holds while that many times ``g``'s integer numerator is
    at most 2**53, as at the default costs. The ops and the bits of the
    total are those of the :func:`_cost_rows` fill, which every other cost
    setting takes.
    """
    a = hyp.phones
    b = _checked_reference(hyp, ref)
    gap = cfg.gap_penalty
    if cfg.match_score == 0 and cfg.mismatch_score == gap and gap.as_integer_ratio()[0] * (len(a) + len(b)) <= 2**53:
        masks = _column_masks(a)
        rows = [_bit_rows((), masks, len(a))]
        _bit_rows(b, masks, len(a), out=rows)
        return Alignment(a, b, _trace_bits(a, b, rows), _bit_distance(rows) * gap)
    score = list(_cost_rows(b, a, cfg))
    return Alignment(a, b, _trace(a, b, score, cfg), score[-1][-1])


def _bit_distance(rows: list[tuple[int, int, int]]) -> int:
    """The last cell of ``rows``, every :func:`_bit_rows` row from the top edge on."""
    plus, minus, _ = rows[-1]
    return len(rows) - 1 + plus.bit_count() - minus.bit_count()


def _trace_bits(hyp: Sequence[str], ref: Sequence[str], rows: list[tuple[int, int, int]]) -> tuple[EditOp, ...]:
    """:func:`_trace` through the :func:`_bit_rows` of ``ref`` against ``hyp``.

    At unit costs a cell is its diagonal neighbour's cost or one more, and
    that neighbour's when the phones match. So the diagonal is taken when
    the phones match or the cell's ``same`` bit is clear; else the delete
    when its ``plus`` bit is set, else the insert.
    """
    ops: list[EditOp] = []
    i, j = len(ref), len(hyp)
    while i > 0 and j > 0:
        plus, _, same = rows[i]
        bit = 1 << (j - 1)
        if ref[i - 1] == hyp[j - 1]:
            ops.append(EditOp(MATCH, j - 1, i - 1))
        elif not same & bit:
            ops.append(EditOp(SUBSTITUTE, j - 1, i - 1))
        elif plus & bit:
            ops.append(EditOp(DELETE, j - 1))
            j -= 1
            continue
        else:
            ops.append(EditOp(INSERT, None, i - 1))
            i -= 1
            continue
        i, j = i - 1, j - 1
    # the top edge deletes what is left of the hypothesis, the left edge inserts the reference
    ops.extend(EditOp(DELETE, k) for k in reversed(range(j)))
    ops.extend(EditOp(INSERT, None, k) for k in reversed(range(i)))
    ops.reverse()
    return tuple(ops)


def _trace(
    hyp: Sequence[str], ref: Sequence[str], score: list[list[float]], cfg: AlignConfig | _ExactCosts
) -> tuple[EditOp, ...]:
    """The ops of :func:`nw_align`, traced back through ``score``.

    ``score`` holds the rows of :func:`_cost_rows` of ``ref`` against ``hyp``
    under ``cfg``'s costs. From the last cell back, the diagonal (match or
    substitute) is taken when it gives the cell's cost, else the delete of a
    hypothesis phone, else the insert of a reference phone.
    """
    match, mismatch, gap = cfg.match_score, cfg.mismatch_score, cfg.gap_penalty
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


#: whether each op kind takes a hypothesis phone and a reference phone
_TAKES = {MATCH: (True, True), SUBSTITUTE: (True, True), DELETE: (True, False), INSERT: (False, True)}


def project_boundaries(
    alignment: Alignment, ref_seg: SegmentedUtterance
) -> list[tuple[str, tuple[str, ...]]]:
    """Carve the hypothesis into per-word spans using the reference boundaries.

    One pass over the ops cuts the hypothesis at each word's first reference phone,
    after the phones taken up to the last op before it that took a reference phone:
    a phone a delete consumed goes to the next reference position's word, or at the
    end to the last word. Spans partition the hypothesis; a word may come out empty.
    Raises :class:`AlignmentReferenceMismatch` if the alignment is of other reference
    phones, an op's indices are not those its kind takes (a delete a hypothesis index
    only, an insert a reference index only, a match or substitute both), or the ops do
    not take each hypothesis and reference position once, in order.
    """
    ref_phones, hyp = ref_seg.phones, alignment.hyp_phones
    if alignment.ref_phones != ref_phones:
        raise AlignmentReferenceMismatch(
            f"alignment reference has {len(alignment.ref_phones)} phones, segmentation has {len(ref_phones)}"
        )
    starts = set(ref_seg.ends[:-1])
    cuts: list[int] = []
    next_hyp = next_ref = taken = 0
    for kind, hyp_index, ref_index in alignment.ops:
        if _TAKES.get(kind) != (hyp_index is not None, ref_index is not None):
            raise AlignmentReferenceMismatch(f"alignment op {kind!r} cannot take indices {hyp_index!r}, {ref_index!r}")
        if hyp_index is not None:
            if hyp_index != next_hyp:
                break
            next_hyp += 1
        if ref_index is not None:
            if ref_index != next_ref:
                break
            if ref_index in starts:
                cuts.append(taken)
            next_ref += 1
            taken = next_hyp
    else:
        if (next_hyp, next_ref) == (len(hyp), len(ref_phones)):
            return [(span.word, tuple(hyp[a:b])) for span, (a, b) in zip(ref_seg.words, pairwise((0, *cuts, len(hyp))))]
    raise AlignmentReferenceMismatch("alignment ops do not take each hypothesis and reference phone once, in order")


@dataclass(frozen=True)
class DpExtraction:
    """Variant pairs harvested by the aligner, plus the empty-span tally."""

    pairs: tuple[tuple[str, tuple[str, ...]], ...]
    empty_spans: int


def _harvest(variants: Sequence[tuple[str, tuple[str, ...]]], pairs: list[tuple[str, tuple[str, ...]]]) -> int:
    """Append each (word, span) of ``variants`` whose span is non-empty to ``pairs``;
    return the number of empty spans, which both aligners tally."""
    kept = [(word, span) for word, span in variants if span]
    pairs.extend(kept)
    return len(variants) - len(kept)


def pair_by_id(left: Iterable, right: Iterable) -> Iterator[tuple]:
    """Pair two utterance collections by id, yielding the pairs in left order.

    ``right`` is indexed first; ``left`` is read one item per pair taken, so
    a lazy ``left`` is never held whole. A left id with no counterpart raises
    :class:`MissingUtterance` when it is read, a right one once ``left`` is
    used up.
    """
    right_map: dict[str, object] = {}
    for item in right:
        if item.utterance_id in right_map:
            raise DuplicateUtteranceId(item.utterance_id)
        right_map[item.utterance_id] = item
    seen: set[str] = set()
    for item in left:
        if item.utterance_id in seen:
            raise DuplicateUtteranceId(item.utterance_id)
        seen.add(item.utterance_id)
        if item.utterance_id not in right_map:
            raise MissingUtterance(item.utterance_id)
        yield item, right_map[item.utterance_id]
    for utt_id in right_map:
        if utt_id not in seen:
            raise MissingUtterance(utt_id)


def _scaled_unit(exact: _ExactCosts) -> bool:
    """Whether the costs are unit costs times one gap cost, which :func:`_bit_rows` computes."""
    return exact.match_score == 0 and exact.mismatch_score == exact.gap_penalty


def _resolve_reference(
    hyp: PhoneSequence,
    ref_seg: SegmentedUtterance,
    dictionary: ReferenceDictionary,
    exact: _ExactCosts,
) -> tuple[SegmentedUtterance, list | None]:
    """Swap in the dictionary variant that aligns cheapest, word by word.

    Words are resolved left to right. Words with a single listed
    pronunciation (or none) keep the span they came with. For a word with
    alternatives, each is tried in place, with the words before it as
    resolved and the words after it at their given spans, and the cost of
    aligning the whole utterance decides. Costs are compared in the
    integers of :func:`_exact`; ties keep the dictionary's file order.
    The given reference's phones are checked against the hypothesis
    inventory first, then each alternative's as it is tried.

    The rows of the resolved prefix are kept, and each alternative's rows
    continue them; the winner's extend the prefix. At unit costs times one
    gap cost the rows are those of :func:`_bit_rows`, and an alternative
    costs two calls of it with no backward pass: one collects the
    alternative's rows through ``out``, and one carries its last row on
    through the given spans after its word and returns the final row, whose
    whole-utterance cost two ``bit_count`` calls read. The work is O(m) rows
    per alternative for m reference phones, each a fixed number of ``int``
    operations. At other costs the rows are those of :func:`_cost_rows`, and
    the cost is split at the word's end (Hirschberg, 1975): it is ``min_i
    F[i] + B[i]``, where ``F`` is the alternative's last row and ``B[i]``,
    from one backward pass, is the cost of ``hyp[i:]`` against the given
    spans after the word. The work is O(n·m·(1 + alternatives)) cells for n
    hypothesis phones, not one full alignment per alternative.

    Returns the resolved utterance and the resolved prefix's rows, which by
    the end are every row of the resolved phones against the hypothesis: bit
    rows at unit costs times one gap, else cell rows in the exact costs.
    When no word has alternatives the utterance comes back as given, with no
    rows.
    """
    spans = list(ref_seg.words)
    choices = [dictionary.pronunciations(s.word) if s.word in dictionary else () for s in spans]
    if all(len(variants) < 2 for variants in choices):
        return ref_seg, None
    given = _checked_reference(hyp, ref_seg.phones)
    hyp_phones = hyp.phones
    if _scaled_unit(exact):
        masks, width = _column_masks(hyp_phones), len(hyp_phones)
        start = _bit_rows((), masks, width)

        def rows_of(phones, row, out):
            _bit_rows(phones, masks, width, 0, row, out)

        def cost(wi, tried):
            # the distance, less the rows before and after the word, which
            # every alternative has
            plus, minus, _ = _bit_rows(given[ref_seg.ends[wi] :], masks, width, 0, tried[-1])
            return len(tried) + plus.bit_count() - minus.bit_count()

    else:
        reversed_hyp = hyp_phones[::-1]
        # backward[wi][j]: cost of the last j hypothesis phones against the
        # given spans after word wi
        backward = [_last_row((), hyp_phones, exact)]
        for span in reversed(spans[1:]):
            backward.append(_last_row(span.phones[::-1], reversed_hyp, exact, backward[-1]))
        suffix_costs = [row[::-1] for row in reversed(backward)]

        start = _last_row((), hyp_phones, exact)

        def rows_of(phones, row, out):
            out.extend(islice(_cost_rows(phones, hyp_phones, exact, row), 1, None))

        def cost(wi, tried):
            return min(map(add, tried[-1], suffix_costs[wi]))

    rows = [start]
    changed = False
    for wi, (span, variants) in enumerate(zip(spans, choices)):
        if len(variants) < 2:
            rows_of(span.phones, rows[-1], rows)
            continue
        scored = []
        for pron in variants:
            _checked_reference(hyp, pron)
            tried = []
            rows_of(pron, rows[-1], tried)
            scored.append((cost(wi, tried), pron, tried))
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
    integers' comparisons. Bit rows are traced by :func:`_trace_bits`, and
    their distance ``d`` costs ``d`` gaps.
    """
    exact = _exact(cfg)
    unit = _scaled_unit(exact)
    longest_exact = 2**53 // max(abs(exact.match_score), abs(exact.mismatch_score), exact.gap_penalty)
    pairs: list[tuple[str, tuple[str, ...]]] = []
    empty = 0
    for hyp, ref_seg in pair_by_id(hyps, refs):
        resolved, rows = _resolve_reference(hyp, ref_seg, dictionary, exact)
        ref = resolved.phones
        if rows is not None and len(hyp.phones) + len(ref) <= longest_exact:
            if unit:
                ops, total = _trace_bits(hyp.phones, ref, rows), _bit_distance(rows) * exact.gap_penalty
            else:
                ops, total = _trace(hyp.phones, ref, rows, exact), rows[-1][-1]
            alignment = Alignment(hyp.phones, ref, ops, total / exact.scale)
        else:
            alignment = nw_align(hyp, ref, cfg)
        empty += _harvest(project_boundaries(alignment, resolved), pairs)
    return DpExtraction(tuple(pairs), empty)
