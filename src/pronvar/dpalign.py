"""Global alignment of non-native phone sequences against native references.

Costs are compared exactly: :func:`_exact` scales them to integers by one
common denominator, the cells sum those integers, and a total is divided
by the denominator once (:func:`_total`), to the nearest float or, past
the float range, ``math.inf``.

Two kernels compute the rows of one alignment matrix. :func:`_cost_rows`
takes any costs, one step per cell. :func:`_bit_rows` takes unit costs
and computes a whole row as bit vectors in a few ``int`` operations, from
the top edge or carried on from any row it gave. It returns its last row,
and appends every row after the start to an ``out`` list when given one.
Both kernels give the same cells, so which one runs never changes an
output. :func:`_kernel` chooses once per call, from the costs alone: the bit
rows at unit costs times one gap cost, the cell rows otherwise. The code
after it runs one path on either kernel's rows, cells and backward walk.

:func:`edit_distance` keeps one row of :func:`_cost_rows` and returns the
cost. :mod:`pronvar.attnalign` scores word spans, always at unit costs, from
the row :func:`_bit_rows` returns, every span end of one start at once.
:func:`nw_align` keeps the whole matrix and builds the ops (:func:`_trace`)
from one backward walk from the last cell, which each kernel reads off its
rows (:func:`_cell_steps`, :func:`_bit_steps`). :func:`project_boundaries`
carves the hypothesis into per-word variants at the native word boundaries,
projected through the ops of any alignment.

Dictionary alternatives are costed by one rule on either kernel's rows,
each checked against an inventory once per :func:`extract_variants_dp` call.
The rows of the given reference are filled first, so the rows of the
utterance as it stands always run to its end, and the alternative equal to
a word's given span, and a word with one pronunciation, cost no call.
Another alternative fills its own rows. After the word, it and the given
span meet the same rest of the utterance, so its cost is at least the
standing cost plus the least difference of the two rows there. Only an
alternative whose bound leaves it a chance to win carries its last row on
through the rest of the utterance, and its cost is the final cell. On bit
rows :func:`_least_difference` reads that difference and two ``bit_count``
calls the final cell.

:func:`extract_variants_dp` reuses the resolver's rows. It builds no ops,
and reads each word's cut off the same backward walk (:func:`_spans`), so
its spans are :func:`project_boundaries` of :func:`nw_align`'s ops.
"""

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice, pairwise
from operator import sub
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
    _check_new_id,
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
    a: Sequence[str], b: Sequence[str], exact: _ExactCosts, row: list[int] | None = None
) -> Iterator[list[int]]:
    """Cost-matrix rows 0..len(a) of ``a`` (rows) against ``b`` (columns), in ``exact``'s costs.

    Row 0 is ``row`` when given, the last row of a matrix whose rows aligned
    what precedes ``a``; by default it is the top edge. The edges are running
    sums of the gap penalty; an inner cell is the least of diagonal (match or
    substitute), up (delete) and left (insert).
    """
    match, mismatch, gap = exact.match_score, exact.mismatch_score, exact.gap_penalty
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


def _least_difference(row: tuple[int, int, int], other: tuple[int, int, int], gap: int) -> int:
    """``min_j (row[j] - other[j])`` over the cells of two :func:`_bit_rows` rows of one width.

    ``gap`` is the difference of their cells 0, the rows' distance apart.
    The difference changes only at the bits where the rows' column deltas
    differ, so those are walked from the lowest up.
    """
    plus, minus, _ = row
    other_plus, other_minus, _ = other
    least = gap
    differ = (plus ^ other_plus) | (minus ^ other_minus)
    while differ:
        bit = differ & -differ
        differ ^= bit
        gap += bool(plus & bit) - bool(minus & bit) - bool(other_plus & bit) + bool(other_minus & bit)
        if gap < least:
            least = gap
    return least


def edit_distance(a: Sequence[str], b: Sequence[str], cfg: AlignConfig = AlignConfig()) -> float:
    """Least cost of aligning ``a`` with ``b``, :func:`nw_align`'s total.

    Keeps one row of exact costs and rounds its last cell once, to
    ``math.inf`` past the float range (:func:`_total`). The longer sequence
    is the outer loop: one gap cost serves both directions, so the swapped
    matrix is the exact transpose.
    """
    if len(a) < len(b):
        a, b = b, a
    exact = _exact(cfg)
    return _total(_last_row(a, b, exact)[-1], exact)


def _last_row(a: Sequence[str], b: Sequence[str], exact: _ExactCosts, row: list[int] | None = None) -> list[int]:
    """The last of :func:`_cost_rows`, keeping one row at a time."""
    for row in _cost_rows(a, b, exact, row):
        pass
    return row


def _exact(cfg: AlignConfig) -> _ExactCosts:
    """``cfg``'s costs scaled to integers by one common denominator, and the denominator.

    Sums of the scaled costs are exact, where float sums can round a tie
    apart. Unit costs come out as the integers 0 and 1. The denominator is a
    power of two, too large for a float at tiny costs such as ``1e-300``, so
    the scaled costs are not an :class:`AlignConfig`.
    """
    ratios = [c.as_integer_ratio() for c in (cfg.match_score, cfg.mismatch_score, cfg.gap_penalty)]
    scale = math.lcm(*(d for _, d in ratios))
    return _ExactCosts(*(n * (scale // d) for n, d in ratios), scale)


def _total(cost: int, exact: _ExactCosts) -> float:
    """``cost``, in ``exact``'s integers, as the nearest float: ``math.inf`` past the float
    range (``-math.inf`` below it, which a negative match score can reach)."""
    try:
        return cost / exact.scale
    except OverflowError:
        return math.inf if cost > 0 else -math.inf


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


def _scaled_unit(exact: _ExactCosts) -> bool:
    """Whether the costs are unit costs times one gap cost, which :func:`_bit_rows` computes."""
    return exact.match_score == 0 and exact.mismatch_score == exact.gap_penalty


class _Kernel(NamedTuple):
    """A kernel, cells in :func:`_exact`'s integers. ``state(hyp, exact)`` is what its rows against
    one hypothesis need, and each other function takes it first: ``start(s)`` is the top edge;
    ``fill(s, phones, row, out)`` appends the rows of ``phones`` after ``row`` to ``out`` and returns
    the last; ``least_difference(s, row, other, shift)`` is ``min_j (row[j] - other[j])`` for rows
    ``shift`` apart; ``last_cell(s, row, i)`` is row i's last cell; ``steps(s, ref, rows)`` walks
    back through ``rows``, those of ``ref`` from the top edge."""

    state: Callable
    start: Callable
    fill: Callable
    least_difference: Callable
    last_cell: Callable
    steps: Callable


_BIT_ROWS = _Kernel(
    lambda hyp, exact: (hyp, _column_masks(hyp), len(hyp), exact.gap_penalty),
    lambda s: _bit_rows((), s[1], s[2]),
    lambda s, phones, row, out: _bit_rows(phones, s[1], s[2], 0, row, out),
    lambda s, row, other, shift: _least_difference(row, other, shift) * s[3],
    lambda s, row, i: (i + row[0].bit_count() - row[1].bit_count()) * s[3],
    lambda s, ref, rows: _bit_steps(s[0], ref, rows),
)
_CELL_ROWS = _Kernel(
    lambda hyp, exact: (hyp, exact),
    lambda s: _last_row((), *s),
    lambda s, phones, row, out: out.extend(islice(_cost_rows(phones, *s, row), 1, None)) or out[-1],
    lambda s, row, other, _: min(map(sub, row, other)),
    lambda s, row, _: row[-1],
    lambda s, ref, rows: _cell_steps(s[0], ref, rows, s[1]),
)


def _kernel(exact: _ExactCosts) -> _Kernel:
    """The bit rows at unit costs times one gap cost, their cells times the gap; the cell rows
    at any other costs. It depends on the costs alone, so a call chooses once."""
    return _BIT_ROWS if _scaled_unit(exact) else _CELL_ROWS


def nw_align(hyp: PhoneSequence, ref: Sequence[str], cfg: AlignConfig = AlignConfig()) -> Alignment:
    """Minimum-cost global alignment of ``hyp`` against ``ref``.

    Backtracking ties are broken deterministically: diagonal
    (match/substitute) first, then delete (gap in the reference), then
    insert. Costs are compared exactly, and the total is rounded once, to
    ``math.inf`` past the float range (:func:`_total`).
    """
    a = hyp.phones
    b = _checked_reference(hyp, ref)
    exact = _exact(cfg)
    kernel = _kernel(exact)
    state = kernel.state(a, exact)
    rows = [kernel.start(state)]
    cost = kernel.last_cell(state, kernel.fill(state, b, rows[0], rows), len(b))
    return Alignment(a, b, _trace(a, b, kernel.steps(state, b, rows)), _total(cost, exact))


def _cell_steps(
    hyp: Sequence[str], ref: Sequence[str], rows: list[list[int]], exact: _ExactCosts
) -> Iterator[tuple[int, bool]]:
    """The backward walk of :func:`nw_align` through the :func:`_cost_rows` of ``ref`` against ``hyp``.

    From the last cell back, the diagonal (match or substitute) is taken
    when it gives the cell's cost, else the delete of a hypothesis phone,
    else the insert of a reference phone. The left edge inserts, and the top
    edge deletes what is left.

    Yields one ``(j, diagonal)`` per row, from row ``len(ref)`` up to row 1:
    the column j at which the walk leaves the row, and whether it leaves by
    the diagonal, to column j - 1 of the row above, or by an insert, to
    column j. The walk deletes the hypothesis phones of the columns it
    passes in a row on its way to j, and at row 0 those left of the column
    it reaches.
    """
    match, mismatch, gap = exact.match_score, exact.mismatch_score, exact.gap_penalty
    j = len(hyp)
    for i in range(len(ref), 0, -1):
        row, above, y = rows[i], rows[i - 1], ref[i - 1]
        while j:
            if row[j] == above[j - 1] + (match if y == hyp[j - 1] else mismatch):
                yield j, True
                j -= 1
                break
            if row[j] != row[j - 1] + gap:
                yield j, False
                break
            j -= 1
        else:
            yield 0, False


def _bit_steps(
    hyp: Sequence[str], ref: Sequence[str], rows: list[tuple[int, int, int]]
) -> Iterator[tuple[int, bool]]:
    """:func:`_cell_steps`' walk through the :func:`_bit_rows` of ``ref`` against ``hyp``.

    At unit costs a cell is its diagonal neighbour's cost or one more, and
    that neighbour's when the phones match. So the diagonal is taken when
    the phones match or the cell's ``same`` bit is clear; else the delete
    when its ``plus`` bit is set, else the insert.
    """
    j = len(hyp)
    for i in range(len(ref), 0, -1):
        plus, _, same = rows[i]
        y = ref[i - 1]
        while j:
            bit = 1 << (j - 1)
            if y == hyp[j - 1] or not same & bit:
                yield j, True
                j -= 1
                break
            if not plus & bit:
                yield j, False
                break
            j -= 1
        else:
            yield 0, False


def _trace(hyp: Sequence[str], ref: Sequence[str], steps: Iterable[tuple[int, bool]]) -> tuple[EditOp, ...]:
    """The ops of :func:`nw_align` along ``steps``, a kernel's backward walk from the last
    cell: the deletes of the columns the walk passes, and the step that leaves each row."""
    ops: list[EditOp] = []
    i, j = len(ref), len(hyp)
    for col, diagonal in steps:
        ops.extend(EditOp(DELETE, k) for k in range(j - 1, col - 1, -1))
        if diagonal:
            ops.append(EditOp(MATCH if ref[i - 1] == hyp[col - 1] else SUBSTITUTE, col - 1, i - 1))
            j = col - 1
        else:
            ops.append(EditOp(INSERT, None, i - 1))
            j = col
        i -= 1
    ops.extend(EditOp(DELETE, k) for k in reversed(range(j)))
    ops.reverse()
    return tuple(ops)


def _spans(
    hyp: tuple[str, ...], ref_seg: SegmentedUtterance, steps: Iterator[tuple[int, bool]]
) -> list[tuple[str, tuple[str, ...]]]:
    """:func:`project_boundaries` of :func:`_trace`'s alignment, read off ``steps``.

    ``steps`` is a kernel's backward walk through the rows of
    ``ref_seg.phones`` against ``hyp``. Word k starts at reference phone
    ``s = ends[k - 1]``, and is cut after the hypothesis phones taken when
    the alignment reaches row s, the column at which the walk leaves that
    row. So the walk is read up to the first word's end, and no op is built.
    """
    ref, ends = ref_seg.phones, ref_seg.ends
    # cols[i] is the column at which the walk leaves row len(ref) - i
    cols = [j for j, _ in islice(steps, len(ref) - ends[0] + 1)]
    cuts = (0, *(cols[len(ref) - s] for s in ends[:-1]), len(hyp))
    return [(span.word, hyp[a:b]) for span, (a, b) in zip(ref_seg.words, pairwise(cuts))]


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
        _check_new_id(item.utterance_id, seen)
        if item.utterance_id not in right_map:
            raise MissingUtterance(item.utterance_id)
        yield item, right_map[item.utterance_id]
    for utt_id in right_map:
        if utt_id not in seen:
            raise MissingUtterance(utt_id)


def _resolve_reference(
    hyp: PhoneSequence,
    ref_seg: SegmentedUtterance,
    dictionary: ReferenceDictionary,
    kernel: _Kernel,
    state: tuple,
    checked: set[tuple[str, ...]],
) -> tuple[SegmentedUtterance, list]:
    """Swap in the dictionary variant that aligns cheapest, word by word.

    Words are resolved left to right. Words with a single listed
    pronunciation (or none) keep the span they came with. For a word with
    alternatives, each is tried in place, with the words before it as
    resolved and the words after it at their given spans, and the cost of
    aligning the whole utterance decides. Costs are compared in the
    integers of :func:`_exact`; ties keep the dictionary's file order.
    The given reference's phones are checked against the hypothesis
    inventory first, then each alternative's as it is tried, unless it is
    in ``checked``, which holds those passed on this inventory.

    The rows of the given reference are filled before the first word, so
    the rows are always those of the utterance as it stands, resolved up to
    the word and given after it, to its end, and ``total`` is its cost.
    The alternative equal to the given span costs ``total`` and no call,
    and a word with one pronunciation makes no call either. Any other
    alternative X first fills its own rows after the resolved prefix. Its
    cost is ``min_j F_X[j] + B[j]``, where ``F_X`` is its last row and
    ``B[j]`` the cost of ``hyp[j:]`` against the given spans after the word,
    and ``total`` is ``min_j F_S[j] + B[j]`` with ``F_S`` the row after the
    given span S. So X costs at least ``total + min_j (F_X[j] - F_S[j])``.
    When that bound reaches the least cost of the alternatives listed before
    X, or exceeds ``total`` while S is listed after X, X cannot win, as a tie
    goes to the one listed first, and its carry is skipped. Otherwise its
    last row is carried on through the given spans after its word, and the
    final cell is its cost. The skip only drops alternatives that lose, so
    the winner, its rows and the order of the inventory checks are those of
    costing every alternative in full. The winner's rows replace those after
    the prefix.

    Returns the resolved utterance and every row of its phones against the
    hypothesis on ``kernel``, from its ``state``. When no word has
    alternatives the utterance comes back as given.
    """
    spans = list(ref_seg.words)
    choices = [dictionary._entries.get(s.word, ()) for s in spans]
    given = _checked_reference(hyp, ref_seg.phones)
    _, start, fill, least_difference, last_cell, _ = kernel
    rows = [start(state)]
    total = last_cell(state, fill(state, given, rows[0], rows), len(given))
    if all(len(variants) < 2 for variants in choices):
        return ref_seg, rows
    suffixes = [given[end:] for end in ref_seg.ends]
    # at: how many resolved phones precede the word
    at = 0
    changed = False
    for wi, (span, variants) in enumerate(zip(spans, choices)):
        if len(variants) < 2:
            at += len(span.phones)
            continue
        # the cost an alternative must beat to win: the least so far, or,
        # while the given span (which costs total) is yet to come, total + 1,
        # since costs are integers and the one listed first wins a tie
        best_cost = total + 1 if span.phones in variants else math.inf
        standing = rows[at + len(span.phones)]
        for pron in variants:
            if pron not in checked:
                checked.add(_checked_reference(hyp, pron))
            if pron == span.phones:
                # the utterance as it stands, whose rows are in place
                pron_cost, tried = total, None
            else:
                tried = []
                own = fill(state, pron, rows[at], tried)
                if total + least_difference(state, own, standing, len(pron) - len(span.phones)) >= best_cost:
                    continue
                pron_cost = last_cell(state, fill(state, suffixes[wi], own, tried), at + len(pron) + len(suffixes[wi]))
            if pron_cost < best_cost:
                best_cost, best, best_rows = pron_cost, pron, tried
        if best_rows is not None:
            rows[at + 1 :] = best_rows
        total = best_cost
        at += len(best)
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
    follows the hypothesis order. The spans are those of
    :func:`project_boundaries` of :func:`nw_align`'s alignment of the
    resolved reference, in costs compared exactly, read off the backward
    walk through the resolver's rows (:func:`_spans`) with no op built.
    """
    exact = _exact(cfg)
    kernel = _kernel(exact)
    pairs: list[tuple[str, tuple[str, ...]]] = []
    empty = 0
    checked, inventory = set(), None
    for hyp, ref_seg in pair_by_id(hyps, refs):
        if hyp.inventory is not inventory:
            checked, inventory = set(), hyp.inventory
        state = kernel.state(hyp.phones, exact)
        resolved, rows = _resolve_reference(hyp, ref_seg, dictionary, kernel, state, checked)
        empty += _harvest(_spans(hyp.phones, resolved, kernel.steps(state, resolved.phones, rows)), pairs)
    return DpExtraction(tuple(pairs), empty)
