"""Attention-guided word boundary search over unsegmented phone sequences.

An attention map pairs the non-native phones (columns) with the
segmented native reference (rows). For every word but the last, the
column with the highest weight on the word's final row proposes a cut.
Those cuts then move within a radius n, and the segmentation closest to
the reference pronunciations by unit-cost :func:`pronvar.dpalign.edit_distance`
wins:

* ``global_shift`` moves all cuts together: 2n+1 candidates, the shifts
  that :func:`split_by_attention` lists, as plain cut tuples, so only the
  winner becomes a record. They are visited by a lower bound from each
  span's length and its word's range, and one is dropped as soon as it
  cannot beat the best so far (branch-and-bound);
* ``per_boundary`` moves each cut on its own and finds the best of all
  (2n+1)^k offset tuples exactly. A best-first search over the cut
  positions, bounded by the ranges summed over the words still to place
  and ordered as the tie-break orders the tuples, scores only the spans
  out of cut positions that can still reach the best total, and the first
  tuple it completes wins.

A word's range, the lengths of its shortest and longest pronunciation, is
worked out once per utterance, and both bounds read it.

Spans are scored from one call per (word, start, pronunciation) of the
bit-parallel unit-cost kernel :func:`pronvar.dpalign._bit_rows`, which
:func:`pronvar.dpalign.nw_align` also uses at unit costs. The call runs the
pronunciation as rows over the columns from the start, in full, and returns
the last row, whose cell i is the distance of the span that ends i columns
after the start. So every end of one start comes from the same call, at two
``bit_count`` calls, and the scores are those of
:func:`pronvar.dpalign.edit_distance`. An utterance whose best
segmentation is still too far from the reference is rejected.
"""

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import pairwise
from operator import itemgetter

from .errors import (
    DimensionMismatch,
    NegativeWeight,
    PronvarError,
    ReservedSymbol,
    RowMismatch,
)
# bench/spans.py counts edit_distance here, though this module no longer calls it
from .dpalign import _bit_rows, _column_masks, _harvest, edit_distance, pair_by_id
from .phonecore import (
    ANY_SYMBOL,
    AnySymbol,
    PhoneInventory,
    ReferenceDictionary,
    SegmentedUtterance,
    _adopt,
    _check_new_id,
    _check_real,
    _check_word,
    _decimals,
    _float_chars,
    _last_field,
    _natural,
    _on_line,
    _split_id_line,
)

GLOBAL_SHIFT = "global_shift"
PER_BOUNDARY = "per_boundary"
MODES = {"global": GLOBAL_SHIFT, "per-boundary": PER_BOUNDARY}  # the searches by their align-attn --mode names


@dataclass(frozen=True)
class AttnConfig:
    """Boundary-search settings.

    ``shift_radius`` bounds how far a cut may move from its attention
    peak; ``threshold`` is the largest acceptable edit distance per
    reference phone. Column argmax ties always break to the earliest
    column.
    """

    shift_radius: int = 3
    mode: str = GLOBAL_SHIFT
    threshold: float = 0.5

    def __post_init__(self):
        if type(self.shift_radius) is not int:  # not a bool, which is written True
            raise ValueError("shift_radius must be an int")
        if self.shift_radius < 0:
            raise ValueError("shift_radius must be >= 0")
        if self.mode not in MODES.values():
            raise ValueError(f"unknown mode {self.mode!r}")
        _check_real(self.threshold, "threshold")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")


@dataclass(frozen=True)
class AttentionMap:
    """Weights pairing native rows with non-native columns, all finite, >= 0, each a ``float`` or
    an ``int``: :func:`emit_attention_file` writes it with ``repr`` and :func:`parse_attention_file`
    reads it back with ``float()``, so an ``int`` past 2**53 reads back rounded, and one past the
    float range is not finite. Other reals, such as ``True`` or ``Fraction(1, 2)``, are not checked
    and do not round-trip. Row and column phones follow the phone-symbol rule
    (:data:`pronvar.phonecore.ANY_SYMBOL`). The constructor checks every rule for library
    callers; :func:`parse_attention_file` tests them itself, once for each record, and adopts
    a map that passes without this second check (:func:`pronvar.phonecore._adopt`)."""

    utterance_id: str
    col_phones: tuple[str, ...]
    row_phones: tuple[str, ...]
    weights: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        _check_word(self.utterance_id, what="utterance id")
        try:
            object.__setattr__(self, "col_phones", tuple(self.col_phones))
            object.__setattr__(self, "row_phones", tuple(self.row_phones))
            object.__setattr__(self, "weights", tuple(tuple(row) for row in self.weights))
        except TypeError:
            raise ValueError(f"attention map {self.utterance_id!r}: phones and weight rows must be iterables") from None
        if not self.row_phones or not self.col_phones:
            raise DimensionMismatch(self.utterance_id, "empty axis")
        phones = self.row_phones + self.col_phones  # in the order the file holds them
        if not ANY_SYMBOL._has_all(phones):
            ANY_SYMBOL.require(phones, f"attention map {self.utterance_id!r}")
        if len(self.weights) != len(self.row_phones):
            raise DimensionMismatch(
                self.utterance_id,
                f"{len(self.weights)} weight rows for {len(self.row_phones)} row phones",
            )
        columns = len(self.col_phones)
        for r, row in enumerate(self.weights):
            if len(row) != columns:
                raise DimensionMismatch(self.utterance_id, f"row {r} has {len(row)} weights for {columns} columns")
            # one C-level test per row: min finds a negative or a leading nan, sum any non-finite weight.
            # A row it fails (finite weights may overflow the sum) or cannot take is walked cell by cell
            try:
                if 0 <= min(row) and math.isfinite(sum(row)):
                    continue
            except (ArithmeticError, TypeError):
                pass
            for c, w in enumerate(row):
                try:
                    finite = math.isfinite(w)
                except (OverflowError, TypeError):  # an int past the float range, or no number
                    finite = False
                if not finite:
                    raise DimensionMismatch(self.utterance_id, f"non-finite weight at ({r}, {c})")
                if w < 0:
                    raise NegativeWeight(self.utterance_id, r, c)


@dataclass(frozen=True)
class Segmentation:
    """Cut indices into a phone sequence; cut k splits after phone k-1.

    Cuts increase strictly except that clamping at the sequence end may
    leave ties there, which show up as empty trailing spans. ``repaired``
    counts cuts that had to be moved to restore monotonicity or stay in
    range; it carries generation metadata and does not affect equality.
    """

    cuts: tuple[int, ...]
    length: int
    repaired: int = field(default=0, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cuts", tuple(self.cuts))
        prev = 0
        for cut in self.cuts:
            if not 1 <= cut <= self.length:
                raise ValueError(f"cut {cut} out of range for length {self.length}")
            if cut < prev or (cut == prev and cut != self.length):
                raise ValueError(f"cuts not increasing: {self.cuts}")
            prev = cut

    @property
    def word_count(self) -> int:
        return len(self.cuts) + 1

    def spans(self, phones: Sequence[str]) -> tuple[tuple[str, ...], ...]:
        if len(phones) != self.length:
            raise ValueError(f"expected {self.length} phones, got {len(phones)}")
        bounds = (0, *self.cuts, self.length)
        return tuple(tuple(phones[a:b]) for a, b in pairwise(bounds))


def emit_bounds_file(bounds: Iterable[tuple[str, Segmentation]]) -> str:
    """Write ``utt_id<TAB>c1 c2 ...`` lines, one per segmentation."""
    return "".join(f"{utt_id}\t{' '.join(str(c) for c in seg.cuts)}\n" for utt_id, seg in bounds)


def parse_bounds_file(text: str) -> list[tuple[str, tuple[int, ...]]]:
    """Read ``utt_id<TAB>c1 c2 ...`` cut lists (the cut field may be empty).

    A cut is ASCII digits with a value of at least 1; ids are unique.
    """
    out: list[tuple[str, tuple[int, ...]]] = []
    seen: set[str] = set()
    try:
        for lineno, raw in enumerate(text.split("\n"), 1):
            if not raw.strip():
                continue
            utt_id, rest = _split_id_line(raw, lineno)
            cuts = _last_field(rest, "cut").split()
            if utt_id in seen:
                raise ValueError(f"repeated utterance id {utt_id!r}")
            seen.add(utt_id)
            out.append((utt_id, tuple(_natural(tok, "cut", 1) for tok in cuts)))
    except (PronvarError, ValueError) as err:
        raise _on_line(err, lineno) from None
    return out


def _repair(cuts: Sequence[int], length: int) -> tuple[tuple[int, ...], int]:
    """Clamp each cut just past the previous one and no further than the end; count the moves."""
    out: list[int] = []
    moved = 0
    prev = 0
    for cut in cuts:
        # the clamp by conditionals: several times faster than min() and max(), or a call
        fixed = cut if cut > prev else prev + 1
        fixed = fixed if fixed < length else length
        if fixed != cut:
            moved += 1
        out.append(fixed)
        prev = fixed
    return tuple(out), moved


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    """Yield each blank-line-separated record as the number of its first line and its lines,
    one slice of ``text.split("\\n")``; its lines follow each other, so line k of the record
    is line ``first + k`` of the file. A whitespace-only line separates records, as an empty
    one does.
    """
    lines = text.split("\n")
    start = 0
    for end in [i for i, raw in enumerate(lines) if not raw or raw.isspace()]:
        if end > start:
            yield start + 1, lines[start:end]
        start = end + 1
    if start < len(lines):
        yield start + 1, lines[start:]


def parse_attention_file(text: str, inventory: PhoneInventory | AnySymbol) -> list[AttentionMap]:
    """Parse blank-line-separated attention records.

    Each record is ``utt_id R C`` on the first line, R row phones on the
    second, C column phones on the third, then R lines of C weights. R and
    C are ASCII digits with a value of at least 1; a weight row is float
    fields (:func:`pronvar.phonecore._decimals`). The reader tests each of
    :class:`AttentionMap`'s rules once for the record (:func:`_checked_weights`)
    and adopts the map it read; a record that fails a test is read again line
    by line and built by :class:`AttentionMap`, which raises its first error.
    An error names the record's first line, unless it is met on a weight row
    that is not float fields, on a column-phone line of the wrong length, or
    on an axis line holding a symbol that breaks the phone-symbol rule
    (:class:`pronvar.phonecore.AnySymbol`).
    """
    return list(_attention_maps(text, inventory))


def _attention_maps(text: str, inventory: PhoneInventory | AnySymbol) -> Iterator[AttentionMap]:
    """Yield the checked maps of :func:`parse_attention_file` one record at a time."""
    seen: set[str] = set()
    try:
        for lineno, lines in _records(text):
            header = lines[0]
            fields = header.split()
            if len(fields) != 3:
                raise ValueError(f"expected 'utt_id R C', got {header!r}")
            utt_id = fields[0]
            n_rows, n_cols = (_natural(token, "dimension", 1) for token in fields[1:])
            _check_new_id(utt_id, seen)
            if len(lines) != 3 + n_rows:
                raise DimensionMismatch(utt_id, f"expected {n_rows} weight rows, found {len(lines) - 3}")

            row_phones = lines[1].split()
            col_phones = lines[2].split()
            if len(col_phones) != n_cols:
                raise DimensionMismatch(utt_id, f"{len(col_phones)} col phones declared {n_cols}", lineno + 2)
            if not inventory._has_all(row_phones + col_phones):
                for axis_lineno, phones in ((lineno + 1, row_phones), (lineno + 2, col_phones)):
                    try:
                        inventory.require(phones, f"attention map {utt_id!r}")
                    except (ReservedSymbol, ValueError) as err:  # a symbol that breaks the rule names its line
                        raise _on_line(err, axis_lineno) from None

            rows = lines[3:]
            weights = _checked_weights(rows, n_cols) if len(row_phones) == n_rows else None
            if weights is not None:
                yield _adopt(AttentionMap, utt_id, tuple(col_phones), tuple(row_phones), weights)
            else:  # line by line, and the map's own checks, for the first error
                weights = tuple([_decimals(row, lineno + 3 + r, "weight row") for r, row in enumerate(rows)])
                yield AttentionMap(utt_id, tuple(col_phones), tuple(row_phones), weights)
    except (PronvarError, ValueError) as err:
        raise _on_line(err, lineno) from None


def _checked_weights(rows: list[str], n_cols: int) -> tuple[tuple[float, ...], ...] | None:
    """The weights of the weight lines ``rows`` if they meet :class:`AttentionMap`'s rules,
    else ``None``. Each rule is one test for all rows: the lines pass the character rule
    joined, every row holds ``n_cols`` weights, no weight is negative (where no ``-`` is
    written, none can be) and their sum is finite. Finite weights may overflow the sum; such
    a record is left to the map's own row-by-row walk."""
    block = "\n".join(rows)
    if not _float_chars(block):
        return None
    try:
        weights = tuple([tuple(map(float, row.split())) for row in rows])
    except ValueError:
        return None
    if set(map(len, weights)) != {n_cols} or ("-" in block and min(map(min, weights)) < 0):
        return None
    return weights if math.isfinite(sum(map(sum, weights))) else None


def emit_attention_file(maps: Iterable[AttentionMap]) -> str:
    blocks = []
    for amap in maps:
        lines = [f"{amap.utterance_id} {len(amap.row_phones)} {len(amap.col_phones)}"]
        lines.append(" ".join(amap.row_phones))
        lines.append(" ".join(amap.col_phones))
        for row in amap.weights:
            lines.append(" ".join(map(repr, row)))
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def place_boundaries(amap: AttentionMap, ref_seg: SegmentedUtterance) -> Segmentation:
    """Cut after the peak-attention column of each word's final phone.

    Ties take the earliest column; the resulting cuts are repaired to be
    strictly increasing and clamped to the sequence end.
    """
    if amap.row_phones != ref_seg.phones:
        raise RowMismatch(
            amap.utterance_id,
            f"{len(amap.row_phones)} rows vs {len(ref_seg.phones)} reference phones"
            if len(amap.row_phones) != len(ref_seg.phones)
            else "row phones disagree with the reference phones",
        )
    length = len(amap.col_phones)
    finals = [amap.weights[end - 1] for end in ref_seg.ends[:-1]]
    cuts, moved = _repair([weights.index(max(weights)) + 1 for weights in finals], length)
    return Segmentation(cuts, length, repaired=moved)


def _offset_order(radius: int) -> list[int]:
    # zero first, then outward: the per-boundary tie-break prefers small shifts
    order = [0]
    for d in range(1, radius + 1):
        order.extend((-d, d))
    return order


def _global_shifts(cuts: Sequence[int], length: int, radius: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield ``(cuts, repaired)`` for each shift -n..n of all cuts together, repaired. A repeat keeps
    its first occurrence and repair count. A radius past the column count ``length`` acts as that
    count, since a longer shift clamps to the cuts of a shorter one."""
    n = min(radius, length)
    seen: set[tuple[int, ...]] = set()
    for shift in range(-n, n + 1):
        shifted, moved = _repair([c + shift for c in cuts], length)
        if shifted not in seen:
            seen.add(shifted)
            yield shifted, moved


def split_by_attention(
    amap: AttentionMap, ref_seg: SegmentedUtterance, cfg: AttnConfig = AttnConfig()
) -> list[Segmentation]:
    """Enumerate the global shifts of the attention-derived cuts.

    Every cut moves together through shifts -n..n, giving at most 2n+1
    candidates, those of :func:`_global_shifts` as records. ``cfg.mode``
    is not read: per-boundary search enumerates nothing and is done by
    :func:`align_word_boundaries`.
    """
    base = place_boundaries(amap, ref_seg)
    shifts = _global_shifts(base.cuts, base.length, cfg.shift_radius)
    return [Segmentation(cuts, base.length, repaired=moved) for cuts, moved in shifts]


@dataclass(frozen=True)
class BoundaryOutcome:
    """Result of the search: the winning segmentation and its word spans.

    ``accepted`` is False when the best candidate's normalized distance
    exceeded the threshold; the fields still describe that best
    candidate.
    """

    utterance_id: str
    accepted: bool
    segmentation: Segmentation
    variants: tuple[tuple[str, tuple[str, ...]], ...]
    total_distance: float
    normalized_distance: float


#: Scores word ``j`` over columns ``start:end`` of the hypothesis.
SpanScore = Callable[[int, int, int], float]


def _span_scorer(cols: Sequence[str], ref_variants: Sequence[Sequence[Sequence[str]]]) -> SpanScore:
    """Score (word, start, end) as the unit-cost edit distance of ``cols[start:end]``
    to the word's nearest pronunciation, as a float.

    The first score asked of a (word, start) runs each pronunciation as the
    rows of :func:`pronvar.dpalign._bit_rows` over ``cols[start:]`` and keeps
    the last row, which the call returns. Cell i of that row is the distance
    of the span that ends i columns after ``start``, the same value as
    :func:`edit_distance`, so every end of one start comes from the same
    row, two ``bit_count`` calls per pronunciation.
    """
    masks = _column_masks(cols)
    last_rows: dict[tuple[int, int], list[tuple[float, int, int]]] = {}

    def score(word: int, start: int, end: int) -> float:
        key = (word, start)
        rows = last_rows.get(key)
        if rows is None:
            width = len(cols) - start
            rows = last_rows[key] = []
            for pron in ref_variants[word]:
                plus, minus, _ = _bit_rows(pron, masks, width, start)
                rows.append((float(len(pron)), plus, minus))
        low = (1 << (end - start)) - 1
        best = math.inf
        for length, plus, minus in rows:  # a loop, not min(): most words have one pronunciation
            distance = length + (plus & low).bit_count() - (minus & low).bit_count()
            if distance < best:
                best = distance
        return best

    return score


def _best_global_shift(
    base: Segmentation, radius: int, ranges: Sequence[tuple[int, int]], score: SpanScore
) -> tuple[Segmentation, float]:
    """Best global shift of ``base`` within ``radius``: least total, then fewest repairs, then first.

    A branch-and-bound over the ``(cuts, repaired)`` tuples of :func:`_global_shifts`, the
    candidates of :func:`split_by_attention`; ``order`` is a tuple's place among them, and only
    the winner becomes a :class:`Segmentation`. Unit-cost edit distance is at least the length
    difference, so a span of ``n`` columns scores at least its floor: its distance from its
    word's ``ranges[word]``, the lengths ``(lo, hi)`` of the shortest and longest pronunciation.
    Candidates are visited by ascending floor sum, ties in generation order. The search stops at
    the first floor sum strictly greater than the best total, and a candidate is dropped part-way
    once its partial sum plus the floors of its unscored words is strictly greater. A candidate
    that equals the best is scored in full, so the winner and its exact total are those of
    scoring every candidate.
    """
    length = base.length
    visits = []
    for order, (cuts, repaired) in enumerate(_global_shifts(base.cuts, length, radius)):
        spans = list(pairwise((0, *cuts, length)))
        # each span's distance from its word's range, by conditionals as in _repair: faster than max()
        span_floors = [
            lo - n if (n := b - a) < lo else n - hi if n > hi else 0 for (lo, hi), (a, b) in zip(ranges, spans)
        ]
        visits.append((sum(span_floors), order, cuts, repaired, spans, span_floors))
    visits.sort(key=itemgetter(0))

    best: tuple[int, ...] = ()
    best_key: tuple[float, int, int] = (math.inf, 0, 0)
    for unscored, order, cuts, repaired, spans, span_floors in visits:
        if unscored > best_key[0]:
            break
        total = 0
        for word, ((a, b), floor) in enumerate(zip(spans, span_floors)):
            unscored -= floor
            total += score(word, a, b)
            if total + unscored > best_key[0]:
                break
        else:
            key = (total, repaired, order)
            if key < best_key:
                best, best_key = cuts, key
    return Segmentation(best, length, repaired=best_key[1]), best_key[0]


def _best_per_boundary(
    base: Segmentation, radius: int, ranges: Sequence[tuple[int, int]], score: SpanScore
) -> tuple[Segmentation, float]:
    """Exact best independent per-cut shift of ``base``, by a bounded best-first search.

    Over every tuple of offsets from :func:`_offset_order`, one per cut,
    applied left to right with the :func:`_repair` clamp, the winner has
    the least total distance, then the fewest clamped cuts, then the
    earliest position in zero-first lexicographic order. Offsets past the
    column count clamp to the cut of a shorter offset, which comes first
    and repairs no more, so the radius is capped there.

    A state is (cut i, previous clamped cut). A step from it places cut i,
    or, after the last cut, ends the last word at the sequence end. ``h`` of
    a state whose last cut is at ``prev`` is the distance of the ``rest =
    length - prev`` columns still to split from ``[lo, hi]``, the sums of
    ``ranges`` (each word's shortest and longest pronunciation length) over
    the words still to place: ``max(lo - rest, rest - hi, 0)``. It scores
    nothing and never exceeds the distance still to come, since a span
    scores at least its length's distance from its word's range, and the
    distance of a sum from a summed range is at most the sum of the
    distances. The heap orders entries by (estimate, clamps so far, ranks),
    where the estimate is the exact prefix distance ``g`` plus ``h`` and the
    ranks are the offsets' positions in :func:`_offset_order`: the winner's
    order, with ``g + h`` for the total. A step is scored when it is
    pushed, unless the state it reaches is settled by then. From each state,
    each cut is pushed once, with the best (clamp, rank) of the offsets that
    land on it: no clamp, then the lowest rank.

    Why the first completion popped is the winner. ``h`` is consistent: by
    the same sum rule, ``h`` is at most a step's score plus ``h`` of the
    state it reaches. So along a path the estimate and the clamps never
    fall, and a prefix's ranks sort before any longer tuple they begin: an
    entry sorts no later than its path's entries further on. A best path to
    a state runs through best paths to the states before it, so until the
    state is settled that path has an entry in the heap, and the entry
    sorts before the state's entry from any path with a worse (``g``,
    clamps, ranks). The first pop of each state thus carries its best
    prefix, and a completion's key is the winner's order itself.

    The loop writes the clamp of :func:`_repair` and ``h`` out as
    conditionals, since a pop walks all 2n+1 offsets. The steps stay in
    offset order and each is scored when pushed, so ``score`` is asked for
    the same spans, in the same order, as by the loop that called them
    (``tests/old_attention.py``).
    """
    length = base.length
    n = min(radius, length)
    targets = base.cuts
    k = len(targets)

    # lo[i], hi[i]: the summed shortest and longest pronunciation lengths of words i..k
    lo, hi = [0] * (k + 2), [0] * (k + 2)
    for i in reversed(range(k + 1)):
        lo[i], hi[i] = lo[i + 1] + ranges[i][0], hi[i + 1] + ranges[i][1]

    offsets = _offset_order(n)
    settled: list[set[int]] = [set() for _ in range(k + 2)]
    # (g + h, clamps, ranks, prev, g): state (len(ranks), prev) at prefix distance g;
    # the first entry is popped alone, so its estimate is never compared
    heap = [(0, 0, (), 0, 0)]
    while True:
        _, clamps, ranks, prev, g = heappop(heap)
        i = len(ranks)
        if i > k:
            break
        if prev in settled[i]:
            continue
        settled[i].add(prev)
        if i == k:  # the last word's span runs to the end
            steps = {length: (False, 0)}
        else:
            steps = {}
            target = targets[i]
            for rank, offset in enumerate(offsets):
                wanted = target + offset
                # _repair's clamp, written out: a call per offset costs more than the clamp itself
                cut = wanted if wanted > prev else prev + 1
                cut = cut if cut < length else length
                if cut == wanted or cut not in steps:
                    steps[cut] = (cut != wanted, rank)
        done, lo_next, hi_next = settled[i + 1], lo[i + 1], hi[i + 1]
        for cut, (clamped, rank) in steps.items():
            if cut in done:
                continue
            step = g + score(i, prev, cut)
            rest = length - cut
            # h = max(lo_next - rest, rest - hi_next, 0), by conditionals as in _repair
            h = lo_next - rest if rest < lo_next else rest - hi_next if rest > hi_next else 0
            heappush(heap, (step + h, clamps + clamped, (*ranks, rank), cut, step))

    # replay the winner's offsets; zip leaves out the rank of the step to the end
    cuts, repaired = _repair([t + offsets[r] for t, r in zip(targets, ranks)], length)
    return Segmentation(cuts, length, repaired=repaired), g


def align_word_boundaries(
    amap: AttentionMap,
    ref_seg: SegmentedUtterance,
    cfg: AttnConfig = AttnConfig(),
    dictionary: ReferenceDictionary | None = None,
) -> BoundaryOutcome:
    """Pick the segmentation closest to the reference pronunciations.

    A segmentation scores the sum over words of the edit distance between
    the word's hypothesis span and its reference pronunciation (minimum
    over dictionary variants when the word is listed), scored by
    :func:`_span_scorer`. Both searches move the cuts of one
    :func:`place_boundaries` call.

    * ``global_shift`` tries the :func:`split_by_attention` candidates;
      ties prefer fewer repaired cuts, then generation order.
    * ``per_boundary`` searches every tuple of independent per-cut
      offsets exactly. The order is total distance, then cuts repaired
      by the tuple, then the tuple's position in zero-first
      lexicographic order (offsets 0, -1, +1, -2, +2, ...); a
      segmentation that several tuples reach ranks by its best tuple.

    The utterance is accepted when total distance divided by the
    reference phone count is within ``cfg.threshold``.
    """
    cols = amap.col_phones
    entries = dictionary._entries if dictionary is not None else {}
    ref_variants = [entries.get(span.word, (span.phones,)) for span in ref_seg.words]
    # each word's range: its shortest and longest pronunciation length, one len for a single one
    ranges = [((n := len(p[0])), n) if len(p) == 1 else (min(map(len, p)), max(map(len, p))) for p in ref_variants]

    score = _span_scorer(cols, ref_variants)
    search = _best_global_shift if cfg.mode == GLOBAL_SHIFT else _best_per_boundary
    best, total = search(place_boundaries(amap, ref_seg), cfg.shift_radius, ranges, score)

    normalized = total / len(ref_seg.phones)
    variants = tuple((span.word, hyp) for span, hyp in zip(ref_seg.words, best.spans(cols)))
    return BoundaryOutcome(
        utterance_id=amap.utterance_id,
        accepted=normalized <= cfg.threshold,
        segmentation=best,
        variants=variants,
        total_distance=total,
        normalized_distance=normalized,
    )


@dataclass(frozen=True)
class AttnExtraction:
    """Accepted variant pairs plus per-utterance rejects and segmentations."""

    pairs: tuple[tuple[str, tuple[str, ...]], ...]
    rejects: tuple[tuple[str, float], ...]
    segmentations: tuple[tuple[str, Segmentation], ...]
    empty_spans: int


def extract_variants_attn(
    maps: Iterable[AttentionMap],
    refs: Iterable[SegmentedUtterance],
    dictionary: ReferenceDictionary | None = None,
    cfg: AttnConfig = AttnConfig(),
) -> AttnExtraction:
    """Run the boundary search over a corpus, keeping accepted utterances only.

    ``maps`` is read one map per utterance searched (:func:`pronvar.dpalign.pair_by_id`),
    so a generator of maps is never held whole.
    """
    pairs: list[tuple[str, tuple[str, ...]]] = []
    rejects: list[tuple[str, float]] = []
    segmentations: list[tuple[str, Segmentation]] = []
    empty = 0
    for amap, ref_seg in pair_by_id(maps, refs):
        outcome = align_word_boundaries(amap, ref_seg, cfg, dictionary)
        if not outcome.accepted:
            rejects.append((outcome.utterance_id, outcome.normalized_distance))
            continue
        segmentations.append((outcome.utterance_id, outcome.segmentation))
        empty += _harvest(outcome.variants, pairs)
    return AttnExtraction(tuple(pairs), tuple(rejects), tuple(segmentations), empty)
