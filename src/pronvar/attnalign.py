"""Attention-guided word boundary search over unsegmented phone sequences.

An attention map pairs the non-native phones (columns) with the
segmented native reference (rows). For every word but the last, the
column with the highest weight on the word's final row proposes a cut.
Those cuts then move within a radius n, and the segmentation closest to
the reference pronunciations by unit-cost :func:`pronvar.dpalign.edit_distance`
wins:

* ``global_shift`` moves all cuts together, 2n+1 candidates. They are
  visited by a lower bound from span and pronunciation lengths, and one
  is dropped as soon as it cannot beat the best so far (branch-and-bound);
* ``per_boundary`` moves each cut on its own and finds the best of all
  (2n+1)^k offset tuples exactly. A best-first search over the cut
  positions, bounded by the same floors and ordered as the tie-break
  orders the tuples, scores only the spans that can still reach the best
  total, and the first tuple it completes wins.

Spans are scored from one pass per (word, start, pronunciation) of the
bit-parallel unit-cost kernel :func:`pronvar.dpalign._bit_rows`, which
:func:`pronvar.dpalign.nw_align` also uses at unit costs. The pass runs the
pronunciation as rows over the columns from the start, in full, and cell i
of its last row is the distance of the span that ends i columns after the
start. So every end of one start comes from the same pass, at two
``bit_count`` calls, and the scores are those of
:func:`pronvar.dpalign.edit_distance`. An utterance whose best
segmentation is still too far from the reference is rejected.
"""

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import pairwise
from operator import add, itemgetter

from .errors import (
    DimensionMismatch,
    DuplicateUtteranceId,
    NegativeWeight,
    PronvarError,
    ReservedSymbol,
    RowMismatch,
)
# bench/spans.py counts edit_distance here, though this module no longer calls it
from .dpalign import _bit_rows, _column_masks, _harvest, edit_distance, pair_by_id
from .phonecore import (
    AnySymbol,
    PhoneInventory,
    ReferenceDictionary,
    SegmentedUtterance,
    _decimals,
    _natural,
    _on_line,
    _split_id_line,
)

GLOBAL_SHIFT = "global_shift"
PER_BOUNDARY = "per_boundary"


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
        if self.shift_radius < 0:
            raise ValueError("shift_radius must be >= 0")
        if self.mode not in (GLOBAL_SHIFT, PER_BOUNDARY):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")


@dataclass(frozen=True)
class AttentionMap:
    """Weights pairing native rows with non-native columns, all finite, >= 0."""

    utterance_id: str
    col_phones: tuple[str, ...]
    row_phones: tuple[str, ...]
    weights: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "col_phones", tuple(self.col_phones))
        object.__setattr__(self, "row_phones", tuple(self.row_phones))
        object.__setattr__(self, "weights", tuple(tuple(row) for row in self.weights))
        if not self.row_phones or not self.col_phones:
            raise DimensionMismatch(self.utterance_id, "empty axis")
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
                if not math.isfinite(w):
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
            if utt_id in seen:
                raise ValueError(f"repeated utterance id {utt_id!r}")
            seen.add(utt_id)
            out.append((utt_id, tuple(_natural(tok, "cut", 1) for tok in rest.split())))
    except (PronvarError, ValueError) as err:
        raise _on_line(err, lineno) from None
    return out


def _clamp(cut: int, prev: int, length: int) -> int:
    """Move a cut just past the previous one and no further than the end."""
    cut = cut if cut > prev else prev + 1  # conditionals: several times faster than min() and max()
    return cut if cut < length else length


def _repair(cuts: Sequence[int], length: int) -> tuple[tuple[int, ...], int]:
    """Force cuts strictly increasing and within range; count the moves."""
    out: list[int] = []
    moved = 0
    prev = 0
    for cut in cuts:
        fixed = _clamp(cut, prev, length)
        if fixed != cut:
            moved += 1
        out.append(fixed)
        prev = fixed
    return tuple(out), moved


def _records(text: str) -> Iterator[list[tuple[int, str]]]:
    """Yield each blank-line-separated record as its ``(line number, line)`` pairs.

    A whitespace-only line separates records, as an empty one does.
    """
    record: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        if raw.strip():
            record.append((lineno, raw))
        elif record:
            yield record
            record = []
    if record:
        yield record


def parse_attention_file(text: str, inventory: PhoneInventory | AnySymbol) -> list[AttentionMap]:
    """Parse blank-line-separated attention records.

    Each record is ``utt_id R C`` on the first line, R row phones on the
    second, C column phones on the third, then R lines of C weights. R and
    C are ASCII digits with a value of at least 1; a weight row is float
    fields (:func:`pronvar.phonecore._decimals`). :class:`AttentionMap`
    checks the weights against the axes. An error names the record's first
    line, unless it is met on a weight row that is not float fields, on a
    column-phone line of the wrong length, or on an axis line holding a
    symbol that breaks the phone-symbol rule (:class:`pronvar.phonecore.AnySymbol`).
    """
    return list(_attention_maps(text, inventory))


def _attention_maps(text: str, inventory: PhoneInventory | AnySymbol) -> Iterator[AttentionMap]:
    """Yield the checked maps of :func:`parse_attention_file` one record at a time."""
    seen: set[str] = set()
    try:
        for record in _records(text):
            lineno, header = record[0]
            fields = header.split()
            if len(fields) != 3:
                raise ValueError(f"expected 'utt_id R C', got {header!r}")
            utt_id = fields[0]
            n_rows, n_cols = (_natural(token, "dimension", 1) for token in fields[1:])
            if utt_id in seen:
                raise DuplicateUtteranceId(utt_id)
            seen.add(utt_id)
            if len(record) != 3 + n_rows:
                raise DimensionMismatch(utt_id, f"expected {n_rows} weight rows, found {len(record) - 3}")

            row_phones = record[1][1].split()
            col_phones = record[2][1].split()
            if len(col_phones) != n_cols:
                raise DimensionMismatch(utt_id, f"{len(col_phones)} col phones declared {n_cols}", record[2][0])
            for (axis_lineno, _), phones in zip(record[1:3], (row_phones, col_phones)):
                try:
                    inventory.require(phones, f"attention map {utt_id!r}")
                except (ReservedSymbol, ValueError) as err:  # a symbol that breaks the rule names its line
                    raise _on_line(err, axis_lineno) from None

            weights = tuple(_decimals(wline, wlineno, "weight row") for wlineno, wline in record[3:])
            yield AttentionMap(utt_id, tuple(col_phones), tuple(row_phones), weights)
    except (PronvarError, ValueError) as err:
        raise _on_line(err, lineno) from None


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
    raw_cuts: list[int] = []
    row = -1
    for span in ref_seg.words[:-1]:
        row += len(span.phones)
        weights = amap.weights[row]
        raw_cuts.append(weights.index(max(weights)) + 1)
    cuts, moved = _repair(raw_cuts, length)
    return Segmentation(cuts, length, repaired=moved)


def _offset_order(radius: int) -> list[int]:
    # zero first, then outward: the per-boundary tie-break prefers small shifts
    order = [0]
    for d in range(1, radius + 1):
        order.extend((-d, d))
    return order


def split_by_attention(
    amap: AttentionMap, ref_seg: SegmentedUtterance, cfg: AttnConfig = AttnConfig()
) -> list[Segmentation]:
    """Enumerate the global shifts of the attention-derived cuts.

    Every cut moves together through shifts -n..n, giving at most 2n+1
    candidates; duplicates after repair keep their first occurrence. A
    radius past the column count acts as that count, since a longer shift
    clamps to the cuts of a shorter one. ``cfg.mode`` is not read:
    per-boundary search enumerates nothing and is done by
    :func:`align_word_boundaries`.
    """
    base = place_boundaries(amap, ref_seg)
    length = base.length
    n = min(cfg.shift_radius, length)

    unique: dict[tuple[int, ...], Segmentation] = {}
    for shift in range(-n, n + 1):
        cuts, moved = _repair([c + shift for c in base.cuts], length)
        if cuts not in unique:
            unique[cuts] = Segmentation(cuts, length, repaired=moved)
    return list(unique.values())


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
    the last row. Cell i of that row is the distance of the span that ends
    i columns after ``start``, the same value as :func:`edit_distance`, so
    every end of one start comes from the same rows, two ``bit_count`` calls
    per pronunciation.
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
                for plus, minus, _ in _bit_rows(pron, masks, width, start):
                    pass
                rows.append((float(len(pron)), plus, minus))
        low = (1 << (end - start)) - 1
        best = math.inf
        for length, plus, minus in rows:  # a loop, not min(): most words have one pronunciation
            distance = length + (plus & low).bit_count() - (minus & low).bit_count()
            if distance < best:
                best = distance
        return best

    return score


def _span_floors(ref_variants: Sequence[Sequence[Sequence[str]]], length: int) -> list[list[int]]:
    """``floors[word][n]``: the least score of an ``n``-column span of ``word``.

    That is ``max(lo - n, n - hi, 0)``, where ``lo`` and ``hi`` are the
    lengths of the word's shortest and longest pronunciations: unit-cost
    edit distance is at least the length difference. Both searches bound
    their work by these floors.
    """
    floors = []
    for prons in ref_variants:
        lo, hi = min(map(len, prons)), max(map(len, prons))
        # lo - n below lo, 0 up to hi, n - hi above; entries past length are not read
        floors.append([*range(lo, 0, -1), *[0] * (hi - lo + 1), *range(1, length - hi + 1)])
    return floors


def _best_global_shift(
    amap: AttentionMap,
    ref_seg: SegmentedUtterance,
    cfg: AttnConfig,
    floors: Sequence[Sequence[int]],
    score: SpanScore,
) -> tuple[Segmentation, float]:
    """Best of the global shifts: least total, then fewest repairs, then first.

    A branch-and-bound over the :func:`split_by_attention` candidates. A
    span of ``len`` columns scores at least its floor ``floors[word][len]``
    (:func:`_span_floors`). Candidates are visited by ascending floor sum,
    ties in generation order. The search stops at the first floor sum strictly
    greater than the best total, and a candidate is dropped part-way once its
    partial sum plus the floors of its unscored words is strictly greater.
    A candidate that equals the best is scored in full, so the winner and its
    exact total are those of scoring every candidate.
    """
    visits = []
    for order, candidate in enumerate(split_by_attention(amap, ref_seg, cfg)):
        spans = list(pairwise((0, *candidate.cuts, candidate.length)))
        span_floors = [fl[b - a] for fl, (a, b) in zip(floors, spans)]
        visits.append((sum(span_floors), order, candidate, spans, span_floors))
    visits.sort(key=itemgetter(0))

    best = None
    best_key: tuple[float, int, int] = (math.inf, 0, 0)
    for unscored, order, candidate, spans, span_floors in visits:
        if unscored > best_key[0]:
            break
        total = 0
        for word, ((a, b), floor) in enumerate(zip(spans, span_floors)):
            unscored -= floor
            total += score(word, a, b)
            if total + unscored > best_key[0]:
                break
        else:
            key = (total, candidate.repaired, order)
            if key < best_key:
                best, best_key = candidate, key
    return best, best_key[0]


def _cuts_after(prev: int, target: int, n: int, length: int) -> range:
    """The positions that offsets -n..n of ``target`` clamp to after a cut at
    ``prev`` (:func:`_clamp`): one run, since clamping is monotone."""
    return range(_clamp(target - n, prev, length), _clamp(target + n, prev, length) + 1)


def _best_per_boundary(
    base: Segmentation, radius: int, floors: Sequence[Sequence[int]], score: SpanScore
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
    a state is the least sum of span floors (:func:`_span_floors`) from it
    to the end: it scores nothing and never exceeds the distance still to
    come. The heap orders entries by (estimate, clamps so far, ranks), where
    the estimate is the exact prefix distance ``g`` plus ``h`` and the ranks
    are the offsets' positions in :func:`_offset_order`: the winner's order,
    with ``g + h`` for the total. A step enters the heap with its span's
    floor in place of its score, and is scored when it comes off the heap,
    unless the state it reaches is settled by then. From each state, each
    cut is pushed once, with the best (clamp, rank) of the offsets that land
    on it: no clamp, then the lowest rank.

    Why the first completion popped is the winner. ``h`` is consistent: a
    floor is at most its score, and ``h`` is at most a step's floor plus
    ``h`` of the state it reaches. So along a path the estimate and the
    clamps never fall, and a prefix's ranks sort before any longer tuple
    they begin: an entry sorts no later than its path's entries further on.
    A best path to a state runs through best paths to the states before it,
    so until the state is settled that path has an entry in the heap, and
    the entry sorts before the state's entry from any path with a worse
    (``g``, clamps, ranks). The first pop of each state thus carries its
    best prefix, and a completion's key is the winner's order itself.
    """
    length = base.length
    n = min(radius, length)
    targets = base.cuts
    k = len(targets)

    # h[i][prev] over the positions cut i-1 can reach: one run per cut, as the
    # ends of a successor run move by at most one as prev does
    reach = [range(1)]
    for t in targets:
        first, last = _cuts_after(reach[-1][0], t, n, length), _cuts_after(reach[-1][-1], t, n, length)
        reach.append(range(first[0], last[-1] + 1))
    # the last span runs from prev to the end, after which nothing is left
    h: list[Sequence[int]] = [[]] * k + [floors[k][length::-1], [0] * (length + 1)]
    for i in reversed(range(k)):
        fl, later = floors[i], h[i + 1]
        row = [0] * (length + 1)
        for prev in reach[i]:
            cuts = _cuts_after(prev, targets[i], n, length)
            row[prev] = min(map(add, fl[cuts.start - prev : cuts.stop - prev], later[cuts.start : cuts.stop]))
        h[i] = row

    offsets = _offset_order(n)
    settled: list[set[int]] = [set() for _ in range(k + 2)]
    # (estimate, clamps, ranks, prev, g, source): state (len(ranks), prev) at
    # prefix distance g when source is -1, else the unscored step to it from
    # the state (len(ranks) - 1, source), with g that source's
    heap = [(h[0][0], 0, (), 0, 0, -1)]
    while True:
        _, clamps, ranks, prev, g, source = heappop(heap)
        i = len(ranks)
        if prev in settled[i]:
            continue
        if source >= 0:
            g += score(i - 1, source, prev)
            heappush(heap, (g + h[i][prev], clamps, ranks, prev, g, -1))
            continue
        if i > k:
            break
        settled[i].add(prev)
        if i == k:  # the last word's span runs to the end
            steps = {length: (False, 0)}
        else:
            steps = {}
            for rank, wanted in enumerate(targets[i] + o for o in offsets):
                cut = _clamp(wanted, prev, length)
                if cut == wanted or cut not in steps:
                    steps[cut] = (cut != wanted, rank)
        fl, later = floors[i], h[i + 1]
        for cut, (clamped, rank) in steps.items():
            heappush(heap, (g + fl[cut - prev] + later[cut], clamps + clamped, (*ranks, rank), cut, g, prev))

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
    :func:`_span_scorer`.

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
    ref_variants: list[tuple[tuple[str, ...], ...]] = []
    for span in ref_seg.words:
        if dictionary is not None and span.word in dictionary:
            ref_variants.append(dictionary.pronunciations(span.word))
        else:
            ref_variants.append((span.phones,))

    score = _span_scorer(cols, ref_variants)
    floors = _span_floors(ref_variants, len(cols))
    if cfg.mode == GLOBAL_SHIFT:
        best, total = _best_global_shift(amap, ref_seg, cfg, floors, score)
    else:
        best, total = _best_per_boundary(place_boundaries(amap, ref_seg), cfg.shift_radius, floors, score)

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
