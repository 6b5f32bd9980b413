"""Attention-guided word boundary search over unsegmented phone sequences.

An attention map pairs the non-native phones (columns) with the
segmented native reference (rows). For every word but the last, the
column with the highest weight on the word's final row proposes a cut.
Those cuts then move within a radius n, and the segmentation closest to
the reference pronunciations by unit-cost :func:`pronvar.dpalign.edit_distance`
(the row kernel that global alignment also uses) wins:

* ``global_shift`` moves all cuts together, 2n+1 candidates;
* ``per_boundary`` moves each cut on its own and searches all (2n+1)^k
  offset tuples exactly, by dynamic programming over the cut positions.

Spans are scored from one lazy row pass per (word, start, pronunciation):
the pass's row i is the distance of the span that ends i columns after the
start, so every end of one start comes from the same pass, and no span is
scored twice in an utterance. An utterance whose best segmentation is
still too far from the reference is rejected.
"""

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import pairwise
from operator import itemgetter

from .errors import (
    DimensionMismatch,
    DuplicateUtteranceId,
    MalformedLine,
    NegativeWeight,
    RowMismatch,
)
from .dpalign import AlignConfig, _cost_rows, edit_distance, pair_by_id  # edit_distance stays importable here
from .phonecore import (
    PhoneInventory,
    ReferenceDictionary,
    SegmentedUtterance,
    _natural,
    _split_id_line,
    checked_symbols,
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
        for r, row in enumerate(self.weights):
            if len(row) != len(self.col_phones):
                raise DimensionMismatch(
                    self.utterance_id,
                    f"row {r} has {len(row)} weights for {len(self.col_phones)} columns",
                )
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
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        utt_id, rest = _split_id_line(raw, lineno)
        if utt_id in seen:
            raise MalformedLine(lineno, f"repeated utterance id {utt_id!r}")
        seen.add(utt_id)
        out.append((utt_id, tuple(_natural(tok, lineno, "cut", 1) for tok in rest.split())))
    return out


def _clamp(cut: int, prev: int, length: int) -> int:
    """Move a cut just past the previous one and no further than the end."""
    return min(max(cut, prev + 1), length)


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
    for lineno, raw in enumerate(text.splitlines(), 1):
        if raw.strip():
            record.append((lineno, raw))
        elif record:
            yield record
            record = []
    if record:
        yield record


def parse_attention_file(text: str, inventory: PhoneInventory) -> list[AttentionMap]:
    """Parse blank-line-separated attention records.

    Each record is ``utt_id R C`` on the first line, R row phones on the
    second, C column phones on the third, then R lines of C weights. R and
    C are ASCII digits with a value of at least 1.
    """
    maps: list[AttentionMap] = []
    seen: set[str] = set()
    for record in _records(text):
        lineno, header = record[0]
        fields = header.split()
        if len(fields) != 3:
            raise MalformedLine(lineno, f"expected 'utt_id R C', got {header!r}")
        utt_id = fields[0]
        n_rows, n_cols = (_natural(token, lineno, "dimension", 1) for token in fields[1:])
        if utt_id in seen:
            raise DuplicateUtteranceId(utt_id)
        seen.add(utt_id)
        if len(record) != 3 + n_rows:
            raise DimensionMismatch(
                utt_id, f"expected {n_rows} weight rows, found {len(record) - 3}", lineno
            )

        row_phones = record[1][1].split()
        col_phones = record[2][1].split()
        if len(row_phones) != n_rows:
            raise DimensionMismatch(utt_id, f"{len(row_phones)} row phones declared {n_rows}", record[1][0])
        if len(col_phones) != n_cols:
            raise DimensionMismatch(utt_id, f"{len(col_phones)} col phones declared {n_cols}", record[2][0])
        inventory.require((*row_phones, *col_phones), f"attention map {utt_id!r}")

        weights: list[tuple[float, ...]] = []
        for r, (wlineno, wline) in enumerate(record[3:]):
            tokens = wline.split()
            if len(tokens) != n_cols:
                raise DimensionMismatch(utt_id, f"row {r} has {len(tokens)} weights, declared {n_cols}", wlineno)
            row: list[float] = []
            for token in tokens:
                try:
                    value = float(token)
                except ValueError:
                    raise MalformedLine(wlineno, f"bad weight {token!r}") from None
                if not math.isfinite(value):
                    raise MalformedLine(wlineno, f"non-finite weight {token!r}")
                row.append(value)
            weights.append(tuple(row))
        maps.append(AttentionMap(utt_id, tuple(col_phones), tuple(row_phones), tuple(weights)))
    return maps


def emit_attention_file(maps: Iterable[AttentionMap]) -> str:
    blocks = []
    for amap in maps:
        lines = [f"{amap.utterance_id} {len(amap.row_phones)} {len(amap.col_phones)}"]
        lines.append(" ".join(amap.row_phones))
        lines.append(" ".join(amap.col_phones))
        for row in amap.weights:
            lines.append(" ".join(repr(w) for w in row))
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def scan_attention_tokens(text: str) -> list[str]:
    """Lenient phone-symbol scan of an attention file (axis lines only)."""
    axis_lines = ((lineno, raw.split()) for record in _records(text) for lineno, raw in record[1:3])
    return checked_symbols(axis_lines)


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
        best_col = max(range(length), key=weights.__getitem__)
        raw_cuts.append(best_col + 1)
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
    to the word's nearest pronunciation.

    Each (word, start) runs one lazy :func:`pronvar.dpalign._cost_rows` pass
    per pronunciation, with ``cols[start:]`` as the rows. Row i's last cell is
    the distance of the first i columns: one gap cost serves both
    directions, so this is the transpose of :func:`edit_distance`'s matrix and
    the same value. A pass advances only as far as the largest ``end`` asked
    of it, and each (word, start, end) is computed once.
    """
    unit = AlignConfig()
    passes: dict[tuple[int, int], tuple[list[float], Iterator[float]]] = {}

    def score(word: int, start: int, end: int) -> float:
        key = (word, start)
        if key not in passes:
            rows = (map(itemgetter(-1), _cost_rows(cols[start:], pron, unit)) for pron in ref_variants[word])
            passes[key] = ([], map(min, zip(*rows)))
        distances, more = passes[key]
        while len(distances) <= end - start:
            distances.append(next(more))
        return distances[end - start]

    return score


def _best_global_shift(
    amap: AttentionMap, ref_seg: SegmentedUtterance, cfg: AttnConfig, score: SpanScore
) -> tuple[Segmentation, float]:
    """Best of the global shifts: least total, then fewest repairs, then first."""
    best: Segmentation | None = None
    best_key: tuple[float, int, int] | None = None
    for order, candidate in enumerate(split_by_attention(amap, ref_seg, cfg)):
        bounds = (0, *candidate.cuts, candidate.length)
        total = sum(score(j, a, b) for j, (a, b) in enumerate(pairwise(bounds)))
        key = (total, candidate.repaired, order)
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    return best, best_key[0]


def _best_per_boundary(base: Segmentation, radius: int, score: SpanScore) -> tuple[Segmentation, float]:
    """Exact best independent per-cut shift of ``base``, by dynamic programming.

    Over every tuple of offsets from :func:`_offset_order`, one per cut,
    applied left to right with the :func:`_repair` clamp, the winner has
    the least total distance, then the fewest clamped cuts, then the
    earliest position in zero-first lexicographic order. Both sums are
    additive over cuts, so the best completion from (cut i, previous
    clamped cut) is independent of how that state was reached. Offsets
    past the column count clamp to the cut of a shorter offset, which
    comes first and repairs no more, so the radius is capped there.
    """
    length = base.length
    offsets = _offset_order(min(radius, length))
    k = len(base.cuts)
    reach = [{0}]
    for target in base.cuts:
        reach.append({_clamp(target + o, prev, length) for prev in reach[-1] for o in offsets})

    # best[i][prev]: (distance, clamps, cut i) of the best completion from
    # cut i on, with cut i-1 at prev; best[k] scores the last word alone.
    best: list[dict[int, tuple[float, int, int]]] = [{} for _ in range(k)]
    best.append({prev: (score(k, prev, length), 0, length) for prev in reach[k]})
    for i in reversed(range(k)):
        target = base.cuts[i]
        for prev in reach[i]:
            choice = None
            for o in offsets:
                cut = _clamp(target + o, prev, length)
                distance, clamps, _ = best[i + 1][cut]
                option = (score(i, prev, cut) + distance, clamps + (cut != target + o), cut)
                if choice is None or option[:2] < choice[:2]:
                    choice = option
            best[i][prev] = choice

    total, clamps, _ = best[0][0]
    cuts = []
    prev = 0
    for row in best[:k]:
        prev = row[prev][2]
        cuts.append(prev)
    return Segmentation(cuts, length, repaired=clamps), total


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
    if cfg.mode == GLOBAL_SHIFT:
        best, total = _best_global_shift(amap, ref_seg, cfg, score)
    else:
        best, total = _best_per_boundary(place_boundaries(amap, ref_seg), cfg.shift_radius, score)

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
    """Run the boundary search over a corpus, keeping accepted utterances only."""
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
        for word, span in outcome.variants:
            if span:
                pairs.append((word, span))
            else:
                empty += 1
    return AttnExtraction(tuple(pairs), tuple(rejects), tuple(segmentations), empty)
