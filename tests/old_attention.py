"""Attention code as it was before two changes, kept as the oracle.

* The map builders, writer and peak reader from when each weight went
  through its own Python step.
* The global search from when it worked out each word's pronunciation-length
  range itself and kept a words x columns table of span floors
  (``_span_floors`` and ``_best_global_shift``).
* The per-boundary search from when its loop called ``_clamp`` for each
  offset and ``max`` for each step's estimate (``_best_per_boundary``).
* The global shifts from when each was a ``Segmentation`` record, and the
  repair from when it called ``_clamp`` for each cut (``split_by_attention``,
  ``_repair`` and ``_clamp``). The old searches and peak reader call these.

Verbatim. The maps are built by the old record check, ``old_parsers.AttentionMap``;
the rest is the package's own.
"""

import math
import random
from collections.abc import Iterable, Sequence
from heapq import heappop, heappush
from itertools import pairwise
from operator import itemgetter

from old_parsers import AttentionMap
from pronvar.attnalign import AttnConfig, Segmentation, SpanScore, _offset_order
from pronvar.errors import RowMismatch
from pronvar.phonecore import SegmentedUtterance


# --- from pronvar/synthbench.py -------------------------------------------------


def identity_attention(
    utterance_id: str, col_phones: Sequence[str], row_phones: Sequence[str]
) -> AttentionMap:
    """Diagonal-1 map; for unequal axes the diagonal runs along the shorter one."""
    n_rows, n_cols = len(row_phones), len(col_phones)
    weights = tuple(
        tuple(1.0 if r == c else 0.0 for c in range(n_cols)) for r in range(n_rows)
    )
    return AttentionMap(utterance_id, tuple(col_phones), tuple(row_phones), weights)


def jittered_attention(
    utterance_id: str,
    col_phones: Sequence[str],
    row_phones: Sequence[str],
    radius: int,
    seed: int,
) -> AttentionMap:
    """Identity map with each row's peak displaced by a seeded offset in [-radius, radius]."""
    rng = random.Random(seed)
    n_rows, n_cols = len(row_phones), len(col_phones)
    rows = []
    for r in range(n_rows):
        peak = min(max(r + rng.randint(-radius, radius), 0), n_cols - 1)
        rows.append(tuple(1.0 if c == peak else 0.0 for c in range(n_cols)))
    return AttentionMap(utterance_id, tuple(col_phones), tuple(row_phones), tuple(rows))


# --- from pronvar/attnalign.py --------------------------------------------------


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


def _span_floors(ref_variants: Sequence[Sequence[Sequence[str]]], length: int) -> list[list[int]]:
    """``floors[word][n]``: the least score of an ``n``-column span of ``word``.

    That is ``max(lo - n, n - hi, 0)``, where ``lo`` and ``hi`` are the
    lengths of the word's shortest and longest pronunciations: unit-cost
    edit distance is at least the length difference. The global search
    bounds its work by these floors.
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
            for rank, wanted in enumerate(targets[i] + o for o in offsets):
                cut = _clamp(wanted, prev, length)
                if cut == wanted or cut not in steps:
                    steps[cut] = (cut != wanted, rank)
        done, lo_next, hi_next = settled[i + 1], lo[i + 1], hi[i + 1]
        for cut, (clamped, rank) in steps.items():
            if cut in done:
                continue
            step = g + score(i, prev, cut)
            rest = length - cut
            estimate = step + max(lo_next - rest, rest - hi_next, 0)
            heappush(heap, (estimate, clamps + clamped, (*ranks, rank), cut, step))

    # replay the winner's offsets; zip leaves out the rank of the step to the end
    cuts, repaired = _repair([t + offsets[r] for t, r in zip(targets, ranks)], length)
    return Segmentation(cuts, length, repaired=repaired), g
