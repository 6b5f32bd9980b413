"""Attention code as it was before two changes, kept as the oracle.

* The map builders, writer and peak reader from when each weight went
  through its own Python step.
* The global search from when it worked out each word's pronunciation-length
  range itself and kept a words x columns table of span floors
  (``_span_floors`` and ``_best_global_shift``).

Verbatim. The maps are built by the old record check, ``old_parsers.AttentionMap``;
the rest is the package's own.
"""

import math
import random
from collections.abc import Iterable, Sequence
from itertools import pairwise
from operator import itemgetter

from old_parsers import AttentionMap
from pronvar.attnalign import AttnConfig, Segmentation, SpanScore, _repair, split_by_attention
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
