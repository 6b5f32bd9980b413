"""The attention-map builders, writer and peak reader as they were when each
weight went through its own Python step, kept as the oracle.

Verbatim. The maps are built by the old record check, ``old_parsers.AttentionMap``;
the rest is the package's own.
"""

import random
from collections.abc import Iterable, Sequence

from old_parsers import AttentionMap
from pronvar.attnalign import Segmentation, _repair
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
