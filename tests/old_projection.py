"""align-dp's boundary projection as it was before it cut the hypothesis in one
pass over the ops, kept as the oracle.

Verbatim: a per-phone word table, and a list of deleted phones that wait for
the next reference position.
"""

from pronvar.dpalign import DELETE, Alignment
from pronvar.errors import AlignmentReferenceMismatch
from pronvar.phonecore import SegmentedUtterance


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
