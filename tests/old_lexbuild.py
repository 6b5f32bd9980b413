"""lexbuild's ``prune``, ``LexiconStats`` and ``stats`` as they were before the
report derived its ratios from its counts and ``prune`` kept its survivors in one
dict, kept as the oracle.

Verbatim: ``LexiconStats`` takes ``mean_variants``, ``size_ratio`` and
``reduction_pct`` as fields, which ``stats`` works out, and ``prune`` keeps a
list of survivors beside a set of their pronunciations. ``shared_entries`` is
the package's own, which that change left as it was.
"""

from dataclasses import dataclass

from pronvar.lexbuild import shared_entries
from pronvar.phonecore import Lexicon, ReferenceDictionary


def prune(
    lex: Lexicon,
    min_count: int = 0,
    max_variants: int | None = None,
    canonical: ReferenceDictionary | None = None,
) -> Lexicon:
    """Drop rare variants, then cap each word's variant list.

    Variants below ``min_count`` go first; the survivors are ranked by
    count descending then pronunciation ascending and cut at
    ``max_variants``. A pronunciation listed for the word in
    ``canonical`` is never dropped, even by the cap.
    """
    if min_count < 0:
        raise ValueError("min_count must be >= 0")
    if max_variants is not None and max_variants < 1:
        raise ValueError("max_variants must be >= 1")
    entries: dict[str, dict[tuple[str, ...], int]] = {}
    for word in lex.words():
        variants = lex.variants(word)
        protected: frozenset[tuple[str, ...]] = frozenset()
        if canonical is not None and word in canonical:
            protected = frozenset(canonical.pronunciations(word))
        ranked = sorted(variants, key=lambda vc: (-vc[1], " ".join(vc[0])))
        keep = [vc for vc in ranked if vc[1] >= min_count]
        if max_variants is not None:
            keep = keep[:max_variants]
        kept_prons = {pron for pron, _ in keep}
        for pron, count in ranked:
            if pron in protected and pron not in kept_prons:
                keep.append((pron, count))
        if keep:
            entries[word] = dict(keep)
    return Lexicon(entries)



@dataclass(frozen=True)
class LexiconStats:
    """Size report, optionally relative to a baseline lexicon.

    ``size_ratio`` and ``reduction_pct`` are None when the baseline is
    empty (the ratio is undefined) or when no baseline was given.
    """

    words: int
    entries: int
    mean_variants: float
    max_variants: int
    baseline_entries: int | None = None
    shared: int | None = None
    size_ratio: float | None = None
    reduction_pct: float | None = None

    def _rows(self) -> list[tuple[str, str, str]]:
        """(tsv key, text label, value) for each reported figure, in order."""
        rows = [
            ("words", "words", str(self.words)),
            ("entries", "entries", str(self.entries)),
            ("mean_variants", "mean variants/word", f"{self.mean_variants:.4f}"),
            ("max_variants", "max variants/word", str(self.max_variants)),
        ]
        if self.baseline_entries is not None:
            ratio = "undefined" if self.size_ratio is None else f"{self.size_ratio:.4f}"
            reduction = "undefined" if self.reduction_pct is None else f"{self.reduction_pct:.2f}"
            rows += [
                ("baseline_entries", "baseline entries", str(self.baseline_entries)),
                ("shared_entries", "shared entries", str(self.shared)),
                ("size_ratio", "size ratio", ratio),
                ("reduction_pct", "reduction %", reduction),
            ]
        return rows

    def to_tsv(self) -> str:
        return "".join(f"{key}\t{value}\n" for key, _, value in self._rows())

    def to_text(self) -> str:
        rows = self._rows()
        width = max(len(label) for _, label, _ in rows)
        return "".join(f"{label:<{width}}  {value}\n" for _, label, value in rows)


def stats(lex: Lexicon, baseline: Lexicon | None = None) -> LexiconStats:
    """Summarize lexicon size; against a baseline, also the size reduction."""
    words = lex.word_count
    entries = lex.entry_count
    mean = entries / words if words else 0.0
    biggest = max((len(lex.variants(w)) for w in lex.words()), default=0)
    if baseline is None:
        return LexiconStats(words, entries, mean, biggest)
    base_entries = baseline.entry_count
    if base_entries == 0:
        ratio = reduction = None
    else:
        ratio = entries / base_entries
        reduction = 100.0 * (1.0 - ratio)
    return LexiconStats(
        words,
        entries,
        mean,
        biggest,
        baseline_entries=base_entries,
        shared=shared_entries(lex, baseline),
        size_ratio=ratio,
        reduction_pct=reduction,
    )
