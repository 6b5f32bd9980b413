"""Synthetic mispronunciation corpora, an exhaustive alignment oracle,
and recovery metrics.

The generator corrupts dictionary pronunciations with seeded confusion
rules, strips the word boundaries, and fabricates attention maps so the
whole pipeline can be exercised end to end against known ground truth.
"""

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate

# the bounds I/O stays importable here: bench/ reads it as synthbench.*
from .attnalign import AttentionMap, Segmentation, emit_bounds_file, parse_bounds_file
from .dpalign import AlignConfig
from .errors import BadRule, MissingUtterance, PronvarError, SizeBound
from .phonecore import (
    ANY_SYMBOL,
    AnySymbol,
    Lexicon,
    PhoneInventory,
    PhoneSequence,
    ReferenceDictionary,
    SegmentedUtterance,
    WordSpan,
    _check_real,
    _decimals,
    _on_line,
    derive_inventory,
)
from . import lexbuild

#: Largest len(a) + len(b) the exhaustive oracle will accept.
ORACLE_SIZE_LIMIT = 14


@dataclass(frozen=True)
class ConfusionRule:
    """Rewrite ``source`` to ``target`` with the given probability."""

    source: str
    target: str
    probability: float

    def __post_init__(self):
        if self.source == self.target:
            raise BadRule(f"rule maps {self.source!r} to itself")
        _check_real(self.probability, "probability")
        if not 0.0 <= self.probability <= 1.0:
            raise BadRule(f"probability {self.probability} out of [0, 1]")


#: Substitutions common in L2 English via L1 transfer: devoiced Z,
#: V hardened to B, TH fronted to S or stopped to T.
DEFAULT_RULES = (
    ConfusionRule("Z", "S", 0.5),
    ConfusionRule("V", "B", 0.5),
    ConfusionRule("TH", "S", 0.5),
    ConfusionRule("TH", "T", 0.5),
)


def parse_rules_file(text: str, inventory: PhoneInventory | AnySymbol = ANY_SYMBOL) -> tuple[ConfusionRule, ...]:
    """Parse ``SRC<TAB>DST<TAB>p`` lines into confusion rules; ``p`` is one float field.

    With no ``inventory``, both phones must still follow the phone-symbol rule.
    """
    rules = []
    try:
        for lineno, raw in enumerate(text.split("\n"), 1):
            if not raw.strip() or raw.startswith("#"):
                continue
            fields = raw.split("\t")
            if len(fields) != 3:
                raise ValueError(f"expected SRC<TAB>DST<TAB>p, got {raw!r}")
            source, target = fields[0].strip(), fields[1].strip()
            probabilities = _decimals(fields[2], None, "probability")
            if len(probabilities) != 1:
                raise ValueError(f"bad probability {fields[2]!r}")
            inventory.require((source, target), "rule")
            rules.append(ConfusionRule(source, target, probabilities[0]))
    except (PronvarError, ValueError) as err:
        raise _on_line(err, lineno) from None
    return tuple(rules)


@dataclass(frozen=True)
class CorruptionResult:
    """A corrupted utterance with its ground truth intact."""

    sequence: PhoneSequence
    truth: Segmentation


def corrupt(
    seg: SegmentedUtterance,
    rules: Sequence[ConfusionRule],
    seed: int,
    indel_probability: float = 0.0,
) -> CorruptionResult:
    """Rewrite phones by the confusion rules and strip word boundaries.

    Rules are tried in order per phone; the first one whose draw fires
    wins. With ``indel_probability`` > 0 phones may also be dropped or
    have a random inventory phone inserted after them; a word is never
    reduced to zero phones, so the ground-truth cuts stay valid. Insertions
    need a :class:`PhoneInventory` to draw from: on any other, ``ValueError``.
    """
    if not 0.0 <= indel_probability < 1.0:
        raise ValueError("indel_probability must be in [0, 1)")
    for rule in rules:
        seg.inventory.require((rule.source, rule.target), "confusion rule")
    if indel_probability > 0.0 and not isinstance(seg.inventory, PhoneInventory):
        raise ValueError("insertions need a PhoneInventory to draw phones from")
    rng = random.Random(seed)
    all_phones = seg.inventory.phones if indel_probability > 0.0 else ()
    out_spans: list[list[str]] = []
    for span in seg.words:
        out: list[str] = []
        for pi, phone in enumerate(span.phones):
            emitted = phone
            for rule in rules:
                if rule.source == phone and rng.random() < rule.probability:
                    emitted = rule.target
                    break
            keep = True
            insert_after = None
            if indel_probability > 0.0:
                draw = rng.random()
                # a delete is suppressed on the word's last phone if it
                # would leave the word empty
                if draw < indel_probability / 2:
                    if out or pi < len(span.phones) - 1:
                        keep = False
                elif draw < indel_probability:
                    insert_after = all_phones[rng.randrange(len(all_phones))]
            if keep:
                out.append(emitted)
            if insert_after is not None:
                out.append(insert_after)
        out_spans.append(out)

    flat = [p for span in out_spans for p in span]
    cuts = accumulate(len(span) for span in out_spans[:-1])
    sequence = PhoneSequence(seg.utterance_id, tuple(flat), seg.inventory)
    return CorruptionResult(sequence, Segmentation(tuple(cuts), len(flat)))


def oracle_align(a: Sequence[str], b: Sequence[str], cfg: AlignConfig = AlignConfig()) -> float:
    """Minimum global alignment cost by exhaustive recursion.

    Deliberately reuses nothing from the production aligner and no
    memoization, so it can stand as an independent check. Rejects pairs
    with more than :data:`ORACLE_SIZE_LIMIT` phones combined.
    """
    if len(a) + len(b) > ORACLE_SIZE_LIMIT:
        raise SizeBound(ORACLE_SIZE_LIMIT, len(a) + len(b))
    match, mismatch, gap = cfg.match_score, cfg.mismatch_score, cfg.gap_penalty
    n, m = len(a), len(b)

    def walk(i: int, j: int) -> float:
        if i == n:
            return (m - j) * gap
        if j == m:
            return (n - i) * gap
        best = (match if a[i] == b[j] else mismatch) + walk(i + 1, j + 1)
        skip_a = gap + walk(i + 1, j)
        if skip_a < best:
            best = skip_a
        skip_b = gap + walk(i, j + 1)
        if skip_b < best:
            best = skip_b
        return best

    return walk(0, 0)


def boundary_f1(pred: Segmentation, truth: Segmentation) -> tuple[float, float, float]:
    """Exact-match precision/recall/F1 over cut positions.

    Two empty segmentations count as a perfect score.
    """
    return pooled_boundary_f1([("", pred.cuts)], [("", truth.cuts)])


def pooled_boundary_f1(
    pred: Iterable[tuple[str, Sequence[int]]], truth: Iterable[tuple[str, Sequence[int]]]
) -> tuple[float, float, float]:
    """:func:`boundary_f1` with counts pooled over ``(utt_id, cuts)`` predictions.

    Each predicted id must be in ``truth``; other true utterances are not counted.
    """
    truth_map = dict(truth)
    correct = n_pred = n_truth = 0
    for utt_id, cuts in pred:
        if utt_id not in truth_map:
            raise MissingUtterance(utt_id)
        cuts, truth_cuts = set(cuts), set(truth_map[utt_id])
        correct += len(cuts & truth_cuts)
        n_pred += len(cuts)
        n_truth += len(truth_cuts)
    precision = correct / n_pred if n_pred else 1.0
    recall = correct / n_truth if n_truth else 1.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def recovery_report(
    built: Lexicon,
    truth_variants: Lexicon,
    canonical: ReferenceDictionary | None = None,
) -> tuple[float, float]:
    """(precision, recall) of the built lexicon against injected variants.

    Recall is the fraction of ground-truth variants present in the built
    lexicon. Precision is the fraction of built non-canonical variants
    that are ground truth; without a canonical dictionary every built
    entry counts as a candidate. Empty denominators score 1.0.
    """
    truth_pairs = {(word, pron) for word, pron, _ in truth_variants.pairs()}
    built_pairs = {(word, pron) for word, pron, _ in built.pairs()}
    if canonical is not None:
        built_pairs = {
            (word, pron)
            for word, pron in built_pairs
            if not (word in canonical and pron in canonical.pronunciations(word))
        }
    hits = built_pairs & truth_pairs
    precision = len(hits) / len(built_pairs) if built_pairs else 1.0
    recall = len(hits) / len(truth_pairs) if truth_pairs else 1.0
    return precision, recall


def _peak_map(utterance_id: str, col_phones: Sequence[str], row_phones: Sequence[str], peaks: Iterable[int]):
    """Map whose row r is 1.0 at the r-th peak's column and 0.0 elsewhere, or 0.0 only for a peak off the columns."""
    n_cols = len(col_phones)
    rows = []
    for peak in peaks:
        row = [0.0] * n_cols
        if 0 <= peak < n_cols:
            row[peak] = 1.0
        rows.append(row)
    return AttentionMap(utterance_id, col_phones, row_phones, rows)


def identity_attention(
    utterance_id: str, col_phones: Sequence[str], row_phones: Sequence[str]
) -> AttentionMap:
    """Diagonal-1 map; for unequal axes the diagonal runs along the shorter one."""
    return _peak_map(utterance_id, col_phones, row_phones, range(len(row_phones)))


def jittered_attention(
    utterance_id: str,
    col_phones: Sequence[str],
    row_phones: Sequence[str],
    radius: int,
    seed: int,
) -> AttentionMap:
    """Identity map with each row's peak displaced by a seeded offset in [-radius, radius]."""
    rng = random.Random(seed)
    last = len(col_phones) - 1
    peaks = [min(max(r + rng.randint(-radius, radius), 0), last) for r in range(len(row_phones))]
    return _peak_map(utterance_id, col_phones, row_phones, peaks)


@dataclass(frozen=True)
class SynthCorpus:
    """Everything a pipeline run needs, plus the ground truth to score it."""

    inventory: PhoneInventory
    references: tuple[SegmentedUtterance, ...]
    hypotheses: tuple[PhoneSequence, ...]
    maps: tuple[AttentionMap, ...]
    truth_lexicon: Lexicon
    truth_bounds: tuple[tuple[str, Segmentation], ...]


def build_corpus(
    dictionary: ReferenceDictionary,
    rules: Sequence[ConfusionRule],
    vocabulary: int,
    utterances: int,
    seed: int,
    attention: str = "identity",
    jitter_radius: int = 0,
    indel_probability: float = 0.0,
    words_per_utterance: tuple[int, int] = (2, 6),
) -> SynthCorpus:
    """Generate a seeded corpus of corrupted utterances.

    ``vocabulary`` words are sampled from the dictionary (all of them if
    it is smaller); each utterance draws a random word count in
    ``words_per_utterance``. Corruption seeds derive from the corpus
    seed XOR the utterance index, so generation could be parallelized
    per utterance without changing the output.
    """
    if attention not in ("identity", "jitter"):
        raise ValueError(f"unknown attention kind {attention!r}")
    if vocabulary < 1 or utterances < 1:
        raise ValueError("vocabulary and utterances must be >= 1")
    if jitter_radius < 0:
        raise ValueError("jitter_radius must be >= 0")
    rng = random.Random(seed)
    all_words = list(dictionary.words())
    vocab = all_words if vocabulary >= len(all_words) else rng.sample(all_words, vocabulary)

    inventory = derive_inventory(
        (p for word in dictionary.words() for pron in dictionary.pronunciations(word) for p in pron),
        (p for rule in rules for p in (rule.source, rule.target)),
    )
    references: list[SegmentedUtterance] = []
    hypotheses: list[PhoneSequence] = []
    maps: list[AttentionMap] = []
    bounds: list[tuple[str, Segmentation]] = []
    injected: list[tuple[str, tuple[str, ...]]] = []

    low, high = words_per_utterance
    for index in range(utterances):
        utt_id = f"synth{index:05d}"
        words = [vocab[rng.randrange(len(vocab))] for _ in range(rng.randint(low, high))]
        spans = tuple(WordSpan(w, dictionary.canonical(w)) for w in words)
        ref = SegmentedUtterance(utt_id, spans, inventory)
        result = corrupt(ref, rules, seed ^ index, indel_probability)
        references.append(ref)
        hypotheses.append(result.sequence)
        bounds.append((utt_id, result.truth))

        realized = result.truth.spans(result.sequence.phones)
        for span, hyp_span in zip(spans, realized):
            if hyp_span and hyp_span not in dictionary.pronunciations(span.word):
                injected.append((span.word, hyp_span))

        if attention == "identity":
            amap = identity_attention(utt_id, result.sequence.phones, ref.phones)
        else:
            amap = jittered_attention(
                utt_id,
                result.sequence.phones,
                ref.phones,
                jitter_radius,
                (seed ^ index) + 1_000_003,  # distinct stream from the corruption draws
            )
        maps.append(amap)

    return SynthCorpus(
        inventory=inventory,
        references=tuple(references),
        hypotheses=tuple(hypotheses),
        maps=tuple(maps),
        truth_lexicon=lexbuild.accumulate(injected),
        truth_bounds=tuple(bounds),
    )
