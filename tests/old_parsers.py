"""The parsers and record checks as they were before each record type owned its
checks and each parser added the line in one place, kept as the oracle.

Verbatim but for what no parser reaches: the emitters, and the record methods
after ``__init__`` of ``ReferenceDictionary`` and ``Lexicon``. The error types
are the package's own.

At the end, verbatim too: the lenient token scanners that, with no inventory
given, found each input's phones before it was parsed, to derive one.
"""

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from pronvar.errors import (
    BadOrigin,
    BadRule,
    DimensionMismatch,
    DuplicatePhone,
    DuplicateUtteranceId,
    DuplicateVariant,
    EmptyPronunciation,
    EmptySpan,
    MalformedLine,
    NegativeWeight,
    PronvarError,
    ReservedSymbol,
    SpanWordMismatch,
    UnknownPhone,
)
from pronvar.phonecore import ORIGINS, RESERVED_CHARS


# --- from pronvar/phonecore.py --------------------------------------------------


def _bad(what: str, text: str, line: int | None) -> Exception:
    """The error for a field that breaks its rule: a format error when read from a line."""
    detail = f"bad {what} {text!r}"
    return ValueError(detail) if line is None else MalformedLine(line, detail)


def _check_word(word: str, line: int | None = None, what: str = "word", ascii_only: bool = False) -> None:
    """Accept one token: non-empty, with no whitespace (``str.split`` splits at exactly
    the characters ``isspace`` names) and, if ``ascii_only``, no non-ASCII character."""
    if word.split() != [word] or (ascii_only and not word.isascii()):
        raise _bad(what, word, line)


def _check_symbol(symbol: str, line: int | None = None) -> None:
    _check_word(symbol, line, "phone symbol", ascii_only=True)
    if not RESERVED_CHARS.isdisjoint(symbol):
        raise ReservedSymbol(symbol, line)


def _check_new_symbols(symbols: Iterable[str], line: int, seen: dict[str, None]) -> None:
    """Apply the phone-symbol rule to each symbol not in ``seen``, then add it,
    so a scan or parse checks each distinct phone once, in first-seen order."""
    for symbol in symbols:
        if symbol not in seen:
            _check_symbol(symbol, line)
            seen[symbol] = None


@dataclass(frozen=True)
class PhoneInventory:
    """The closed set of legal phone symbols, each tagged with an origin.

    ``origins[i]`` is ``"EN"`` for a native-English phone or ``"L1"`` for
    a phone specific to the speakers' first language. Symbol order is
    preserved from the declaration.
    """

    phones: tuple[str, ...]
    origins: tuple[str, ...]
    _index: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "phones", tuple(self.phones))
        object.__setattr__(self, "origins", tuple(self.origins))
        if len(self.phones) != len(self.origins):
            raise ValueError("phones and origins must be parallel")
        index: set[str] = set()
        for symbol, origin in zip(self.phones, self.origins):
            _check_symbol(symbol)
            if origin not in ORIGINS:
                raise BadOrigin(origin)
            if symbol in index:
                raise DuplicatePhone(symbol)
            index.add(symbol)
        object.__setattr__(self, "_index", frozenset(index))

    @classmethod
    def from_phones(cls, phones: Iterable[str]) -> "PhoneInventory":
        """Build an all-EN inventory from plain symbols."""
        phones = tuple(phones)
        return cls(phones, ("EN",) * len(phones))

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.phones)

    def __len__(self) -> int:
        return len(self.phones)

    def require(self, symbols: Iterable[str], context: str) -> None:
        """Raise :class:`UnknownPhone` for the first symbol outside the inventory."""
        for symbol in symbols:
            if symbol not in self._index:
                raise UnknownPhone(symbol, context)


@dataclass(frozen=True)
class PhoneSequence:
    """An ordered list of inventory phones with no word boundaries."""

    utterance_id: str
    phones: tuple[str, ...]
    inventory: PhoneInventory

    def __post_init__(self):
        object.__setattr__(self, "phones", tuple(self.phones))
        _check_word(self.utterance_id)
        self.inventory.require(self.phones, f"utterance {self.utterance_id!r}")

    def __len__(self) -> int:
        return len(self.phones)


class WordSpan(NamedTuple):
    word: str
    phones: tuple[str, ...]


@dataclass(frozen=True)
class SegmentedUtterance:
    """A native reference: an ordered list of (word, phone span) pairs.

    Concatenating the spans reproduces the utterance's full phone
    sequence; every span is non-empty and there is at least one word.
    """

    utterance_id: str
    words: tuple[WordSpan, ...]
    inventory: PhoneInventory

    def __post_init__(self):
        _check_word(self.utterance_id)
        spans = tuple(WordSpan(w, tuple(p)) for w, p in self.words)
        object.__setattr__(self, "words", spans)
        if not spans:
            raise ValueError(f"utterance {self.utterance_id!r} has no words")
        for i, span in enumerate(spans):
            _check_word(span.word)
            if not span.phones:
                raise EmptySpan(self.utterance_id, i)
            self.inventory.require(span.phones, f"utterance {self.utterance_id!r}")

    @property
    def phones(self) -> tuple[str, ...]:
        """All phones in order, boundaries dropped."""
        return tuple(p for span in self.words for p in span.phones)


class ReferenceDictionary:
    """Canonical pronunciations per word, in file order, at least one each."""

    def __init__(self, entries: Mapping[str, Sequence[Sequence[str]]]):
        store: dict[str, tuple[tuple[str, ...], ...]] = {}
        for word, prons in entries.items():
            _check_word(word)
            seen: list[tuple[str, ...]] = []
            for pron in prons:
                pron = tuple(pron)
                if not pron:
                    raise EmptyPronunciation(word)
                if pron in seen:
                    raise DuplicateVariant(word)
                seen.append(pron)
            if not seen:
                raise EmptyPronunciation(word)
            store[word] = tuple(seen)
        self._entries = store


class Lexicon:
    """Map from word to pronunciation variants, each with an occurrence count.

    Variants are unique within a word, non-empty, and counts are
    non-negative. The structure is read-only; builders live in
    :mod:`pronvar.lexbuild`.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, Mapping[tuple[str, ...], int]] | None = None):
        store: dict[str, dict[tuple[str, ...], int]] = {}
        for word, variants in (entries or {}).items():
            _check_word(word)
            inner: dict[tuple[str, ...], int] = {}
            for pron, count in variants.items():
                pron = tuple(pron)
                if not pron:
                    raise EmptyPronunciation(word)
                if not isinstance(count, int) or count < 0:
                    raise ValueError(f"bad count {count!r} for {word!r}")
                inner[pron] = count
            if inner:
                store[word] = inner
        self._entries = store


def parse_inventory(text: str) -> PhoneInventory:
    """Parse an inventory file; see the module docstring for the format."""
    phones: list[str] = []
    origins: list[str] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) > 2:
            raise MalformedLine(lineno, f"expected SYMBOL or SYMBOL<TAB>ORIGIN, got {line!r}")
        symbol = fields[0].strip()
        _check_symbol(symbol, lineno)
        origin = fields[1].strip() if len(fields) == 2 else "EN"
        if origin not in ORIGINS:
            raise BadOrigin(origin, lineno)
        if symbol in seen:
            raise DuplicatePhone(symbol, lineno)
        seen.add(symbol)
        phones.append(symbol)
        origins.append(origin)
    return PhoneInventory(tuple(phones), tuple(origins))


def _split_id_line(raw: str, lineno: int) -> tuple[str, str]:
    if "\t" not in raw:
        raise MalformedLine(lineno, f"missing tab separator in {raw!r}")
    utt_id, rest = raw.split("\t", 1)
    utt_id = utt_id.strip()
    _check_word(utt_id, lineno, "utterance id")
    return utt_id, rest


def _natural(token: str, lineno: int | None, what: str, least: int) -> int:
    """Read a decimal field: ASCII digits worth at least ``least``, without the signs,
    ``_`` separators, spaces and non-ASCII digits that ``int()`` also takes."""
    try:
        if token.isascii() and token.isdigit() and (value := int(token)) >= least:
            return value
    except ValueError:  # more digits than int() converts
        pass
    raise _bad(what, token, lineno)


def _decimals(text: str, line: int | None, what: str) -> tuple[float, ...]:
    """Read whitespace-separated float fields: ASCII with no ``_`` and no letter but
    ``e``/``E``; ``1e999`` reads as inf, for the caller to reject. Besides ``e``,
    ``float()`` reads letters only in ``nan``, ``inf`` and ``infinity``, and each holds an ``n``."""
    if text.isascii() and "_" not in text and "n" not in text.lower():
        try:
            return tuple(map(float, text.split()))
        except ValueError:
            pass
    raise _bad(what, text, line)


def parse_phone_file(text: str, inventory: PhoneInventory) -> list[PhoneSequence]:
    """Parse decoded phone sequences, one utterance per line, order preserved."""
    out: list[PhoneSequence] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        utt_id, rest = _split_id_line(raw, lineno)
        if "\t" in rest:
            raise MalformedLine(lineno, "extra tab in phone field")
        if utt_id in seen:
            raise DuplicateUtteranceId(utt_id, lineno)
        seen.add(utt_id)
        out.append(PhoneSequence(utt_id, tuple(rest.split()), inventory))
    return out


def parse_segmented_file(text: str, inventory: PhoneInventory) -> list[SegmentedUtterance]:
    """Parse word-segmented references, one utterance per line."""
    out: list[SegmentedUtterance] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        utt_id, rest = _split_id_line(raw, lineno)
        fields = rest.split("\t")
        if len(fields) != 2:
            raise MalformedLine(lineno, f"expected 3 tab-separated fields, got {len(fields) + 1}")
        if utt_id in seen:
            raise DuplicateUtteranceId(utt_id, lineno)
        seen.add(utt_id)

        spans: list[list[str]] = [[]]
        for token in fields[0].split():
            if token == "#":
                spans.append([])
            else:
                spans[-1].append(token)
        words = fields[1].split()
        if len(spans) != len(words):
            raise SpanWordMismatch(utt_id, len(spans), len(words))
        out.append(SegmentedUtterance(utt_id, zip(words, spans), inventory))
    return out


def parse_dictionary_file(text: str, inventory: PhoneInventory | None = None) -> ReferenceDictionary:
    """Parse a reference pronunciation dictionary.

    Repeated word lines accumulate alternative pronunciations in file
    order; listing the same pronunciation twice is an error. With no
    ``inventory``, every phone must still follow the phone-symbol rule.
    """
    entries: dict[str, list[tuple[str, ...]]] = {}
    phones: dict[str, None] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        word, rest = _split_id_line(raw, lineno)
        pron = tuple(rest.split())
        if inventory is not None:
            inventory.require(pron, f"dictionary word {word!r}")
        else:
            _check_new_symbols(pron, lineno, phones)
        prons = entries.setdefault(word, [])
        if pron in prons:
            raise DuplicateVariant(word, lineno)
        prons.append(pron)
    return ReferenceDictionary(entries)


def _parse_lexicon_line(
    raw: str, lineno: int, inventory: PhoneInventory | None, context: str, phones: dict[str, None]
) -> tuple[str, int, tuple[str, ...]]:
    """Split one lexicon-format line; ``context`` names the word's role in errors.

    Phones are checked against ``inventory`` when one is given, else by
    :func:`_check_new_symbols` with the parse's ``phones`` seen so far.
    """
    fields = raw.split("\t")
    if len(fields) != 3:
        raise MalformedLine(lineno, f"expected word<TAB>count<TAB>phones, got {len(fields)} fields")
    word = fields[0].strip()
    _check_word(word, lineno)
    count = _natural(fields[1], lineno, "count", 0)
    pron = tuple(fields[2].split())
    if not pron:
        raise EmptyPronunciation(word)
    if inventory is not None:
        inventory.require(pron, f"{context} {word!r}")
    else:
        _check_new_symbols(pron, lineno, phones)
    return word, count, pron


def parse_lexicon(text: str, inventory: PhoneInventory | None = None) -> "Lexicon":
    """Parse a counted lexicon; duplicate (word, pronunciation) lines are an error.

    With no ``inventory``, every phone must still follow the phone-symbol rule.
    """
    entries: dict[str, dict[tuple[str, ...], int]] = {}
    phones: dict[str, None] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        word, count, pron = _parse_lexicon_line(raw, lineno, inventory, "lexicon word", phones)
        variants = entries.setdefault(word, {})
        if pron in variants:
            raise DuplicateVariant(word, lineno)
        variants[pron] = count
    return Lexicon(entries)


def parse_pairs_file(text: str, inventory: PhoneInventory | None = None) -> list[tuple[str, tuple[str, ...], int]]:
    """Read aligner output pairs: lexicon-format lines, duplicates allowed.

    With no ``inventory``, every phone must still follow the phone-symbol rule.
    """
    out: list[tuple[str, tuple[str, ...], int]] = []
    phones: dict[str, None] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        word, count, pron = _parse_lexicon_line(raw, lineno, inventory, "pair for word", phones)
        out.append((word, pron, count))
    return out



# --- from pronvar/attnalign.py --------------------------------------------------


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
            for c, w in enumerate(row):
                if not math.isfinite(w):
                    raise DimensionMismatch(self.utterance_id, f"non-finite weight at ({r}, {c})")
                if w < 0:
                    raise NegativeWeight(self.utterance_id, r, c)


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
    C are ASCII digits with a value of at least 1; a weight row is float
    fields (:func:`pronvar.phonecore._decimals`). :class:`AttentionMap`
    checks the weights against the axes, and an error it raises names the
    record's first line, as a repeated id does.
    """
    return list(_attention_maps(text, inventory))


def _attention_maps(text: str, inventory: PhoneInventory) -> Iterator[AttentionMap]:
    """Yield the checked maps of :func:`parse_attention_file` one record at a time."""
    seen: set[str] = set()
    for record in _records(text):
        lineno, header = record[0]
        fields = header.split()
        if len(fields) != 3:
            raise MalformedLine(lineno, f"expected 'utt_id R C', got {header!r}")
        utt_id = fields[0]
        n_rows, n_cols = (_natural(token, lineno, "dimension", 1) for token in fields[1:])
        if utt_id in seen:
            raise DuplicateUtteranceId(utt_id, lineno)
        seen.add(utt_id)
        if len(record) != 3 + n_rows:
            raise DimensionMismatch(
                utt_id, f"expected {n_rows} weight rows, found {len(record) - 3}", lineno
            )

        row_phones = record[1][1].split()
        col_phones = record[2][1].split()
        if len(col_phones) != n_cols:
            raise DimensionMismatch(utt_id, f"{len(col_phones)} col phones declared {n_cols}", record[2][0])
        inventory.require((*row_phones, *col_phones), f"attention map {utt_id!r}")

        weights = tuple(_decimals(wline, wlineno, "weight row") for wlineno, wline in record[3:])
        try:
            amap = AttentionMap(utt_id, tuple(col_phones), tuple(row_phones), weights)
        except PronvarError as err:  # the map checks the weights; name the record's line
            err.args, err.line = (f"line {lineno}: {err}",), lineno
            raise
        yield amap



# --- from pronvar/synthbench.py -------------------------------------------------


@dataclass(frozen=True)
class ConfusionRule:
    """Rewrite ``source`` to ``target`` with the given probability."""

    source: str
    target: str
    probability: float

    def __post_init__(self):
        if self.source == self.target:
            raise BadRule(f"rule maps {self.source!r} to itself")
        if not 0.0 <= self.probability <= 1.0:
            raise BadRule(f"probability {self.probability} out of [0, 1]")


def parse_rules_file(text: str, inventory: PhoneInventory | None = None) -> tuple[ConfusionRule, ...]:
    """Parse ``SRC<TAB>DST<TAB>p`` lines into confusion rules; ``p`` is one float field."""
    rules = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise MalformedLine(lineno, f"expected SRC<TAB>DST<TAB>p, got {raw!r}")
        source, target = fields[0].strip(), fields[1].strip()
        probabilities = _decimals(fields[2], lineno, "probability")
        if len(probabilities) != 1:
            raise MalformedLine(lineno, f"bad probability {fields[2]!r}")
        if inventory is not None:
            inventory.require((source, target), f"rule on line {lineno}")
        try:
            rules.append(ConfusionRule(source, target, probabilities[0]))
        except BadRule as err:
            raise BadRule(str(err), lineno) from None
    return tuple(rules)


# --- the lenient token scanners that derived an inventory when none was given --------------
# (from pronvar/phonecore.py, pronvar/attnalign.py and pronvar/synthbench.py, before each
# parser checked its phones by the symbol rule as it read them)


def checked_symbols(lines: Iterable[tuple[int, Iterable[str]]]) -> list[str]:
    """Distinct tokens of ``(line number, tokens)`` pairs, in first-seen order.

    Each token is checked against the phone-symbol rule on the line where
    it first appears, so a bad symbol raises an error naming that line.
    """
    seen: dict[str, None] = {}
    for lineno, tokens in lines:
        _check_new_symbols(tokens, lineno, seen)
    return list(seen)


def scan_phone_tokens(text: str) -> list[str]:
    lines = enumerate(text.splitlines(), 1)
    return checked_symbols((n, raw.split("\t", 1)[1].split()) for n, raw in lines if "\t" in raw)


def scan_segmented_tokens(text: str) -> list[str]:
    lines = enumerate(text.splitlines(), 1)
    return checked_symbols(
        (n, [t for t in raw.split("\t", 2)[1].split() if t != "#"]) for n, raw in lines if "\t" in raw
    )


def scan_dictionary_tokens(text: str) -> list[str]:
    lines = enumerate(text.splitlines(), 1)
    return checked_symbols(
        (n, raw.split("\t", 1)[1].split()) for n, raw in lines if "\t" in raw and not raw.startswith("#")
    )


def scan_attention_tokens(text: str) -> list[str]:
    """Lenient phone-symbol scan of an attention file (axis lines only)."""
    axis_lines = ((lineno, raw.split()) for record in _records(text) for lineno, raw in record[1:3])
    return checked_symbols(axis_lines)


def scan_rules_tokens(text: str) -> list[str]:
    """Lenient phone-symbol scan of a rules file, skipping the lines the parser skips;
    see :func:`checked_symbols`."""
    lines = enumerate(text.splitlines(), 1)
    rows = ((n, raw.split("\t")) for n, raw in lines if raw.strip() and not raw.startswith("#"))
    return checked_symbols((n, (f[0].strip(), f[1].strip())) for n, f in rows if len(f) == 3)
