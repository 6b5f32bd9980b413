"""Phone inventories, phone sequences, segmented references, and lexicons.

All types are immutable after construction and safe to share between
workers. File formats are tab-and-space separated UTF-8 with LF line
endings:

* inventory:  ``SYMBOL<TAB>ORIGIN`` or just ``SYMBOL`` (origin defaults
  to ``EN``); lines starting with ``#`` are comments.
* phone file: ``utt_id<TAB>PH PH PH ...`` (the phone list may be empty).
* segmented file: ``utt_id<TAB>PH PH # PH PH<TAB>word1 word2`` where
  ``#`` separates one word span from the next.
* dictionary: ``word<TAB>PH PH PH``, one pronunciation per line,
  repeated word lines list alternative pronunciations.
* lexicon: ``word<TAB>count<TAB>PH PH PH``, sorted for determinism; the
  count is ASCII digits.
"""

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

from .errors import (
    BadOrigin,
    DuplicatePhone,
    DuplicateUtteranceId,
    DuplicateVariant,
    EmptyPronunciation,
    EmptySpan,
    MalformedLine,
    OutOfVocabulary,
    ReservedSymbol,
    SpanWordMismatch,
    UnknownPhone,
)

#: Characters that may never appear inside a phone symbol. ``#`` marks
#: word boundaries in segmented files; ``|`` is held back for future use.
RESERVED_CHARS = frozenset({"#", "|"})

ORIGINS = ("EN", "L1")


def _valid_symbol(symbol: str) -> bool:
    return bool(symbol) and symbol.isascii() and not any(c.isspace() for c in symbol)


def _check_symbol(symbol: str, line: int | None = None) -> None:
    if not _valid_symbol(symbol):
        if line is not None:
            raise MalformedLine(line, f"bad phone symbol {symbol!r}")
        raise ValueError(f"bad phone symbol {symbol!r}")
    if any(c in RESERVED_CHARS for c in symbol):
        raise ReservedSymbol(symbol, line)


def _check_word(word: str, line: int | None = None) -> None:
    if not word or any(c.isspace() for c in word):
        if line is not None:
            raise MalformedLine(line, f"bad word {word!r}")
        raise ValueError(f"bad word {word!r}")


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

    def __contains__(self, word: object) -> bool:
        return word in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def words(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def pronunciations(self, word: str) -> tuple[tuple[str, ...], ...]:
        """All listed pronunciations for ``word``, file-first ordering.

        An unknown word is an error, never an empty result.
        """
        try:
            return self._entries[word]
        except KeyError:
            raise OutOfVocabulary(word) from None

    def canonical(self, word: str) -> tuple[str, ...]:
        """The file-first pronunciation."""
        return self.pronunciations(word)[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReferenceDictionary):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"ReferenceDictionary({len(self._entries)} words)"


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

    @property
    def word_count(self) -> int:
        return len(self._entries)

    @property
    def entry_count(self) -> int:
        """Total number of (word, variant) pairs."""
        return sum(len(v) for v in self._entries.values())

    def words(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def variants(self, word: str) -> tuple[tuple[tuple[str, ...], int], ...]:
        return tuple(self._entries.get(word, {}).items())

    def count(self, word: str, pron: Sequence[str]) -> int:
        return self._entries.get(word, {}).get(tuple(pron), 0)

    def has_variant(self, word: str, pron: Sequence[str]) -> bool:
        return tuple(pron) in self._entries.get(word, {})

    def pairs(self) -> Iterator[tuple[str, tuple[str, ...], int]]:
        for word, variants in self._entries.items():
            for pron, count in variants.items():
                yield word, pron, count

    def __contains__(self, word: object) -> bool:
        return word in self._entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lexicon):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"Lexicon({self.word_count} words, {self.entry_count} entries)"


# ---------------------------------------------------------------------------
# parsing


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


def emit_inventory(inventory: PhoneInventory) -> str:
    return "".join(f"{p}\t{o}\n" for p, o in zip(inventory.phones, inventory.origins))


def _split_id_line(raw: str, lineno: int) -> tuple[str, str]:
    if "\t" not in raw:
        raise MalformedLine(lineno, f"missing tab separator in {raw!r}")
    utt_id, rest = raw.split("\t", 1)
    utt_id = utt_id.strip()
    if not utt_id or any(c.isspace() for c in utt_id):
        raise MalformedLine(lineno, f"bad utterance id {utt_id!r}")
    return utt_id, rest


def _natural(token: str, lineno: int, what: str, least: int) -> int:
    """Read a decimal field: ASCII digits worth at least ``least``, without the signs,
    ``_`` separators, spaces and non-ASCII digits that ``int()`` also takes."""
    try:
        if token.isascii() and token.isdigit() and (value := int(token)) >= least:
            return value
    except ValueError:  # more digits than int() converts
        pass
    raise MalformedLine(lineno, f"bad {what} {token!r}")


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
            raise DuplicateUtteranceId(utt_id)
        seen.add(utt_id)
        out.append(PhoneSequence(utt_id, tuple(rest.split()), inventory))
    return out


def emit_phone_file(sequences: Iterable[PhoneSequence]) -> str:
    return "".join(f"{s.utterance_id}\t{' '.join(s.phones)}\n" for s in sequences)


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
            raise DuplicateUtteranceId(utt_id)
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


def emit_segmented_file(utterances: Iterable[SegmentedUtterance]) -> str:
    lines = []
    for utt in utterances:
        middle = " # ".join(" ".join(span.phones) for span in utt.words)
        words = " ".join(span.word for span in utt.words)
        lines.append(f"{utt.utterance_id}\t{middle}\t{words}\n")
    return "".join(lines)


def parse_dictionary_file(text: str, inventory: PhoneInventory | None = None) -> ReferenceDictionary:
    """Parse a reference pronunciation dictionary.

    Repeated word lines accumulate alternative pronunciations in file
    order; listing the same pronunciation twice is an error.
    """
    entries: dict[str, list[tuple[str, ...]]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        word, rest = _split_id_line(raw, lineno)
        pron = tuple(rest.split())
        if inventory is not None:
            inventory.require(pron, f"dictionary word {word!r}")
        prons = entries.setdefault(word, [])
        if pron in prons:
            raise DuplicateVariant(word, lineno)
        prons.append(pron)
    return ReferenceDictionary(entries)


def emit_dictionary(dictionary: ReferenceDictionary) -> str:
    lines = []
    for word in dictionary.words():
        for pron in dictionary.pronunciations(word):
            lines.append(f"{word}\t{' '.join(pron)}\n")
    return "".join(lines)


def _parse_lexicon_line(
    raw: str, lineno: int, inventory: PhoneInventory | None, context: str
) -> tuple[str, int, tuple[str, ...]]:
    """Split one lexicon-format line; ``context`` names the word's role in errors."""
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
    return word, count, pron


def parse_lexicon(text: str, inventory: PhoneInventory | None = None) -> "Lexicon":
    """Parse a counted lexicon; duplicate (word, pronunciation) lines are an error."""
    entries: dict[str, dict[tuple[str, ...], int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        word, count, pron = _parse_lexicon_line(raw, lineno, inventory, "lexicon word")
        variants = entries.setdefault(word, {})
        if pron in variants:
            raise DuplicateVariant(word, lineno)
        variants[pron] = count
    return Lexicon(entries)


def parse_pairs_file(text: str, inventory: PhoneInventory | None = None) -> list[tuple[str, tuple[str, ...], int]]:
    """Read aligner output pairs: lexicon-format lines, duplicates allowed."""
    out: list[tuple[str, tuple[str, ...], int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        word, count, pron = _parse_lexicon_line(raw, lineno, inventory, "pair for word")
        out.append((word, pron, count))
    return out


def emit_pairs(pairs: Iterable[tuple[str, Sequence[str]]]) -> str:
    """Write (word, pronunciation) pairs as lexicon-format lines, count 1 each."""
    return "".join(f"{word}\t1\t{' '.join(pron)}\n" for word, pron in pairs)


def emit_lexicon(lexicon: Lexicon) -> str:
    """Serialize a lexicon byte-deterministically.

    Lines are sorted by word (byte order), then count descending, then
    pronunciation string ascending.
    """
    lines = []
    for word in sorted(lexicon.words(), key=lambda w: w.encode("utf-8")):
        variants = sorted(
            lexicon.variants(word),
            key=lambda vc: (-vc[1], " ".join(vc[0]).encode("utf-8")),
        )
        for pron, count in variants:
            lines.append(f"{word}\t{count}\t{' '.join(pron)}\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# lenient token scanners, used to derive an inventory when none is supplied


def checked_symbols(lines: Iterable[tuple[int, Iterable[str]]]) -> list[str]:
    """Distinct tokens of ``(line number, tokens)`` pairs, in first-seen order.

    Each token is checked against the phone-symbol rule on the line where
    it first appears, so a bad symbol raises an error naming that line.
    """
    seen: dict[str, None] = {}
    for lineno, tokens in lines:
        for token in tokens:
            if token not in seen:
                _check_symbol(token, lineno)
                seen[token] = None
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


def derive_inventory(*token_streams: Iterable[str]) -> PhoneInventory:
    """Build a permissive all-EN inventory from first-seen token order."""
    return PhoneInventory.from_phones(dict.fromkeys(chain.from_iterable(token_streams)))
