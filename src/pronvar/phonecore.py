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

import numbers
from collections.abc import Callable, Container, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain
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
    PronvarError,
    ReservedSymbol,
    SpanWordMismatch,
    UnknownPhone,
)

#: Characters that may never appear inside a phone symbol. ``#`` marks
#: word boundaries in segmented files; ``|`` is held back for future use.
RESERVED_CHARS = frozenset({"#", "|"})

ORIGINS = ("EN", "L1")


def _bad(what: str, text: str, line: int | None) -> Exception:
    """The error for a field that breaks its rule: a format error when read from a line."""
    detail = f"bad {what} {text!r}"
    return ValueError(detail) if line is None else MalformedLine(line, detail)


def _on_line(err: Exception, lineno: int) -> Exception:
    """``err``, met on line ``lineno``, naming one line: each parser's loop raises this. A field
    rule's or a constructor's ``ValueError`` becomes a format error, and a toolkit error naming
    no line gets this one; one naming a line keeps it."""
    if not isinstance(err, PronvarError):
        return MalformedLine(lineno, str(err))
    if err.line is None:
        err.at_line(lineno)
    return err


def _check_word(word: str, line: int | None = None, what: str = "word", ascii_only: bool = False) -> None:
    """Accept one token: a ``str``, non-empty, with no whitespace (``str.split`` splits at
    exactly the characters ``isspace`` names) and, if ``ascii_only``, no non-ASCII character."""
    if not isinstance(word, str) or word.split() != [word] or (ascii_only and not word.isascii()):
        raise _bad(what, word, line)


def _check_symbol(symbol: str, line: int | None = None) -> None:
    _check_word(symbol, line, "phone symbol", ascii_only=True)
    if not RESERVED_CHARS.isdisjoint(symbol):
        raise ReservedSymbol(symbol, line)


def _check_new_id(utt_id: str, seen: set[str]) -> None:
    """Check that ``utt_id`` is not among the ids ``seen`` before it in one collection, then add it to them."""
    if utt_id in seen:
        raise DuplicateUtteranceId(utt_id)
    seen.add(utt_id)


def _check_entry(word: str, pron: tuple[str, ...], count: int = 0, known: Container[str] = ()) -> None:
    """The rules of a dictionary or lexicon entry: a one-token word, a non-empty pronunciation,
    and a count that is an ``int`` of at least 0 (not a ``bool``, which is written ``True``).
    A word in ``known`` has passed already, so a record checks each word once."""
    if word not in known:
        _check_word(word)
    if not pron:
        raise EmptyPronunciation(word)
    if type(count) is not int or count < 0:
        raise ValueError(f"bad count {count!r} for {word!r}")


def _adopt(cls: type, *values: object):
    """The frozen dataclass record of ``cls`` that holds ``values``, one for each field in the
    order the class declares them: made without ``__init__`` and ``__post_init__``, for a parser
    that has tested the record's rules itself. It equals, hashes as and reads as the record the
    constructor would build, so each rule is checked once."""
    record = object.__new__(cls)
    # field by field: filling vars(record) would make each later attribute read about 3x slower
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(record, name, value)
    return record


def _check_real(value: object, name: str) -> None:
    """The type rule of a config number field: a real number (``int``, ``float``,
    ``Fraction``) that is not a ``bool``, which is written ``True``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


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
        index: dict[str, str] = {}
        for symbol, origin in zip(self.phones, self.origins):
            self._check_entry(symbol, origin, index)
        object.__setattr__(self, "_index", frozenset(index))

    @staticmethod
    def _check_entry(symbol: str, origin: str, seen: dict[str, str]) -> None:
        """Check one entry against the entries ``seen`` before it, then add it to them."""
        _check_symbol(symbol)
        if origin not in ORIGINS:
            raise BadOrigin(origin)
        if symbol in seen:
            raise DuplicatePhone(symbol)
        seen[symbol] = origin

    @classmethod
    def from_phones(cls, phones: Iterable[str]) -> "PhoneInventory":
        """Build an all-EN inventory from plain symbols."""
        phones = tuple(phones)
        return cls(phones, ("EN",) * len(phones))

    def __contains__(self, symbol: object) -> bool:
        return self._has_all((symbol,))

    def _has_all(self, symbols: Iterable[str]) -> bool:
        """Whether every one of ``symbols`` is in the inventory, in one set test."""
        try:
            return self._index.issuperset(symbols)
        except TypeError:
            return False

    def __iter__(self) -> Iterator[str]:
        return iter(self.phones)

    def __len__(self) -> int:
        return len(self.phones)

    def require(self, symbols: Iterable[str], context: str) -> None:
        """Raise :class:`UnknownPhone` for the first symbol outside the inventory."""
        for symbol in symbols:
            try:
                if symbol in self._index:
                    continue
            except TypeError:  # unhashable, so no phone
                pass
            raise UnknownPhone(symbol, context)


def derive_inventory(*token_streams: Iterable[str]) -> PhoneInventory:
    """Build a permissive all-EN inventory from first-seen token order."""
    return PhoneInventory.from_phones(dict.fromkeys(chain.from_iterable(token_streams)))


@dataclass(frozen=True)
class AnySymbol:
    """Every symbol the phone-symbol rule admits: the inventory that records and parsers
    check phones against when none is given. ``symbol in`` it answers whether ``symbol``
    follows the rule. Each distinct symbol is checked once; all instances are equal, and the
    cache holds only symbols that passed, so one instance, :data:`ANY_SYMBOL`, is shared by
    every check made with no inventory. It lists no phones, so code that draws from the list
    needs a :class:`PhoneInventory`."""

    _seen: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    def __contains__(self, symbol: str) -> bool:
        try:
            self.require((symbol,), "")
        except (PronvarError, ValueError):
            return False
        return True

    def _has_all(self, symbols: Iterable[str]) -> bool:
        """Whether every one of ``symbols`` passed already, in one set test; ``False``
        says only that some symbol is still to be checked."""
        try:
            return self._seen.issuperset(symbols)
        except TypeError:
            return False

    def require(self, symbols: Iterable[str], context: str) -> None:
        """Raise the phone-symbol rule's error for the first of ``symbols`` that breaks it:
        a ``ValueError``, which a parser makes a format error naming its line, or :class:`ReservedSymbol`.
        Unlike :meth:`PhoneInventory.require`'s, it names no ``context``. A symbol that passed is remembered."""
        for symbol in symbols:
            try:
                if symbol in self._seen:
                    continue
            except TypeError:  # unhashable: the rule rejects it below
                pass
            _check_symbol(symbol)
            self._seen.add(symbol)


#: The phone-symbol rule's one instance: the parsers' default inventory, the CLI's without
#: --inventory, and the check of the records that take no inventory.
ANY_SYMBOL = AnySymbol()


@dataclass(frozen=True)
class PhoneSequence:
    """An ordered list of inventory phones with no word boundaries."""

    utterance_id: str
    phones: tuple[str, ...]
    inventory: PhoneInventory | AnySymbol

    def __post_init__(self):
        try:
            object.__setattr__(self, "phones", tuple(self.phones))
        except TypeError:
            raise ValueError(f"utterance {self.utterance_id!r}: phones must be an iterable") from None
        _check_word(self.utterance_id, what="utterance id")
        if not self.inventory._has_all(self.phones):
            self.inventory.require(self.phones, f"utterance {self.utterance_id!r}")

    def __len__(self) -> int:
        return len(self.phones)


class WordSpan(NamedTuple):
    word: str
    phones: tuple[str, ...]


@dataclass(frozen=True)
class SegmentedUtterance:
    """A native reference: an ordered list of (word, phone span) pairs.

    Every span is non-empty and there is at least one word. ``phones``, the spans
    concatenated, and ``ends``, the running sums of the span lengths, are derived from the
    spans and left out of ``==``, ``hash`` and ``repr``: word k is ``phones[ends[k - 1]:ends[k]]``,
    from 0 for k = 0.

    Each rule is tested once for the whole record: no span length is 0, the words joined
    split back into the words, and the inventory holds every phone, in one set test. A record
    that fails any of these is checked again span by span, which raises its first error.
    :func:`parse_segmented_file` tests the same rules on a line and adopts a record that
    passes without these checks (:func:`_adopt`), setting ``phones`` and ``ends`` itself.
    """

    utterance_id: str
    words: tuple[WordSpan, ...]
    inventory: PhoneInventory | AnySymbol
    phones: tuple[str, ...] = field(init=False, repr=False, compare=False)
    ends: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_word(self.utterance_id, what="utterance id")
        # tuple.__new__ builds each span without WordSpan's Python-level __new__
        try:
            spans = tuple([tuple.__new__(WordSpan, (w, tuple(p))) for w, p in self.words])
        except TypeError:
            raise ValueError(f"utterance {self.utterance_id!r}: words must be (word, phones) pairs") from None
        object.__setattr__(self, "words", spans)
        if not spans:
            raise ValueError(f"utterance {self.utterance_id!r} has no words")
        words, prons = zip(*spans)
        lengths = tuple(map(len, prons))
        phones = tuple(chain.from_iterable(prons))
        # join takes only strs, and the joined words split back into themselves
        # exactly when each is one token, so this passes exactly when every _check_word does
        try:
            passed = 0 not in lengths and " ".join(words).split() == list(words) and self.inventory._has_all(phones)
        except TypeError:
            passed = False
        if not passed:  # span by span, for the first error
            for i, span in enumerate(spans):
                _check_word(span.word)
                if not span.phones:
                    raise EmptySpan(self.utterance_id, i)
                self.inventory.require(span.phones, f"utterance {self.utterance_id!r}")
        object.__setattr__(self, "phones", phones)
        object.__setattr__(self, "ends", tuple(accumulate(lengths)))


class ReferenceDictionary:
    """Canonical pronunciations per word, in file order, at least one each."""

    def __init__(self, entries: Mapping[str, Sequence[Sequence[str]]]):
        """Check and list ``entries`` as :func:`parse_dictionary_file` would read them, through
        :meth:`_add`: each phone must follow the phone-symbol rule (:data:`ANY_SYMBOL`), which
        the parser checks against its inventory instead."""
        self._entries: dict[str, tuple[tuple[str, ...], ...]] = {}
        for word, prons in entries.items():
            try:
                prons = [tuple(pron) for pron in prons]
            except TypeError:
                raise ValueError(f"the pronunciations of {word!r} must be phone sequences") from None
            for pron in prons:
                self._add(word, pron)
                ANY_SYMBOL.require(pron, f"dictionary word {word!r}")
            if word not in self._entries:
                raise EmptyPronunciation(word)

    def _add(self, word: str, pron: tuple[str, ...]) -> None:
        """Check one entry and list it after the word's others. A word may not start with
        ``#``, which begins a comment line."""
        _check_entry(word, pron, 0, self._entries)
        if word.startswith("#"):
            raise ValueError(f"word {word!r} starts with '#', which begins a comment line")
        prons = self._entries.get(word, ())
        if pron in prons:
            raise DuplicateVariant(word)
        self._entries[word] = (*prons, pron)

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
    non-negative ints. The structure is read-only; builders live in
    :mod:`pronvar.lexbuild`.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, Mapping[tuple[str, ...], int]] | None = None):
        self._entries: dict[str, dict[tuple[str, ...], int]] = {}
        for word, variants in (entries or {}).items():
            for pron, count in variants.items():
                self._add(word, tuple(pron), count)

    def _add(self, word: str, pron: tuple[str, ...], count: int) -> None:
        """Check one entry and store it; a pronunciation the word has already is an error."""
        _check_entry(word, pron, count, self._entries)
        variants = self._entries.setdefault(word, {})
        if pron in variants:
            raise DuplicateVariant(word)
        variants[pron] = count

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
    """Parse an inventory file (see the module docstring); each entry is checked on its
    line, to name it in an error, and once more by the constructor."""
    entries: dict[str, str] = {}
    try:
        for lineno, raw in enumerate(text.split("\n"), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            symbol, _, origin = line.partition("\t")
            if "\t" in origin:
                raise ValueError(f"expected SYMBOL or SYMBOL<TAB>ORIGIN, got {line!r}")
            # the line is stripped, so a field after a tab holds more than blanks
            PhoneInventory._check_entry(symbol.strip(), origin.strip() or "EN", entries)
    except (PronvarError, ValueError) as err:
        raise _on_line(err, lineno) from None
    return PhoneInventory(tuple(entries), tuple(entries.values()))


def emit_inventory(inventory: PhoneInventory) -> str:
    return "".join(f"{p}\t{o}\n" for p, o in zip(inventory.phones, inventory.origins))


def _split_tab(raw: str, line: int | None = None) -> tuple[str, str]:
    """Split a line at its first tab: the stripped field before it, and the rest."""
    if "\t" not in raw:
        raise MalformedLine(line, f"missing tab separator in {raw!r}")
    first, rest = raw.split("\t", 1)
    return first.strip(), rest


def _last_field(rest: str, field: str) -> str:
    """``rest``, the last field of a two-field line, which holds no tab: read as
    whitespace, a tab there would join two fields into one."""
    if "\t" in rest:
        raise ValueError(f"extra tab in {field} field")
    return rest


def _split_id_line(raw: str, lineno: int) -> tuple[str, str]:
    """Split off and check a line's utterance id, for the bounds format (no record type checks it)."""
    utt_id, rest = _split_tab(raw, lineno)
    _check_word(utt_id, lineno, "utterance id")
    return utt_id, rest


def _natural(token: str, what: str, least: int) -> int:
    """Read a decimal field: ASCII digits worth at least ``least``, without the signs,
    ``_`` separators, spaces and non-ASCII digits that ``int()`` also takes."""
    try:
        if token.isascii() and token.isdigit() and (value := int(token)) >= least:
            return value
    except ValueError:  # more digits than int() converts
        pass
    raise _bad(what, token, None)


def _float_chars(text: str) -> bool:
    """The character rule of float fields: ASCII with no ``_`` and no letter but ``e``/``E``;
    besides ``e``, ``float()`` reads letters only in ``nan``, ``inf`` and ``infinity``, and
    each holds an ``n``. Lines joined by ``\\n`` pass it exactly when each line does."""
    return text.isascii() and "_" not in text and "n" not in text and "N" not in text


def _decimals(text: str, line: int | None, what: str) -> tuple[float, ...]:
    """Read one line of whitespace-separated float fields: rule probabilities, float flags,
    and weight rows (the attention reader reads a record's rows at once under the same rule,
    and a record that fails its tests line by line through here). A field is what ``float()``
    reads within the character rule (:func:`_float_chars`). ``1e999`` reads as inf, for the
    caller to reject."""
    if _float_chars(text):
        try:
            return tuple(map(float, text.split()))
        except ValueError:
            pass
    raise _bad(what, text, line)


def parse_phone_file(text: str, inventory: PhoneInventory | AnySymbol) -> list[PhoneSequence]:
    """Parse decoded phone sequences, one utterance per line, order preserved."""
    out: list[PhoneSequence] = []
    seen: set[str] = set()
    try:
        for lineno, raw in enumerate(text.split("\n"), 1):
            if not raw.strip():
                continue
            utt_id, rest = _split_tab(raw)
            phones = _last_field(rest, "phone").split()
            _check_new_id(utt_id, seen)
            out.append(PhoneSequence(utt_id, phones, inventory))
    except (PronvarError, ValueError) as err:
        raise _on_line(err, lineno) from None
    return out


def emit_phone_file(sequences: Iterable[PhoneSequence]) -> str:
    return "".join(f"{s.utterance_id}\t{' '.join(s.phones)}\n" for s in sequences)


def parse_segmented_file(text: str, inventory: PhoneInventory | AnySymbol) -> list[SegmentedUtterance]:
    """Parse word-segmented references, one utterance per line."""
    out: list[SegmentedUtterance] = []
    seen: set[str] = set()
    try:
        for lineno, raw in enumerate(text.split("\n"), 1):
            if not raw.strip():
                continue
            utt_id, rest = _split_tab(raw)
            fields = rest.split("\t")
            if len(fields) != 2:
                raise ValueError(f"expected 3 tab-separated fields, got {len(fields) + 1}")
            _check_new_id(utt_id, seen)

            # the tokens cut at each "#" by slices: a Python step per word, not per phone
            tokens = tuple(fields[0].split())
            spans = []
            start = 0
            for _ in range(tokens.count("#")):
                end = tokens.index("#", start)
                spans.append(tokens[start:end])
                start = end + 1
            spans.append(tokens[start:])
            words = fields[1].split()
            if len(spans) != len(words):
                raise SpanWordMismatch(utt_id, len(spans), len(words))
            # the words are tokens of a split; the record's other rules are tested once here, and a
            # record that fails one is checked again by the constructor, for its first error
            _check_word(utt_id, what="utterance id")
            lengths = tuple(map(len, spans))
            phones = tuple(chain.from_iterable(spans))
            if 0 in lengths or not inventory._has_all(phones):
                out.append(SegmentedUtterance(utt_id, zip(words, spans), inventory))
            else:
                pairs = tuple([tuple.__new__(WordSpan, pair) for pair in zip(words, spans)])
                out.append(_adopt(SegmentedUtterance, utt_id, pairs, inventory, phones, tuple(accumulate(lengths))))
    except (PronvarError, ValueError) as err:
        raise _on_line(err, lineno) from None
    return out


def emit_segmented_file(utterances: Iterable[SegmentedUtterance]) -> str:
    lines = []
    for utt in utterances:
        middle = " # ".join(" ".join(span.phones) for span in utt.words)
        words = " ".join(span.word for span in utt.words)
        lines.append(f"{utt.utterance_id}\t{middle}\t{words}\n")
    return "".join(lines)


def parse_dictionary_file(text: str, inventory: PhoneInventory | AnySymbol = ANY_SYMBOL) -> ReferenceDictionary:
    """Parse a reference pronunciation dictionary.

    Repeated word lines accumulate alternative pronunciations in file
    order; listing the same pronunciation twice is an error. With no
    ``inventory``, every phone must still follow the phone-symbol rule.
    """
    dictionary = ReferenceDictionary({})
    try:
        for lineno, raw in enumerate(text.split("\n"), 1):
            if not raw.strip() or raw.startswith("#"):
                continue
            word, rest = _split_tab(raw)
            pron = tuple(_last_field(rest, "pronunciation").split())
            dictionary._add(word, pron)
            if not inventory._has_all(pron):
                inventory.require(pron, f"dictionary word {word!r}")
    except (PronvarError, ValueError) as err:
        raise _on_line(err, lineno) from None
    return dictionary


def emit_dictionary(dictionary: ReferenceDictionary) -> str:
    lines = []
    for word in dictionary.words():
        for pron in dictionary.pronunciations(word):
            lines.append(f"{word}\t{' '.join(pron)}\n")
    return "".join(lines)


def _read_lexicon_lines(
    text: str, inventory: PhoneInventory | AnySymbol, role: str, add: Callable[[str, tuple[str, ...], int], None]
) -> None:
    """Pass each lexicon-format line's word, pronunciation and count to ``add``, which checks
    them as an entry, then check its phones against ``inventory``, naming the word's ``role`` in an error."""
    try:
        for lineno, raw in enumerate(text.split("\n"), 1):
            if not raw.strip():
                continue
            fields = raw.split("\t")
            if len(fields) != 3:
                raise ValueError(f"expected word<TAB>count<TAB>phones, got {len(fields)} fields")
            word = fields[0].strip()
            pron = tuple(fields[2].split())
            add(word, pron, _natural(fields[1], "count", 0))
            if not inventory._has_all(pron):
                inventory.require(pron, f"{role} {word!r}")
    except (PronvarError, ValueError) as err:
        raise _on_line(err, lineno) from None


def parse_lexicon(text: str, inventory: PhoneInventory | AnySymbol = ANY_SYMBOL) -> "Lexicon":
    """Parse a counted lexicon; duplicate (word, pronunciation) lines are an error.

    With no ``inventory``, every phone must still follow the phone-symbol rule.
    """
    lexicon = Lexicon()
    _read_lexicon_lines(text, inventory, "lexicon word", lexicon._add)
    return lexicon


def parse_pairs_file(
    text: str, inventory: PhoneInventory | AnySymbol = ANY_SYMBOL
) -> list[tuple[str, tuple[str, ...], int]]:
    """Read aligner output pairs: lexicon-format lines, each checked as a lexicon entry,
    duplicates allowed.

    With no ``inventory``, every phone must still follow the phone-symbol rule.
    """
    out: list[tuple[str, tuple[str, ...], int]] = []

    def add(word: str, pron: tuple[str, ...], count: int) -> None:
        _check_entry(word, pron, count)
        out.append((word, pron, count))

    _read_lexicon_lines(text, inventory, "pair for word", add)
    return out


def emit_pairs(pairs: Iterable[tuple[str, Sequence[str]]]) -> str:
    """Write (word, pronunciation) pairs as lexicon-format lines, count 1 each."""
    return "".join(f"{word}\t1\t{' '.join(pron)}\n" for word, pron in pairs)


def emit_lexicon(lexicon: Lexicon) -> str:
    """Serialize a lexicon byte-deterministically.

    Lines are sorted by word, then count descending, then pronunciation string
    ascending, as :func:`pronvar.lexbuild.prune` ranks them: by code point, which is
    UTF-8 byte order. A lone surrogate, which has no UTF-8, raises ``UnicodeEncodeError``.
    """
    lines = []
    for word in sorted(lexicon.words()):
        for pron, count in sorted(lexicon.variants(word), key=lambda vc: (-vc[1], " ".join(vc[0]))):
            lines.append(f"{word}\t{count}\t{' '.join(pron)}\n")
    text = "".join(lines)
    if not text.isascii():
        text.encode("utf-8")
    return text
