"""Records built from arbitrary values.

* Each call of ``PhoneSequence``, ``SegmentedUtterance`` or ``AttentionMap``
  either builds a record that round-trips through its emitter and parser, or
  raises a ``ValueError`` or a ``PronvarError``. The containers are iterables
  of pairs and of tokens, or values that are no iterable; their tokens are
  arbitrary. ``AttentionMap``'s weights are ``float`` or ``int``, as it
  documents, and a map whose phones are outside the inventory is rejected by
  the parser that reads against it.
  ``ReferenceDictionary``'s test is in ``test_phonecore.py``.
* ``SegmentedUtterance``, which tests each rule once for the whole record,
  against its old self, which tested each span on its own: the same record,
  or the same error class and message. Its containers are iterables, since
  the old self raised ``TypeError`` for one that is not.
"""

from dataclasses import dataclass, field
from itertools import accumulate, chain

import pytest
from hypothesis import example, given, settings, strategies as st

from pronvar import errors
from pronvar.attnalign import AttentionMap, emit_attention_file, parse_attention_file
from pronvar.errors import EmptySpan
from pronvar.phonecore import (
    AnySymbol,
    PhoneInventory,
    PhoneSequence,
    SegmentedUtterance,
    WordSpan,
    _check_word,
    emit_phone_file,
    emit_segmented_file,
    parse_phone_file,
    parse_segmented_file,
)


@dataclass(frozen=True)
class SpanBySpanUtterance:
    """``SegmentedUtterance`` as it was before it tested each rule once per record, verbatim."""

    utterance_id: str
    words: tuple[WordSpan, ...]
    inventory: PhoneInventory | AnySymbol
    phones: tuple[str, ...] = field(init=False, repr=False, compare=False)
    ends: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_word(self.utterance_id, what="utterance id")
        spans = tuple(WordSpan(w, tuple(p)) for w, p in self.words)
        object.__setattr__(self, "words", spans)
        if not spans:
            raise ValueError(f"utterance {self.utterance_id!r} has no words")
        for i, span in enumerate(spans):
            _check_word(span.word)
            if not span.phones:
                raise EmptySpan(self.utterance_id, i)
            self.inventory.require(span.phones, f"utterance {self.utterance_id!r}")
        object.__setattr__(self, "phones", tuple(chain.from_iterable(span.phones for span in spans)))
        object.__setattr__(self, "ends", tuple(accumulate(len(span.phones) for span in spans)))


PHONES = ("K", "AE", "T")
#: tokens good and bad: inventory phones, a phone outside the inventory that
#: follows the phone-symbol rule, reserved and non-ASCII characters, whitespace,
#: the empty token, and values that are not a str, one of them unhashable
TOKENS = (*PHONES, "ZZ", "#", "A|B", "É", "K T", "a\tb", "", " ", 1, None, b"K", ["K"])
tokens = st.one_of(st.sampled_from(TOKENS), st.text(max_size=3))
ids = st.one_of(st.just("u"), tokens)
#: phones of the inventory, or tokens of any kind, so that records of several words are built too
phone_lists = st.one_of(st.lists(st.sampled_from(PHONES), min_size=1, max_size=3), st.lists(tokens, max_size=3))
#: (word, phones) pairs; the empty list of phones is an empty span
word_spans = st.lists(st.tuples(st.one_of(st.sampled_from(("the", "cat")), tokens), phone_lists), max_size=4)
#: values that are no iterable, in place of a container
non_iterables = st.sampled_from((1, 2.5, None, True))
#: the containers above, or a value that is no iterable in place of any of them
any_phones = st.one_of(phone_lists, non_iterables)
any_words = st.one_of(
    st.lists(
        st.one_of(st.tuples(st.one_of(st.sampled_from(("the", "cat")), tokens), any_phones), non_iterables),
        max_size=4,
    ),
    non_iterables,
)


def inventory_of(name):
    """A new inventory of each kind, so no cache of symbols passed is shared between calls."""
    return AnySymbol() if name == "any" else PhoneInventory.from_phones(PHONES)


inventories = st.sampled_from(("any", "given"))


@settings(max_examples=300, deadline=None)
@given(ids, any_phones, inventories)
@example("u", 1, "any")
def test_a_phone_sequence_round_trips_or_is_rejected(utt_id, phones, inventory):
    inventory = inventory_of(inventory)
    try:
        sequence = PhoneSequence(utt_id, phones, inventory)
    except (errors.PronvarError, ValueError):
        return
    assert parse_phone_file(emit_phone_file([sequence]), inventory) == [sequence]


@settings(max_examples=300, deadline=None)
@given(ids, any_words, inventories)
@example("u", [("w", 1)], "any")
@example("u", [1], "any")
def test_a_segmented_utterance_round_trips_or_is_rejected(utt_id, words, inventory):
    inventory = inventory_of(inventory)
    try:
        utterance = SegmentedUtterance(utt_id, words, inventory)
    except (errors.PronvarError, ValueError):
        return
    (parsed,) = parse_segmented_file(emit_segmented_file([utterance]), inventory)
    assert parsed == utterance
    assert (parsed.phones, parsed.ends, hash(parsed), repr(parsed)) == (
        utterance.phones,
        utterance.ends,
        hash(utterance),
        repr(utterance),
    )


#: weights as AttentionMap documents them: floats, mostly finite and >= 0, the ints a float
#: holds exactly, and ints past the float range, which read back as inf; and now and then
#: a value that is not a number
weights = st.one_of(
    st.floats(min_value=0, allow_infinity=False),
    st.integers(0, 2**53),
    st.floats(),
    st.integers(-(2**53), 2**53),
    st.integers(2**1024, 2**1100),
    st.sampled_from((None, "x", "1.0", 1j)),
)


@st.composite
def attention_maps(draw):
    """An id, column and row phones, and weight rows, mostly of their shape; any of the
    three containers, or a weight row, may be a value that is no iterable."""
    cols, rows = draw(any_phones), draw(any_phones)
    shape = [len(axis) if isinstance(axis, list) else 1 for axis in (rows, cols)]
    shaped = st.lists(st.lists(weights, min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0])
    unshaped = st.lists(st.one_of(st.lists(weights, max_size=3), non_iterables), max_size=3)
    return draw(ids), cols, rows, draw(st.one_of(shaped, unshaped, non_iterables))


@settings(max_examples=300, deadline=None)
@given(attention_maps(), inventories)
@example(("u", ["K"], ["AE", "T"], [[0.5], [3]]), "given")
@example(("u", ["K"], ["AE"], [[2**53]]), "any")
@example(("u", [], ["AE"], [[]]), "any")
@example(("u", ["K T"], ["AE"], [[1.0]]), "any")  # two phones on the column line
@example(("u", ["ZZ"], ["AE"], [[1.0]]), "given")  # a phone outside the inventory
@example(("u", ["K"], ["AE"], [[10**400]]), "any")  # an int past the float range
@example(("u", 1, ["AE"], [[1.0]]), "any")
@example(("u", ["K"], ["AE"], 1), "any")
@example(("u", ["K"], ["AE"], [1]), "any")
@example(("u", ["K"], ["AE"], [["x"]]), "any")  # a weight that is not a number
@example(("u", ["K", "T"], ["AE"], [[1.0, None]]), "given")
def test_an_attention_map_round_trips_or_is_rejected(fields, inventory):
    try:
        amap = AttentionMap(*fields)
    except (errors.PronvarError, ValueError):
        return
    inventory = inventory_of(inventory)
    text = emit_attention_file([amap])
    if not all(phone in inventory for phone in amap.row_phones + amap.col_phones):
        with pytest.raises(errors.UnknownPhone):
            parse_attention_file(text, inventory)
        return
    assert parse_attention_file(text, inventory) == [amap]


def built(record, utt_id, words, inventory):
    """The record as plain values, each span with its type, or the error's class and message."""
    try:
        utterance = record(utt_id, words, inventory)
    except Exception as err:  # the old check's class and message, whatever they are
        return type(err), str(err)
    spans = [(type(span), *span) for span in utterance.words]
    return utterance.utterance_id, spans, utterance.inventory, utterance.phones, utterance.ends


@settings(max_examples=500, deadline=None)
@given(ids, word_spans, inventories)
@example("u", [("the", ["K"]), ("a b", [])], "given")  # the first error is the word's, not the later span's
@example("u", [("the", ["K", "ZZ"]), ("", ["K"])], "given")  # an unknown phone before a bad word
@example("u", [("the", ["K"]), ("cat", ["#"])], "any")  # a reserved symbol
@example("u", [(["the"], ["K"])], "any")  # an unhashable word, which str.join does not take
@example("u", [("the", [["K"]])], "given")  # an unhashable phone
@example("u", [], "given")  # no words
def test_segmented_utterance_against_its_old_self(utt_id, words, inventory):
    old_inventory = inventory_of(inventory)
    old = built(SpanBySpanUtterance, utt_id, words, old_inventory)
    assert built(SegmentedUtterance, utt_id, words, inventory_of(inventory)) == old
    # once more on the old check's inventory: an AnySymbol now holds the symbols that passed
    assert built(SegmentedUtterance, utt_id, words, old_inventory) == old
