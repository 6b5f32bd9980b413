import inspect
import math
import re
import sys
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from pronvar import errors
from pronvar.attnalign import AttentionMap, parse_attention_file, parse_bounds_file
from pronvar.phonecore import (
    RESERVED_CHARS,
    AnySymbol,
    Lexicon,
    PhoneInventory,
    PhoneSequence,
    ReferenceDictionary,
    WordSpan,
    _check_symbol,
    _check_word,
    _decimals,
    _split_id_line,
    derive_inventory,
    emit_dictionary,
    emit_inventory,
    emit_lexicon,
    emit_pairs,
    emit_phone_file,
    emit_segmented_file,
    parse_dictionary_file,
    parse_inventory,
    parse_lexicon,
    parse_pairs_file,
    parse_phone_file,
    parse_segmented_file,
)
from pronvar.synthbench import parse_rules_file


class TestInventory:
    def test_parse_plain_symbols(self):
        inventory = parse_inventory("AA\nAE\nZ")
        assert inventory.phones == ("AA", "AE", "Z")
        assert inventory.origins == ("EN", "EN", "EN")

    def test_duplicate_symbol(self):
        with pytest.raises(errors.DuplicatePhone) as exc:
            parse_inventory("Z\nZ")
        assert exc.value.symbol == "Z"
        assert exc.value.line == 2

    def test_mixed_origins_preserves_order(self):
        en = [f"E{i}" for i in range(39)]
        l1 = [f"K{i}" for i in range(23)]
        text = "\n".join(en) + "\n" + "\n".join(f"{p}\tL1" for p in l1)
        inventory = parse_inventory(text)
        assert len(inventory) == 62
        assert inventory.phones == tuple(en + l1)
        assert inventory.origins == ("EN",) * 39 + ("L1",) * 23

    def test_comments_and_blank_lines(self):
        inventory = parse_inventory("# comment\n\nAA\n  \nAE\tL1\n")
        assert inventory.phones == ("AA", "AE")
        assert inventory.origins == ("EN", "L1")

    def test_reserved_symbol(self):
        with pytest.raises(errors.ReservedSymbol):
            parse_inventory("AA\n|")
        with pytest.raises(errors.ReservedSymbol):
            parse_inventory("A#B")

    def test_bad_origin(self):
        with pytest.raises(errors.BadOrigin) as exc:
            parse_inventory("AA\tKR")
        assert exc.value.token == "KR"

    def test_bad_origin_names_a_line_only_from_a_file(self):
        with pytest.raises(errors.BadOrigin) as exc:
            PhoneInventory(("A",), ("XX",))
        assert exc.value.line is None
        assert str(exc.value) == "bad origin 'XX' (expected EN or L1)"
        with pytest.raises(errors.BadOrigin) as exc:
            parse_inventory("AA\nBB\tKR")
        assert exc.value.line == 2
        assert str(exc.value).startswith("line 2: bad origin 'KR'")

    def test_malformed(self):
        with pytest.raises(errors.MalformedLine):
            parse_inventory("AA\tEN\textra")
        with pytest.raises(errors.MalformedLine):
            parse_inventory("phøne")

    def test_round_trip(self):
        inventory = parse_inventory("AA\nAE\tL1\nZ\tEN")
        assert parse_inventory(emit_inventory(inventory)) == inventory

    def test_unknown_origin_lookup(self):
        inventory = parse_inventory("AA")
        assert "ZZ" not in inventory
        with pytest.raises(errors.UnknownPhone):
            inventory.require(["ZZ"], "inventory")


class TestPhoneFile:
    def test_basic(self, inv):
        seqs = parse_phone_file("u1\tD AH S N T", inv)
        assert len(seqs) == 1
        assert seqs[0].utterance_id == "u1"
        assert seqs[0].phones == ("D", "AH", "S", "N", "T")

    def test_empty_phone_list(self, inv):
        seqs = parse_phone_file("u1\t", inv)
        assert seqs[0].phones == ()

    def test_unknown_phone(self, inv):
        with pytest.raises(errors.UnknownPhone) as exc:
            parse_phone_file("u1\tD QX", inv)
        assert exc.value.symbol == "QX"
        assert "u1" in exc.value.context

    def test_duplicate_id(self, inv):
        with pytest.raises(errors.DuplicateUtteranceId):
            parse_phone_file("u1\tD\nu1\tK", inv)

    def test_malformed(self, inv):
        with pytest.raises(errors.MalformedLine):
            parse_phone_file("u1 D AH", inv)
        with pytest.raises(errors.MalformedLine):
            parse_phone_file("u1\tD\tAH", inv)

    def test_order_and_round_trip(self, inv):
        text = "u2\tK AE T\nu1\t\nu3\tD\n"
        seqs = parse_phone_file(text, inv)
        assert [s.utterance_id for s in seqs] == ["u2", "u1", "u3"]
        assert emit_phone_file(seqs) == text


class TestSegmentedFile:
    def test_two_words(self, inv):
        utts = parse_segmented_file("u1\tDH AH # K AE T\tthe cat", inv)
        assert utts[0].words == (
            WordSpan("the", ("DH", "AH")),
            WordSpan("cat", ("K", "AE", "T")),
        )
        assert utts[0].phones == ("DH", "AH", "K", "AE", "T")
        assert tuple(accumulate(len(w.phones) for w in utts[0].words[:-1])) == (2,)

    def test_span_word_mismatch(self, inv):
        with pytest.raises(errors.SpanWordMismatch) as exc:
            parse_segmented_file("u1\tDH AH # K AE T\tthe", inv)
        assert (exc.value.n_spans, exc.value.n_words) == (2, 1)

    def test_single_word(self, inv):
        utts = parse_segmented_file("u2\tD AH Z N T\tdoesn't", inv)
        assert utts[0].words == (WordSpan("doesn't", ("D", "AH", "Z", "N", "T")),)
        assert tuple(accumulate(len(w.phones) for w in utts[0].words[:-1])) == ()

    def test_empty_span(self, inv):
        with pytest.raises(errors.EmptySpan) as exc:
            parse_segmented_file("u1\tDH AH # # K\tthe x cat", inv)
        assert exc.value.index == 1
        with pytest.raises(errors.EmptySpan):
            parse_segmented_file("u1\t# K AE T\tx cat", inv)

    def test_unknown_phone(self, inv):
        with pytest.raises(errors.UnknownPhone):
            parse_segmented_file("u1\tQX\tword", inv)

    def test_malformed(self, inv):
        with pytest.raises(errors.MalformedLine):
            parse_segmented_file("u1\tDH AH", inv)

    def test_round_trip(self, inv):
        text = "u1\tDH AH # K AE T\tthe cat\nu2\tD AH Z N T\tdoesn't\n"
        assert emit_segmented_file(parse_segmented_file(text, inv)) == text


class TestDictionary:
    def test_lookup_single(self, inv):
        d = parse_dictionary_file("doesn't\tD AH Z N T", inv)
        assert d.pronunciations("doesn't") == (("D", "AH", "Z", "N", "T"),)

    def test_lookup_preserves_file_order(self, inv):
        d = parse_dictionary_file("cat\tK AE T\ncat\tK AH T", inv)
        assert d.pronunciations("cat") == (("K", "AE", "T"), ("K", "AH", "T"))
        assert d.canonical("cat") == ("K", "AE", "T")

    def test_out_of_vocabulary(self, inv):
        d = parse_dictionary_file("cat\tK AE T", inv)
        with pytest.raises(errors.OutOfVocabulary):
            d.pronunciations("zzz")

    def test_duplicate_variant(self, inv):
        with pytest.raises(errors.DuplicateVariant):
            parse_dictionary_file("cat\tK AE T\ncat\tK AE T", inv)

    def test_empty_pronunciation(self, inv):
        with pytest.raises(errors.EmptyPronunciation):
            parse_dictionary_file("cat\t", inv)

    def test_round_trip(self, inv):
        text = "cat\tK AE T\ncat\tK AH T\ndog\tD AO G\n"
        assert emit_dictionary(parse_dictionary_file(text, inv)) == text


class TestLexiconType:
    def test_counts(self):
        lex = Lexicon({"cat": {("K", "AE", "T"): 3, ("K", "AH", "T"): 1}})
        assert lex.word_count == 1
        assert lex.entry_count == 2
        assert lex.count("cat", ("K", "AE", "T")) == 3
        assert lex.count("cat", ("X",)) == 0
        assert lex.has_variant("cat", ("K", "AH", "T"))

    def test_rejects_empty_pronunciation(self):
        with pytest.raises(errors.EmptyPronunciation):
            Lexicon({"cat": {(): 1}})

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            Lexicon({"cat": {("K",): -1}})

    def test_rejects_a_bool_count(self):
        # emit_lexicon would write it as True, which parse_lexicon cannot read back
        with pytest.raises(ValueError, match=r"^bad count True for 'cat'$"):
            Lexicon({"cat": {("K", "AE", "T"): True}})


# one- to three-character tokens over characters of every UTF-8 length, from both
# sides of the surrogate block, where UTF-16 order departs from code-point order
LEXICON_TOKENS = st.text(alphabet="aBzé\u00ff\u0100\u4e2d\ue000\ufffd\U0001f600\U0010fffd", min_size=1, max_size=3)


class TestEmitLexicon:
    def test_counts_descend_within_word(self):
        lex = Lexicon(
            {"doesn't": {("D", "AH", "Z", "N", "T"): 5, ("D", "AH", "S", "N", "T"): 2}}
        )
        assert emit_lexicon(lex) == "doesn't\t5\tD AH Z N T\ndoesn't\t2\tD AH S N T\n"

    def test_empty(self):
        assert emit_lexicon(Lexicon()) == ""

    def test_equal_counts_tie_break_on_pronunciation(self):
        lex = Lexicon({"cat": {("K", "AH", "T"): 2, ("K", "AE", "T"): 2}})
        assert emit_lexicon(lex) == "cat\t2\tK AE T\ncat\t2\tK AH T\n"

    def test_words_sorted_by_byte_order(self):
        lex = Lexicon({"b": {("B",): 1}, "A": {("AA",): 1}, "a": {("AE",): 1}})
        words = [line.split("\t")[0] for line in emit_lexicon(lex).splitlines()]
        assert words == ["A", "a", "b"]

    def test_deterministic(self):
        lex = Lexicon({"x": {("K",): 1, ("T",): 4}, "y": {("D",): 2}})
        assert emit_lexicon(lex) == emit_lexicon(lex)

    @pytest.mark.parametrize("entries", [{"a\ud800": {("K",): 1}}, {"a": {("K\udc80",): 1}}])
    def test_a_lone_surrogate_cannot_be_written(self, entries):
        # a library-built lexicon can hold one; it has no UTF-8 bytes
        with pytest.raises(UnicodeEncodeError):
            emit_lexicon(Lexicon(entries))

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            LEXICON_TOKENS,
            st.dictionaries(st.lists(LEXICON_TOKENS, min_size=1, max_size=3).map(tuple), st.integers(0, 2), min_size=1, max_size=4),
            max_size=6,
        )
    )
    def test_code_point_order_is_utf8_byte_order(self, entries):
        lex = Lexicon(entries)
        lines = []
        for word in sorted(lex.words(), key=lambda w: w.encode("utf-8")):
            for pron, count in sorted(lex.variants(word), key=lambda vc: (-vc[1], " ".join(vc[0]).encode("utf-8"))):
                lines.append(f"{word}\t{count}\t{' '.join(pron)}\n")
        assert emit_lexicon(lex) == "".join(lines)


class TestParseLexicon:
    def test_round_trip_from_text(self, inv):
        text = "cat\t2\tK AE T\ncat\t1\tK AH T\ndog\t7\tD AO G\n"
        assert emit_lexicon(parse_lexicon(text, inv)) == text

    def test_duplicate_variant(self):
        with pytest.raises(errors.DuplicateVariant):
            parse_lexicon("cat\t2\tK AE T\ncat\t1\tK AE T")

    def test_bad_count(self):
        with pytest.raises(errors.MalformedLine):
            parse_lexicon("cat\tmany\tK AE T")
        with pytest.raises(errors.MalformedLine):
            parse_lexicon("cat\t-1\tK AE T")

    def test_unknown_phone_checked_when_inventory_given(self, inv):
        with pytest.raises(errors.UnknownPhone):
            parse_lexicon("cat\t1\tQX", inv)
        assert parse_lexicon("cat\t1\tQX").has_variant("cat", ("QX",))


class TestPairs:
    def test_emit_counts_all_one(self):
        text = emit_pairs([("cat", ("K", "AE", "T")), ("cat", ("K", "AE", "T"))])
        assert text == "cat\t1\tK AE T\ncat\t1\tK AE T\n"

    def test_parse_allows_duplicates(self):
        triples = parse_pairs_file("cat\t1\tK AE T\ncat\t1\tK AE T\n")
        assert triples == [("cat", ("K", "AE", "T"), 1)] * 2


class TestAnySymbol:
    def test_holds_exactly_the_symbols_the_rule_admits(self):
        symbols = AnySymbol()
        assert "K" in symbols and "AE1" in symbols
        assert not any(s in symbols for s in ("", "É", "A B", "K|", "#"))

    def test_require_raises_the_rules_errors(self):
        symbols = AnySymbol()
        symbols.require(("K", "AE", "K"), "utterance 'u1'")
        with pytest.raises(ValueError, match="bad phone symbol 'É'"):
            symbols.require(("K", "É"), "utterance 'u1'")
        with pytest.raises(errors.ReservedSymbol):
            symbols.require(("|",), "utterance 'u1'")

    def test_a_record_names_the_line_of_a_bad_symbol(self):
        with pytest.raises(errors.MalformedLine, match=r"^line 2: bad phone symbol 'É'$"):
            parse_phone_file("u1\tK\nu2\tK É\n", AnySymbol())

    @pytest.mark.parametrize("symbol", ["K", "AE1", "É", "#", "|", "", "A B"])
    def test_membership_and_require_agree_before_and_after_a_symbol_is_remembered(self, symbol):
        def passes(symbols):
            try:
                symbols.require((symbol,), "utterance 'u1'")
            except (errors.PronvarError, ValueError):
                return False
            return True

        expected = passes(AnySymbol())
        by_membership, by_require = AnySymbol(), AnySymbol()
        assert (symbol in by_membership) == expected
        assert passes(by_require) == expected
        # a symbol that passed is remembered, one that broke the rule never is
        for symbols in (by_membership, by_require):
            assert (symbol in symbols._seen) == expected
            assert (symbol in symbols) == passes(symbols) == expected
            assert (symbol in symbols._seen) == expected

    def test_all_instances_are_equal(self):
        assert AnySymbol() == AnySymbol()
        assert parse_phone_file("u1\tK\n", AnySymbol()) == parse_phone_file("u1\tK\n", AnySymbol())


#: one valid file of each format with LF line endings, and the call that parses it
LF_FILES = {
    "inventory": ("K\n# a comment\nAE\tL1\n", parse_inventory),
    "phone": ("u1\tK AE T\nu2\t\n", lambda text: parse_phone_file(text, AnySymbol())),
    "segmented": ("u1\tK AE T # D\tcat a\n\nu2\tK\tthe\n", lambda text: parse_segmented_file(text, AnySymbol())),
    "dictionary": ("cat\tK AE T\n# a comment\ncat\tK AH T\n", parse_dictionary_file),
    "lexicon": ("cat\t2\tK AE T\ncat\t0\tK AH T\n", parse_lexicon),
    "pairs": ("cat\t1\tK AE T\ncat\t1\tK AE T\n", parse_pairs_file),
    "bounds": ("u1\t2 3\nu2\t\n", parse_bounds_file),
    "attention": ("u1 1 2\nK\nK AE\n1 0.5\n\nu2 1 1\nT\nT\n1\n", lambda text: parse_attention_file(text, AnySymbol())),
    "rules": ("# a comment\nZ\tS\t0.5\n", parse_rules_file),
}


@pytest.mark.parametrize("name", sorted(LF_FILES))
def test_a_crlf_copy_parses_as_the_lf_file(name):
    text, parse = LF_FILES[name]
    assert parse(text.replace("\n", "\r\n")) == parse(text)


#: the characters besides LF at which ``str.splitlines`` breaks a line
OTHER_BREAKS = ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("brk", OTHER_BREAKS)
@pytest.mark.parametrize(
    "text, message",
    [("u1\tK AE{}u9\tK AE T\n", "line 1: extra tab in phone field"),
     ("u1\tK AE T\nu2\tK{}AE T\tK\n", "line 2: extra tab in phone field")],
)
def test_only_lf_ends_a_line(brk, text, message):
    with pytest.raises(errors.MalformedLine) as err:
        parse_phone_file(text.format(brk), AnySymbol())
    assert str(err.value) == message


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_dictionary_file, "w\tA\tB\n", "line 1: extra tab in pronunciation field"),
        (parse_dictionary_file, "w\tA B\nv\tA B\t\n", "line 2: extra tab in pronunciation field"),
        (parse_bounds_file, "u1\t1\t2\n", "line 1: extra tab in cut field"),
        (parse_bounds_file, "u1\t1\nu2\t\t1\n", "line 2: extra tab in cut field"),
        (lambda text: parse_phone_file(text, AnySymbol()), "u1\tA\tB\n", "line 1: extra tab in phone field"),
    ],
)
def test_a_tab_inside_the_last_field_is_a_format_error(parse, text, message):
    # read as whitespace, the tab would join two fields into one
    with pytest.raises(errors.MalformedLine) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PhoneInventory((1,), ("EN",)), "bad phone symbol 1"),
        (lambda: Lexicon({1: {("A",): 1}}), "bad word 1"),
        (lambda: PhoneSequence("u", [1], AnySymbol()), "bad phone symbol 1"),
        (lambda: PhoneSequence("u", [b"A"], AnySymbol()), "bad phone symbol b'A'"),
    ],
)
def test_a_token_that_is_not_a_str_is_a_value_error(build, message):
    # it used to raise AttributeError from str.split
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_derive_inventory_first_seen_order():
    inventory = derive_inventory(iter(["B", "A", "B"]), iter(["C", "A"]))
    assert inventory.phones == ("B", "A", "C")


# --- properties -----------------------------------------------------------

words_st = st.text(alphabet="abz'-", min_size=1, max_size=6)
prons_st = st.lists(st.sampled_from(["AA", "K", "T", "Z"]), min_size=1, max_size=4).map(tuple)


@given(
    st.dictionaries(
        words_st,
        st.dictionaries(prons_st, st.integers(min_value=0, max_value=99), min_size=1, max_size=3),
        max_size=6,
    )
)
def test_lexicon_round_trip(entries):
    lex = Lexicon(entries)
    assert parse_lexicon(emit_lexicon(lex)) == lex


@pytest.mark.parametrize(
    "entries, error",
    [
        ({"a": [[1]]}, ValueError),
        ({"a": [["A B"]]}, ValueError),
        ({"a": [["#"]]}, errors.ReservedSymbol),
        ({"a": [["A|B"]]}, errors.ReservedSymbol),
        ({"a": [["É"]]}, ValueError),
        # the file would hold a comment line
        ({"#a": [["A"]]}, ValueError),
    ],
)
def test_a_dictionary_phone_or_word_its_file_cannot_hold_is_rejected(entries, error):
    with pytest.raises(error):
        ReferenceDictionary(entries)


#: words and phones, good and bad: whitespace, reserved and non-ASCII characters, a comment mark, a non-str
DICTIONARY_TOKENS = ["cat", "K", "AE", "a'b", "É", "K AE", "A|B", "#", "#a", "a#", "", "\t", 1]
dictionary_entries = st.dictionaries(
    st.sampled_from(DICTIONARY_TOKENS),
    st.lists(st.lists(st.sampled_from(DICTIONARY_TOKENS), max_size=3), max_size=3),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(dictionary_entries)
@example({"cat": [["K", "AE"], ["K"]], "a#": [["AE"]]})
@example({"#a": [["K"]]})
def test_a_dictionary_the_constructor_accepts_round_trips(entries):
    try:
        dictionary = ReferenceDictionary(entries)
    except (errors.PronvarError, ValueError):
        return
    assert parse_dictionary_file(emit_dictionary(dictionary)) == dictionary


@given(st.lists(st.lists(st.sampled_from(["AA", "K", "T"]), max_size=5), max_size=5))
def test_phone_file_round_trip(phone_lists):
    inventory = PhoneInventory.from_phones(["AA", "K", "T"])
    text = "".join(f"u{i}\t{' '.join(p)}\n" for i, p in enumerate(phone_lists))
    seqs = parse_phone_file(text, inventory)
    assert emit_phone_file(seqs) == text
    assert [list(s.phones) for s in seqs] == phone_lists


@given(st.data())
def test_parsed_phones_are_inventory_resident(data):
    inventory = PhoneInventory.from_phones(["AA", "K", "T"])
    phones = data.draw(st.lists(st.sampled_from(["AA", "K", "T"]), min_size=1, max_size=6))
    corrupt_at = data.draw(st.integers(min_value=0, max_value=len(phones) - 1))
    phones[corrupt_at] = "QX"
    with pytest.raises(errors.UnknownPhone):
        parse_phone_file(f"u1\t{' '.join(phones)}", inventory)


# --- the token and decimal rules against the checks they replaced --------------


def test_split_splits_at_exactly_the_characters_isspace_names():
    characters = map(chr, range(sys.maxunicode + 1))
    assert [hex(ord(c)) for c in characters if (c.split() == [c]) == c.isspace()] == []


# the token checks as written with a per-character ``isspace`` test, kept as the oracle
def per_char_valid_symbol(symbol):
    return bool(symbol) and symbol.isascii() and not any(c.isspace() for c in symbol)


def per_char_check_symbol(symbol, line=None):
    if not per_char_valid_symbol(symbol):
        if line is not None:
            raise errors.MalformedLine(line, f"bad phone symbol {symbol!r}")
        raise ValueError(f"bad phone symbol {symbol!r}")
    if any(c in RESERVED_CHARS for c in symbol):
        raise errors.ReservedSymbol(symbol, line)


def per_char_check_word(word, line=None):
    if not word or any(c.isspace() for c in word):
        if line is not None:
            raise errors.MalformedLine(line, f"bad word {word!r}")
        raise ValueError(f"bad word {word!r}")


def per_char_split_id_line(raw, lineno):
    if "\t" not in raw:
        raise errors.MalformedLine(lineno, f"missing tab separator in {raw!r}")
    utt_id, rest = raw.split("\t", 1)
    utt_id = utt_id.strip()
    if not utt_id or any(c.isspace() for c in utt_id):
        raise errors.MalformedLine(lineno, f"bad utterance id {utt_id!r}")
    return utt_id, rest


def outcome(check, *args):
    try:
        return check(*args)
    except (errors.PronvarError, ValueError) as err:
        return type(err), str(err), getattr(err, "line", None)


#: the parsers whose ``inventory`` defaults to one shared :class:`AnySymbol`
DEFAULT_INVENTORY_PARSERS = {
    "dictionary": parse_dictionary_file,
    "lexicon": parse_lexicon,
    "pairs": parse_pairs_file,
    "rules": parse_rules_file,
}
#: words, phones, counts and probabilities, good and bad
FIELDS = ["cat", "c t", "K", "K AE", "É", "A|B", "#", "2", "x", "0.5", "", " "]
#: lines of zero to three tab-separated fields
field_lines = st.lists(st.lists(st.sampled_from(FIELDS), max_size=3).map("\t".join), max_size=4).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DEFAULT_INVENTORY_PARSERS)), field_lines)
@example("dictionary", "cat\tK AE\ncat\tK É")
@example("lexicon", "cat\t2\tK AE\ncat\t0\tA|B")
@example("pairs", "cat\t1\tK AE\ncat\t1\tK AE")
@example("rules", "K\tAE\t0.5\nK\tÉ\t0.5")
def test_a_parser_without_an_inventory_reads_as_with_a_fresh_any_symbol(name, text):
    parse = DEFAULT_INVENTORY_PARSERS[name]
    assert isinstance(inspect.signature(parse).parameters["inventory"].default, AnySymbol)
    # the shared default has met earlier examples' symbols; a fresh instance has met none
    assert outcome(parse, text) == outcome(parse, text, AnySymbol())


#: Whitespace of every kind ``isspace`` names, reserved and non-ASCII characters, and plain ones.
token_text = st.text(st.one_of(st.sampled_from(" \t\x0b\x1c\x1f\x85\xa0\u2028\u3000#|ÉKa1"), st.characters()), max_size=5)


@settings(max_examples=500, deadline=None)
@given(token_text, st.one_of(st.none(), st.integers(1, 9)))
@example("", None)
@example("K\x1fT", 3)
@example("K|T", 3)
def test_token_checks_match_the_per_character_checks(text, line):
    assert outcome(_check_symbol, text, line) == outcome(per_char_check_symbol, text, line)
    assert outcome(_check_word, text, line) == outcome(per_char_check_word, text, line)
    raw = f"{text}\tK AE"
    assert outcome(_split_id_line, raw, line or 1) == outcome(per_char_split_id_line, raw, line or 1)
    assert outcome(_split_id_line, text, line or 1) == outcome(per_char_split_id_line, text, line or 1)


def per_token_weight_row(text, lineno):
    """A weight row as the attention parser read it before ``_decimals``: ``_plain_decimals``,
    then ``float`` and ``math.isfinite`` per token."""
    if not text.isascii() or "_" in text:
        raise errors.MalformedLine(lineno, f"bad weight row {text!r}")
    row = []
    for token in text.split():
        try:
            value = float(token)
        except ValueError:
            raise errors.MalformedLine(lineno, f"bad weight {token!r}") from None
        if not math.isfinite(value):
            raise errors.MalformedLine(lineno, f"non-finite weight {token!r}")
        row.append(value)
    return tuple(row)


decimal_tokens = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1e999", "-1E999", "nan", "-inf", "Infinity", "NaN", "1_0", "１", "0x1", "1e", ".", "+.5", "-0"]),
    st.text("0123456789.eE+-_nNaiIfty x", max_size=5),
)
weight_rows = st.one_of(
    st.tuples(st.sampled_from([" ", "\t", "\x1f", "  "]), st.lists(decimal_tokens, max_size=4)).map(
        lambda sep_tokens: sep_tokens[0].join(sep_tokens[1])
    ),
    st.text(max_size=6),
)


def reads_as_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


@settings(max_examples=500, deadline=None)
@given(weight_rows)
@example("1e999 0")
@example("1e999 0x1")
@example("1 -1e999")
@example("-1.0 1e999")
@example("nan 1")
@example("0.5 1e1_0")
def test_decimals_read_every_row_the_per_token_path_read(text):
    try:
        expected = per_token_weight_row(text, 4)
    except errors.MalformedLine:
        tokens = text.split()
        if text.isascii() and all(set(t) <= set("0123456789.eE+-") and reads_as_float(t) for t in tokens):
            # refused only for an overflow such as 1e999: it reads as inf, which the map rejects
            row = _decimals(text, 4, "weight row")
            assert row == tuple(map(float, tokens))
            with pytest.raises((errors.DimensionMismatch, errors.NegativeWeight)):
                AttentionMap("u1", ("K",) * len(row), ("K",), (row,))
        else:
            with pytest.raises(errors.MalformedLine, match=f"^line 4: bad weight row {re.escape(repr(text))}$"):
                _decimals(text, 4, "weight row")
    else:
        assert [value.hex() for value in _decimals(text, 4, "weight row")] == [value.hex() for value in expected]
