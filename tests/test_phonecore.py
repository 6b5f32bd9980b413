from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from pronvar import errors
from pronvar.phonecore import (
    Lexicon,
    PhoneInventory,
    ReferenceDictionary,
    WordSpan,
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
