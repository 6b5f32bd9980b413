import dataclasses
from itertools import chain

import pytest
from hypothesis import example, given, strategies as st

import old_lexbuild as old
from pronvar import errors
from pronvar.lexbuild import (
    LexiconStats,
    accumulate,
    from_counted_pairs,
    from_dictionary,
    merge,
    prune,
    shared_entries,
    stats,
)
from pronvar.phonecore import Lexicon, ReferenceDictionary, emit_lexicon, parse_lexicon

DOESNT = ("D", "AH", "Z", "N", "T")
DEVOICED = ("D", "AH", "S", "N", "T")


class TestAccumulate:
    def test_counts_repeats(self):
        lex = accumulate([("doesn't", DOESNT), ("doesn't", DEVOICED), ("doesn't", DOESNT)])
        assert lex.count("doesn't", DOESNT) == 2
        assert lex.count("doesn't", DEVOICED) == 1
        assert lex.entry_count == 2

    def test_empty_stream(self):
        assert accumulate([]) == Lexicon()

    def test_empty_pronunciation(self):
        with pytest.raises(errors.EmptyPronunciation):
            accumulate([("cat", ())])

    def test_partition_independent(self):
        pairs = [("a", ("K",)), ("b", ("T",)), ("a", ("K",)), ("a", ("T", "S"))]
        whole = accumulate(pairs)
        assert merge(accumulate(pairs[:2]), accumulate(pairs[2:])) == whole
        assert merge(accumulate(pairs[:1]), accumulate(pairs[1:])) == whole


class TestMerge:
    def test_self_merge_doubles_counts(self):
        lex = accumulate([("a", ("K",)), ("a", ("T",)), ("b", ("S",))])
        doubled = merge(lex, lex)
        assert doubled.entry_count == lex.entry_count
        assert all(
            doubled.count(w, p) == 2 * c for w, p, c in lex.pairs()
        )

    def test_empty_is_identity(self):
        lex = accumulate([("a", ("K",))])
        assert merge(Lexicon(), lex) == lex
        assert merge(lex, Lexicon()) == lex

    def test_union_counts_shared_once(self):
        a = accumulate([("x", ("K",)), ("x", ("T",))])
        b = accumulate([("x", ("T",)), ("y", ("S",))])
        merged = merge(a, b)
        assert merged.entry_count == 3
        assert merged.count("x", ("T",)) == 2
        assert shared_entries(a, b) == 1
        assert merged.entry_count == a.entry_count + b.entry_count - shared_entries(a, b)

    def test_commutative_and_associative(self):
        a = accumulate([("x", ("K",)), ("y", ("T",))])
        b = accumulate([("x", ("K",)), ("z", ("S",))])
        c = accumulate([("y", ("T",)), ("y", ("D",))])
        assert merge(a, b) == merge(b, a)
        assert merge(merge(a, b), c) == merge(a, merge(b, c))


def lexicon_of_size(prefixes, size):
    """One single-variant entry per word; deterministic and cheap."""
    return Lexicon({f"{prefixes}{i}": {("AA",): 1} for i in range(size)})


class TestProductionScaleArithmetic:
    def test_merge_size_identity(self, production_scale_lexicons):
        rule_like, attn_like = production_scale_lexicons
        merged = merge(rule_like, attn_like)
        assert merged.entry_count == 345489
        report = stats(attn_like, baseline=rule_like)
        assert report.shared == 26597
        assert report.reduction_pct == pytest.approx(89.55, abs=0.01)


class TestPrune:
    def test_min_count(self):
        lex = accumulate([("a", ("K",)), ("a", ("K",)), ("a", ("T",))])
        pruned = prune(lex, min_count=2)
        assert pruned.variants("a") == ((("K",), 2),)

    def test_max_variants_tie_breaks_alphabetically(self):
        lex = Lexicon({"a": {("T", "S"): 5, ("K",): 5}})
        pruned = prune(lex, max_variants=1)
        assert pruned.variants("a") == ((("K",), 5),)

    def test_identity(self):
        lex = accumulate([("a", ("K",)), ("b", ("T",)), ("a", ("K",))])
        assert prune(lex, 0, None) == lex

    def test_canonical_never_dropped(self):
        canonical = ReferenceDictionary({"a": [("K",)]})
        lex = Lexicon({"a": {("K",): 1, ("T",): 9, ("S",): 8}})
        pruned = prune(lex, min_count=2, max_variants=2, canonical=canonical)
        assert pruned.has_variant("a", ("K",))
        assert pruned.has_variant("a", ("T",))
        assert pruned.has_variant("a", ("S",))
        unprotected = prune(lex, min_count=2, max_variants=2)
        assert not unprotected.has_variant("a", ("K",))

    def test_word_dropped_when_nothing_survives(self):
        lex = Lexicon({"a": {("K",): 1}})
        assert prune(lex, min_count=5).word_count == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            prune(Lexicon(), min_count=-1)
        with pytest.raises(ValueError):
            prune(Lexicon(), max_variants=0)

    def test_never_increases_entry_count(self):
        lex = Lexicon({"a": {("K",): 3, ("T",): 1}, "b": {("S",): 2}})
        for min_count in (0, 1, 2, 4):
            for max_variants in (None, 1, 2):
                assert prune(lex, min_count, max_variants).entry_count <= lex.entry_count


class TestStats:
    def test_basic_fields(self):
        lex = Lexicon({"a": {("K",): 3, ("T",): 1}, "b": {("S",): 2}})
        report = stats(lex)
        assert report.words == 2
        assert report.entries == 3
        assert report.mean_variants == pytest.approx(1.5)
        assert report.max_variants == 2
        assert report.baseline_entries is None

    def test_self_baseline_reduces_nothing(self):
        lex = Lexicon({"a": {("K",): 3}})
        report = stats(lex, lex)
        assert report.reduction_pct == pytest.approx(0.0)
        assert report.size_ratio == pytest.approx(1.0)

    def test_empty_baseline_is_undefined(self):
        lex = Lexicon({"a": {("K",): 3}})
        report = stats(lex, Lexicon())
        assert report.size_ratio is None
        assert report.reduction_pct is None
        assert "size_ratio\tundefined" in report.to_tsv()

    def test_tsv_shape(self):
        report = stats(lexicon_of_size("w", 3), lexicon_of_size("w", 4))
        lines = dict(line.split("\t") for line in report.to_tsv().splitlines())
        assert lines["entries"] == "3"
        assert lines["baseline_entries"] == "4"
        assert lines["shared_entries"] == "3"
        assert lines["reduction_pct"] == "25.00"

    def test_text_format_mentions_every_field(self):
        text = stats(lexicon_of_size("w", 2)).to_text()
        assert "entries" in text and "2" in text


class TestSeeding:
    def test_from_dictionary_counts_are_zero(self):
        d = ReferenceDictionary({"cat": [("K", "AE", "T"), ("K", "AH", "T")]})
        lex = from_dictionary(d)
        assert lex.entry_count == 2
        assert lex.count("cat", ("K", "AE", "T")) == 0

    def test_from_counted_pairs_sums(self):
        lex = from_counted_pairs([("a", ("K",), 2), ("a", ("K",), 3)])
        assert lex.count("a", ("K",)) == 5


def test_round_trip_preserves_counts():
    lex = accumulate([("a", ("K",)), ("a", ("K",)), ("b", ("T", "S"))])
    assert parse_lexicon(emit_lexicon(lex)) == lex


entries_st = st.dictionaries(
    st.text(alphabet="abc", min_size=1, max_size=3),
    st.dictionaries(
        st.lists(st.sampled_from(["K", "T", "S"]), min_size=1, max_size=3).map(tuple),
        st.integers(min_value=0, max_value=9),
        min_size=1,
        max_size=3,
    ),
    max_size=4,
)


@given(entries_st, entries_st)
def test_merge_size_never_exceeds_the_sum(a_entries, b_entries):
    a, b = Lexicon(a_entries), Lexicon(b_entries)
    merged = merge(a, b)
    assert merged.entry_count == a.entry_count + b.entry_count - shared_entries(a, b)
    assert merged.entry_count <= a.entry_count + b.entry_count


@given(st.lists(entries_st, min_size=1, max_size=4))
def test_merging_many_at_once_equals_the_pairwise_fold(entries):
    lexicons = [Lexicon(e) for e in entries]
    folded = lexicons[0]
    for lex in lexicons[1:]:
        folded = merge(folded, lex)
    merged = merge(*lexicons)
    assert merged == folded
    assert list(merged.pairs()) == list(folded.pairs())


def test_merge_of_three_lexicons_keeps_first_seen_order():
    a = accumulate([("y", ("T",)), ("x", ("K",))])
    b = accumulate([("z", ("S",)), ("x", ("D",)), ("x", ("K",))])
    c = accumulate([("x", ("T",)), ("y", ("T",))])
    assert list(merge(a, b, c).pairs()) == [
        ("y", ("T",), 2), ("x", ("K",), 2), ("x", ("D",), 1), ("x", ("T",), 1), ("z", ("S",), 1)
    ]
    assert merge() == Lexicon()


@given(entries_st)
def test_prune_identity_property(entries):
    lex = Lexicon(entries)
    assert prune(lex, 0, None) == lex


@given(entries_st, st.lists(st.lists(entries_st.map(lambda e: list(Lexicon(e).pairs())), max_size=3), max_size=3))
def test_seeding_the_pair_stream_equals_merging_the_seed_lexicon(seed_entries, files):
    # build --dict sums the dictionary's pairs and every file's in one lexicon,
    # where it merged a seed lexicon into the lexicon of the files
    seeds = Lexicon(seed_entries)
    triples = [triple for pairs_file in files for pairs in pairs_file for triple in pairs]
    once = from_counted_pairs(chain(seeds.pairs(), triples))
    merged = merge(seeds, from_counted_pairs(triples))
    assert once == merged
    assert list(once.pairs()) == list(merged.pairs())


def outcome(call, *args):
    try:
        return call(*args)
    except ValueError as err:
        return type(err), str(err)


prons_st = st.lists(st.sampled_from(["K", "T", "S"]), min_size=1, max_size=3).map(tuple)
canonical_st = st.dictionaries(
    st.text(alphabet="abc", min_size=1, max_size=3), st.lists(prons_st, min_size=1, max_size=3, unique=True), max_size=4
)


@given(entries_st, st.integers(-1, 10), st.one_of(st.none(), st.integers(0, 4)), st.one_of(st.none(), canonical_st))
@example({"a": {("K",): 3, ("T",): 1, ("S",): 0}}, 2, 1, {"a": [("S",), ("T",)]})
def test_prune_equals_the_old_prune(entries, min_count, max_variants, canonical_entries):
    lex = Lexicon(entries)
    canonical = None if canonical_entries is None else ReferenceDictionary(canonical_entries)
    new = outcome(prune, lex, min_count, max_variants, canonical)
    expected = outcome(old.prune, lex, min_count, max_variants, canonical)
    assert new == expected
    if isinstance(new, Lexicon):
        assert list(new.pairs()) == list(expected.pairs())


def float_bits(value):
    return value if value is None else value.hex()


@given(entries_st, st.one_of(st.none(), entries_st))
@example({}, None)
@example({"a": {("K",): 1}, "b": {("K",): 1, ("T",): 2}}, {})
@example({"a": {("K",): 1}, "b": {("K",): 1, ("T",): 2}}, {"b": {("T",): 0, ("S",): 1}, "c": {("S",): 4}})
def test_stats_equals_the_old_stats(entries, baseline_entries):
    lex = Lexicon(entries)
    baseline = None if baseline_entries is None else Lexicon(baseline_entries)
    new, expected = stats(lex, baseline), old.stats(lex, baseline)
    assert (new.to_tsv(), new.to_text()) == (expected.to_tsv(), expected.to_text())
    for name in ("words", "entries", "max_variants", "baseline_entries", "shared"):
        assert getattr(new, name) == getattr(expected, name)
    for name in ("mean_variants", "size_ratio", "reduction_pct"):
        assert float_bits(getattr(new, name)) == float_bits(getattr(expected, name))


def test_stats_hold_their_counts_and_work_out_the_ratios():
    assert [field.name for field in dataclasses.fields(LexiconStats)] == [
        "words", "entries", "max_variants", "baseline_entries", "shared"
    ]
    report = LexiconStats(words=2, entries=3, max_variants=2)
    assert report.mean_variants == 1.5
    assert report.size_ratio is None and report.reduction_pct is None
    against = LexiconStats(words=2, entries=3, max_variants=2, baseline_entries=4, shared=1)
    assert (against.size_ratio, against.reduction_pct) == (0.75, 25.0)
    assert LexiconStats(0, 0, 0, baseline_entries=0, shared=0).size_ratio is None
    for name in ("mean_variants", "size_ratio", "reduction_pct"):
        with pytest.raises(AttributeError):
            setattr(report, name, 7.0)
