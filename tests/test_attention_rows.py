"""The attention-map record check, builders, writer and peak reader against their
old selves (``old_parsers.AttentionMap``, ``old_attention``).

Each takes a weight row in a few C-level calls where the old code took one
Python step per cell. The check gives the old map or the old error (type and
message, the first bad cell named; an int past the float range, and a value that
is not a number, is a non-finite weight, where the old check raised ``OverflowError``
or ``TypeError``), the builders the same weights, the writer
the same bytes, the peak reader the same cuts; ``pronvar synth`` writes the
files it wrote before.
"""

import hashlib
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import old_attention as old
import old_parsers
from pronvar import attnalign, synthbench
from pronvar.cli import main
from pronvar.phonecore import PhoneInventory, SegmentedUtterance, WordSpan

PHONES = ("K", "AE", "T", "D")
INVENTORY = PhoneInventory.from_phones(PHONES)

#: Weights the per-row test treats apart: signed zeros, ints and bools, negatives,
#: non-finite floats, finite floats and ints whose sum overflows, ints past the
#: float range, other numbers, and values that are not numbers at all.
SPECIAL = (
    0.0, -0.0, 0, 1, True, False, 0.5, -1, -0.5, -5e-324, math.nan, math.inf, -math.inf,
    1e308, 10**308, 10**400, -(10**400), Fraction(1, 3), Decimal("1"), Decimal("-2"),
    Decimal("NaN"), Decimal("Infinity"), None, "x",
)
WEIGHTS = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.integers())


def outcome(make, *args):
    """A built map as plain values, with each weight's type and repr; or the error raised."""
    try:
        amap = make(*args)
    except Exception as err:
        return type(err), str(err)
    weights = [[(type(w), repr(w)) for w in row] for row in amap.weights]
    return amap.utterance_id, amap.col_phones, amap.row_phones, weights


@st.composite
def attention_maps(draw):
    """Axes of 0-4 phones and weight rows, now and then too many, too few or too long."""
    n_rows, n_cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    count = n_rows if draw(st.integers(0, 9)) else draw(st.integers(0, 5))
    rows = []
    for _ in range(count):
        length = n_cols if draw(st.integers(0, 9)) else draw(st.integers(0, 5))
        rows.append(draw(st.sampled_from((tuple, list)))(draw(st.lists(WEIGHTS, min_size=length, max_size=length))))
    return PHONES[:n_cols], PHONES[:n_rows], rows


@settings(max_examples=400)
@given(attention_maps())
@example((("K", "AE", "T"), ("K",), [(0.0, -1.0, math.inf)]))  # a negative, then an inf: the negative is named
@example((("K", "AE", "T"), ("K",), [(math.inf, -1.0, 0.0)]))  # an inf, then a negative: the inf is named
@example((("K", "AE", "T"), ("K",), [(-math.inf, 0.0, 0.0)]))  # both in one cell: non-finite is named
@example((("K", "AE"), ("K", "AE"), [(1.0, 0.0), (1e308, 1e308)]))  # finite weights whose sum overflows
@example((("K", "AE"), ("K",), [(10**308, 10**308)]))  # ints whose sum is past the float range
@example((("K", "AE", "T"), ("K",), [(1.0, math.nan, 10**400)]))  # a nan before an int past the float range
@example((("K", "AE"), ("K",), [(1.0, 10**400)]))  # an int past the float range, which reads back as inf
@example((("K", "AE"), ("K",), [(-(10**400), 1.0)]))  # and a negative one
@example((("K", "AE"), ("K",), [(math.nan, -1.0)]))  # a leading nan hides the negative from min
@example((("K", "AE"), ("K",), [(Decimal("1"), Decimal("NaN"))]))  # min cannot compare a decimal nan
@example((("K", "AE"), ("K",), [(None, 1.0)]))
@example((("K", "AE"), ("K",), [(0.5, "x")]))  # not a number, after a good weight
@example((("K", "AE"), ("K", "AE"), [(-1.0, 0.0), (None, 1.0)]))  # a negative is named before a later non-number
@example((("K", "AE"), ("K", "AE", "T"), [(0.0, 1.0), (0.5, -0.0), (True, -2)]))  # the bad cell is in a later row
def test_record_check_against_its_old_self(case):
    cols, rows, weights = case
    new = outcome(attnalign.AttentionMap, "u1", cols, rows, weights)
    old_weights = [type(row)(map(no_number_as_nan, map(past_range_as_inf, row))) for row in weights]
    assert new == outcome(old_parsers.AttentionMap, "u1", cols, rows, old_weights)


def past_range_as_inf(weight):
    """``inf`` for an int past the float range, which ``float()`` reads as neither: the check
    names it a non-finite weight, as it does ``inf``, where its old self raised ``OverflowError``."""
    if type(weight) is int:
        try:
            float(weight)
        except OverflowError:
            return math.inf
    return weight


def no_number_as_nan(weight):
    """``nan`` for a value that is not a number, such as ``None`` or ``"x"``: the check names it a
    non-finite weight, as it does ``nan``, where its old self raised ``TypeError`` from ``math.isfinite``."""
    return math.nan if weight is None or isinstance(weight, str) else weight


@settings(max_examples=300)
@given(
    n_cols=st.integers(0, 9),
    n_rows=st.integers(0, 9),
    radius=st.integers(-1, 4),
    seed=st.integers(0, 2**64),
)
@example(n_cols=0, n_rows=3, radius=2, seed=1)  # an empty column axis: no row has a place for its peak
@example(n_cols=2, n_rows=6, radius=0, seed=1)  # more rows than columns
def test_builders_and_writer_against_their_old_selves(n_cols, n_rows, radius, seed):
    cols = tuple(PHONES[i % 4] for i in range(n_cols))
    rows = tuple(PHONES[(i + 1) % 4] for i in range(n_rows))
    new_maps, old_maps = [], []
    for new_build, old_build, extra in (
        (synthbench.identity_attention, old.identity_attention, ()),
        (synthbench.jittered_attention, old.jittered_attention, (radius, seed)),
    ):
        new = outcome(new_build, "u1", cols, rows, *extra)
        assert new == outcome(old_build, "u1", cols, rows, *extra)
        if isinstance(new[0], str):
            new_maps.append(new_build("u1", cols, rows, *extra))
            old_maps.append(old_build("u1", cols, rows, *extra))
    assert attnalign.emit_attention_file(new_maps) == old.emit_attention_file(old_maps)


def test_writer_against_its_old_self_on_every_kind_of_weight():
    weights = [(0.0, -0.0, 5e-324, 1e-300), (1, True, False, 1e308), (0.1, 2.5e-7, 3, Fraction(1, 3))]
    amap = attnalign.AttentionMap("u1", PHONES, PHONES[:3], weights)
    assert attnalign.emit_attention_file([amap, amap]) == old.emit_attention_file([amap, amap])


@st.composite
def peak_cases(draw):
    """Words of 1-3 phones and rows of few distinct weights, so most rows hold ties,
    among them 0.0 against -0.0 and 1 against 1.0 and True."""
    lengths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n_cols = draw(st.integers(1, 6))
    cell = st.sampled_from((0.0, -0.0, 0, False, 0.5, 1.0, 1, True))
    return lengths, [draw(st.lists(cell, min_size=n_cols, max_size=n_cols)) for _ in range(sum(lengths))]


@settings(max_examples=300)
@given(peak_cases())
@example(([1, 1, 1], [[-0.0, 0.0, 0.0], [0.0, -0.0, 1], [0.5, 1.0, True]]))
def test_peak_reader_against_its_old_self(case):
    lengths, weights = case
    words = tuple(WordSpan(f"w{i}", ("K",) * n) for i, n in enumerate(lengths))
    ref = SegmentedUtterance("u1", words, INVENTORY)
    amap = attnalign.AttentionMap("u1", ("AE",) * len(weights[0]), ref.phones, weights)
    new, was = attnalign.place_boundaries(amap, ref), old.place_boundaries(amap, ref)
    assert (new.cuts, new.length, new.repaired) == (was.cuts, was.length, was.repaired)


SYNTH_DICT = "doesn't\tD AH Z N T\ncat\tK AE T\nvery\tV EH R IY\nthing\tTH IH NG\n"
SYNTH_RULES = "Z\tS\t0.5\nV\tB\t0.5\nTH\tS\t0.5\n"
_SHARED = {
    "hyp.txt": "63241f1f0905e8174bb9346e2988d822ad62d0df206d0a5690e008d9540895d4",
    "inventory.txt": "04b4a8e24c19d52ae619acdfd1642b275fba868fa288e2ab4ae4f93890c5065a",
    "ref.txt": "40ab1fdc65020774e69eb92967aa989fc9bf8345e3eb617fee1494f9480e0d60",
    "truth_bounds.txt": "373726730f4a885c193d407a805839dcf718dc3b1d983660a8bfc24add653750",
    "truth_lexicon.txt": "6e4ae4cb373bfa94ad39d1849ab2297de5945549fc10b48968952ffeb3a88089",
}
#: sha256 of each file ``pronvar synth`` wrote, per --attn value, before weight rows
#: were built whole: SYNTH_DICT and SYNTH_RULES, 40 utterances at --seed 11.
SYNTH_DIGESTS = {
    "identity": {**_SHARED, "attn.txt": "7d5537bf8389547c3943e5e46365ca45bf797bdf536e69cf81a1b4bbda998f35"},
    "jitter:2": {**_SHARED, "attn.txt": "62c7fc4320b36cc7bbfd04d8313f74d8d50c8855e8e1876ad68bcbf95e7caf8b"},
}


@pytest.mark.parametrize("attn", sorted(SYNTH_DIGESTS))
def test_synth_writes_the_bytes_it_wrote_before(tmp_path, attn):
    (tmp_path / "dict.txt").write_text(SYNTH_DICT, encoding="utf-8")
    (tmp_path / "rules.txt").write_text(SYNTH_RULES, encoding="utf-8")
    out = tmp_path / "corpus"
    flags = ["--words", "4", "--utts", "40", "--seed", "11", "--attn", attn, "--indel-prob", "0.2"]
    inputs = ["--dict", str(tmp_path / "dict.txt"), "--rules", str(tmp_path / "rules.txt")]
    assert main(["synth", *inputs, *flags, "--out-dir", str(out)]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert written == SYNTH_DIGESTS[attn]
