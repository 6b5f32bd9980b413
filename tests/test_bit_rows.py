"""The bit-parallel unit-cost rows (``dpalign._bit_rows``) against the cell-by-cell
kernel, and ``nw_align`` on them against the code it replaced (``old_dpalign``)."""

import struct
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import old_dpalign as old
from pronvar import dpalign
from pronvar.cli import main
from pronvar.dpalign import AlignConfig, _bit_rows, _column_masks, _cost_rows, nw_align
from test_dpalign import abc_seq

phones = st.sampled_from(["A", "B", "C"])
# mostly short, sometimes wider than one 64-bit machine word
sequence = st.one_of(st.lists(phones, max_size=9), st.lists(phones, min_size=60, max_size=140)).map(tuple)


def cells(row, width):
    """Cells 0..width of a ``_bit_rows`` row, less the row's number."""
    plus, minus, _ = row
    return [(plus & (1 << j) - 1).bit_count() - (minus & (1 << j) - 1).bit_count() for j in range(width + 1)]


@settings(max_examples=300, deadline=None)
@given(sequence, sequence, st.data())
@example((), (), None)
@example(("A",), (), None)
@example((), ("A", "B"), None)
def test_bit_rows_are_the_unit_cost_rows(a, b, data):
    shift = 0 if data is None else data.draw(st.integers(0, len(b)))
    width = len(b) - shift
    expected = list(_cost_rows(a, b[shift:], AlignConfig()))
    masks = _column_masks(b)
    got = [_bit_rows((), masks, width, shift)]
    _bit_rows(a, masks, width, shift, out=got)
    assert len(got) == len(a) + 1
    for i, row in enumerate(got):
        assert all(0 <= bits < 1 << width for bits in row)
        assert [i + cell for cell in cells(row, width)] == expected[i]
    for i, (_, _, same) in enumerate(got[1:], 1):
        # bit j-1: cell j equals cell j-1 of the row before
        assert [same >> (j - 1) & 1 for j in range(1, width + 1)] == [
            int(expected[i][j] == expected[i - 1][j - 1]) for j in range(1, width + 1)
        ]


@settings(max_examples=300, deadline=None)
@given(sequence, sequence, sequence, st.integers(0, 150))
@example((), (), (), 0)
@example((), ("A", "B"), ("A", "C"), 1)
@example(("B", "C"), (), ("A", "C"), 0)
# 88 columns from column 2: wider than one 64-bit machine word
@example(("A", "B", "C"), ("C", "A"), ("A", "B", "C") * 30, 2)
def test_bit_rows_carry_on_from_the_row_they_returned(a, b, cols, shift):
    # the law the variant resolver's cost rests on: a pass over b that starts
    # from the last row of a pass over a gives the rows of one pass over a + b
    shift = min(shift, len(cols))
    masks, width = _column_masks(cols), len(cols) - shift
    first, second, whole = [], [], []
    carried = _bit_rows(b, masks, width, shift, row=_bit_rows(a, masks, width, shift, out=first), out=second)
    assert carried == _bit_rows(a + b, masks, width, shift, out=whole)
    assert first + second == whole
    assert len(whole) == len(a) + len(b)


def bits(x):
    return struct.pack("<d", x)


#: gap costs g for (0, g, g): dyadic ones that sum exactly, and ones that do not
gaps = st.one_of(
    st.sampled_from([1.0, 0.5, 3.0, 2.0**-40, 5e-324, 0.1, 0.3, 1e-300]),
    st.floats(min_value=5e-324, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(sequence, sequence, gaps)
# the largest lengths at which these gaps still sum exactly, and one more
@example(("A", "B", "A"), ("C", "A"), float(2**53 // 5))
@example(("A", "B", "A"), ("C", "A", "B"), float(2**53 // 5))
@example(("A",), (), 1e-300)
@example(("A",), ("B",), 1e-300)
def test_nw_align_at_unit_costs_times_a_gap_is_the_old_nw_align(hyp, ref, gap):
    cfg = AlignConfig(0.0, gap, gap)
    new, was = nw_align(abc_seq(hyp), ref, cfg), old.nw_align(abc_seq(hyp), ref, cfg)
    assert new.ops == was.ops
    assert bits(new.total_cost) == bits(was.total_cost)
    assert new == was


def test_the_bit_rows_run_only_while_sums_of_the_gap_are_exact():
    cases = [
        # 1e-300's integer numerator times 1 is below 2**53, times 2 above it
        (("A",), (), 1e-300, 0),
        (("A",), ("B",), 1e-300, 1),
        (("A", "B", "A"), ("C", "A"), float(2**53 // 5), 0),
        (("A", "B", "A"), ("C", "A", "B"), float(2**53 // 5), 1),
        (("A", "B"), ("B",), 1.0, 0),
    ]
    for hyp, ref, gap, calls in cases:
        with mock.patch.object(dpalign, "_cost_rows", wraps=dpalign._cost_rows) as spy:
            nw_align(abc_seq(hyp), ref, AlignConfig(0.0, gap, gap))
        assert spy.call_count == calls, (hyp, ref, gap)


def test_align_dp_fills_cell_by_cell_only_off_unit_costs(tmp_path):
    (tmp_path / "dict.txt").write_text("w\tA B\nv\tC\n", encoding="utf-8")
    (tmp_path / "hyp.txt").write_text("u1\tA C C\nu2\tB\n", encoding="utf-8")
    (tmp_path / "ref.txt").write_text("u1\tA B # C\tw v\nu2\tC\tv\n", encoding="utf-8")
    argv = ["align-dp", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt")]
    argv += ["--dict", str(tmp_path / "dict.txt"), "--out", str(tmp_path / "out.pairs")]
    for extra, called in (([], False), (["--gap", "0.5", "--mismatch", "0.5"], False), (["--mismatch", "0.1"], True)):
        with mock.patch.object(dpalign, "_cost_rows", wraps=dpalign._cost_rows) as spy:
            assert main(argv + extra) == 0
        assert spy.called == called, extra
