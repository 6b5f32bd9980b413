import dataclasses
import io
import re
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager, nullcontext, redirect_stderr
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from pronvar import attnalign, cli
from pronvar.attnalign import parse_attention_file
from pronvar.cli import main
from pronvar.errors import DuplicateUtteranceId, MissingUtterance
from pronvar.phonecore import emit_lexicon, parse_dictionary_file, parse_pairs_file

DICT = "doesn't\tD AH Z N T\ncat\tK AE T\n"
RULES = "Z\tS\t1.0\n"


def write(path, content):
    path.write_text(content, encoding="utf-8")
    return str(path)


@pytest.fixture
def corpus_dir(tmp_path):
    d = write(tmp_path / "dict.txt", DICT)
    r = write(tmp_path / "rules.txt", RULES)
    out = tmp_path / "corpus"
    assert main(
        [
            "synth",
            "--dict", d,
            "--rules", r,
            "--words", "2",
            "--utts", "12",
            "--seed", "7",
            "--out-dir", str(out),
        ]
    ) == 0
    return tmp_path, out


class TestSynth:
    def test_writes_the_whole_corpus(self, corpus_dir):
        _, out = corpus_dir
        names = {p.name for p in out.iterdir()}
        assert names == {
            "inventory.txt",
            "hyp.txt",
            "ref.txt",
            "attn.txt",
            "truth_lexicon.txt",
            "truth_bounds.txt",
        }

    def test_bad_attn_flag(self, tmp_path):
        d = write(tmp_path / "dict.txt", DICT)
        r = write(tmp_path / "rules.txt", RULES)
        code = main(
            ["synth", "--dict", d, "--rules", r, "--words", "1", "--utts", "1",
             "--seed", "1", "--out-dir", str(tmp_path / "x"), "--attn", "fancy"]
        )
        assert code == 1

    def test_empty_dictionary_is_a_format_error(self, tmp_path, capsys):
        d = write(tmp_path / "dict.txt", "")
        r = write(tmp_path / "rules.txt", RULES)
        code = main(
            ["synth", "--dict", d, "--rules", r, "--words", "1", "--utts", "1",
             "--seed", "1", "--out-dir", str(tmp_path / "x")]
        )
        assert code == 2
        assert "dict.txt: no words to sample" in capsys.readouterr().err

    def test_out_dir_under_a_file_is_a_usage_error(self, tmp_path, capsys):
        d = write(tmp_path / "dict.txt", DICT)
        r = write(tmp_path / "rules.txt", RULES)
        write(tmp_path / "blocker", "")
        code = main(
            ["synth", "--dict", d, "--rules", r, "--words", "1", "--utts", "1",
             "--seed", "1", "--out-dir", str(tmp_path / "blocker" / "x")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "blocker" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--words", "0"], "vocabulary and utterances must be >= 1"),
            (["--utts", "0"], "vocabulary and utterances must be >= 1"),
            (["--attn", "jitter:-1"], "jitter_radius must be >= 0"),
            (["--indel-prob", "1.5"], "indel_probability must be in [0, 1)"),
            (["--indel-prob", "-0.5"], "indel_probability must be in [0, 1)"),
            # a bad radius used to be reported first
            (["--attn", "jitter:-1", "--words", "0"], "vocabulary and utterances must be >= 1"),
        ],
    )
    def test_a_value_out_of_range_is_the_librarys_usage_error(self, tmp_path, capsys, flags, message):
        d = write(tmp_path / "dict.txt", DICT)
        r = write(tmp_path / "rules.txt", RULES)
        out = tmp_path / "x"
        argv = ["synth", "--dict", d, "--rules", r, "--words", "1", "--utts", "1", "--seed", "1",
                "--out-dir", str(out), *flags]  # fmt: skip
        assert main(argv) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()


def test_the_mode_choices_are_the_searches_attnalign_names():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    mode = next(a for a in sub.choices["align-attn"]._actions if a.dest == "mode")
    assert mode.choices == tuple(attnalign.MODES)
    for name, search in attnalign.MODES.items():
        assert cli.AttnConfig(mode=search).mode == search


class TestAlignDp:
    def test_harvests_pairs(self, corpus_dir):
        tmp, out = corpus_dir
        pairs = tmp / "dp.pairs"
        code = main(
            [
                "align-dp",
                "--hyp", str(out / "hyp.txt"),
                "--ref", str(out / "ref.txt"),
                "--dict", str(tmp / "dict.txt"),
                "--out", str(pairs),
            ]
        )
        assert code == 0
        lines = pairs.read_text().splitlines()
        assert lines  # every utterance contributes its words
        assert all(line.split("\t")[1] == "1" for line in lines)
        assert any("D AH S N T" in line for line in lines)

    def test_empty_input_produces_empty_output(self, tmp_path):
        hyp = write(tmp_path / "hyp.txt", "")
        ref = write(tmp_path / "ref.txt", "")
        d = write(tmp_path / "dict.txt", DICT)
        out = tmp_path / "out.pairs"
        assert main(["align-dp", "--hyp", hyp, "--ref", ref, "--dict", d, "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_variant_tie_at_non_dyadic_costs_keeps_file_order(self, tmp_path):
        # both pronunciations of w cost exactly 0.6; summed in floats, 'A'
        # reads 0.6000000000000001 and 'B B' 0.6
        d = write(tmp_path / "dict.txt", "w\tA\nw\tB B\nv\tB\n")
        hyp = write(tmp_path / "hyp.txt", "u1\tA B A A A\n")
        ref = write(tmp_path / "ref.txt", "u1\tA # B\tw v\n")
        out = tmp_path / "out.pairs"
        argv = ["align-dp", "--hyp", hyp, "--ref", ref, "--dict", d, "--mismatch", "0.1", "--gap", "0.2"]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text() == "w\t1\tA\nv\t1\tB A A A\n"

    def test_costs_scaled_past_the_float_range_give_the_same_pairs(self, tmp_path, capsys):
        # at --mismatch 2**1023 --gap 2**1022 a sum of four gaps is past the largest float
        d = write(tmp_path / "dict.txt", "w\tB A B\nv\tC\n")
        hyp = write(tmp_path / "hyp.txt", "u1\tC B\n")
        ref = write(tmp_path / "ref.txt", "u1\tB A B # C\tw v\n")
        argv = ["align-dp", "--hyp", hyp, "--ref", ref, "--dict", d, "--match", "0"]
        written = []
        for mismatch, gap in (("2", "1"), ("8.98846567431158e+307", "4.49423283715579e+307")):
            out = tmp_path / f"{gap}.pairs"
            assert main([*argv, "--mismatch", mismatch, "--gap", gap, "--out", str(out)]) == 0
            written.append(out.read_text())
        assert written == ["v\t1\tC B\n"] * 2
        assert capsys.readouterr().err == ""


class TestAlignAttn:
    def test_harvests_pairs_with_sidecars(self, corpus_dir):
        tmp, out = corpus_dir
        pairs = tmp / "attn.pairs"
        rejects = tmp / "attn.rejects"
        bounds = tmp / "attn.bounds"
        code = main(
            [
                "align-attn",
                "--attn", str(out / "attn.txt"),
                "--ref", str(out / "ref.txt"),
                "--dict", str(tmp / "dict.txt"),
                "--out", str(pairs),
                "--rejects", str(rejects),
                "--bounds", str(bounds),
            ]
        )
        assert code == 0
        assert rejects.read_text() == ""  # identity maps, mild corruption
        assert pairs.read_text()
        assert bounds.read_text()

    def test_zero_threshold_rejects_every_imperfect_utterance(self, corpus_dir):
        tmp, out = corpus_dir
        rejects = tmp / "strict.rejects"
        code = main(
            [
                "align-attn",
                "--attn", str(out / "attn.txt"),
                "--ref", str(out / "ref.txt"),
                "--dict", str(tmp / "dict.txt"),
                "--threshold", "0",
                "--out", str(tmp / "strict.pairs"),
                "--rejects", str(rejects),
            ]
        )
        assert code == 0
        rejected = {line.split("\t")[0] for line in rejects.read_text().splitlines()}
        # with Z -> S at p=1, every utterance containing "doesn't" is imperfect
        hyp_lines = (out / "hyp.txt").read_text().splitlines()
        imperfect = {l.split("\t")[0] for l in hyp_lines if " S " in l or l.endswith(" S")}
        assert imperfect <= rejected

    @pytest.mark.parametrize("mode", ["global", "per-boundary"])
    def test_a_huge_radius_acts_as_the_longest_utterance(self, corpus_dir, mode):
        tmp, out = corpus_dir
        longest = max(len(line.split("\t")[1].split()) for line in (out / "hyp.txt").read_text().splitlines())

        def run(radius):
            prefix = tmp / f"r{radius}"
            argv = [
                "align-attn",
                "--attn", str(out / "attn.txt"),
                "--ref", str(out / "ref.txt"),
                "--dict", str(tmp / "dict.txt"),
                "--mode", mode,
                "--radius", str(radius),
                "--threshold", "0",
                "--out", f"{prefix}.pairs",
                "--rejects", f"{prefix}.rejects",
                "--bounds", f"{prefix}.bounds",
            ]
            assert main(argv) == 0
            return [(tmp / f"r{radius}.{ext}").read_bytes() for ext in ("pairs", "rejects", "bounds")]

        expected = run(longest)
        start = time.perf_counter()
        assert run(1_000_000_000) == expected
        assert time.perf_counter() - start < 10


WORDS = {"cat": ("K", "AE", "T"), "doesn't": ("D", "AH", "Z", "N", "T")}


def eager_pair_by_id(left, right):
    """``dpalign.pair_by_id`` as it was before it streamed, kept as the oracle: ``left`` is listed first."""
    left = list(left)
    right_map: dict[str, object] = {}
    for item in right:
        if item.utterance_id in right_map:
            raise DuplicateUtteranceId(item.utterance_id)
        right_map[item.utterance_id] = item
    seen: set[str] = set()
    pairs = []
    for item in left:
        if item.utterance_id in seen:
            raise DuplicateUtteranceId(item.utterance_id)
        seen.add(item.utterance_id)
        if item.utterance_id not in right_map:
            raise MissingUtterance(item.utterance_id, 0)
        pairs.append((item, right_map[item.utterance_id]))
    for utt_id in right_map:
        if utt_id not in seen:
            raise MissingUtterance(utt_id, 1)
    return pairs


@contextmanager
def eager_order():
    """``main()`` as it ran before it streamed: attn.txt parsed whole, then paired whole, then searched."""
    with mock.patch.object(cli, "_attention_maps", parse_attention_file):
        with mock.patch.object(attnalign, "pair_by_id", eager_pair_by_id):
            yield


def attention_corpus(utterances):
    """ref.txt lines and attention records (lists of lines, identity weights) for ``(id, words)`` pairs."""
    refs, records = [], []
    for utt_id, words in utterances:
        phones = " ".join(p for word in words for p in WORDS[word])
        n = len(phones.split())
        refs.append(f"{utt_id}\t{' # '.join(' '.join(WORDS[w]) for w in words)}\t{' '.join(words)}\n")
        weights = [" ".join("1" if r == c else "0" for c in range(n)) for r in range(n)]
        records.append([f"{utt_id} {n} {n}", phones, phones, *weights])
    return refs, records


def put_defect(kind, refs, records, i):
    """Put one defect of ``kind`` into record ``i``."""
    record = records[i]
    if kind in ("bad weight token", "infinite weight", "negative weight"):
        token = {"bad weight token": "x", "infinite weight": "1e999", "negative weight": "-1"}[kind]
        record[3] = " ".join([token, *record[3].split()[1:]])
    elif kind == "duplicate map id":
        records.insert(i + 1, list(record))
    elif kind == "map id not in ref.txt":
        records.insert(i, ["x" + record[0], *record[1:]])
    elif kind == "ref.txt id with no map":
        del records[i]
    elif kind == "row phones disagree":
        record[1] = " ".join(["S", *record[1].split()[1:]])
    elif kind == "bad phone symbol":
        record[2] = " ".join(["É", *record[2].split()[1:]])
    elif kind in ("row count", "column count"):
        utt_id, n_rows, n_cols = record[0].split()
        bump = (1, 0) if kind == "row count" else (0, 1)
        record[0] = f"{utt_id} {int(n_rows) + bump[0]} {int(n_cols) + bump[1]}"
    else:
        raise AssertionError(kind)


DEFECTS = (
    "bad weight token",
    "infinite weight",
    "negative weight",
    "duplicate map id",
    "map id not in ref.txt",
    "ref.txt id with no map",
    "row phones disagree",
    "row count",
    "column count",
    "bad phone symbol",
)


def run_align_attn(utterances, defects, flags=()):
    """Exit code, stderr and written outputs of ``align-attn`` over the corpus with
    ``defects`` (kind, record) put in, once as it runs now and once in the eager order."""
    outcomes = []
    for order in (nullcontext(), eager_order()):
        refs, records = attention_corpus(utterances)
        for kind, i in sorted(defects, key=lambda defect: -defect[1]):
            put_defect(kind, refs, records, i)
        with tempfile.TemporaryDirectory() as tmp:
            d = write(Path(tmp) / "dict.txt", "".join(f"{w}\t{' '.join(p)}\n" for w, p in WORDS.items()))
            ref = write(Path(tmp) / "ref.txt", "".join(refs))
            attn = write(Path(tmp) / "attn.txt", "\n".join("\n".join(record) + "\n" for record in records))
            outputs = [Path(tmp) / name for name in ("o.pairs", "o.rejects", "o.bounds")]
            argv = ["align-attn", "--attn", attn, "--ref", ref, "--dict", d, *flags]
            argv += ["--out", str(outputs[0]), "--rejects", str(outputs[1]), "--bounds", str(outputs[2])]
            err = io.StringIO()
            with order, redirect_stderr(err):
                code = main(argv)
            written = [path.name for path in outputs if path.exists()]
            outcomes.append((code, err.getvalue().replace(tmp, "TMP"), written))
    return outcomes


@st.composite
def one_defect_corpora(draw):
    n = draw(st.integers(1, 4))
    words = st.lists(st.sampled_from(sorted(WORDS)), min_size=1, max_size=3)
    utterances = [(f"u{k}", draw(words)) for k in range(n)]
    return utterances, [(draw(st.sampled_from(DEFECTS)), draw(st.integers(0, n - 1)))]


class TestAttentionStream:
    """align-attn reads attn.txt one record at a time. With one defect it fails
    as the whole-file order did; with several, the first record's fails first."""

    def test_a_clean_corpus_runs_as_in_the_eager_order(self):
        now, eager = run_align_attn([("u0", ["cat", "doesn't"]), ("u1", ["doesn't"])], [])
        assert now == eager == (0, "", ["o.pairs", "o.rejects", "o.bounds"])

    @settings(max_examples=150, deadline=None)
    @given(one_defect_corpora())
    def test_one_defect_gives_the_eager_verdict(self, case):
        now, eager = run_align_attn(*case)
        assert now == eager
        assert now[0] in (2, 3) and now[2] == []

    @pytest.mark.parametrize(
        "defects, flags, now, eager",
        [
            # an error of the search or of the pairing now comes before a parse error in a later record
            ([("row phones disagree", 1), ("bad weight token", 3)], (),
             (3, "error: TMP/attn.txt: attention map 'u1': row phones disagree with the reference phones\n"),
             (2, "format error: TMP/attn.txt: line 25: bad weight row 'x 0 0'\n")),
            ([("row phones disagree", 1), ("duplicate map id", 3)], (),
             (3, "error: TMP/attn.txt: attention map 'u1': row phones disagree with the reference phones\n"),
             (3, "error: TMP/attn.txt: duplicate utterance id 'u3' (line 29)\n")),
            ([("map id not in ref.txt", 1), ("negative weight", 3)], (),
             (3, "error: TMP/attn.txt: utterance 'xu1' has no counterpart in TMP/ref.txt\n"),
             (3, "error: TMP/attn.txt: line 29: attention map 'u3': negative weight at (0, 0)\n")),
            # and before a reference with no map, which shows only once every map is read
            ([("row phones disagree", 1), ("ref.txt id with no map", 3)], (),
             (3, "error: TMP/attn.txt: attention map 'u1': row phones disagree with the reference phones\n"),
             (3, "error: TMP/ref.txt: utterance 'u3' has no counterpart in TMP/attn.txt\n")),
            # a flag value the search rejects now comes before any defect in attn.txt
            ([("bad weight token", 0)], ("--radius", "-1"),
             (1, "usage error: shift_radius must be >= 0\n"),
             (2, "format error: TMP/attn.txt: line 4: bad weight row 'x 0 0'\n")),
            # without --inventory, a bad phone symbol is a defect of its record, met as that is read
            ([("row phones disagree", 1), ("bad phone symbol", 3)], (),
             (3, "error: TMP/attn.txt: attention map 'u1': row phones disagree with the reference phones\n"),
             (2, "format error: TMP/attn.txt: line 24: bad phone symbol 'É'\n")),
        ],
    )
    def test_the_first_defect_read_now_fails_first(self, defects, flags, now, eager):
        utterances = [(f"u{k}", ["cat"]) for k in range(4)]
        got_now, got_eager = run_align_attn(utterances, defects, flags)
        assert got_now == (*now, [])
        assert got_eager == (*eager, [])


def test_a_form_feed_does_not_end_a_line(tmp_path, capsys):
    hyp = write(tmp_path / "hyp.txt", "u1\tK AE\fu9\tK AE T\n")
    ref = write(tmp_path / "ref.txt", "u1\tK AE T\tcat\nu9\tK AE T\tcat\n")
    d = write(tmp_path / "dict.txt", "cat\tK AE T\n")
    assert main(["align-dp", "--hyp", hyp, "--ref", ref, "--dict", d, "--out", str(tmp_path / "o")]) == 2
    assert "hyp.txt: line 1: extra tab in phone field\n" in capsys.readouterr().err


def test_a_tab_inside_a_pronunciation_or_cut_field_exits_2(tmp_path, capsys):
    hyp = write(tmp_path / "hyp.txt", "u1\tK AE T\n")
    ref = write(tmp_path / "ref.txt", "u1\tK AE T\tcat\n")
    d = write(tmp_path / "dict.txt", "cat\tK AE T\ncat\tK\tAE T\n")
    assert main(["align-dp", "--hyp", hyp, "--ref", ref, "--dict", d, "--out", str(tmp_path / "o")]) == 2
    assert "dict.txt: line 2: extra tab in pronunciation field\n" in capsys.readouterr().err
    pred = write(tmp_path / "pred.bounds", "u1\t1\t2\n")
    truth = write(tmp_path / "truth.bounds", "u1\t1 2\n")
    assert main(["eval-bounds", "--pred", pred, "--truth", truth]) == 2
    assert "pred.bounds: line 1: extra tab in cut field\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, command, line",
    [("attn.txt", "align-attn", 8), ("ref.txt", "align-attn", 2), ("hyp.txt", "align-dp", 2)],
)
def test_a_repeated_utterance_id_names_its_line(tmp_path, capsys, name, command, line):
    files = {
        "attn.txt": "u1 3 3\nK AE T\nK AE T\n1 0 0\n0 1 0\n0 0 1\n",
        "ref.txt": "u1\tK AE T\tcat\n",
        "hyp.txt": "u1\tK AE T\n",
        "dict.txt": "cat\tK AE T\n",
    }
    files[name] += ("\n" if name == "attn.txt" else "") + files[name]
    paths = {key: write(tmp_path / key, text) for key, text in files.items()}
    first = ["--attn", paths["attn.txt"]] if command == "align-attn" else ["--hyp", paths["hyp.txt"]]
    argv = [command, *first, "--ref", paths["ref.txt"], "--dict", paths["dict.txt"], "--out", str(tmp_path / "o")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {paths[name]}: duplicate utterance id 'u1' (line {line})\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, name, text, message",
    [
        ("align-dp", "hyp.txt", "u1\tK AE T\nu9\tK AE T\n", "{hyp}: utterance 'u9' has no counterpart in {ref}"),
        ("align-dp", "ref.txt", "u1\tK AE T\tcat\nu9\tK AE T\tcat\n",
         "{ref}: utterance 'u9' has no counterpart in {hyp}"),
        ("align-attn", "attn.txt", "u9 3 3\nK AE T\nK AE T\n1 0 0\n0 1 0\n0 0 1\n",
         "{attn}: utterance 'u9' has no counterpart in {ref}"),
        ("align-attn", "ref.txt", "u1\tK AE T\tcat\nu9\tK AE T\tcat\n",
         "{ref}: utterance 'u9' has no counterpart in {attn}"),
        ("align-attn", "attn.txt", "u1 2 3\nK AE\nK AE T\n1 0 0\n0 1 0\n",
         "{attn}: attention map 'u1': 2 rows vs 3 reference phones"),
    ],
    ids=["dp-hyp-only", "dp-ref-only", "attn-map-only", "attn-ref-only", "attn-row-count"],
)
def test_an_error_between_two_files_names_them(tmp_path, capsys, command, name, text, message):
    files = {
        "attn.txt": "u1 3 3\nK AE T\nK AE T\n1 0 0\n0 1 0\n0 0 1\n",
        "ref.txt": "u1\tK AE T\tcat\n",
        "hyp.txt": "u1\tK AE T\n",
        "dict.txt": "cat\tK AE T\n",
        name: text,
    }
    paths = {key: write(tmp_path / key, content) for key, content in files.items()}
    first = ["--attn", paths["attn.txt"]] if command == "align-attn" else ["--hyp", paths["hyp.txt"]]
    argv = [command, *first, "--ref", paths["ref.txt"], "--dict", paths["dict.txt"], "--out", str(tmp_path / "o")]
    assert main(argv) == 3
    stems = {Path(key).stem: path for key, path in paths.items()}
    assert capsys.readouterr().err == f"error: {message.format(**stems)}\n"


@pytest.mark.parametrize(
    "name, text, strict, message",
    [
        ("ref.txt", "u0\tK AE T\tcat\nu1\tK # # AE T\tc a t\n", False, "utterance 'u1': word span 1 is empty"),
        ("ref.txt", "u0\tK AE T\tcat\nu1\tK AE T\tcat dog\n", False, "utterance 'u1': 1 phone spans for 2 words"),
        ("hyp.txt", "u0\tK AE T\nu1\tK ZZ T\n", True, "unknown phone 'ZZ' in utterance 'u1'"),
        ("ref.txt", "u0\tK AE T\tcat\nu1\tK ZZ T\tcat\n", True, "unknown phone 'ZZ' in utterance 'u1'"),
        ("dict.txt", "cat\tK AE T\ndog\tD ZZ G\n", True, "unknown phone 'ZZ' in dictionary word 'dog'"),
        ("p.pairs", "cat\t1\tK AE T\ndog\t1\tD ZZ G\n", True, "unknown phone 'ZZ' in pair for word 'dog'"),
        ("dict.txt", "cat\tK AE T\ndog\t\n", False, "empty pronunciation for word 'dog'"),
        ("p.pairs", "cat\t1\tK AE T\ndog\t1\t \n", False, "empty pronunciation for word 'dog'"),
    ],
    ids=["empty-span", "span-word-mismatch", "hyp-unknown-phone", "ref-unknown-phone", "dict-unknown-phone",
         "pairs-unknown-phone", "dict-empty-pronunciation", "pairs-empty-pronunciation"],  # fmt: skip
)
def test_a_constraint_error_read_from_a_file_names_its_line(tmp_path, capsys, name, text, strict, message):
    files = {
        "hyp.txt": "u0\tK AE T\nu1\tK AE T\n",
        "ref.txt": "u0\tK AE T\tcat\nu1\tK AE T\tcat\n",
        "dict.txt": "cat\tK AE T\ndog\tD AO G\n",
        "p.pairs": "cat\t1\tK AE T\n",
        "inv.txt": "K\nAE\nT\nD\nAO\nG\n",
    }
    files[name] = text
    paths = {key: write(tmp_path / key, content) for key, content in files.items()}
    flags = ["--inventory", paths["inv.txt"]] if strict else []
    if name == "p.pairs":
        argv = ["build", "--pairs", paths["p.pairs"], *flags]
    else:
        argv = ["align-dp", "--hyp", paths["hyp.txt"], "--ref", paths["ref.txt"], "--dict", paths["dict.txt"], *flags]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"error: {paths[name]}: line 2: {message}\n"
    assert not (tmp_path / "o").exists()


def test_a_bad_dictionary_word_is_called_a_word(tmp_path, capsys):
    d = write(tmp_path / "dict.txt", "ca t\tK AE T\n")
    hyp = write(tmp_path / "hyp.txt", "u1\tK AE T\n")
    ref = write(tmp_path / "ref.txt", "u1\tK AE T\tcat\n")
    assert main(["align-dp", "--hyp", hyp, "--ref", ref, "--dict", d, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"format error: {d}: line 1: bad word 'ca t'\n"


class TestBuildMergeStats:
    def test_build_counts_and_prunes(self, tmp_path):
        pairs = write(
            tmp_path / "p.pairs",
            "cat\t1\tK AE T\ncat\t1\tK AE T\ncat\t1\tK AH T\n",
        )
        out = tmp_path / "built.lex"
        assert main(["build", "--pairs", pairs, "--min-count", "2", "--out", str(out)]) == 0
        assert out.read_text() == "cat\t2\tK AE T\n"

    def test_build_with_dictionary_seeds_canonicals(self, tmp_path):
        pairs = write(tmp_path / "p.pairs", "doesn't\t1\tD AH S N T\n")
        d = write(tmp_path / "dict.txt", DICT)
        out = tmp_path / "built.lex"
        assert main(["build", "--pairs", pairs, "--dict", d, "--out", str(out)]) == 0
        text = out.read_text()
        assert "doesn't\t1\tD AH S N T" in text
        assert "doesn't\t0\tD AH Z N T" in text
        assert "cat\t0\tK AE T" in text

    def test_build_with_a_dictionary_word_that_starts_with_a_comment_mark_exits_2(self, tmp_path, capsys):
        # the line does not start with "#", but its word does: written back, it would read as a comment
        pairs = write(tmp_path / "p.pairs", "cat\t1\tK AE T\n")
        d = write(tmp_path / "dict.txt", " #x\tK AE\n")
        assert main(["build", "--pairs", pairs, "--dict", d, "--out", str(tmp_path / "built.lex")]) == 2
        assert "dict.txt: line 1: word '#x' starts with '#', which begins a comment line\n" in capsys.readouterr().err
        assert not (tmp_path / "built.lex").exists()

    def test_build_with_dictionary_sums_every_pair_once(self, tmp_path, monkeypatch):
        text = "cat\t1\tK AH T\ndoesn't\t1\tD AH S N T\ncat\t2\tK AE T\n"
        pairs = write(tmp_path / "p.pairs", text)
        d = write(tmp_path / "dict.txt", DICT)
        calls = []
        merge = cli.lexbuild.merge
        monkeypatch.setattr(cli.lexbuild, "merge", lambda *lexicons: calls.append(len(lexicons)) or merge(*lexicons))
        out = tmp_path / "built.lex"
        assert main(["build", "--pairs", pairs, "--dict", d, "--min-count", "1", "--out", str(out)]) == 0
        assert calls == []
        canonical = parse_dictionary_file(DICT)
        seeded = merge(cli.lexbuild.from_dictionary(canonical), cli.lexbuild.from_counted_pairs(parse_pairs_file(text)))
        assert out.read_text() == emit_lexicon(cli.lexbuild.prune(seeded, 1, None, canonical)) == (
            "cat\t2\tK AE T\ncat\t1\tK AH T\ndoesn't\t1\tD AH S N T\ndoesn't\t0\tD AH Z N T\n"
        )

    @pytest.mark.parametrize(
        "files, message",
        [
            (["--pairs", "bad.pairs", "--dict", "missing.dict"], "usage error: cannot read missing.dict"),
            (["--inventory", "bad_inv.txt", "--pairs", "missing.pairs"], "usage error: cannot read missing.pairs"),
        ],
    )
    def test_build_reads_every_file_before_it_parses_any(self, tmp_path, capsys, monkeypatch, files, message):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "bad.pairs", "cat\tmany\tK AE T\n")
        write(tmp_path / "bad_inv.txt", "K\tXX\n")
        assert main(["build", *files, "--out", "o.lex"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.lex").exists()

    def test_build_lets_each_text_go_once_parsed(self, tmp_path, monkeypatch):
        # the first file is 4 MB of text that parses to one pair; traced memory is read
        # as the second file's parse begins, when only its own text need be held
        pad = 4_000_000
        first = write(tmp_path / "a.pairs", "cat\t1\tK AE T\n" + " " * pad + "\n")
        second = write(tmp_path / "b.pairs", "cat\t1\tK AH T\n")
        held = []

        def spy(text, inventory):
            held.append(tracemalloc.get_traced_memory()[0])
            return parse_pairs_file(text, inventory)

        monkeypatch.setattr(cli, "parse_pairs_file", spy)
        tracemalloc.start()
        try:
            assert main(["build", "--pairs", first, second, "--out", str(tmp_path / "o.lex")]) == 0
        finally:
            tracemalloc.stop()
        assert held[0] > pad and held[1] < pad / 2

    def test_merge_unions(self, tmp_path):
        a = write(tmp_path / "a.lex", "cat\t2\tK AE T\n")
        b = write(tmp_path / "b.lex", "cat\t1\tK AE T\ndog\t1\tD AO G\n")
        out = tmp_path / "m.lex"
        assert main(["merge", "--in", a, "--in", b, "--out", str(out)]) == 0
        assert out.read_text() == "cat\t3\tK AE T\ndog\t1\tD AO G\n"

    def test_merge_of_three_inputs_builds_one_lexicon(self, tmp_path, monkeypatch):
        a = write(tmp_path / "a.lex", "cat\t2\tK AE T\n")
        b = write(tmp_path / "b.lex", "cat\t1\tK AE T\ndog\t1\tD AO G\n")
        c = write(tmp_path / "c.lex", "dog\t0\tD AA G\n")
        calls = []
        merge = cli.lexbuild.merge
        monkeypatch.setattr(cli.lexbuild, "merge", lambda *lexicons: calls.append(len(lexicons)) or merge(*lexicons))
        out = tmp_path / "m.lex"
        assert main(["merge", "--in", a, "--in", b, "--in", c, "--out", str(out)]) == 0
        assert out.read_text() == "cat\t3\tK AE T\ndog\t1\tD AO G\ndog\t0\tD AA G\n"
        assert calls == [3]

    def test_stats_reports_tsv(self, tmp_path, capsys):
        lex = write(tmp_path / "l.lex", "cat\t2\tK AE T\ncat\t1\tK AH T\n")
        assert main(["stats", "--lex", lex]) == 0
        out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert out["words"] == "1"
        assert out["entries"] == "2"

    def test_stats_text_format(self, tmp_path, capsys):
        lex = write(tmp_path / "l.lex", "cat\t2\tK AE T\n")
        assert main(["stats", "--lex", lex, "--format", "text"]) == 0
        assert "entries" in capsys.readouterr().out

    def test_stats_at_production_scale(self, tmp_path, capsys, production_scale_lexicons):
        from pronvar.phonecore import emit_lexicon

        rule_like, attn_like = production_scale_lexicons
        rule_path = write(tmp_path / "rule.lex", emit_lexicon(rule_like))
        attn_path = write(tmp_path / "attn.lex", emit_lexicon(attn_like))
        assert main(["stats", "--lex", attn_path, "--baseline", rule_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "reduction_pct\t89.55" in lines
        assert "shared_entries\t26597" in lines


class TestEval:
    def test_recovery_and_bounds(self, corpus_dir, capsys):
        tmp, out = corpus_dir
        pairs = tmp / "attn.pairs"
        bounds = tmp / "attn.bounds"
        main(
            [
                "align-attn",
                "--attn", str(out / "attn.txt"),
                "--ref", str(out / "ref.txt"),
                "--dict", str(tmp / "dict.txt"),
                "--out", str(pairs),
                "--bounds", str(bounds),
            ]
        )
        built = tmp / "built.lex"
        main(["build", "--pairs", str(pairs), "--out", str(built)])
        capsys.readouterr()

        assert main(
            ["eval", "--built", str(built), "--truth", str(out / "truth_lexicon.txt"),
             "--dict", str(tmp / "dict.txt")]
        ) == 0
        lines = dict(l.split("\t") for l in capsys.readouterr().out.splitlines())
        assert lines["recall"] == "1.0000"
        assert lines["precision"] == "1.0000"

        assert main(
            ["eval-bounds", "--pred", str(bounds), "--truth", str(out / "truth_bounds.txt")]
        ) == 0
        lines = dict(l.split("\t") for l in capsys.readouterr().out.splitlines())
        assert lines["f1"] == "1.0000"

    def test_eval_bounds_rejects_unknown_utterance(self, tmp_path, capsys):
        pred = write(tmp_path / "pred.bounds", "u9\t2\n")
        truth = write(tmp_path / "truth.bounds", "u1\t2\n")
        assert main(["eval-bounds", "--pred", pred, "--truth", truth]) == 3
        assert capsys.readouterr().err == f"error: {pred}: utterance 'u9' has no counterpart in {truth}\n"

    @pytest.mark.parametrize(
        "line",
        ["u2\t1_0", "u2\t\uff13", "u2\t-1", "u2\t0", "u2\t+1", "u 2\t3", "u1\t3"],
        ids=["underscore", "fullwidth-digit", "negative", "zero", "plus-sign", "space-in-id", "repeated-id"],
    )
    def test_eval_bounds_rejects_a_bad_line(self, tmp_path, capsys, line):
        pred = write(tmp_path / "pred.bounds", f"u1\t2\n{line}\n")
        truth = write(tmp_path / "truth.bounds", "u1\t2\nu2\t3\n")
        assert main(["eval-bounds", "--pred", pred, "--truth", truth]) == 2
        err = capsys.readouterr().err
        assert "pred.bounds: line 2" in err


class TestExitCodes:
    def test_usage_error_for_missing_flag(self, capsys):
        assert main(["align-dp", "--hyp", "x"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_usage_error_for_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_format_error_names_file_and_line(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.lex", "cat\tmany\tK AE T\n")
        assert main(["stats", "--lex", bad]) == 2
        err = capsys.readouterr().err
        assert "bad.lex" in err
        assert "line 1" in err

    def test_constraint_error_exit_code(self, tmp_path, capsys):
        hyp = write(tmp_path / "hyp.txt", "u1\tK AE T\n")
        ref = write(tmp_path / "ref.txt", "u1\tDH AH # K AE T\tthe\n")
        d = write(tmp_path / "dict.txt", DICT)
        code = main(
            ["align-dp", "--hyp", hyp, "--ref", ref, "--dict", d, "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert "2 phone spans for 1 words" in capsys.readouterr().err

    def test_unreadable_file_is_a_usage_error(self, tmp_path):
        assert main(["stats", "--lex", str(tmp_path / "nope.lex")]) == 1

    def test_invalid_utf8_is_a_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.lex"
        bad.write_bytes(b"cat\t1\tK AE T\n\xff\xfe\t1\tK\n")
        assert main(["stats", "--lex", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.lex" in err
        assert "UTF-8" in err
        assert "Traceback" not in err

    def test_output_in_a_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        lex = write(tmp_path / "a.lex", "cat\t1\tK AE T\n")
        out = str(tmp_path / "nodir" / "o.lex")
        assert main(["merge", "--in", lex, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "nodir" in err
        assert "Traceback" not in err


class TestDecimalFields:
    """A count, a cut or an attention dimension is ASCII digits: anything else
    that ``int()`` would take is a format error naming the file and line."""

    @pytest.mark.parametrize(
        "count",
        ["1_0", "\uff13", "+1", " 1", "-1"],
        ids=["underscore", "fullwidth-digit", "plus-sign", "leading-space", "negative"],
    )
    def test_stats_rejects_a_bad_count(self, tmp_path, capsys, count):
        lex = write(tmp_path / "in.lex", f"cat\t1\tK AE T\ndog\t{count}\tD AO G\n")
        assert main(["stats", "--lex", lex]) == 2
        assert f"in.lex: line 2: bad count {count!r}" in capsys.readouterr().err

    def test_build_rejects_a_bad_pairs_count(self, tmp_path, capsys):
        pairs = write(tmp_path / "in.pairs", "cat\t1\tK AE T\ncat\t1_0\tK AE T\n")
        assert main(["build", "--pairs", pairs, "--out", str(tmp_path / "out.lex")]) == 2
        assert "in.pairs: line 2: bad count '1_0'" in capsys.readouterr().err
        assert not (tmp_path / "out.lex").exists()

    @pytest.mark.parametrize(
        "header",
        ["u1 \uff11 1", "u1 1_0 1", "u1 +1 1", "u1 0 1"],
        ids=["fullwidth-digit", "underscore", "plus-sign", "zero"],
    )
    def test_align_attn_rejects_a_bad_dimension(self, tmp_path, capsys, header):
        attn = write(tmp_path / "attn.txt", f"u0 1 1\nK\nK\n1\n\n{header}\nK\nK\n1\n")
        ref = write(tmp_path / "ref.txt", "u0\tK\tk\nu1\tK\tk\n")
        d = write(tmp_path / "dict.txt", "k\tK\n")
        argv = ["align-attn", "--attn", attn, "--ref", ref, "--dict", d, "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert f"attn.txt: line 6: bad dimension {header.split()[1]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row",
        ["1_0 1", "１ 1", "1 0　1", "0.5 1e1_0", "nan 1", "1 inf", "-Infinity 0"],
        ids=["underscore", "fullwidth-digit", "ideographic-space", "underscore-in-exponent", "nan", "inf",
             "negative-infinity"],
    )
    def test_align_attn_rejects_a_bad_weight_row(self, tmp_path, capsys, row):
        attn = write(tmp_path / "attn.txt", f"u0 1 2\nK\nK AE\n1 0\n\nu1 1 2\nK\nK AE\n{row}\n")
        ref = write(tmp_path / "ref.txt", "u0\tK\tk\nu1\tK\tk\n")
        d = write(tmp_path / "dict.txt", "k\tK\n")
        argv = ["align-attn", "--attn", attn, "--ref", ref, "--dict", d, "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert f"attn.txt: line 9: bad weight row {row!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("probability", ["1_0", "１", "0.５", "0_5", "nan", "inf"])
    def test_synth_rejects_a_bad_rule_probability(self, tmp_path, capsys, probability):
        d = write(tmp_path / "dict.txt", DICT)
        r = write(tmp_path / "rules.txt", f"{RULES}V\tB\t{probability}\n")
        argv = ["synth", "--dict", d, "--rules", r, "--words", "1", "--utts", "1", "--seed", "1",
                "--out-dir", str(tmp_path / "x")]  # fmt: skip
        assert main(argv) == 2
        assert f"rules.txt: line 2: bad probability {probability!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, code, message",
        [
            ("1e999 0", 2, "attention map 'u1': non-finite weight at (0, 0)"),
            ("1 -0.5", 3, "attention map 'u1': negative weight at (0, 1)"),
            ("1", 2, "attention map 'u1': row 0 has 1 weights for 2 columns"),
        ],
        ids=["overflow", "negative", "short-row"],
    )
    def test_a_weight_the_map_rejects_names_the_record_line(self, tmp_path, capsys, row, code, message):
        attn = write(tmp_path / "attn.txt", f"u0 1 2\nK\nK AE\n1 0\n\nu1 1 2\nK\nK AE\n{row}\n")
        ref = write(tmp_path / "ref.txt", "u0\tK\tk\nu1\tK\tk\n")
        d = write(tmp_path / "dict.txt", "k\tK\n")
        argv = ["align-attn", "--attn", attn, "--ref", ref, "--dict", d, "--out", str(tmp_path / "o")]
        assert main(argv) == code
        assert f"attn.txt: line 6: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() converts any digit count")
    def test_eval_bounds_rejects_a_cut_too_long_for_int(self, tmp_path, capsys):
        pred = write(tmp_path / "pred.bounds", f"u1\t2\nu2\t{'1' * 5000}\n")
        truth = write(tmp_path / "truth.bounds", "u1\t2\nu2\t3\n")
        assert main(["eval-bounds", "--pred", pred, "--truth", truth]) == 2
        assert "pred.bounds: line 2: bad cut" in capsys.readouterr().err


class TestInventoryFlag:
    def test_strict_inventory_rejects_stray_phones(self, tmp_path):
        inv = write(tmp_path / "inv.txt", "K\nAE\nT\n")
        hyp = write(tmp_path / "hyp.txt", "u1\tK AE T QX\n")
        ref = write(tmp_path / "ref.txt", "u1\tK AE T\tcat\n")
        d = write(tmp_path / "dict.txt", "cat\tK AE T\n")
        code = main(
            ["align-dp", "--hyp", hyp, "--ref", ref, "--dict", d,
             "--inventory", inv, "--out", str(tmp_path / "o")]
        )
        assert code == 3

    def test_derived_inventory_accepts_whatever_the_files_use(self, tmp_path):
        hyp = write(tmp_path / "hyp.txt", "u1\tK AE T QX\n")
        ref = write(tmp_path / "ref.txt", "u1\tK AE T\tcat\n")
        d = write(tmp_path / "dict.txt", "cat\tK AE T\n")
        out = tmp_path / "o"
        code = main(["align-dp", "--hyp", hyp, "--ref", ref, "--dict", d, "--out", str(out)])
        assert code == 0
        assert "QX" in out.read_text()

    def test_a_blank_rules_line_is_skipped_with_and_without_an_inventory(self, tmp_path, capsys):
        d = write(tmp_path / "dict.txt", DICT)
        r = write(tmp_path / "rules.txt", "Z\tS\t1.0\n \t \t \n")
        inv = write(tmp_path / "inv.txt", "D\nAH\nZ\nN\nT\nK\nAE\nS\n")
        runs = []
        for flags in ([], ["--inventory", inv]):
            out = tmp_path / f"out{len(flags)}"
            code = main(["synth", "--dict", d, "--rules", r, "--words", "2", "--utts", "3", "--seed", "1",
                         "--out-dir", str(out), *flags])  # fmt: skip
            files = {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else {}
            runs.append((code, capsys.readouterr(), files))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0


@pytest.mark.parametrize(
    "command, inputs",
    [("align-dp", ["--hyp", "hyp.txt", "--ref", "ref.txt"]),
     ("align-attn", ["--attn", "attn.txt", "--ref", "ref.txt", "--mode", "per-boundary"]),
     ("build", ["--pairs", "truth_lexicon.txt"])],
)
def test_an_inventory_that_admits_every_phone_changes_no_output(corpus_dir, command, inputs):
    tmp_path, corpus = corpus_dir
    outputs = []
    for flags in ([], ["--inventory", str(corpus / "inventory.txt")]):
        out = tmp_path / f"out{len(flags)}"
        argv = [command, *(str(corpus / arg) if arg.endswith(".txt") else arg for arg in inputs)]
        assert main([*argv, "--dict", str(tmp_path / "dict.txt"), *flags, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] != b""


class TestBadPhoneSymbol:
    """Without --inventory, a symbol that breaks the phone-symbol rule is a format error."""

    def run(self, argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().err

    def test_align_dp_non_ascii_phone(self, tmp_path, capsys):
        hyp = write(tmp_path / "hyp.txt", "u1\tK AE T\nu2\tK É T\n")
        ref = write(tmp_path / "ref.txt", "u1\tK AE T\tcat\nu2\tK AE T\tcat\n")
        d = write(tmp_path / "dict.txt", "cat\tK AE T\n")
        code, err = self.run(
            ["align-dp", "--hyp", hyp, "--ref", ref, "--dict", d, "--out", str(tmp_path / "o")], capsys
        )
        assert code == 2
        assert "hyp.txt: line 2: bad phone symbol 'É'" in err
        assert "Traceback" not in err

    def test_align_attn_non_ascii_phone(self, tmp_path, capsys):
        attn = write(tmp_path / "attn.txt", "u1 1 2\nK\nK É\n1.0 0.0\n")
        ref = write(tmp_path / "ref.txt", "u1\tK\tcat\n")
        d = write(tmp_path / "dict.txt", "cat\tK\n")
        code, err = self.run(
            ["align-attn", "--attn", attn, "--ref", ref, "--dict", d, "--out", str(tmp_path / "o")], capsys
        )
        assert code == 2
        assert "attn.txt: line 3: bad phone symbol 'É'" in err

    def test_synth_non_ascii_dictionary_phone(self, tmp_path, capsys):
        d = write(tmp_path / "dict.txt", "cat\tK AE T\ndog\tD É G\n")
        r = write(tmp_path / "rules.txt", RULES)
        code, err = self.run(
            ["synth", "--dict", d, "--rules", r, "--words", "1", "--utts", "1",
             "--seed", "1", "--out-dir", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "dict.txt: line 2: bad phone symbol 'É'" in err

    def test_synth_empty_rule_field(self, tmp_path, capsys):
        d = write(tmp_path / "dict.txt", DICT)
        r = write(tmp_path / "rules.txt", "Z\t\t1.0\n")
        code, err = self.run(
            ["synth", "--dict", d, "--rules", r, "--words", "1", "--utts", "1",
             "--seed", "1", "--out-dir", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "rules.txt: line 1: bad phone symbol ''" in err

    def test_an_earlier_file_fails_first(self, tmp_path, capsys):
        # each input is parsed in turn, so a bad symbol in hyp.txt waits for dict.txt
        hyp = write(tmp_path / "hyp.txt", "u1\tK | T\n")
        ref = write(tmp_path / "ref.txt", "u1\tK AE T\tcat\n")
        d = write(tmp_path / "dict.txt", "cat K AE T\n")
        code, err = self.run(
            ["align-dp", "--hyp", hyp, "--ref", ref, "--dict", d, "--out", str(tmp_path / "o")], capsys
        )
        assert code == 2
        assert "dict.txt: line 1: missing tab separator in 'cat K AE T'" in err

    def test_reserved_symbol_in_a_derived_inventory_names_the_file(self, tmp_path, capsys):
        hyp = write(tmp_path / "hyp.txt", "u1\tK | T\n")
        ref = write(tmp_path / "ref.txt", "u1\tK AE T\tcat\n")
        d = write(tmp_path / "dict.txt", "cat\tK AE T\n")
        code, err = self.run(
            ["align-dp", "--hyp", hyp, "--ref", ref, "--dict", d, "--out", str(tmp_path / "o")], capsys
        )
        assert code == 3
        assert "hyp.txt: reserved symbol in phone '|' (line 1)" in err

    @pytest.mark.parametrize(
        "pairs, dictionary, message",
        [
            ("cat\t1\tK AE T\ncat\t1\tK É T\n", "cat\tK AE T\n", "p.pairs: line 2: bad phone symbol 'É'"),
            ("cat\t1\tK AE T\n", "cat\tK AE T\ndog\tD É G\n", "d.dict: line 2: bad phone symbol 'É'"),
        ],
    )
    def test_build_without_an_inventory_checks_every_phone(self, tmp_path, capsys, pairs, dictionary, message):
        files = ["--pairs", write(tmp_path / "p.pairs", pairs), "--dict", write(tmp_path / "d.dict", dictionary)]
        code, err = self.run(["build", *files, "--out", str(tmp_path / "o.lex")], capsys)
        assert code == 2
        assert message in err
        assert not (tmp_path / "o.lex").exists()

    @pytest.mark.parametrize("command", [["stats", "--lex"], ["merge", "--out", "o.lex", "--in"]])
    def test_a_lexicon_without_an_inventory_checks_its_phones(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "x.lex", "cat\t1\tK AE T\ndog\t2\tD | G\n")
        code, err = self.run([*command, "x.lex"], capsys)
        assert code == 3
        assert "x.lex: reserved symbol in phone '|' (line 2)" in err


class TestFlagValues:
    @pytest.mark.parametrize(
        "command, flags",
        [
            ("align-dp", ["--gap", "0"]),
            ("align-dp", ["--match", "1", "--mismatch", "0.5"]),
            ("align-attn", ["--radius", "-1"]),
            ("align-attn", ["--threshold", "1.5"]),
            ("build", ["--min-count", "-1"]),
            ("build", ["--max-variants", "0"]),
            ("align-dp", ["--gap", "nan"]),
            ("align-dp", ["--match", "nan"]),
            ("align-dp", ["--mismatch", "inf"]),
        ],
    )
    def test_rejected_value_is_a_usage_error(self, tmp_path, capsys, command, flags):
        d = write(tmp_path / "dict.txt", "cat\tK AE T\n")
        ref = write(tmp_path / "ref.txt", "u1\tK AE T\tcat\n")
        out = str(tmp_path / "o")
        inputs = {
            "align-dp": ["--hyp", write(tmp_path / "hyp.txt", "u1\tK AH T\n"), "--ref", ref, "--dict", d],
            "align-attn": ["--attn", write(tmp_path / "attn.txt", "u1 3 3\nK AE T\nK AH T\n1 0 0\n0 1 0\n0 0 1\n"),
                           "--ref", ref, "--dict", d],
            "build": ["--pairs", write(tmp_path / "p.pairs", "cat\t1\tK AE T\n")],
        }[command]
        assert main([command, *inputs, *flags, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["1_0", "３", "+1", " 1", "1 ", "1.0", "", "-"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("align-attn", "--radius"),
            ("build", "--min-count"),
            ("build", "--max-variants"),
            ("synth", "--words"),
            ("synth", "--utts"),
            ("synth", "--seed"),
            ("synth", "--attn=jitter:"),
        ],
    )
    def test_an_integer_flag_takes_ascii_digits_only(self, tmp_path, capsys, command, flag, value):
        d = write(tmp_path / "dict.txt", "cat\tK AE T\n")
        inputs = {
            "align-attn": ["--attn", write(tmp_path / "attn.txt", "u1 1 1\nK\nK\n1\n"),
                           "--ref", write(tmp_path / "ref.txt", "u1\tK\tcat\n"), "--dict", d,
                           "--out", str(tmp_path / "o")],
            "build": ["--pairs", write(tmp_path / "p.pairs", "cat\t1\tK AE T\n"), "--out", str(tmp_path / "o")],
            "synth": ["--dict", d, "--rules", write(tmp_path / "rules.txt", "AE\tAH\t0.5\n"), "--words", "1",
                      "--utts", "1", "--seed", "1", "--out-dir", str(tmp_path / "x")],
        }[command]  # fmt: skip
        flag = flag if flag.endswith(":") else f"{flag}="
        assert main([command, *inputs, f"{flag}{value}"]) == 1
        assert capsys.readouterr().err == f"usage error: bad integer {value!r}\n"

    @pytest.mark.parametrize("value", ["1_0", "０.５", " 1", "1 ", "nan", "inf", ""])
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("align-dp", "--match"),
            ("align-dp", "--mismatch"),
            ("align-dp", "--gap"),
            ("align-attn", "--threshold"),
            ("synth", "--indel-prob"),
        ],
    )
    def test_a_float_flag_takes_one_float_field(self, tmp_path, capsys, command, flag, value):
        d = write(tmp_path / "dict.txt", "cat\tK AE T\n")
        ref = write(tmp_path / "ref.txt", "u1\tK AE T\tcat\n")
        inputs = {
            "align-dp": ["--hyp", write(tmp_path / "hyp.txt", "u1\tK AH T\n"), "--ref", ref, "--dict", d,
                         "--out", str(tmp_path / "o")],
            "align-attn": ["--attn", write(tmp_path / "attn.txt", "u1 3 3\nK AE T\nK AH T\n1 0 0\n0 1 0\n0 0 1\n"),
                           "--ref", ref, "--dict", d, "--out", str(tmp_path / "o")],
            "synth": ["--dict", d, "--rules", write(tmp_path / "rules.txt", "AE\tAH\t0.5\n"), "--words", "1",
                      "--utts", "1", "--seed", "1", "--out-dir", str(tmp_path / "x")],
        }[command]  # fmt: skip
        assert main([command, *inputs, f"{flag}={value}"]) == 1
        assert capsys.readouterr().err == f"usage error: bad number {value!r}\n"

    @pytest.mark.parametrize(
        "command, flags, expected",
        [
            ("align-dp", [], (0.25, 2.0, 0.5)),
            ("align-dp", ["--mismatch", "1"], (0.25, 1.0, 0.5)),
            ("align-attn", [], (1, "per_boundary", 0.75)),
            ("align-attn", ["--mode", "global", "--threshold", "0.5"], (1, "global_shift", 0.5)),
        ],
    )
    def test_a_flag_not_given_takes_the_config_default(self, tmp_path, monkeypatch, command, flags, expected):
        # the configs' defaults are the CLI's: subclasses with other defaults must be followed
        made = []

        @dataclasses.dataclass(frozen=True)
        class OtherAlignConfig(cli.AlignConfig):
            match_score: float = 0.25
            mismatch_score: float = 2.0
            gap_penalty: float = 0.5

            def __post_init__(self):
                super().__post_init__()
                made.append(dataclasses.astuple(self))

        @dataclasses.dataclass(frozen=True)
        class OtherAttnConfig(cli.AttnConfig):
            shift_radius: int = 1
            mode: str = "per_boundary"
            threshold: float = 0.75

            def __post_init__(self):
                super().__post_init__()
                made.append(dataclasses.astuple(self))

        monkeypatch.setattr(cli, "AlignConfig", OtherAlignConfig)
        monkeypatch.setattr(cli, "AttnConfig", OtherAttnConfig)
        d = write(tmp_path / "dict.txt", "cat\tK AE T\n")
        ref = write(tmp_path / "ref.txt", "u1\tK AE T\tcat\n")
        inputs = {
            "align-dp": ["--hyp", write(tmp_path / "hyp.txt", "u1\tK AH T\n"), "--ref", ref, "--dict", d],
            "align-attn": ["--attn", write(tmp_path / "attn.txt", "u1 3 3\nK AE T\nK AH T\n1 0 0\n0 1 0\n0 0 1\n"),
                           "--ref", ref, "--dict", d],
        }[command]  # fmt: skip
        assert main([command, *inputs, *flags, "--out", str(tmp_path / "o")]) == 0
        assert made == [expected]

    @pytest.mark.parametrize(
        "command, flags, expected",
        [
            ("build", [], {"min_count": 2, "max_variants": 1}),
            ("build", ["--min-count", "0", "--max-variants", "3"], {"min_count": 0, "max_variants": 3}),
            ("synth", [], {"indel_probability": 0.25}),
            ("synth", ["--indel-prob", "0"], {"indel_probability": 0.0}),
        ],
    )
    def test_a_flag_not_given_takes_the_library_default(self, tmp_path, monkeypatch, command, flags, expected):
        # prune's and build_corpus's defaults are the CLI's: wrappers with other defaults must be followed
        made = []
        prune, build_corpus = cli.lexbuild.prune, cli.synthbench.build_corpus

        def other_prune(lex, min_count=2, max_variants=1, canonical=None):
            made.append({"min_count": min_count, "max_variants": max_variants})
            return prune(lex, min_count, max_variants, canonical)

        def other_build_corpus(*args, indel_probability=0.25, **kwargs):
            made.append({"indel_probability": indel_probability})
            return build_corpus(*args, indel_probability=indel_probability, **kwargs)

        monkeypatch.setattr(cli.lexbuild, "prune", other_prune)
        monkeypatch.setattr(cli.synthbench, "build_corpus", other_build_corpus)
        d = write(tmp_path / "dict.txt", "cat\tK AE T\n")
        inputs = {
            "build": ["--pairs", write(tmp_path / "p.pairs", "cat\t1\tK AE T\n"), "--dict", d,
                      "--out", str(tmp_path / "o")],
            "synth": ["--dict", d, "--rules", write(tmp_path / "rules.txt", "AE\tAH\t0.5\n"), "--words", "1",
                      "--utts", "1", "--seed", "1", "--out-dir", str(tmp_path / "x")],
        }[command]  # fmt: skip
        assert main([command, *inputs, *flags]) == 0
        assert made == [expected]

    @pytest.mark.parametrize("value", ["2", "0.25", "-0", "1e-3", "1E1", "+.5"])
    def test_a_float_flag_reads_what_it_read_before(self, value):
        assert cli._decimal(value) == float(value)


def regex_integer(value):
    """The integer flag reader before it went through ``phonecore._natural``, kept as the oracle."""
    try:
        if re.fullmatch("-?[0-9]+", value):
            return int(value)
    except ValueError:  # more digits than int() converts
        pass
    raise cli.UsageError(f"bad integer {value!r}")


def flag_outcome(read, value):
    try:
        return read(value)
    except cli.UsageError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(st.sampled_from("-+0123456789 _３"), st.characters()), max_size=6))
@example("1" * 5000)
@example("-" + "1" * 5000)
def test_an_integer_flag_reads_as_before(value):
    assert flag_outcome(cli._integer, value) == flag_outcome(regex_integer, value)


class TestReportBytes:
    def test_eval_bounds_pools_counts_over_utterances(self, tmp_path, capsys):
        # per utterance: u1 P=1/2 R=1/2, u2 P=1 R=1/2; pooled: 2 of 3 predicted, 2 of 4 true
        pred = write(tmp_path / "pred.bounds", "u1\t2 5\nu2\t3\n")
        truth = write(tmp_path / "truth.bounds", "u1\t2 4\nu2\t3 6\nu3\t1\n")
        assert main(["eval-bounds", "--pred", pred, "--truth", truth]) == 0
        assert capsys.readouterr().out == "precision\t0.6667\nrecall\t0.5000\nf1\t0.5714\n"

    LEX = "cat\t2\tK AE T\ncat\t1\tK AH T\ndog\t1\tD AO G\n"
    BASELINE = "cat\t1\tK AE T\nfish\t3\tF IH SH\nfish\t1\tF IY SH\nox\t1\tAA K S\n"

    @pytest.mark.parametrize(
        "fmt, baseline, expected",
        [
            ("tsv", BASELINE,
             "words\t2\nentries\t3\nmean_variants\t1.5000\nmax_variants\t2\nbaseline_entries\t4\n"
             "shared_entries\t1\nsize_ratio\t0.7500\nreduction_pct\t25.00\n"),
            ("tsv", "",
             "words\t2\nentries\t3\nmean_variants\t1.5000\nmax_variants\t2\nbaseline_entries\t0\n"
             "shared_entries\t0\nsize_ratio\tundefined\nreduction_pct\tundefined\n"),
            ("text", BASELINE,
             "words               2\nentries             3\nmean variants/word  1.5000\n"
             "max variants/word   2\nbaseline entries    4\nshared entries      1\n"
             "size ratio          0.7500\nreduction %         25.00\n"),
            ("text", "",
             "words               2\nentries             3\nmean variants/word  1.5000\n"
             "max variants/word   2\nbaseline entries    0\nshared entries      0\n"
             "size ratio          undefined\nreduction %         undefined\n"),
        ],
    )
    def test_stats_with_a_baseline(self, tmp_path, capsys, fmt, baseline, expected):
        lex = write(tmp_path / "l.lex", self.LEX)
        base = write(tmp_path / "b.lex", baseline)
        assert main(["stats", "--lex", lex, "--baseline", base, "--format", fmt]) == 0
        assert capsys.readouterr().out == expected
