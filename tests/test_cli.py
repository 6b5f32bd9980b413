import sys
import time

import pytest

from pronvar.cli import main

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

    def test_merge_unions(self, tmp_path):
        a = write(tmp_path / "a.lex", "cat\t2\tK AE T\n")
        b = write(tmp_path / "b.lex", "cat\t1\tK AE T\ndog\t1\tD AO G\n")
        out = tmp_path / "m.lex"
        assert main(["merge", "--in", a, "--in", b, "--out", str(out)]) == 0
        assert out.read_text() == "cat\t3\tK AE T\ndog\t1\tD AO G\n"

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

    def test_reserved_symbol_in_a_derived_inventory_names_the_file(self, tmp_path, capsys):
        hyp = write(tmp_path / "hyp.txt", "u1\tK | T\n")
        ref = write(tmp_path / "ref.txt", "u1\tK AE T\tcat\n")
        d = write(tmp_path / "dict.txt", "cat\tK AE T\n")
        code, err = self.run(
            ["align-dp", "--hyp", hyp, "--ref", ref, "--dict", d, "--out", str(tmp_path / "o")], capsys
        )
        assert code == 3
        assert "hyp.txt: reserved symbol in phone '|' (line 1)" in err


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
