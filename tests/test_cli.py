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
