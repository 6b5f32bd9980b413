"""Command-line pipeline: file in, file out, deterministic bytes.

Exit codes: 0 success, 1 usage error, 2 input format error (the message
names the file and line), 3 constraint violation.
"""

import argparse
import sys
from pathlib import Path

from . import lexbuild, synthbench
from .attnalign import (
    AttnConfig,
    emit_attention_file,
    emit_bounds_file,
    extract_variants_attn,
    parse_attention_file,
    parse_bounds_file,
    scan_attention_tokens,
)
from .dpalign import AlignConfig, extract_variants_dp
from .errors import ConstraintError, InputFormatError, PronvarError
from .phonecore import (
    derive_inventory,
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
    scan_dictionary_tokens,
    scan_phone_tokens,
    scan_segmented_tokens,
)


class UsageError(PronvarError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise InputFormatError(f"{path}: not valid UTF-8 at byte {err.start}") from None


def _write(path: "str | Path", content: str) -> None:
    try:
        Path(path).write_text(content, encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err.strerror}") from None


def _parsed(path: str, text: str, parse, *args):
    """Run a parser over a file's text, prefixing any error with the path."""
    try:
        return parse(text, *args)
    except (InputFormatError, ConstraintError) as err:
        err.args = (f"{path}: {err}",)
        raise


def _catching(path: str, parse, *args):
    return _parsed(path, _read(path), parse, *args)


def _load(args, *inputs) -> list:
    """Read and parse each ``(path, scan, parse)`` input once, against one inventory.

    The inventory is --inventory when given, else an all-EN one derived
    from the symbols the inputs' scans find.
    """
    texts = [_read(path) for path, _, _ in inputs]
    if args.inventory:
        inv = _catching(args.inventory, parse_inventory)
    else:
        inv = derive_inventory(*(_parsed(path, text, scan) for (path, scan, _), text in zip(inputs, texts)))
    return [_parsed(path, text, parse, inv) for (path, _, parse), text in zip(inputs, texts)]


def _checked(make, *args):
    """Call a config constructor with flag values; a value it rejects is a usage error."""
    try:
        return make(*args)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _cmd_align_dp(args) -> int:
    dictionary, hyps, refs = _load(
        args,
        (args.dict, scan_dictionary_tokens, parse_dictionary_file),
        (args.hyp, scan_phone_tokens, parse_phone_file),
        (args.ref, scan_segmented_tokens, parse_segmented_file),
    )
    cfg = _checked(AlignConfig, args.match, args.mismatch, args.gap)
    result = extract_variants_dp(hyps, refs, dictionary, cfg)
    _write(args.out, emit_pairs(result.pairs))
    return 0


def _cmd_align_attn(args) -> int:
    dictionary, refs, maps = _load(
        args,
        (args.dict, scan_dictionary_tokens, parse_dictionary_file),
        (args.ref, scan_segmented_tokens, parse_segmented_file),
        (args.attn, scan_attention_tokens, parse_attention_file),
    )
    mode = {"global": "global_shift", "per-boundary": "per_boundary"}[args.mode]
    cfg = _checked(AttnConfig, args.radius, mode, args.threshold)
    result = extract_variants_attn(maps, refs, dictionary, cfg)
    _write(args.out, emit_pairs(result.pairs))
    if args.rejects:
        _write(
            args.rejects,
            "".join(f"{utt}\t{dist:.4f}\n" for utt, dist in result.rejects),
        )
    if args.bounds:
        _write(args.bounds, emit_bounds_file(result.segmentations))
    return 0


def _cmd_build(args) -> int:
    inv = None
    if args.inventory:
        inv = _catching(args.inventory, parse_inventory)
    triples = []
    for path in args.pairs:
        triples.extend(_catching(path, parse_pairs_file, inv))
    lex = lexbuild.from_counted_pairs(triples)
    canonical = None
    if args.dict:
        canonical = _catching(args.dict, parse_dictionary_file, inv)
        lex = lexbuild.merge(lexbuild.from_dictionary(canonical), lex)
    lex = _checked(lexbuild.prune, lex, args.min_count, args.max_variants, canonical)
    _write(args.out, emit_lexicon(lex))
    return 0


def _cmd_merge(args) -> int:
    lexicons = [_catching(path, parse_lexicon) for path in args.inputs]
    merged = lexicons[0]
    for lex in lexicons[1:]:
        merged = lexbuild.merge(merged, lex)
    _write(args.out, emit_lexicon(merged))
    return 0


def _cmd_stats(args) -> int:
    lex = _catching(args.lex, parse_lexicon)
    baseline = _catching(args.baseline, parse_lexicon) if args.baseline else None
    report = lexbuild.stats(lex, baseline)
    out = report.to_text() if args.format == "text" else report.to_tsv()
    print(out, end="")
    return 0


def _parse_attn_flag(value: str) -> tuple[str, int]:
    if value == "identity":
        return "identity", 0
    if value.startswith("jitter:"):
        try:
            radius = int(value.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad --attn value {value!r}") from None
        if radius < 0:
            raise UsageError("jitter radius must be >= 0")
        return "jitter", radius
    raise UsageError(f"bad --attn value {value!r} (expected identity or jitter:K)")


def _cmd_synth(args) -> int:
    dictionary, rules = _load(
        args,
        (args.dict, scan_dictionary_tokens, parse_dictionary_file),
        (args.rules, synthbench.scan_rules_tokens, synthbench.parse_rules_file),
    )
    if not dictionary:
        raise InputFormatError(f"{args.dict}: no words to sample")
    attn_kind, jitter_radius = _parse_attn_flag(args.attn)
    if args.words < 1 or args.utts < 1:
        raise UsageError("--words and --utts must be >= 1")
    if not 0.0 <= args.indel_prob < 1.0:
        raise UsageError("--indel-prob must be in [0, 1)")
    corpus = synthbench.build_corpus(
        dictionary,
        rules,
        vocabulary=args.words,
        utterances=args.utts,
        seed=args.seed,
        attention=attn_kind,
        jitter_radius=jitter_radius,
        indel_probability=args.indel_prob,
    )
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise UsageError(f"cannot create {out_dir}: {err.strerror}") from None
    _write(out_dir / "inventory.txt", emit_inventory(corpus.inventory))
    _write(out_dir / "hyp.txt", emit_phone_file(corpus.hypotheses))
    _write(out_dir / "ref.txt", emit_segmented_file(corpus.references))
    _write(out_dir / "attn.txt", emit_attention_file(corpus.maps))
    _write(out_dir / "truth_lexicon.txt", emit_lexicon(corpus.truth_lexicon))
    _write(out_dir / "truth_bounds.txt", emit_bounds_file(corpus.truth_bounds))
    return 0


def _cmd_eval(args) -> int:
    built = _catching(args.built, parse_lexicon)
    truth = _catching(args.truth, parse_lexicon)
    canonical = _catching(args.dict, parse_dictionary_file) if args.dict else None
    precision, recall = synthbench.recovery_report(built, truth, canonical)
    print(f"precision\t{precision:.4f}")
    print(f"recall\t{recall:.4f}")
    return 0


def _cmd_eval_bounds(args) -> int:
    pred = _catching(args.pred, parse_bounds_file)
    truth = _catching(args.truth, parse_bounds_file)
    precision, recall, f1 = synthbench.pooled_boundary_f1(pred, truth)
    print(f"precision\t{precision:.4f}")
    print(f"recall\t{recall:.4f}")
    print(f"f1\t{f1:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pronvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align-dp", help="harvest variants via dynamic-programming alignment")
    p.add_argument("--hyp", required=True, help="decoded phone file (no boundaries)")
    p.add_argument("--ref", required=True, help="segmented native reference file")
    p.add_argument("--dict", required=True, help="reference pronunciation dictionary")
    p.add_argument("--match", type=float, default=0.0, help="cost of a match")
    p.add_argument("--mismatch", type=float, default=1.0, help="cost of a substitution")
    p.add_argument("--gap", type=float, default=1.0, help="cost of a gap")
    p.add_argument("--inventory", help="phone inventory file (derived from inputs if omitted)")
    p.add_argument("--out", required=True, help="output pairs file")
    p.set_defaults(func=_cmd_align_dp)

    p = sub.add_parser("align-attn", help="harvest variants via attention boundary search")
    p.add_argument("--attn", required=True, help="attention map file")
    p.add_argument("--ref", required=True, help="segmented native reference file")
    p.add_argument("--dict", required=True, help="reference pronunciation dictionary")
    p.add_argument("--radius", type=int, default=3, help="boundary shift radius")
    p.add_argument("--mode", choices=("global", "per-boundary"), default="global")
    p.add_argument("--threshold", type=float, default=0.5, help="max normalized edit distance")
    p.add_argument("--rejects", help="sidecar file for rejected utterances")
    p.add_argument("--bounds", help="sidecar file for the selected segmentations")
    p.add_argument("--inventory", help="phone inventory file (derived from inputs if omitted)")
    p.add_argument("--out", required=True, help="output pairs file")
    p.set_defaults(func=_cmd_align_attn)

    p = sub.add_parser("build", help="accumulate pairs into a counted, pruned lexicon")
    p.add_argument("--pairs", required=True, nargs="+", help="one or more pairs files")
    p.add_argument("--min-count", type=int, default=0, help="drop variants seen fewer times")
    p.add_argument("--max-variants", type=int, default=None, help="cap variants per word")
    p.add_argument("--dict", help="seed and protect canonical pronunciations from this dictionary")
    p.add_argument("--inventory", help="validate phones against this inventory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("merge", help="union lexicons, summing counts of shared variants")
    p.add_argument("--in", dest="inputs", required=True, action="append", help="input lexicon (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("stats", help="report lexicon size, optionally against a baseline")
    p.add_argument("--lex", required=True)
    p.add_argument("--baseline")
    p.add_argument("--format", choices=("tsv", "text"), default="tsv")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--dict", required=True)
    p.add_argument("--rules", required=True, help="confusion rules file (SRC<TAB>DST<TAB>p)")
    p.add_argument("--words", type=int, required=True, help="vocabulary size to sample")
    p.add_argument("--utts", type=int, required=True, help="number of utterances")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--attn", default="identity", help="attention maps: identity or jitter:K")
    p.add_argument("--indel-prob", type=float, default=0.0, help="per-phone insert/delete probability")
    p.add_argument("--inventory", help="validate phones against this inventory")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval", help="score a built lexicon against ground-truth variants")
    p.add_argument("--built", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--dict", help="canonical dictionary; excludes canonicals from precision")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("eval-bounds", help="score predicted cut positions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=_cmd_eval_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except InputFormatError as err:
        print(f"format error: {err}", file=sys.stderr)
        return 2
    except ConstraintError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
