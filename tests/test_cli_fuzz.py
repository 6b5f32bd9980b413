"""Fuzz the command line: mutated or random input files end in a documented exit code.

Every subcommand starts from a set of valid input files. One of its inputs
is then edited with tokens that tend to break parsers, or replaced by random
bytes. ``main`` must return 0, 1, 2 or 3; any exception that escapes it
fails the test.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pronvar.attnalign import emit_attention_file
from pronvar.cli import main
from pronvar.synthbench import identity_attention

HYP = {"u1": "D AH S N T K AE T", "u2": "K AH T"}
REF = {"u1": ("D AH Z N T # K AE T", "doesn't cat"), "u2": ("K AE T", "cat")}

INPUTS = {
    "dict": "doesn't\tD AH Z N T\ncat\tK AE T\ncat\tK AH T\n",
    "rules": "Z\tS\t1.0\nAE\tAH\t0.5\n",
    "inv": "D\nAH\nZ\nN\nT\nK\nAE\nS\tL1\n",
    "hyp": "".join(f"{utt}\t{phones}\n" for utt, phones in HYP.items()),
    "ref": "".join(f"{utt}\t{spans}\t{words}\n" for utt, (spans, words) in REF.items()),
    "attn": emit_attention_file(
        identity_attention(utt, HYP[utt].split(), spans.replace("# ", "").split())
        for utt, (spans, _) in REF.items()
    ),
    "pairs": "cat\t1\tK AE T\ncat\t1\tK AH T\ndoesn't\t1\tD AH S N T\n",
    "lex": "cat\t2\tK AE T\ndoesn't\t1\tD AH S N T\n",
    "lex2": "cat\t1\tK AE T\ndog\t1\tD AO G\n",
    "pred": "u1\t5\nu2\t\n",
    "truth": "u1\t5 6\nu2\t\n",
}

#: Command lines; a word naming an input becomes that file's path, ``@name`` an output path.
COMMANDS = {
    "align-dp": "align-dp --hyp hyp --ref ref --dict dict --out @out",
    "align-dp-inv": "align-dp --hyp hyp --ref ref --dict dict --inventory inv --gap 2 --out @out",
    "align-attn": "align-attn --attn attn --ref ref --dict dict --rejects @rejects --bounds @bounds --out @out",
    "align-attn-inv": "align-attn --attn attn --ref ref --dict dict --mode per-boundary --inventory inv --out @out",
    "build": "build --pairs pairs lex --dict dict --min-count 1 --max-variants 2 --out @out",
    "merge": "merge --in lex --in lex2 --out @out",
    "stats": "stats --lex lex --baseline lex2 --format text",
    "synth": "synth --dict dict --rules rules --words 2 --utts 3 --seed 1 --attn jitter:1 --indel-prob 0.2 --out-dir @synth",
    "synth-inv": "synth --dict dict --rules rules --inventory inv --words 2 --utts 3 --seed 1 --out-dir @synth",
    "eval": "eval --built lex --truth lex2 --dict dict",
    "eval-bounds": "eval-bounds --pred pred --truth truth",
}

#: Tokens that tend to break a parser: separators, reserved and non-ASCII symbols, bad numbers.
TOKENS = ["\t", "#", "|", "É", "nan", "-1", "\n", " ", "", "0", "1e999", "inf", "K", "u1", "cat", "\t\t"]


def run(command: str, inputs: dict[str, "str | bytes"]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for word in COMMANDS[command].split():
            if word.startswith("@"):
                word = str(Path(tmp, word[1:]))
            elif word in INPUTS:
                path = Path(tmp, word)
                content = inputs.get(word, INPUTS[word])
                if isinstance(content, bytes):
                    path.write_bytes(content)
                else:
                    path.write_text(content, encoding="utf-8")
                word = str(path)
            argv.append(word)
        return main(argv)


def mutate(text: str, edits) -> str:
    for where, op, token in edits:
        i = int(where * len(text))
        if op == "insert":
            text = text[:i] + token + text[i:]
        elif op == "replace":
            text = text[:i] + token + text[i + max(len(token), 1) :]
        else:
            text = text[:i] + text[i + max(len(token), 1) :]
    return text


edits_st = st.lists(
    st.tuples(st.floats(0, 1), st.sampled_from(["insert", "replace", "delete"]), st.sampled_from(TOKENS)),
    min_size=1,
    max_size=4,
)
mutation_st = st.one_of(
    st.tuples(st.just("edits"), edits_st),
    st.tuples(st.just("bytes"), st.binary(max_size=80)),
)


def input_names(command: str) -> list[str]:
    return [word for word in COMMANDS[command].split() if word in INPUTS]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_valid_inputs_succeed(command):
    assert run(command, {}) == 0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), st.integers(0, 3), mutation_st)
@example("align-dp", 0, ("text", "u1\tD AH S N T K É T\n"))
@example("align-dp", 1, ("text", INPUTS["ref"].replace("Z", "|")))
@example("align-attn", 0, ("text", INPUTS["attn"].replace("K", "É", 1)))
@example("synth", 0, ("text", INPUTS["dict"].replace("K", "É")))
@example("synth", 1, ("text", "Z\t\t1.0\n"))
@example("synth", 0, ("text", ""))
def test_mutated_inputs_end_in_a_documented_exit_code(command, which, mutation):
    names = input_names(command)
    name = names[which % len(names)]
    kind, value = mutation
    if kind == "edits":
        value = mutate(INPUTS[name], value)
    assert run(command, {name: value}) in (0, 1, 2, 3)
