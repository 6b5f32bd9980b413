"""Byte pins of ``align-attn --mode per-boundary`` and ``--mode global``.

The search is exact, so a change to how it searches must leave every output
byte as it was. The per-boundary digests were recorded from the A* search over
a per-state table of summed span floors, and pin its successors to the same
bytes. The global digests were recorded from the search that takes each word's
pronunciation-length range, whose length floors differ when a word lists
pronunciations of unequal length.
"""

import hashlib
import random

import pytest

from pronvar.cli import main

PHONES = "AA AE AH B D EH IH IY K L M N OW P R S T UW Z".split()
RULES = "AE\tEH\t0.3\nIY\tIH\t0.3\nZ\tS\t0.3\nT\tD\t0.2\n"


def dictionary(alternatives: bool) -> str:
    """30 words of 2-5 phones. With ``alternatives``, word i lists i % 3 + 1
    pronunciations: its canonical of length L, then one of length 1, then one
    of length L + 2."""
    rng = random.Random(5)
    lines = []
    for i in range(30):
        canonical = [rng.choice(PHONES) for _ in range(rng.randint(2, 5))]
        prons = [canonical, canonical[:1], [*canonical, *rng.sample(PHONES, 2)]]
        for pron in prons[: i % 3 + 1 if alternatives else 1]:
            lines.append(f"w{i:02d}\t{' '.join(pron)}\n")
    return "".join(lines)


REJECTS = "619eb2a2ccd1bece79caf1c2aef17550c7b2e9c37396978d9abfd6c39d54f0ef"  # one utterance, at both radii
DIGESTS = {
    False: {
        "pairs3": "d32f6121af689bbda0943cd318f2603ab6401cd04ea9f033e5cbb83e9aaeafae",
        "rejects3": REJECTS,
        "bounds3": "dead82452653ef4c5ef84e552433d9d8f8b0a4ce0b7dbc2a4f8226c66a81ceb0",
        "pairs6": "20b82c1bf7904ca518677c103a61172ceda53c0988e4d6a5a0938e533181963c",
        "rejects6": REJECTS,
        "bounds6": "248e56e34ae8c28adb2dcd1b9ee74df1ae93de29079391ff8328f3ff6d69a30e",
    },
    True: {
        "pairs3": "9f271815e0b212fcb63be049b6d62d855312b9514ae64e45b4d5cc322405e955",
        "rejects3": REJECTS,
        "bounds3": "7d40e333a157deb5b5de47d6a95f8c18392ae901bdf60af88ea217fb339e99b7",
        "pairs6": "d594eda74e62c8652d20934b3911b9464dd104cd773c4a6bf5bdf1bedcb0cda9",
        "rejects6": REJECTS,
        "bounds6": "b17fafdf4547603a93cd2112aa75897563c02b1cc2db5d80b0ceb3d5045b3564",
    },
}


GLOBAL_DIGESTS = {  # the same at both radii
    False: {
        "pairs": "d4b8c1fc012a98de2fb9216b502a315897627e0ba17f4971d75a01b0b5da76d9",
        "rejects": "5870be95be3ded6832c247d1b9ea29b49382540bbc6a429f0e383e9d111d3730",
        "bounds": "6b935f9ec2fe0cc702f02d5b9bd0d4ff49d1fdc70122939dfe20a41269fedfc9",
    },
    True: {
        "pairs": "cf960917e57f2fa4a401d84d668d3a6290bf52d78a7e303ffd1c3dfa9175e596",
        "rejects": "041dfcc02e1d05103ba0c8220024a7d0baf86cfe63b2a17a44fea4a517710e85",
        "bounds": "786e1e44d7093b4b62bd9e45411a68916f74eb6038147f9c6ebbc20854b62d0f",
    },
}


def align_attn_digests(tmp_path, alternatives: bool, mode: str) -> dict[str, str]:
    """Synthesize the corpus and run ``align-attn --mode mode`` on it at radii 3 and 6;
    the sha256 of each output, keyed by its name and radius."""
    d = tmp_path / "dict.txt"
    d.write_text(dictionary(alternatives), encoding="utf-8")
    r = tmp_path / "rules.txt"
    r.write_text(RULES, encoding="utf-8")
    corpus = tmp_path / "corpus"
    assert main(["synth", "--dict", str(d), "--rules", str(r), "--words", "30", "--utts", "120", "--seed", "11",
                 "--attn", "jitter:2", "--indel-prob", "0.05", "--out-dir", str(corpus)]) == 0  # fmt: skip
    found = {}
    for radius in ("3", "6"):
        outputs = [tmp_path / f"{name}{radius}.txt" for name in ("pairs", "rejects", "bounds")]
        assert main(["align-attn", "--attn", str(corpus / "attn.txt"), "--ref", str(corpus / "ref.txt"),
                     "--dict", str(d), "--mode", mode, "--radius", radius, "--out", str(outputs[0]),
                     "--rejects", str(outputs[1]), "--bounds", str(outputs[2])]) == 0  # fmt: skip
        for path in outputs:
            found[path.stem] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


@pytest.mark.parametrize("alternatives", [False, True], ids=["1pron", "1to3prons"])
def test_per_boundary_outputs_are_pinned(tmp_path, alternatives):
    assert align_attn_digests(tmp_path, alternatives, "per-boundary") == DIGESTS[alternatives]


@pytest.mark.parametrize("alternatives", [False, True], ids=["1pron", "1to3prons"])
def test_global_outputs_are_pinned(tmp_path, alternatives):
    expected = {f"{name}{radius}": digest for radius in "36" for name, digest in GLOBAL_DIGESTS[alternatives].items()}
    assert align_attn_digests(tmp_path, alternatives, "global") == expected
