"""Byte pins of ``align-dp`` on a dictionary of 1-3 pronunciations per word,
and on one pronunciation per word.

The dictionary-variant resolver is exact, so a change to how it costs the
alternatives must leave every output byte as it was. The digests were
recorded from the resolver that costs every alternative on cell rows, split
at the word's end, and pin its successors to the same bytes at unit costs,
scaled unit costs and other costs. With one pronunciation per word no word
is resolved, and every utterance takes the path that aligns the reference as
given; its digests were recorded from ``nw_align`` and ``project_boundaries``.
"""

import hashlib
import random

import pytest

from pronvar.cli import main
from test_per_boundary_digests import PHONES, RULES


def dictionary() -> str:
    """30 words of 2-5 phones; word i lists i % 3 + 1 pronunciations: its
    canonical of length L, then one with a phone dropped (L - 1), then one with
    a phone changed and one added (L + 1)."""
    rng = random.Random(7)
    lines = []
    for i in range(30):
        canonical = [rng.choice(PHONES) for _ in range(rng.randint(2, 5))]
        dropped = canonical[:]
        del dropped[rng.randrange(len(dropped))]
        grown = canonical[:]
        grown[rng.randrange(len(grown))] = rng.choice(PHONES)
        grown.insert(rng.randrange(len(grown) + 1), rng.choice(PHONES))
        for pron in [canonical, dropped, grown][: i % 3 + 1]:
            lines.append(f"w{i:02d}\t{' '.join(pron)}\n")
    return "".join(lines)


def one_each(text: str) -> str:
    """The first pronunciation of each word of a :func:`dictionary` text."""
    seen, lines = set(), []
    for line in text.splitlines(keepends=True):
        word = line.split("\t", 1)[0]
        if word not in seen:
            seen.add(word)
            lines.append(line)
    return "".join(lines)

# scaled unit costs rank every alignment as unit costs do, so they write the same pairs
UNIT = "58cc84c285173d009e66ff4feb7c1ec0951afd4bf18db1ef7cc76ac0371c2e1d"
DIGESTS = {
    "default": UNIT,
    "mismatch2-gap2": UNIT,
    "mismatch0.1-gap0.1": UNIT,
    "match0-mismatch1.5-gap1": "5820c8eb4b7dbf537f8eb151c6321c9de2559928a2f4605bf10b5ab6b0ccb877",
}
# with the given spans, the cuts at mismatch 1.5 come out as at unit costs on these inputs
ONE_EACH_DIGEST = "c51dddff44ee316e0ad2a4c68011a28d0e0890411da3f0a3494c08a1e16b310a"
COSTS = {
    "default": [],
    "mismatch2-gap2": ["--mismatch", "2", "--gap", "2"],
    "mismatch0.1-gap0.1": ["--mismatch", "0.1", "--gap", "0.1"],
    "match0-mismatch1.5-gap1": ["--match", "0", "--mismatch", "1.5", "--gap", "1"],
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A seeded corpus whose words list 1-3 pronunciations of unequal lengths."""
    root = tmp_path_factory.mktemp("dp-multipron")
    (root / "dict.txt").write_text(dictionary(), encoding="utf-8")
    (root / "one-each.txt").write_text(one_each(dictionary()), encoding="utf-8")
    (root / "rules.txt").write_text(RULES, encoding="utf-8")
    assert main(["synth", "--dict", str(root / "dict.txt"), "--rules", str(root / "rules.txt"), "--words", "30",
                 "--utts", "120", "--seed", "11", "--indel-prob", "0.05", "--out-dir", str(root)]) == 0  # fmt: skip
    return root


@pytest.mark.parametrize("setting", list(COSTS))
def test_align_dp_outputs_are_pinned(corpus, tmp_path, setting):
    out = tmp_path / "out.pairs"
    assert main(["align-dp", "--hyp", str(corpus / "hyp.txt"), "--ref", str(corpus / "ref.txt"),
                 "--dict", str(corpus / "dict.txt"), *COSTS[setting], "--out", str(out)]) == 0  # fmt: skip
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[setting]


@pytest.mark.parametrize("setting", list(COSTS))
def test_align_dp_outputs_with_one_pronunciation_per_word_are_pinned(corpus, tmp_path, setting):
    out = tmp_path / "out.pairs"
    assert main(["align-dp", "--hyp", str(corpus / "hyp.txt"), "--ref", str(corpus / "ref.txt"),
                 "--dict", str(corpus / "one-each.txt"), *COSTS[setting], "--out", str(out)]) == 0  # fmt: skip
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ONE_EACH_DIGEST
