"""The benchmark's workloads: seeded inputs, CLI step sequences and output checks.

Every input file is generated here from the workload seed; the program only
ever sees those files. The pronunciation dictionary and the prompts are fixed,
as a real dictionary and a read-speech prompt set are; the seed varies how the
prompts are spoken (see make_corpus), or the two lexicons of lexicon-scale.
"""

import hashlib
import random
import time
from dataclasses import dataclass
from pathlib import Path

from pronvar import lexbuild, synthbench
from pronvar.attnalign import emit_attention_file
from pronvar.phonecore import (
    ReferenceDictionary,
    emit_dictionary,
    emit_lexicon,
    emit_phone_file,
    emit_segmented_file,
    parse_lexicon,
    parse_pairs_file,
)

ARPABET = (
    "AA AE AH AO AW AY B CH D DH EH ER EY F G HH IH IY JH K L M N NG OW OY P R S "
    "SH T TH UH UW V W Y Z ZH"
).split()

DICT_SEED = 20250205
PROMPT_SEED = 20250206
DICT_WORDS = 300

#: Criterion 3's sizes: rule-based and attention-based lexicons and their overlap.
LEXICON_SIZES = (336_882, 35_204, 26_597)
TINY_LEXICON_SIZES = (3_369, 352, 266)


def make_dictionary(alternatives: int) -> ReferenceDictionary:
    """A fixed 300-word dictionary; alternatives differ from the first by one phone."""
    rng = random.Random(DICT_SEED)
    entries = {}
    for i in range(DICT_WORDS):
        canonical = tuple(rng.choices(ARPABET, k=rng.randint(2, 6)))
        prons = [canonical]
        while len(prons) < alternatives:
            variant = list(canonical)
            variant[rng.randrange(len(variant))] = rng.choice(ARPABET)
            if tuple(variant) not in prons:
                prons.append(tuple(variant))
        entries[f"w{i:03d}"] = prons
    return ReferenceDictionary(entries)


def make_corpus(dictionary, seed: int, utterances: int, words: tuple[int, int]):
    """A fixed set of prompts read by a seeded speaker.

    The prompts (the words of each utterance) come from
    ``synthbench.build_corpus`` at a fixed seed, as in a read-speech corpus
    where every speaker reads the same sentences. The workload seed drives the
    speaker: substitutions, insertions and deletions (``synthbench.corrupt``)
    and attention jitter (``synthbench.jittered_attention``). The aligners'
    cost depends mostly on the prompts, so the work stays nearly the same from
    seed to seed while every input and output still changes with it.
    """
    refs = synthbench.build_corpus(
        dictionary, (), vocabulary=len(dictionary), utterances=utterances, seed=PROMPT_SEED, words_per_utterance=words
    ).references
    hyps, maps, bounds, injected = [], [], [], []
    for index, ref in enumerate(refs):
        speaker_seed = seed * 1_000_003 + index
        result = synthbench.corrupt(ref, synthbench.DEFAULT_RULES, speaker_seed, indel_probability=0.05)
        phones = result.sequence.phones
        hyps.append(result.sequence)
        bounds.append((ref.utterance_id, result.truth))
        maps.append(synthbench.jittered_attention(ref.utterance_id, phones, ref.phones, 2, speaker_seed + 1))
        for span, realized in zip(ref.words, result.truth.spans(phones)):
            if realized and realized not in dictionary.pronunciations(span.word):
                injected.append((span.word, realized))
    return refs, hyps, maps, bounds, lexbuild.accumulate(injected)


def make_lexicons(seed: int, sizes: tuple[int, int, int]) -> tuple[str, str]:
    """Two counted lexicons of random real pronunciations with a given overlap."""
    n_rule, n_attn, n_shared = sizes
    rng = random.Random(seed)
    total = n_rule + n_attn - n_shared
    entries: list[tuple[str, str]] = []
    while len(entries) < total:
        word = f"v{len(entries):06d}"
        prons = {" ".join(rng.choices(ARPABET, k=rng.randint(2, 7))) for _ in range(rng.randint(1, 3))}
        entries.extend((word, pron) for pron in sorted(prons))
    del entries[total:]
    # role 0: both lexicons, 1: rule lexicon only, 2: attention lexicon only
    roles = [0] * n_shared + [1] * (n_rule - n_shared) + [2] * (n_attn - n_shared)
    rng.shuffle(roles)
    rule, attn = [], []
    for (word, pron), role in zip(entries, roles):
        if role != 2:
            rule.append(f"{word}\t{rng.randint(1, 4)}\t{pron}\n")
        if role != 1:
            attn.append(f"{word}\t{rng.randint(1, 4)}\t{pron}\n")
    return "".join(rule), "".join(attn)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple[tuple[str, ...], ...]
    #: Subcommands whose seconds ``items_per_s`` divides by.
    item_steps: tuple[str, ...]
    alternatives: int = 1
    utterances: int = 0
    tiny_utterances: int = 0
    words: tuple[int, int] = (2, 6)

    def setup(self, workdir: Path, seed: int, tiny: bool) -> dict:
        """Write the inputs; return the facts the checks and metrics need."""
        if self.utterances == 0:
            sizes = TINY_LEXICON_SIZES if tiny else LEXICON_SIZES
            rule, attn = make_lexicons(seed, sizes)
            (workdir / "rule.lex").write_text(rule, encoding="utf-8")
            (workdir / "attn.lex").write_text(attn, encoding="utf-8")
            # every step reads both lexicons
            return {"items": len(self.steps) * (sizes[0] + sizes[1]), "sizes": sizes, "build_corpus_s": 0.0}
        dictionary = make_dictionary(self.alternatives)
        start = time.perf_counter()
        refs, hyps, maps, bounds, truth = make_corpus(
            dictionary, seed, self.tiny_utterances if tiny else self.utterances, self.words
        )
        build_s = time.perf_counter() - start
        needed = {arg for argv in self.steps for arg in argv}
        files = {
            "dict.txt": lambda: emit_dictionary(dictionary),
            "hyp.txt": lambda: emit_phone_file(hyps),
            "ref.txt": lambda: emit_segmented_file(refs),
            "attn.txt": lambda: emit_attention_file(maps),
            "truth_lexicon.txt": lambda: emit_lexicon(truth),
            "truth_bounds.txt": lambda: synthbench.emit_bounds_file(bounds),
        }
        for name, emit in files.items():
            if name in needed:
                (workdir / name).write_text(emit(), encoding="utf-8")
        return {
            "items": len(refs) * len(self.item_steps),
            "utterances": [ref.utterance_id for ref in refs],
            "build_corpus_s": build_s,
        }


ALIGN_DP = ("align-dp", "--hyp", "hyp.txt", "--ref", "ref.txt", "--dict", "dict.txt", "--out", "dp.pairs")


def _align_attn(mode: str) -> tuple[str, ...]:
    return (
        "align-attn", "--attn", "attn.txt", "--ref", "ref.txt", "--dict", "dict.txt",
        "--mode", mode, "--radius", "3", "--rejects", "attn.rejects", "--bounds", "attn.bounds",
        "--out", "attn.pairs",
    )  # fmt: skip


def _build(pairs: str, out: str) -> tuple[str, ...]:
    return ("build", "--pairs", pairs, "--dict", "dict.txt", "--out", out)


def _eval(built: str) -> tuple[str, ...]:
    return ("eval", "--built", built, "--truth", "truth_lexicon.txt", "--dict", "dict.txt")


EVAL_BOUNDS = ("eval-bounds", "--pred", "attn.bounds", "--truth", "truth_bounds.txt")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline-1pron",
            "common path: both aligners on their fast path (1 pronunciation per word); parsing and I/O show here",
            (
                ALIGN_DP,
                _align_attn("global"),
                _build("dp.pairs", "dp.lex"),
                _build("attn.pairs", "attn.lex"),
                ("merge", "--in", "dp.lex", "--in", "attn.lex", "--out", "merged.lex"),
                ("stats", "--lex", "merged.lex"),
                _eval("merged.lex"),
                EVAL_BOUNDS,
            ),
            item_steps=("align-dp", "align-attn"),
            utterances=2000,
            tiny_utterances=20,
        ),
        Workload(
            "dp-multipron",
            "slow path of align-dp: 3 pronunciations per word, so each word's variant is resolved by re-alignment",
            (ALIGN_DP, _build("dp.pairs", "dp.lex"), _eval("dp.lex")),
            item_steps=("align-dp",),
            alternatives=3,
            utterances=500,
            tiny_utterances=10,
        ),
        Workload(
            "attn-perboundary",
            "slow path of align-attn: per-boundary search on 4-8 word utterances, dominated by span scoring",
            (_align_attn("per-boundary"), _build("attn.pairs", "attn.lex"), _eval("attn.lex"), EVAL_BOUNDS),
            item_steps=("align-attn",),
            utterances=150,
            tiny_utterances=5,
            words=(4, 8),
        ),
        Workload(
            "lexicon-scale",
            "criterion 3 scale (336,882 and 35,204 entries): lexbuild and lexicon parse/emit dominate",
            (
                ("merge", "--in", "rule.lex", "--in", "attn.lex", "--out", "merged.lex"),
                ("stats", "--lex", "attn.lex", "--baseline", "rule.lex"),
                ("build", "--pairs", "rule.lex", "attn.lex", "--min-count", "2", "--out", "built.lex"),
            ),
            item_steps=("merge", "stats", "build"),
        ),
    )
}


def outputs(argv) -> list[str]:
    """The files a step writes."""
    return [argv[i + 1] for i, arg in enumerate(argv) if arg in ("--out", "--rejects", "--bounds")]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report(stdout: str) -> dict[str, str]:
    return dict(line.split("\t", 1) for line in stdout.splitlines() if "\t" in line)


def check(workload: Workload, workdir: Path, facts: dict, stdouts: list[str]) -> tuple[dict, list[tuple[int, str]]]:
    """Check the last pass's outputs; return the quality metrics and the failures.

    A failure is ``(step index, message)``. The checks: every emitted pairs
    file, lexicon and bounds file re-parses with the package's own parsers;
    every utterance of an attention step is accepted or rejected exactly once;
    on the lexicon workload, the merge, stats and build results match sums
    done independently here. Quality metrics a workload has no step for
    (boundary F1 without an attention step) keep the score of an empty
    comparison, 1.0, as ``eval-bounds`` gives two empty cut lists.
    """
    failures: list[tuple[int, str]] = []
    quality = {"variant_recall": 1.0, "variant_precision": 1.0, "boundary_f1": 1.0}
    for index, argv in enumerate(workload.steps):
        try:
            failures.extend((index, msg) for msg in _check_step(workload, argv, workdir, facts, stdouts[index], quality))
        except OSError as err:
            failures.append((index, f"missing output: {err}"))
    return quality, failures


def _check_step(workload, argv, workdir: Path, facts: dict, stdout: str, quality: dict) -> list[str]:
    failures = []
    for name in outputs(argv):
        text = (workdir / name).read_text(encoding="utf-8")
        try:
            if name.endswith(".pairs"):
                parse_pairs_file(text)
            elif name.endswith(".lex"):
                parse_lexicon(text)
            elif name.endswith(".bounds"):
                synthbench.parse_bounds_file(text)
        except Exception as exc:  # any parser error is a failed output check
            failures.append(f"{name} does not re-parse: {exc}")
    if argv[0] == "align-attn":
        failures.extend(_accounted_once(workdir, facts["utterances"]))
    report = _report(stdout)
    try:
        if argv[0] == "eval":
            quality["variant_recall"] = float(report["recall"])
            quality["variant_precision"] = float(report["precision"])
        elif argv[0] == "eval-bounds":
            quality["boundary_f1"] = float(report["f1"])
    except (KeyError, ValueError):
        failures.append(f"{argv[0]} printed no score: {stdout!r}")
    if workload.name == "lexicon-scale":
        failures.extend(_lexicon_checks(argv, workdir, facts, report))
        if argv[0] == "build":
            quality.update(_build_recovery(workdir))
    return failures


def _accounted_once(workdir: Path, utterances: list[str]) -> list[str]:
    accepted = [utt for utt, _ in synthbench.parse_bounds_file((workdir / "attn.bounds").read_text())]
    rejected = [line.split("\t")[0] for line in (workdir / "attn.rejects").read_text().splitlines()]
    seen = accepted + rejected
    if sorted(seen) != sorted(utterances):
        return [f"{len(accepted)} accepted + {len(rejected)} rejected do not cover {len(utterances)} utterances once each"]
    return []


def _read_counts(path: Path) -> dict[tuple[str, str], int]:
    counts: dict[tuple[str, str], int] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        word, count, pron = line.split("\t")
        counts[word, pron] = counts.get((word, pron), 0) + int(count)
    return counts


def _lexicon_checks(argv, workdir: Path, facts: dict, report: dict) -> list[str]:
    n_rule, n_attn, n_shared = facts["sizes"]
    if argv[0] == "merge":
        lines = (workdir / "merged.lex").read_text().count("\n")
        if lines != n_rule + n_attn - n_shared:
            return [f"merged lexicon has {lines} entries, expected {n_rule + n_attn - n_shared}"]
    if argv[0] == "stats" and report.get("shared_entries") != str(n_shared):
        return [f"stats reports {report.get('shared_entries')} shared, expected {n_shared}"]
    return []


def _build_recovery(workdir: Path) -> dict:
    """Recall and precision of ``build --min-count 2`` against sums done here."""
    summed = _read_counts(workdir / "rule.lex")
    for key, count in _read_counts(workdir / "attn.lex").items():
        summed[key] = summed.get(key, 0) + count
    expected = {key for key, count in summed.items() if count >= 2}
    built = _read_counts(workdir / "built.lex")
    hits = sum(1 for key, count in built.items() if summed.get(key) == count and key in expected)
    return {
        "variant_recall": hits / len(expected) if expected else 1.0,
        "variant_precision": hits / len(built) if built else 1.0,
    }
