"""The ROADMAP's slow-path gaps, as ratios of per-utterance align time.

    python3 bench/gaps.py [--seed N]

Reads the untraced results that bench/run.py wrote to .bench_out/ for
pipeline-1pron, dp-multipron and attn-perboundary at one seed, so run those
three first. Prints the median align-dp time per utterance of dp-multipron
(3 pronunciations per word) over that of pipeline-1pron (1 per word), and the
median align-attn time per utterance of attn-perboundary (per-boundary search)
over that of pipeline-1pron (global shift), each with its base.
"""

import argparse
import json
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".bench_out"


def per_utterance_ms(workload: str, seed: int, subcommand: str) -> tuple[float, int]:
    path = OUT / f"{workload}-seed{seed}-trace0.json"
    if not path.exists():
        sys.exit(f"missing {path}: run bench/run.py --workload {workload} --seed {seed} first")
    report = json.loads(path.read_text())
    (seconds,) = [step["median_s"] for step in report["steps"] if step["argv"][0] == subcommand]
    return 1000 * seconds / report["utterances"], report["utterances"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for slow, subcommand in (("dp-multipron", "align-dp"), ("attn-perboundary", "align-attn")):
        slow_ms, slow_n = per_utterance_ms(slow, args.seed, subcommand)
        base_ms, base_n = per_utterance_ms("pipeline-1pron", args.seed, subcommand)
        print(
            f"{subcommand}: {slow} {slow_ms:.3f} ms/utt ({slow_n} utts) / pipeline-1pron {base_ms:.3f} ms/utt"
            f" ({base_n} utts) = {slow_ms / base_ms:.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
