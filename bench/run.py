"""Fixed-seed benchmark of the pronvar pipeline, one workload per run.

    python3 bench/run.py --workload pipeline-1pron --seed 1 --seconds 20 --trace 0

A run generates the workload's input files from the seed (set-up, timed on
its own and repeated), then starts a fresh Python process that imports the
package from ``src/`` and runs the workload's CLI steps in-process through
``pronvar.cli.main``: one thread, one caller, steps back to back (a closed
loop). The first pass warms up and gives ``peak_rss_mb``; timed passes follow
until ``--seconds`` have gone by, and at least three are made. With
``--trace 1`` each timed pass is followed by a traced pass of the same steps,
which gives the per-layer metrics. Every time is scaled to a reference machine
speed (see speed.py). The outputs are checked after the passes. The last line
of standard output is one JSON object; see README.md.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
CHECKSUMS = BENCH / "checksums.json"

DEFAULT_SEED = 1
#: Kept out of tuning and development; a claimed gain must also hold on it.
HELDOUT_SEED = 7919
SETUP_REPEATS = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "step_ok_ratio": "ratio",
    "variant_recall": "ratio",
    "variant_precision": "ratio",
    "boundary_f1": "ratio",
}


def run_pass(steps, probe, tracer=None) -> dict:
    """Run the workload's CLI steps once in this process; time each step.

    Times are net of the speed probe and scaled by the pass's speed factor.
    """
    from pronvar import cli
    from workloads import outputs, sha256

    raw, codes, stdouts, stderrs = [], [], [], []
    probe.start()
    for argv in steps:
        out, err = io.StringIO(), io.StringIO()
        probed, start = probe.spent, time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = cli.main(list(argv))
                else:
                    with tracer.span(f"cli.{argv[0]}"):
                        code = cli.main(list(argv))
            except Exception as exc:  # a traceback is a failed step, not a crashed benchmark
                code = f"{type(exc).__name__}: {exc}"
        raw.append(time.perf_counter() - start - (probe.spent - probed))
        codes.append(code)
        stdouts.append(out.getvalue())
        stderrs.append(err.getvalue())
    factor = probe.stop()
    sha = {name: sha256(Path(name)) for argv in steps for name in outputs(argv) if Path(name).exists()}
    return {
        "total": sum(raw) * factor,
        "seconds": [s * factor for s in raw],
        "raw_total": sum(raw),
        "factor": factor,
        "codes": codes,
        "stdout": stdouts,
        "stderr": stderrs,
        "sha": sha,
    }


def child(config: dict) -> None:
    """The measuring process: warm-up pass, then timed (and traced) passes."""
    import spans
    from speed import Probe
    from workloads import WORKLOADS

    steps = WORKLOADS[config["workload"]].steps
    probe = Probe()
    warm = run_pass(steps, probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain, traced, layers, dump = [], [], [], []
    min_passes = 1 if config["trace"] else MIN_PASSES
    deadline = time.perf_counter() + config["seconds"]
    while len(plain) < min_passes or time.perf_counter() < deadline:
        plain.append(run_pass(steps, probe))
        if config["trace"]:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                traced.append(run_pass(steps, probe, tracer))
            layers.append(spans.layer_metrics(tracer, traced[-1]["factor"]))
            t0 = tracer.spans[0]["start"]
            dump.append(
                {
                    "factor": traced[-1]["factor"],
                    "self_s": spans.self_times(tracer.spans),
                    "spans": [
                        [s["name"], s["start"] - t0, s["end"] - t0, s["parent"], s["tally"]] for s in tracer.spans
                    ],
                }
            )
    if config["trace"]:
        Path(config["spans"]).write_text(json.dumps({"workload": config["workload"], "passes": dump}))
    print(json.dumps({"rss_mb": rss_mb, "warm": warm, "plain": plain, "traced": traced, "layers": layers}))


def _median_layers(layers: list) -> tuple[dict, dict, list[str]]:
    """Median of each per-layer metric over the traced passes; counts must repeat."""
    import spans

    metrics, problems = {}, []
    for name in layers[0][0]:
        values = [m[name] for m, _ in layers]
        if name in spans.COUNTS and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = statistics.median(values)
    return metrics, layers[-1][1], problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"workload seed; {HELDOUT_SEED} is held out for checking claims"
    )
    parser.add_argument("--seconds", type=float, default=20.0, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--record", action="store_true", help="record this run's output checksums")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pronvar" / "__init__.py").is_file():
        print(f"error: no pronvar package at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        child(json.loads(args.child))
        return 0

    import spans
    from speed import Probe
    from workloads import WORKLOADS, check, outputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    steps = workload.steps
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    try:
        probe = Probe()
        setup_s, corpus_s = [], []
        for _ in range(SETUP_REPEATS):
            probe.start()
            start = time.perf_counter()
            facts = workload.setup(workdir, args.seed, args.tiny)
            seconds = time.perf_counter() - start - probe.spent
            factor = probe.stop()
            setup_s.append(seconds * factor)
            corpus_s.append(facts["build_corpus_s"] * factor)
        config = {
            "workload": workload.name,
            "seconds": args.seconds,
            "trace": args.trace,
            "spans": str(OUT / f"{tag}-spans.json"),
        }
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name, "--child", json.dumps(config)],
            cwd=workdir,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"error: the measuring process exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        passes = [result["warm"], *result["plain"], *result["traced"]]
        quality, failures = check(workload, workdir, facts, passes[-1]["stdout"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # A step fails in a pass on a non-zero exit or an exception, and in every
    # pass when its outputs fail a check or differ between passes.
    failed = {(p, i) for p, ps in enumerate(passes) for i, code in enumerate(ps["codes"]) if code != 0}
    messages = [f"step {i} ({steps[i][0]}): {msg}" for i, msg in failures]
    for p, ps in enumerate(passes):
        for i, code in enumerate(ps["codes"]):
            if code != 0:
                messages.append(f"pass {p} step {i} ({steps[i][0]}) exited {code}: {ps['stderr'][i].strip()}")
            if ps["stdout"][i] != passes[-1]["stdout"][i] or any(
                ps["sha"].get(name) != passes[-1]["sha"].get(name) for name in outputs(steps[i])
            ):
                messages.append(f"pass {p} step {i} ({steps[i][0]}): output differs from the last pass")
                failures.append((i, "nondeterministic"))
    failed |= {(p, i) for i, _ in failures for p in range(len(passes))}
    attempted = len(passes) * len(steps)

    timed = result["plain"]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(ps["total"] for ps in timed),
        "items_per_s": statistics.median(
            facts["items"] / sum(s for argv, s in zip(steps, ps["seconds"]) if argv[0] in workload.item_steps)
            for ps in timed
        ),
        "peak_rss_mb": result["rss_mb"],
        "step_ok_ratio": (attempted - len(failed)) / attempted,
        **quality,
    }
    step_medians = [statistics.median(ps["seconds"][i] for ps in timed) for i in range(len(steps))]
    print(f"{workload.name}, seed {args.seed}: {len(timed)} timed passes of {len(steps)} steps after 1 warm-up pass")
    print(
        f"  unscaled median pass {statistics.median(ps['raw_total'] for ps in timed):.4f} s;"
        f" speed factors {min(ps['factor'] for ps in timed):.3f}-{max(ps['factor'] for ps in timed):.3f}"
    )
    for i, argv in enumerate(steps):
        per_item = ""
        if "utterances" in facts and argv[0] in ("align-dp", "align-attn"):
            per_item = f" ({1000 * step_medians[i] / len(facts['utterances']):.4f} ms/utt)"
        print(f"  step {i} {' '.join(argv)}: median {step_medians[i]:.4f} s{per_item}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {END_TO_END[name]}")

    checksums = passes[-1]["sha"]
    recorded = json.loads(CHECKSUMS.read_text()) if CHECKSUMS.exists() else {}
    if args.record and not args.tiny:
        recorded[workload.name] = {"seed": args.seed, "files": checksums}
        CHECKSUMS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    reference = recorded.get(workload.name, {})
    for name, digest in sorted(checksums.items()):
        note = ""
        if reference.get("seed") == args.seed and not args.tiny:
            note = " (as recorded)" if reference["files"].get(name) == digest else " (CHANGED from the recorded checksum)"
        print(f"  sha256 {name} {digest}{note}")

    layer_metrics = {}
    if args.trace:
        layer_metrics, tail_names, problems = _median_layers(result["layers"])
        messages.extend(problems)
        layer_metrics["synthbench.build_corpus_s"] = statistics.median(corpus_s)
        layer_metrics["bench.trace_overhead_s"] = statistics.median(
            ps["total"] for ps in result["traced"]
        ) - statistics.median(ps["total"] for ps in timed)
        print(f"  traced passes: {len(result['traced'])}; spans written to {config['spans']}")
        for name, pct in tail_names.items():
            print(f"  {name} is the {pct} utterance time")
        last = json.loads(Path(config["spans"]).read_text())["passes"][-1]
        for layer, own in sorted(last["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  self time {layer}: {own * last['factor']:.4f} s")

    for message in messages:
        print(f"  FAILED {message}")
    correct = not messages
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "utterances": len(facts.get("utterances", [])),
        "steps": [{"argv": list(argv), "median_s": s} for argv, s in zip(steps, step_medians)],
        "passes": [{"s": ps["total"], "unscaled_s": ps["raw_total"], "factor": ps["factor"]} for ps in timed],
        "metrics": metrics,
        "per_layer": layer_metrics,
        "sha256": checksums,
        "failures": messages,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")

    if args.trace:
        chosen = {name: (value, spans.PER_LAYER[name][0]) for name, value in layer_metrics.items()}
    else:
        chosen = {name: (value, END_TO_END[name]) for name, value in metrics.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
