"""Spans and work counts for the traced run.

The traced run calls the same ``pronvar.cli.main`` with the same arguments as
the untraced run. For the length of one traced pass, thin wrappers replace the
module functions that the CLI and the aligners look up at call time; each
wrapper records a span (name, start, end, parent) or, for the hot scoring
kernels, adds its call to a per-span tally. Nothing under ``src/`` changes,
and the wrappers are removed when the pass ends.

A span's self time is its duration minus its child spans and tallied calls.
"""

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from pronvar import attnalign, cli, dpalign, lexbuild, synthbench

#: Per-layer metrics: name -> (unit, better). Times are seconds inside the layer.
PER_LAYER = {
    "phonecore.derive_inventory_s": ("s", "lower"),
    "phonecore.parse_dictionary_s": ("s", "lower"),
    "phonecore.parse_phone_s": ("s", "lower"),
    "phonecore.parse_segmented_s": ("s", "lower"),
    "phonecore.parse_lexicon_s": ("s", "lower"),
    "phonecore.parse_pairs_s": ("s", "lower"),
    "phonecore.parse_mb_per_s": ("MB/s", "higher"),
    "phonecore.emit_pairs_s": ("s", "lower"),
    "phonecore.emit_lexicon_s": ("s", "lower"),
    "phonecore.emit_bytes": ("bytes", "lower"),
    "attnalign.parse_attention_s": ("s", "lower"),
    "attnalign.parse_attention_mb": ("MB", "lower"),
    "attnalign.place_boundaries_s": ("s", "lower"),
    "attnalign.candidates": ("count", "lower"),
    "attnalign.candidates_per_utt": ("count", "lower"),
    "attnalign.span_scores": ("count", "lower"),
    "attnalign.span_cells": ("count", "lower"),
    "attnalign.distinct_span_ratio": ("ratio", "higher"),
    "attnalign.search_s": ("s", "lower"),
    "attnalign.utt_ms_p50": ("ms", "lower"),
    "attnalign.utt_ms_tail": ("ms", "lower"),
    "attnalign.accept_ratio": ("ratio", "higher"),
    "attnalign.repaired_cuts": ("count", "lower"),
    "attnalign.empty_spans": ("count", "lower"),
    "dpalign.pair_by_id_s": ("s", "lower"),
    "dpalign.nw_align_calls": ("count", "lower"),
    "dpalign.dp_cells": ("count", "lower"),
    "dpalign.nw_align_s": ("s", "lower"),
    "dpalign.final_align_ratio": ("ratio", "higher"),
    "dpalign.project_boundaries_s": ("s", "lower"),
    "dpalign.extract_s": ("s", "lower"),
    "dpalign.utt_ms_p50": ("ms", "lower"),
    "dpalign.utt_ms_tail": ("ms", "lower"),
    "dpalign.empty_spans": ("count", "lower"),
    "lexbuild.from_counted_pairs_s": ("s", "lower"),
    "lexbuild.merge_s": ("s", "lower"),
    "lexbuild.prune_s": ("s", "lower"),
    "lexbuild.stats_s": ("s", "lower"),
    "lexbuild.entries_in": ("count", "lower"),
    "lexbuild.entries_out": ("count", "lower"),
    "lexbuild.pruned_ratio": ("ratio", "lower"),
    "synthbench.build_corpus_s": ("s", "lower"),
    "synthbench.recovery_report_s": ("s", "lower"),
    **{f"cli.{cmd}_s": ("s", "lower") for cmd in ("align-dp", "align-attn", "build", "merge", "stats", "eval", "eval-bounds")},
    "cli.self_s": ("s", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
}

#: Per-layer metrics that are counts of work or outcomes; they repeat exactly.
COUNTS = frozenset(
    name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "ratio", "bytes", "MB")
)


class Tracer:
    """Spans of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.later: list = []  # bookkeeping kept out of the timed calls

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "tally": {}})
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        """End span ``index`` and any span left open inside it."""
        now = time.perf_counter()
        while index in self.stack:
            self.spans[self.stack.pop()]["end"] = now

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def tally(self, name: str, seconds: float) -> None:
        entry = self.spans[self.stack[-1]]["tally"].setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds


def _spanned(tracer, name, fn, note=None):
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if note is not None:
            note(tracer, args, result)
        return result

    return wrapper


def _tallied(tracer, name, fn, cells=None):
    def wrapper(a, b, *args):
        start = time.perf_counter()
        result = fn(a, b, *args)
        tracer.tally(name, time.perf_counter() - start)
        if cells is not None:
            tracer.counts[cells] += len(a) * len(b)
        return result

    return wrapper


def _per_utterance(tracer, layer, fn):
    """``pair_by_id`` whose pairs open one span per utterance as the loop takes them."""

    def timed(pairs):
        for pair in pairs:
            index = tracer.open(f"{layer}.utterance")
            try:
                yield pair
            finally:
                tracer.close(index)

    return _spanned(tracer, f"{layer}.pair_by_id", lambda left, right: timed(fn(left, right)))


def _count(key, size):
    def note(tracer, args, result):
        tracer.counts[key] += size(args, result)

    return note


def _candidates(tracer, args, result):
    tracer.counts["attnalign.candidates"] += len(result)

    def distinct():
        seen = set()
        for seg in result:
            bounds = (0, *seg.cuts, seg.length)
            seen.update(zip(range(len(bounds)), bounds, bounds[1:]))
        tracer.counts["attnalign.distinct_spans"] += len(seen)
        if result:
            tracer.counts["attnalign.span_evaluations"] += len(result) * result[0].word_count

    tracer.later.append(distinct)


def _extracted(layer):
    def note(tracer, args, result):
        tracer.counts[f"{layer}.empty_spans"] += result.empty_spans
        if layer == "attnalign":
            tracer.counts["attnalign.rejects"] += len(result.rejects)

    return note


def _pruned(tracer, args, result):
    def entries():
        tracer.counts["lexbuild.entries_in"] += args[0].entry_count
        tracer.counts["lexbuild.entries_out"] += result.entry_count

    tracer.later.append(entries)


def _text_size(args, result):
    return len(args[0])


def _wrappers(tracer):
    """(module, attribute, wrapper) for every call site the traced pass times."""

    def s(module, attr, name, note=None):
        return module, attr, _spanned(tracer, name, getattr(module, attr), note)

    parse_note = _count("phonecore.parse_chars", _text_size)
    emit_note = _count("phonecore.emit_bytes", lambda args, result: len(result))
    return [
        s(cli, "derive_inventory", "phonecore.derive_inventory"),
        s(cli, "parse_dictionary_file", "phonecore.parse_dictionary", parse_note),
        s(cli, "parse_phone_file", "phonecore.parse_phone", parse_note),
        s(cli, "parse_segmented_file", "phonecore.parse_segmented", parse_note),
        s(cli, "parse_lexicon", "phonecore.parse_lexicon", parse_note),
        s(cli, "parse_pairs_file", "phonecore.parse_pairs", parse_note),
        s(cli, "emit_pairs", "phonecore.emit_pairs", emit_note),
        s(cli, "emit_lexicon", "phonecore.emit_lexicon", emit_note),
        s(cli, "parse_attention_file", "attnalign.parse_attention", _count("attnalign.parse_attention_chars", _text_size)),
        s(cli, "extract_variants_attn", "attnalign.extract", _extracted("attnalign")),
        (attnalign, "pair_by_id", _per_utterance(tracer, "attnalign", attnalign.pair_by_id)),
        s(attnalign, "split_by_attention", "attnalign.split_by_attention", _candidates),
        s(attnalign, "place_boundaries", "attnalign.place_boundaries", _count("attnalign.repaired_cuts", lambda a, r: r.repaired)),
        (attnalign, "edit_distance", _tallied(tracer, "attnalign.edit_distance", attnalign.edit_distance, "attnalign.span_cells")),
        s(cli, "extract_variants_dp", "dpalign.extract", _extracted("dpalign")),
        (dpalign, "pair_by_id", _per_utterance(tracer, "dpalign", dpalign.pair_by_id)),
        (dpalign, "nw_align", _tallied(tracer, "dpalign.nw_align", dpalign.nw_align, "dpalign.dp_cells")),
        (dpalign, "project_boundaries", _tallied(tracer, "dpalign.project_boundaries", dpalign.project_boundaries)),
        s(lexbuild, "from_counted_pairs", "lexbuild.from_counted_pairs"),
        s(lexbuild, "from_dictionary", "lexbuild.from_dictionary"),
        s(lexbuild, "merge", "lexbuild.merge"),
        s(lexbuild, "prune", "lexbuild.prune", _pruned),
        s(lexbuild, "stats", "lexbuild.stats"),
        s(synthbench, "recovery_report", "synthbench.recovery_report"),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for one traced pass, then put the originals back."""
    wrappers = _wrappers(tracer)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in wrappers]
    for module, attr, wrapper in wrappers:
        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its name."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1] if ordered else 0.0), "max"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f}"


def _self_seconds(spans: list[dict]) -> list[float]:
    """Each span's duration minus its child spans and tallied calls."""
    own = [span["end"] - span["start"] - sum(t for _, t in span["tally"].values()) for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer (the span name up to its first dot), tallies included."""
    layers: Counter = Counter()
    for span, own in zip(spans, _self_seconds(spans)):
        layers[span["name"].split(".")[0]] += own
        for name, (_, seconds) in span["tally"].items():
            layers[name.split(".")[0]] += seconds
    return dict(layers)


def layer_metrics(tracer: Tracer, factor: float) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced pass, and the names of the tail percentiles.

    Times are multiplied by the pass's speed ``factor``. They include the
    speed probe's samples that fell inside each span, about 1% of the pass.
    """
    for work in tracer.later:
        work()
    c = tracer.counts
    seconds: Counter = Counter()
    calls: Counter = Counter()
    utt_ms: dict[str, list[float]] = defaultdict(list)
    cli_self = 0.0
    for span, own in zip(tracer.spans, _self_seconds(tracer.spans)):
        duration = span["end"] - span["start"]
        seconds[span["name"]] += duration
        if span["name"].endswith(".utterance"):
            utt_ms[span["name"].split(".")[0]].append(1000 * duration)
        for name, (n, spent) in span["tally"].items():
            calls[name] += n
            seconds[name] += spent
        if span["name"].startswith("cli."):
            cli_self += own

    def ratio(a, b):
        return a / b if b else 0.0

    parsers = ("dictionary", "phone", "segmented", "lexicon", "pairs")
    m = {f"phonecore.parse_{p}_s": seconds[f"phonecore.parse_{p}"] for p in parsers}
    m["phonecore.derive_inventory_s"] = seconds["phonecore.derive_inventory"]
    m["phonecore.parse_mb_per_s"] = ratio(c["phonecore.parse_chars"] / 1e6, sum(m[f"phonecore.parse_{p}_s"] for p in parsers))
    m["phonecore.emit_pairs_s"] = seconds["phonecore.emit_pairs"]
    m["phonecore.emit_lexicon_s"] = seconds["phonecore.emit_lexicon"]
    m["phonecore.emit_bytes"] = c["phonecore.emit_bytes"]

    names = {}
    attn_utts = len(utt_ms["attnalign"])
    m["attnalign.parse_attention_s"] = seconds["attnalign.parse_attention"]
    m["attnalign.parse_attention_mb"] = c["attnalign.parse_attention_chars"] / 1e6
    m["attnalign.place_boundaries_s"] = seconds["attnalign.place_boundaries"]
    m["attnalign.candidates"] = c["attnalign.candidates"]
    m["attnalign.candidates_per_utt"] = ratio(c["attnalign.candidates"], attn_utts)
    m["attnalign.span_scores"] = calls["attnalign.edit_distance"]
    m["attnalign.span_cells"] = c["attnalign.span_cells"]
    m["attnalign.distinct_span_ratio"] = ratio(c["attnalign.distinct_spans"], c["attnalign.span_evaluations"])
    m["attnalign.search_s"] = seconds["attnalign.utterance"]
    m["attnalign.utt_ms_p50"] = statistics.median(utt_ms["attnalign"]) if attn_utts else 0.0
    m["attnalign.utt_ms_tail"], names["attnalign.utt_ms_tail"] = tail(utt_ms["attnalign"])
    m["attnalign.accept_ratio"] = ratio(attn_utts - c["attnalign.rejects"], attn_utts)
    m["attnalign.repaired_cuts"] = c["attnalign.repaired_cuts"]
    m["attnalign.empty_spans"] = c["attnalign.empty_spans"]

    dp_utts = len(utt_ms["dpalign"])
    m["dpalign.pair_by_id_s"] = seconds["dpalign.pair_by_id"]
    m["dpalign.nw_align_calls"] = calls["dpalign.nw_align"]
    m["dpalign.dp_cells"] = c["dpalign.dp_cells"]
    m["dpalign.nw_align_s"] = seconds["dpalign.nw_align"]
    m["dpalign.final_align_ratio"] = ratio(dp_utts, calls["dpalign.nw_align"])
    m["dpalign.project_boundaries_s"] = seconds["dpalign.project_boundaries"]
    m["dpalign.extract_s"] = seconds["dpalign.extract"]
    m["dpalign.utt_ms_p50"] = statistics.median(utt_ms["dpalign"]) if dp_utts else 0.0
    m["dpalign.utt_ms_tail"], names["dpalign.utt_ms_tail"] = tail(utt_ms["dpalign"])
    m["dpalign.empty_spans"] = c["dpalign.empty_spans"]

    for fn in ("from_counted_pairs", "merge", "prune", "stats"):
        m[f"lexbuild.{fn}_s"] = seconds[f"lexbuild.{fn}"]
    m["lexbuild.entries_in"] = c["lexbuild.entries_in"]
    m["lexbuild.entries_out"] = c["lexbuild.entries_out"]
    m["lexbuild.pruned_ratio"] = ratio(c["lexbuild.entries_in"] - c["lexbuild.entries_out"], c["lexbuild.entries_in"])

    m["synthbench.recovery_report_s"] = seconds["synthbench.recovery_report"]
    for name in PER_LAYER:
        if name.startswith("cli.") and name != "cli.self_s":
            m[name] = seconds[name[: -len("_s")]]
    m["cli.self_s"] = cli_self
    for name, value in m.items():
        unit = PER_LAYER[name][0]
        if unit in ("s", "ms"):
            m[name] = value * factor
        elif unit == "MB/s":
            m[name] = value / factor
    return m, names
