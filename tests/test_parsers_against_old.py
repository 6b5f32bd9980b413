"""Each parser against its old self (``old_parsers``).

On valid input a parser gives the old result. On input with one defect it gives
the old error class, message and ``.line``, with two listed differences:

* an error that named no line now names the defect's line, as a ``line N: ``
  prefix; a confusion rule's unknown phone said ``in rule on line N`` and now
  says ``line N: ... in rule``;
* a dictionary word that is not one token is a ``bad word``, no longer a
  ``bad utterance id``.

Where a line, or a file, holds several defects, the one reported first can
differ; each such case is in ``ORDER_CHANGES`` with both verdicts, and is an
``@example`` of its parser's test.

With no inventory, a parser checks each phone by the phone-symbol rule as it
reads its line (``phonecore.AnySymbol``). Each parser that once read a file
only after a lenient scan of it had derived an inventory is also checked
against that chain (scan, ``derive_inventory``, parse) on the same files, a
bad phone symbol among their defects: it gives the same records, or the same
error.
"""

from itertools import accumulate

from hypothesis import example, given, settings, strategies as st

import old_parsers as old
from pronvar import attnalign, errors, phonecore, synthbench

PHONES = ("K", "AE", "T", "D", "AO", "G")
INVENTORIES = {"old": old.PhoneInventory.from_phones(PHONES), "new": phonecore.PhoneInventory.from_phones(PHONES)}
WORDS = ("the", "cat", "dog", "a")

#: parser name: (old parser, new parser, the result as plain values)
PARSERS = {
    "inventory": (old.parse_inventory, phonecore.parse_inventory, lambda inv: (inv.phones, inv.origins)),
    "phone": (old.parse_phone_file, phonecore.parse_phone_file, lambda seqs: [(s.utterance_id, s.phones) for s in seqs]),
    "segmented": (
        old.parse_segmented_file,
        phonecore.parse_segmented_file,
        lambda utts: [(u.utterance_id, tuple(map(tuple, u.words)), u.phones, ends(u)) for u in utts],
    ),
    "dictionary": (old.parse_dictionary_file, phonecore.parse_dictionary_file, lambda d: d._entries),
    "lexicon": (old.parse_lexicon, phonecore.parse_lexicon, lambda lex: lex._entries),
    "pairs": (old.parse_pairs_file, phonecore.parse_pairs_file, list),
    "bounds": (old.parse_bounds_file, attnalign.parse_bounds_file, list),
    "rules": (
        old.parse_rules_file,
        synthbench.parse_rules_file,
        lambda rules: [(r.source, r.target, r.probability) for r in rules],
    ),
    "attention": (
        old.parse_attention_file,
        attnalign.parse_attention_file,
        lambda maps: [(m.utterance_id, m.col_phones, m.row_phones, m.weights) for m in maps],
    ),
}


def ends(utterance):
    """A reference's ``ends``; the old record kept none, so its are summed from its spans."""
    if isinstance(utterance, phonecore.SegmentedUtterance):
        return utterance.ends
    return tuple(accumulate(len(span.phones) for span in utterance.words))


def verdict(name, side, text, inventory):
    parse, plain = PARSERS[name][0 if side == "old" else 1], PARSERS[name][2]
    args = () if inventory is None else (INVENTORIES[side],)
    try:
        return "parsed", plain(parse(text, *args))
    except (errors.PronvarError, ValueError) as err:
        return type(err), str(err), getattr(err, "line", None)


def listed(name, old_verdict, line):
    """The old verdict with the listed differences applied, for a defect on ``line``."""
    if old_verdict[0] == "parsed":
        return old_verdict
    kind, message, old_line = old_verdict
    if old_line is None:
        if name == "rules" and kind is errors.UnknownPhone:
            message = message.removesuffix(f" on line {line}")
        return kind, f"line {line}: {message}", line
    if name == "dictionary":
        message = message.replace(": bad utterance id ", ": bad word ")
    return kind, message, old_line


#: (parser, text, inventory): (old verdict, new verdict) where several defects meet
ORDER_CHANGES = {
    # the record checks its id after the parser's own checks of the line
    ("phone", "u 1\tK\tAE", "given"): (
        (errors.MalformedLine, "line 1: bad utterance id 'u 1'", 1),
        (errors.MalformedLine, "line 1: extra tab in phone field", 1),
    ),
    ("segmented", "u 1\tK", "given"): (
        (errors.MalformedLine, "line 1: bad utterance id 'u 1'", 1),
        (errors.MalformedLine, "line 1: expected 3 tab-separated fields, got 2", 1),
    ),
    ("segmented", "u 1\tK # AE\tcat", "given"): (
        (errors.MalformedLine, "line 1: bad utterance id 'u 1'", 1),
        (errors.SpanWordMismatch, "line 1: utterance 'u 1': 2 phone spans for 1 words", 1),
    ),
    # an empty pronunciation is met on its line, not once the whole file is read
    ("dictionary", "dog\t\ncat\tK\ncat\tK", "given"): (
        (errors.DuplicateVariant, "duplicate pronunciation for 'cat' (line 3)", 3),
        (errors.EmptyPronunciation, "line 1: empty pronunciation for word 'dog'", 1),
    ),
    ("dictionary", "dog\t\ndog\t", None): (
        (errors.DuplicateVariant, "duplicate pronunciation for 'dog' (line 2)", 2),
        (errors.EmptyPronunciation, "line 1: empty pronunciation for word 'dog'", 1),
    ),
    ("dictionary", "dog\t\ncat\tK É", None): (
        (errors.MalformedLine, "line 2: bad phone symbol 'É'", 2),
        (errors.EmptyPronunciation, "line 1: empty pronunciation for word 'dog'", 1),
    ),
    # the count is read before the entry checks its word
    ("lexicon", "c t\tx\tK", None): (
        (errors.MalformedLine, "line 1: bad word 'c t'", 1),
        (errors.MalformedLine, "line 1: bad count 'x'", 1),
    ),
    ("pairs", "c t\tx\tK", "given"): (
        (errors.MalformedLine, "line 1: bad word 'c t'", 1),
        (errors.MalformedLine, "line 1: bad count 'x'", 1),
    ),
}


def with_order_changes(name):
    """Give each order change of parser ``name`` its own ``@example``."""

    def decorate(test):
        for parser, text, inventory in ORDER_CHANGES:
            if parser == name:
                test = example((text, None, inventory))(test)
        return test

    return decorate


def check(name, text, line, inventory=None):
    old_verdict = verdict(name, "old", text, inventory)
    new_verdict = verdict(name, "new", text, inventory)
    if (name, text, inventory) in ORDER_CHANGES:
        assert (old_verdict, new_verdict) == ORDER_CHANGES[name, text, inventory]
    else:
        assert new_verdict == listed(name, old_verdict, line)
        assert (line is None) == (new_verdict[0] == "parsed")


# --- files with at most one defect: (text, the defect's line or None, inventory) ----------


def noisy(draw, lines, noise):
    """``lines`` with lines of ``noise`` put in between, and each line's new index."""
    out, at = [], []
    for line in lines:
        out.extend(draw(st.lists(st.sampled_from(noise), max_size=1)))
        at.append(len(out))
        out.append(line)
    return out, at


def put(draw, lines, kinds, defect, noise=("", "  ")):
    """Join ``lines`` with noise, after ``defect(kind, lines, j)`` put one defect in line ``j``."""
    kind = draw(st.sampled_from((None, *kinds)))
    j = draw(st.integers(0, len(lines) - 1)) if kind else None
    if kind:
        if kind.startswith("repeat") and j == 0:
            return "\n".join(lines), None, kind
        lines[j] = defect(kind, lines, j)
    out, at = noisy(draw, lines, noise)
    trailing = draw(st.sampled_from(("", "\n")))
    return "\n".join(out) + trailing, None if j is None else at[j] + 1, kind


phones_st = st.lists(st.sampled_from(PHONES), min_size=1, max_size=3).map(" ".join)
#: a symbol outside the phone-symbol rule: not ASCII, or reserved
bad_symbols = st.sampled_from(("É", "|"))
with_inventory = st.sampled_from(("given", None))


@st.composite
def inventory_files(draw):
    symbols = draw(st.lists(st.sampled_from(PHONES), min_size=1, max_size=5, unique=True))
    lines = [draw(st.sampled_from((s, f"{s}\tEN", f"{s}\tL1", f" {s} \t L1 "))) for s in symbols]

    def defect(kind, lines, j):
        return {
            "three fields": f"{symbols[j]}\tEN\tx",
            "bad symbol": "É",
            "reserved": "A|B",
            "bad origin": f"{symbols[j]}\tXX",
            "repeated symbol": symbols[0],
        }[kind]

    kinds = ("three fields", "bad symbol", "reserved", "bad origin", "repeated symbol")
    text, line, _ = put(draw, lines, kinds, defect, noise=("", "# a comment", " "))
    return text, line


@st.composite
def phone_files(draw):
    n = draw(st.integers(1, 4))
    lines = [f"{draw(st.sampled_from((f'u{i}', f' u{i} ')))}\t{draw(st.one_of(st.just(''), phones_st))}" for i in range(n)]

    def defect(kind, lines, j):
        utt_id, phones = lines[j].split("\t")
        return {
            "no tab": f"u{j} {phones}",
            "bad id": f"u {j}\t{phones}",
            "extra tab": f"u{j}\t{phones}\tK",
            "repeated id": f"u0\t{phones}",
            "unknown phone": f"{utt_id}\t{phones} ZZ",
            "bad symbol": f"{utt_id}\t{phones} {draw(bad_symbols)}",
        }[kind]

    kinds = ("no tab", "bad id", "extra tab", "repeated id", "unknown phone", "bad symbol")
    text, line, _ = put(draw, lines, kinds, defect)
    return text, line, "given"


@st.composite
def segmented_files(draw):
    n = draw(st.integers(1, 4))
    utterances = [draw(st.lists(st.tuples(st.sampled_from(WORDS), phones_st), min_size=1, max_size=3)) for _ in range(n)]
    lines = [f"u{i}\t{' # '.join(p for _, p in u)}\t{' '.join(w for w, _ in u)}" for i, u in enumerate(utterances)]

    def defect(kind, lines, j):
        middle = " # ".join(p for _, p in utterances[j])
        words = " ".join(w for w, _ in utterances[j])
        return {
            "no tab": f"u{j} {middle} {words}",
            "bad id": f"u {j}\t{middle}\t{words}",
            "two fields": f"u{j}\t{middle}",
            "four fields": f"u{j}\t{middle}\t{words}\tx",
            "repeated id": f"u0\t{middle}\t{words}",
            "word too many": f"u{j}\t{middle}\t{words} a",
            "empty span": f"u{j}\t{middle} #\t{words} a",
            "unknown phone": f"u{j}\tZZ {middle}\t{words}",
            "bad symbol": f"u{j}\t{middle} {draw(bad_symbols)}\t{words}",
        }[kind]

    kinds = ("no tab", "bad id", "two fields", "four fields", "repeated id", "word too many", "empty span", "unknown phone")
    kinds += ("bad symbol",)
    text, line, _ = put(draw, lines, kinds, defect)
    return text, line, "given"


@st.composite
def dictionary_files(draw):
    entries = draw(st.lists(st.tuples(st.sampled_from(WORDS), phones_st), min_size=1, max_size=5, unique=True))
    lines = [f"{word}\t{pron}" for word, pron in entries]
    inventory = draw(with_inventory)

    def defect(kind, lines, j):
        word, pron = entries[j]
        return {
            "no tab": f"{word} {pron}",
            "bad word": f"c t\t{pron}",
            "repeated entry": lines[0],
            "empty pronunciation": f"{word}\t ",
            "unknown phone": f"{word}\t{pron} ZZ",
            "bad symbol": f"{word}\t{pron} É",
            "reserved": f"{word}\tK|",
        }[kind]

    kinds = ("no tab", "bad word", "repeated entry", "empty pronunciation", "reserved", "bad symbol")
    kinds += ("unknown phone",) if inventory else ()
    text, line, _ = put(draw, lines, kinds, defect, noise=("", "# a comment"))
    return text, line, inventory


def lexicon_cases(repeats_allowed):
    @st.composite
    def files(draw):
        entries = draw(st.lists(st.tuples(st.sampled_from(WORDS), phones_st), min_size=1, max_size=5, unique=True))
        counts = draw(st.lists(st.integers(0, 12), min_size=len(entries), max_size=len(entries)))
        lines = [f"{word}\t{count}\t{pron}" for (word, pron), count in zip(entries, counts)]
        inventory = draw(with_inventory)

        def defect(kind, lines, j):
            (word, pron), count = entries[j], counts[j]
            return {
                "two fields": f"{word}\t{pron}",
                "bad word": f"c t\t{count}\t{pron}",
                "bad count": f"{word}\t{draw(st.sampled_from(('x', '-1', '1_0', '+1', '')))}\t{pron}",
                "empty pronunciation": f"{word}\t{count}\t ",
                "repeated entry": lines[0],
                "unknown phone": f"{word}\t{count}\t{pron} ZZ",
                "bad symbol": f"{word}\t{count}\tÉ {pron}",
                "reserved": f"{word}\t{count}\t{pron} #",
            }[kind]

        kinds = ("two fields", "bad word", "bad count", "empty pronunciation", "bad symbol", "reserved")
        kinds += ("unknown phone",) if inventory else ()
        kinds += () if repeats_allowed else ("repeated entry",)
        text, line, _ = put(draw, lines, kinds, defect)
        return text, line, inventory

    return files()


@st.composite
def bounds_files(draw):
    n = draw(st.integers(1, 4))
    cuts = [draw(st.lists(st.integers(1, 20).map(str), max_size=3).map(" ".join)) for _ in range(n)]
    lines = [f"u{i}\t{c}" for i, c in enumerate(cuts)]

    def defect(kind, lines, j):
        return {
            "no tab": f"u{j} {cuts[j]}",
            "bad id": f"u {j}\t{cuts[j]}",
            "repeated id": f"u0\t{cuts[j]}",
            "bad cut": f"u{j}\t{cuts[j]} {draw(st.sampled_from(('0', 'x', '+1', '1_0', '１')))}",
        }[kind]

    text, line, _ = put(draw, lines, ("no tab", "bad id", "repeated id", "bad cut"), defect)
    return text, line


@st.composite
def rules_files(draw):
    pairs = draw(st.lists(st.tuples(st.sampled_from(PHONES), st.sampled_from(PHONES)).filter(lambda p: p[0] != p[1]), min_size=1, max_size=4))
    probabilities = ("0", "0.5", "1", ".25", "1e-1")
    lines = [f"{s}\t{t}\t{draw(st.sampled_from(probabilities))}" for s, t in pairs]
    inventory = draw(with_inventory)

    def defect(kind, lines, j):
        s, t = pairs[j]
        return {
            "two fields": f"{s}\t{t}",
            "bad probability": f"{s}\t{t}\t{draw(st.sampled_from(('x', 'nan', '1_0', '0.5 0.5', '')))}",
            "rule to itself": f"{s}\t{s}\t0.5",
            "probability out of range": f"{s}\t{t}\t1.5",
            "unknown phone": f"{s}\tZZ\t0.5",
            "bad symbol": f"{draw(bad_symbols)}\t{t}\t0.5",
        }[kind]

    kinds = ("two fields", "bad probability", "rule to itself", "probability out of range")
    # the old parser checked no phone of a rule without an inventory
    kinds += ("unknown phone", "bad symbol") if inventory else ()
    text, line, _ = put(draw, lines, kinds, defect, noise=("", "# a comment"))
    return text, line, inventory


#: weight fields: "-0.0" holds a "-" but is no negative weight, and two "1e308" overflow the
#: sum of a record that the old reader accepts
WEIGHTS = ("0", "1", "0.5", "2e-3", "-0.0", "1E-3", "1e308")


@st.composite
def attention_files(draw, defects=True):
    n = draw(st.integers(1, 3))
    records = []
    for i in range(n):
        rows = draw(st.lists(st.sampled_from(PHONES), min_size=1, max_size=3))
        cols = draw(st.lists(st.sampled_from(PHONES), min_size=1, max_size=3))
        weights = [" ".join(draw(st.sampled_from(WEIGHTS)) for _ in cols) for _ in rows]
        records.append([f"u{i} {len(rows)} {len(cols)}", " ".join(rows), " ".join(cols), *weights])
    kinds = ("two header fields", "bad dimension", "repeated id", "row count", "column count", "unknown phone",
             "bad weight row", "negative weight", "infinite weight", "long row", "row phone too many",
             "bad symbol")  # fmt: skip
    kind = draw(st.sampled_from((None, *kinds))) if defects else None
    j = draw(st.integers(0, n - 1))
    offset = 0  # the line within record j that the defect is on
    if kind is not None:
        record = records[j]
        utt_id, n_rows, n_cols = record[0].split()
        if kind == "two header fields":
            record[0] = f"{utt_id} {n_rows}"
        elif kind == "bad dimension":
            record[0] = f"{utt_id} {draw(st.sampled_from(('0', 'x', '+1')))} {n_cols}"
        elif kind == "repeated id":
            record[0] = f"u0 {n_rows} {n_cols}"
        elif kind == "row count":
            record[0] = f"{utt_id} {int(n_rows) + 1} {n_cols}"
        elif kind == "column count":
            record[0], offset = f"{utt_id} {n_rows} {int(n_cols) + 1}", 2
        elif kind == "unknown phone":
            record[1] = " ".join(["ZZ", *record[1].split()[1:]])
        elif kind == "bad symbol":  # on either axis line; with an inventory, an unknown phone
            axis = draw(st.sampled_from((1, 2)))
            record[axis] = " ".join([draw(bad_symbols), *record[axis].split()[1:]])
        elif kind == "row phone too many":
            record[1] += " K"
        elif kind == "long row":
            record[3] += " 0"
        else:
            token = {"bad weight row": "x", "negative weight": "-1", "infinite weight": "1e999"}[kind]
            record[3] = " ".join([token, *record[3].split()[1:]])
            offset = 3 if kind == "bad weight row" else 0
        if kind == "repeated id" and j == 0:
            kind = None
    separators = [draw(st.sampled_from(("\n\n", "\n \n", "\n\n\t\n"))) for _ in records]
    text, starts = "", []
    for record, separator in zip(records, separators):
        starts.append(text.count("\n") + 1)
        text += "\n".join(record) + separator
    return text, None if kind is None else starts[j] + offset, "given"


# --- the tests ------------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(inventory_files())
def test_inventory_parser_against_its_old_self(case):
    check("inventory", *case)


@settings(max_examples=150, deadline=None)
@given(phone_files())
@with_order_changes("phone")
def test_phone_parser_against_its_old_self(case):
    check("phone", *case)


@settings(max_examples=200, deadline=None)
@given(segmented_files())
@with_order_changes("segmented")
# a bad id on a line that passes the reader's other tests, which it would otherwise adopt
@example(("u0\tK\tcat\nu 1\tK # AE\tcat a\n", 2, "given"))
def test_segmented_parser_against_its_old_self(case):
    check("segmented", *case)


@settings(max_examples=200, deadline=None)
@given(dictionary_files())
@with_order_changes("dictionary")
def test_dictionary_parser_against_its_old_self(case):
    check("dictionary", *case)


@settings(max_examples=200, deadline=None)
@given(lexicon_cases(repeats_allowed=False))
@with_order_changes("lexicon")
def test_lexicon_parser_against_its_old_self(case):
    check("lexicon", *case)


@settings(max_examples=150, deadline=None)
@given(lexicon_cases(repeats_allowed=True))
@with_order_changes("pairs")
def test_pairs_parser_against_its_old_self(case):
    check("pairs", *case)


@settings(max_examples=150, deadline=None)
@given(bounds_files())
def test_bounds_parser_against_its_old_self(case):
    check("bounds", *case)


@settings(max_examples=150, deadline=None)
@given(rules_files())
def test_rules_parser_against_its_old_self(case):
    check("rules", *case)


@settings(max_examples=200, deadline=None)
@given(attention_files())
# a record's weight rows pass the character rule together, and a later row then fails float()
@example(("u0 1 1\nK\nK\n1\n\nu1 2 2\nK K\nK K\n1 0\n1..0 0\n", 9, "given"))
# one row holds "_", so the record's rows fail the character rule together and are read one by one
@example(("u0 2 2\nK K\nK K\n1 0\n0 1_0\n", 5, "given"))
# weight blocks that pass the character rule but break one of the map's rules: one row phone too
# many, a long row, a negative weight in the last row, and an overflowing weight
@example(("u0 1 2\nK AE\nK AE\n1 0\n", 1, "given"))
@example(("u0 1 1\nK\nK\n1\n\nu1 2 2\nK AE\nK AE\n1 0\n0 1 0\n", 6, "given"))
@example(("u0 2 2\nK AE\nK AE\n1 0\n0.5 -1\n", 1, "given"))
@example(("u0 1 2\nK\nK AE\n0 1e999\n", 1, "given"))
def test_attention_parser_against_its_old_self(case):
    check("attention", *case)


@settings(max_examples=100, deadline=None)
@given(attention_files(defects=False))
@example(("u0 2 2\nK AE\nK AE\n0.5 1E-3\n-0.0 1\n", None, "given"))
def test_a_parsed_map_is_the_map_its_fields_construct(case):
    """A map the reader adopts, unchecked by the constructor, is equal to, hashes as and
    reads as the map that the constructor builds from its fields."""
    for parsed in attnalign.parse_attention_file(case[0], INVENTORIES["new"]):
        built = attnalign.AttentionMap(parsed.utterance_id, parsed.col_phones, parsed.row_phones, parsed.weights)
        assert (parsed == built, hash(parsed), repr(parsed)) == (True, hash(built), repr(built))


# --- one pass against the scan, then the parse ---------------------------------------------


#: each parser that ``cli._load`` ran after a scan: (the old scan, the parser, its file strategy)
SCANNED = {
    "phone": (old.scan_phone_tokens, phonecore.parse_phone_file, phone_files),
    "segmented": (old.scan_segmented_tokens, phonecore.parse_segmented_file, segmented_files),
    "dictionary": (old.scan_dictionary_tokens, phonecore.parse_dictionary_file, dictionary_files),
    "rules": (old.scan_rules_tokens, synthbench.parse_rules_file, rules_files),
    "attention": (old.scan_attention_tokens, attnalign.parse_attention_file, attention_files),
}


@st.composite
def scanned_cases(draw):
    """A parser's name and one of its files. Outside attention files, where they would
    split a record, whitespace-only lines, some holding tabs, are put in."""
    name = draw(st.sampled_from(sorted(SCANNED)))
    lines = draw(SCANNED[name][2]())[0].split("\n")
    for _ in range(draw(st.integers(0, 0 if name == "attention" else 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", " \t \t ", "\t"))))
    return name, "\n".join(lines)


def outcome(plain, parse):
    try:
        return "parsed", plain(parse())
    except (errors.PronvarError, ValueError) as err:
        return type(err), str(err), getattr(err, "line", None)


@settings(max_examples=400, deadline=None)
@given(scanned_cases())
@example(("attention", "u0 1 2\nK\nK É\n1 0\n"))
@example(("phone", "u0\tK\nu1\tK |\n"))
@example(("rules", "K\t|\t0.5\n"))
def test_one_pass_parsing_equals_scan_then_parse(case):
    name, text = case
    scan, parse, _ = SCANNED[name]
    plain = PARSERS[name][2]
    scanned = outcome(plain, lambda: parse(text, phonecore.derive_inventory(scan(text))))
    assert outcome(plain, lambda: parse(text, phonecore.AnySymbol())) == scanned
