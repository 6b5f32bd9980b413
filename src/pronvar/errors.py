"""Exception types shared across the toolkit.

Two families matter to callers: :class:`InputFormatError` means a file
could not be parsed at all (the command line maps it to exit code 2),
while :class:`ConstraintError` means the input parsed but violates a
data-model invariant (exit code 3).
"""


class PronvarError(Exception):
    """Base class for every toolkit error. ``line`` is the input line it was met on, or
    ``None``; the message names it as a ``line N: `` prefix, or a `` (line N)`` suffix."""

    line_suffix = False

    def __init__(self, detail: str = "", line: int | None = None):
        super().__init__(detail)
        self.detail = detail
        self.at_line(line)

    def at_line(self, line: int | None) -> None:
        """Name ``line`` in the message; ``None`` names none."""
        self.line = line
        if line is not None:
            self.args = (f"{self.detail} (line {line})" if self.line_suffix else f"line {line}: {self.detail}",)


class InputFormatError(PronvarError):
    """A file is structurally invalid."""


class ConstraintError(PronvarError):
    """Well-formed input violates a data-model invariant."""


class MalformedLine(InputFormatError):
    def __init__(self, line: int | None, detail: str):
        super().__init__(detail, line)


class BadOrigin(InputFormatError):
    def __init__(self, token: str, line: int | None = None):
        super().__init__(f"bad origin {token!r} (expected EN or L1)", line)
        self.token = token


class DimensionMismatch(InputFormatError):
    def __init__(self, utterance_id: str, detail: str, line: int | None = None):
        super().__init__(f"attention map {utterance_id!r}: {detail}", line)
        self.utterance_id = utterance_id


class DuplicatePhone(ConstraintError):
    line_suffix = True

    def __init__(self, symbol: str, line: int | None = None):
        super().__init__(f"duplicate phone {symbol!r}", line)
        self.symbol = symbol


class ReservedSymbol(ConstraintError):
    line_suffix = True

    def __init__(self, symbol: str, line: int | None = None):
        super().__init__(f"reserved symbol in phone {symbol!r}", line)
        self.symbol = symbol


class UnknownPhone(ConstraintError):
    def __init__(self, symbol: str, context: str):
        super().__init__(f"unknown phone {symbol!r} in {context}")
        self.symbol = symbol
        self.context = context


class DuplicateUtteranceId(ConstraintError):
    line_suffix = True

    def __init__(self, utterance_id: str, line: int | None = None):
        super().__init__(f"duplicate utterance id {utterance_id!r}", line)
        self.utterance_id = utterance_id


class SpanWordMismatch(ConstraintError):
    def __init__(self, utterance_id: str, n_spans: int, n_words: int):
        super().__init__(
            f"utterance {utterance_id!r}: {n_spans} phone spans for {n_words} words"
        )
        self.utterance_id = utterance_id
        self.n_spans = n_spans
        self.n_words = n_words


class EmptySpan(ConstraintError):
    def __init__(self, utterance_id: str, index: int):
        super().__init__(f"utterance {utterance_id!r}: word span {index} is empty")
        self.utterance_id = utterance_id
        self.index = index


class OutOfVocabulary(ConstraintError):
    def __init__(self, word: str):
        super().__init__(f"word {word!r} not in reference dictionary")
        self.word = word


class DuplicateVariant(ConstraintError):
    line_suffix = True

    def __init__(self, word: str, line: int | None = None):
        super().__init__(f"duplicate pronunciation for {word!r}", line)
        self.word = word


class EmptyPronunciation(ConstraintError):
    def __init__(self, word: str):
        super().__init__(f"empty pronunciation for word {word!r}")
        self.word = word


class InventoryMismatch(ConstraintError):
    """A reference phone is missing from the hypothesis inventory."""


class AlignmentReferenceMismatch(ConstraintError):
    """An alignment's reference phones differ from the segmentation it is projected onto."""


class MissingUtterance(ConstraintError):
    def __init__(self, utterance_id: str):
        super().__init__(f"utterance {utterance_id!r} has no counterpart")
        self.utterance_id = utterance_id


class NegativeWeight(ConstraintError):
    def __init__(self, utterance_id: str, row: int, col: int):
        super().__init__(
            f"attention map {utterance_id!r}: negative weight at ({row}, {col})"
        )
        self.utterance_id = utterance_id
        self.row = row
        self.col = col


class RowMismatch(ConstraintError):
    def __init__(self, utterance_id: str, detail: str):
        super().__init__(f"attention map {utterance_id!r}: {detail}")
        self.utterance_id = utterance_id


class BadRule(ConstraintError):
    """A confusion rule maps a phone to itself or has a probability out of [0, 1]."""


class SizeBound(ConstraintError):
    def __init__(self, limit: int, actual: int):
        super().__init__(f"sequence pair too large for exhaustive search: {actual} > {limit}")
        self.limit = limit
        self.actual = actual
