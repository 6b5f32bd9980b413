"""Exception types shared across the toolkit.

Two families matter to callers: :class:`InputFormatError` means a file
could not be parsed at all (the command line maps it to exit code 2),
while :class:`ConstraintError` means the input parsed but violates a
data-model invariant (exit code 3).
"""


class PronvarError(Exception):
    """Base class for every toolkit error."""

    line: int | None = None


class InputFormatError(PronvarError):
    """A file is structurally invalid."""


class ConstraintError(PronvarError):
    """Well-formed input violates a data-model invariant."""


class MalformedLine(InputFormatError):
    def __init__(self, line: int, detail: str):
        super().__init__(f"line {line}: {detail}")
        self.line = line
        self.detail = detail


class BadOrigin(InputFormatError):
    def __init__(self, token: str, line: int | None = None):
        at = f"line {line}: " if line is not None else ""
        super().__init__(f"{at}bad origin {token!r} (expected EN or L1)")
        self.token = token
        self.line = line


class DimensionMismatch(InputFormatError):
    def __init__(self, utterance_id: str, detail: str, line: int | None = None):
        at = f"line {line}: " if line is not None else ""
        super().__init__(f"{at}attention map {utterance_id!r}: {detail}")
        self.utterance_id = utterance_id
        self.line = line


class DuplicatePhone(ConstraintError):
    def __init__(self, symbol: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"duplicate phone {symbol!r}{where}")
        self.symbol = symbol
        self.line = line


class ReservedSymbol(ConstraintError):
    def __init__(self, symbol: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"reserved symbol in phone {symbol!r}{where}")
        self.symbol = symbol
        self.line = line


class UnknownPhone(ConstraintError):
    def __init__(self, symbol: str, context: str):
        super().__init__(f"unknown phone {symbol!r} in {context}")
        self.symbol = symbol
        self.context = context


class DuplicateUtteranceId(ConstraintError):
    def __init__(self, utterance_id: str):
        super().__init__(f"duplicate utterance id {utterance_id!r}")
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
    def __init__(self, word: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"duplicate pronunciation for {word!r}{where}")
        self.word = word
        self.line = line


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
    def __init__(self, detail: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{detail}")
        self.line = line


class SizeBound(ConstraintError):
    def __init__(self, limit: int, actual: int):
        super().__init__(f"sequence pair too large for exhaustive search: {actual} > {limit}")
        self.limit = limit
        self.actual = actual
