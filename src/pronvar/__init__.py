"""Toolkit for discovering word-level pronunciation variants.

Unsegmented non-native phone sequences are aligned against segmented
native references, either by dynamic programming or by attention-guided
boundary search, and the harvested per-word variants are compiled into
a counted multi-pronunciation lexicon.
"""

from .attnalign import (
    AttentionMap,
    AttnConfig,
    BoundaryOutcome,
    Segmentation,
    align_word_boundaries,
    extract_variants_attn,
    parse_attention_file,
    place_boundaries,
    split_by_attention,
)
from .dpalign import (
    AlignConfig,
    Alignment,
    EditOp,
    edit_distance,
    extract_variants_dp,
    nw_align,
    project_boundaries,
)
from .errors import ConstraintError, InputFormatError, PronvarError
from .lexbuild import LexiconStats, accumulate, from_dictionary, merge, prune, stats
from .phonecore import (
    Lexicon,
    PhoneInventory,
    PhoneSequence,
    ReferenceDictionary,
    SegmentedUtterance,
    WordSpan,
    emit_lexicon,
    parse_dictionary_file,
    parse_inventory,
    parse_lexicon,
    parse_phone_file,
    parse_segmented_file,
)
from .synthbench import (
    ConfusionRule,
    boundary_f1,
    build_corpus,
    corrupt,
    identity_attention,
    jittered_attention,
    oracle_align,
    recovery_report,
)

__version__ = "0.1.0"

__all__ = [
    "AlignConfig",
    "Alignment",
    "AttentionMap",
    "AttnConfig",
    "BoundaryOutcome",
    "ConfusionRule",
    "ConstraintError",
    "EditOp",
    "InputFormatError",
    "Lexicon",
    "LexiconStats",
    "PhoneInventory",
    "PhoneSequence",
    "PronvarError",
    "ReferenceDictionary",
    "SegmentedUtterance",
    "Segmentation",
    "WordSpan",
    "accumulate",
    "align_word_boundaries",
    "boundary_f1",
    "build_corpus",
    "corrupt",
    "edit_distance",
    "emit_lexicon",
    "extract_variants_attn",
    "extract_variants_dp",
    "from_dictionary",
    "identity_attention",
    "jittered_attention",
    "merge",
    "nw_align",
    "oracle_align",
    "parse_attention_file",
    "parse_dictionary_file",
    "parse_inventory",
    "parse_lexicon",
    "parse_phone_file",
    "parse_segmented_file",
    "place_boundaries",
    "project_boundaries",
    "prune",
    "recovery_report",
    "split_by_attention",
    "stats",
]
