"""fink: exact combinatorics of the FIN_k partial semigroup.

Blocks are finite-support maps into {0, ..., k} attaining k; the partial
operation is disjoint-support union, the tetris operation decrements
values, and spans collect the sums of tetris images.  The library offers
exact span enumeration and membership with witnesses, lazy block streams,
decomposition-graph analysis (intertwined extraction, star splitting),
horizon smallness certificates, and a verified diagonalization engine.
"""

from .blocks import Subblock, add, peak, star, tetris
from .errors import (
    ClaimViolation,
    EnumerationCapExceeded,
    FinkError,
    HorizonExhausted,
    IndexOutOfRange,
    InvalidCombination,
    InvalidSequence,
    MinimalityViolation,
    MismatchedLevel,
    NoIntersection,
    NotABlock,
    NotAlmostDisjoint,
    NotIntertwined,
    OverlappingSupport,
    ParseError,
    PastEnd,
    WitnessMismatch,
)
from .span import (
    DEFAULT_CAP_BITS,
    BlockSequence,
    Combination,
    CommonElement,
    HorizonValuation,
    SpanEnumeration,
    enumerate_span,
    evaluate,
    first_common_element,
    intersect_spans,
    membership_witness,
    valuation,
)
from .streams import (
    BUILTIN_NAMES,
    BuiltinStream,
    ExplicitStream,
    PeriodicStream,
    Stream,
    make_builtin,
    parse_stream_spec,
)
from .structure import (
    DecompositionGraph,
    ExtractionResult,
    SmallnessCertificate,
    decomposition_graph,
    extract_intertwined,
    settle_intertwined,
    is_intertwined,
    smallness_check,
    star_split,
)
from .diagonal import (
    AlmostDisjointFamily,
    DiagonalStep,
    DiagonalTrace,
    StabilityCheck,
    choose_next,
    run_diagonalization,
    validate_family,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # blocks
    "Subblock", "tetris", "add", "star", "peak",
    # span
    "DEFAULT_CAP_BITS", "BlockSequence", "Combination", "CommonElement",
    "HorizonValuation", "SpanEnumeration", "evaluate", "enumerate_span",
    "membership_witness", "intersect_spans", "first_common_element", "valuation",
    # streams
    "Stream", "ExplicitStream", "PeriodicStream", "BuiltinStream",
    "BUILTIN_NAMES", "make_builtin", "parse_stream_spec",
    # structure
    "DecompositionGraph", "decomposition_graph", "is_intertwined",
    "ExtractionResult", "extract_intertwined", "settle_intertwined", "star_split",
    "SmallnessCertificate", "smallness_check",
    # diagonal
    "AlmostDisjointFamily", "StabilityCheck", "DiagonalStep", "DiagonalTrace",
    "validate_family", "choose_next", "run_diagonalization",
    # errors
    "FinkError", "MismatchedLevel", "OverlappingSupport", "NotABlock",
    "InvalidSequence", "InvalidCombination", "IndexOutOfRange",
    "EnumerationCapExceeded", "PastEnd", "WitnessMismatch", "NoIntersection",
    "MinimalityViolation", "NotIntertwined", "ClaimViolation",
    "HorizonExhausted", "NotAlmostDisjoint", "ParseError",
]
