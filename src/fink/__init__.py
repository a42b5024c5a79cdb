"""fink: exact combinatorics of the FIN_k partial semigroup.

Blocks are finite-support maps into {0, ..., k} attaining k; the partial
operation is disjoint-support union, the tetris operation decrements
values, and spans collect the sums of tetris images.  The library offers
exact span enumeration and membership with witnesses, lazy block streams,
decomposition-graph analysis (intertwined extraction, star splitting),
horizon smallness certificates, and a verified diagonalization engine.

``import fink`` loads no submodule: each public name, and each submodule
name, loads its home module on first use (PEP 562), so a program, like
each CLI command, compiles only the modules it runs.  Every command loads
``cli``, ``span``, ``blocks`` and ``errors``, and ``eval``, ``member``,
``span`` and ``valuation`` load nothing more.  ``graph``, ``intertwined``
and ``split`` add ``structure``.  The commands that ask about two spans at
once add the position sweep (``sweep``): ``intersect`` alone, ``extract``
with ``structure``, ``small`` with ``structure`` and ``streams``, and
``diag`` with those three and ``diagonal``.  The CLI also builds the
argument parser of the one subcommand a run names.
"""

__version__ = "0.1.0"

# home module -> the public names it defines, in ``__all__`` order
_EXPORTS = {
    "blocks": ("Subblock", "tetris", "add", "star", "peak"),
    "span": (
        "DEFAULT_CAP_BITS", "BlockSequence", "Combination", "CommonElement",
        "HorizonValuation", "SpanEnumeration", "evaluate", "enumerate_span",
        "membership_witness", "intersect_spans", "first_common_element", "valuation",
    ),
    "streams": (
        "Stream", "ExplicitStream", "PeriodicStream", "BuiltinStream",
        "BUILTIN_NAMES", "make_builtin", "parse_stream_spec",
    ),
    "structure": (
        "DecompositionGraph", "decomposition_graph", "is_intertwined",
        "ExtractionResult", "extract_intertwined", "settle_intertwined", "star_split",
        "SmallnessCertificate", "smallness_check",
    ),
    "diagonal": (
        "AlmostDisjointFamily", "StabilityCheck", "DiagonalStep", "DiagonalTrace",
        "validate_family", "choose_next", "run_diagonalization",
    ),
    "errors": (
        "FinkError", "MismatchedLevel", "OverlappingSupport", "NotABlock",
        "InvalidSequence", "InvalidCombination", "IndexOutOfRange",
        "EnumerationCapExceeded", "PastEnd", "WitnessMismatch", "NoIntersection",
        "MinimalityViolation", "NotIntertwined", "ClaimViolation",
        "HorizonExhausted", "NotAlmostDisjoint", "ParseError",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        # importing a submodule binds it on the package
        return import_module(f".{name}", __name__)
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOMES})
