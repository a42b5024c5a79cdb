"""Command-line interface.

Exit codes: 0 for success, 2 for a negative mathematical result (a block
that is not a member, an empty intersection, a nonempty smallness probe,
a disconnected decomposition graph), 1 for every error including usage
mistakes.  All output is deterministic.

Each handler returns its exit code and its result rows.  A row is a JSON
object and the text line that says the same; listings yield their rows
lazily.  ``main`` writes the rows once, one per line, as JSON under
``--format json`` (keys documented in the README) and as text otherwise.
It writes them inside the ``try`` that turns every error, a closed stdout
and exhausted memory included, into one ``error:`` line on stderr.
``streams``, ``structure``, ``diagonal`` and ``json`` are imported by the
code that uses them, so one run loads only its command's modules.  The
parser is built from one table of subcommands (``_COMMANDS``), and a run
whose first argument names a subcommand builds that one's parser alone.
"""

import argparse
import math
import os
import re
import sys

from .blocks import Subblock, parse_int, peak
from .errors import FinkError, MismatchedLevel, NoIntersection, ParseError
from .span import (
    DEFAULT_CAP_BITS,
    BlockSequence,
    Combination,
    CommonElement,
    _checked_span,
    evaluate,
    intersect_spans,
    membership_witness,
    parse_block_lines,
    valuation,
)

OK = 0
ERROR = 1
NEGATIVE = 2


class _UsageError(Exception):
    def __init__(self, message, parser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for negatives
    def error(self, message):
        raise _UsageError(message, self)


def _parse_float(text):
    """An optional ``-``, ASCII digits and an optional ``.digits`` fraction,
    after ``strip()``; ValueError otherwise.  Bare ``float()`` would also
    take ``+2``, ``1_0``, ``1e3`` and non-ASCII digits.  Its spellings of
    nan and infinity are still read, so that they are named as not finite."""
    value = float(text)
    if math.isfinite(value) and not re.fullmatch(r"-?[0-9]+(?:\.[0-9]+)?", text.strip()):
        raise ValueError(f"invalid float {text!r}")
    return value


def _number(kind, lower=-math.inf):
    """An argparse type: a finite ``kind`` value no smaller than ``lower``.
    An int is read by ``parse_int``, as every integer in an input file is,
    and a float by ``_parse_float``."""
    read = parse_int if kind is int else _parse_float

    def parse(text):
        try:
            value = read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if value != value or value in (math.inf, -math.inf):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if value < lower:
            raise argparse.ArgumentTypeError(f"must be at least {lower}, got {value}")
        return value

    return parse


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_sequence(path, k_flag):
    seq = BlockSequence.parse_file(_read(path))
    if k_flag is not None and k_flag != seq.k:
        raise MismatchedLevel(f"--k {k_flag} but {path} declares k={seq.k}")
    return seq


def _load_pair(args):
    return _load_sequence(args.P, args.k), _load_sequence(args.Q, args.k)


def _load_blocks(path, k_flag):
    """A block-set file: same format as a sequence file, ordering not required."""
    k, blocks = parse_block_lines(_read(path))
    if k_flag is not None and k_flag != k:
        raise MismatchedLevel(f"--k {k_flag} but {path} declares k={k}")
    return blocks


def _load_stream(arg, k_flag):
    """A stream argument: inline spec, sequence file path, or builtin name."""
    from .streams import BuiltinStream, ExplicitStream, parse_stream_spec

    if "=" in arg:
        stream = parse_stream_spec(arg, read_file=_read)
    elif os.path.exists(arg):
        stream = ExplicitStream(BlockSequence.parse_file(_read(arg)))
    else:
        if k_flag is None:
            raise ParseError(f"builtin stream {arg!r} needs --k")
        stream = BuiltinStream(arg, k_flag)
    if k_flag is not None and stream.k != k_flag:
        raise MismatchedLevel(f"--k {k_flag} but stream has k={stream.k}")
    return stream


def _common_element(body, left, right):
    t = Subblock.parse_body(left.k, body)
    lw = membership_witness(t, left)
    rw = membership_witness(t, right)
    if lw is None or rw is None:
        return None
    return CommonElement(t, lw, rw)


def _graph(args):
    """The decomposition graph of ``--block`` over ``--P`` and ``--Q``, or
    None when the block is not in both spans."""
    from .structure import decomposition_graph

    left, right = _load_pair(args)
    element = _common_element(args.block, left, right)
    if element is None:
        return None
    return decomposition_graph(
        element.block, element.left_witness, element.right_witness, left, right
    )


# --- subcommand handlers ------------------------------------------------
# Each returns (exit code, rows); a row is (JSON object, text line).

_NOT_COMMON = (({"member": False}, "no"),)


def _cmd_eval(args):
    seq = _load_sequence(args.seq, args.k)
    body = evaluate(seq, Combination.parse(args.comb, starred=args.starred)).render_body()
    return OK, [({"block": body}, body)]


def _cmd_member(args):
    seq = _load_sequence(args.seq, args.k)
    t = Subblock.parse_body(seq.k, args.block)
    witness = membership_witness(t, seq, starred=args.starred)
    if witness is None:
        return NEGATIVE, [({"member": False, "witness": None}, "no")]
    text = witness.render()
    return OK, [({"member": True, "witness": text}, f"yes {text}")]


def _span_rows(elements, starred):
    for block, witness in elements:
        body, text = block.render_body(), witness.render()
        yield {"block": body, "witness": text}, f"{body} <- {text}"
    if starred:
        yield {"block": "-", "witness": None}, "- <- -"


def _cmd_span(args):
    # rows are written as the walk yields them, so memory stays flat
    seq = _load_sequence(args.seq, args.k)
    return OK, _span_rows(_checked_span(seq, args.starred, args.cap), args.starred)


def _rendered(ce):
    """A common element's block body and its two witnesses, as text."""
    return ce.block.render_body(), ce.left_witness.render(), ce.right_witness.render()


def _intersect_rows(common):
    for body, lw, rw in map(_rendered, common):
        yield {"block": body, "left_witness": lw, "right_witness": rw}, f"{body} <- {lw} | {rw}"


def _cmd_intersect(args):
    common = intersect_spans(*_load_pair(args), cap_bits=args.cap)
    return (OK if common else NEGATIVE), _intersect_rows(common)


def _cmd_valuation(args):
    blocks = _load_blocks(args.blocks, args.k)
    for b in blocks:
        peak(b)  # NotABlock for entries that never attain k
    result = valuation(blocks, horizon=args.horizon)
    row = {"value": result.value, "count": result.element_count, "horizon": result.horizon}
    return OK, [(row, result.render())]


def _cmd_graph(args):
    graph = _graph(args)
    if graph is None:
        return NEGATIVE, _NOT_COMMON
    lines = graph.render_lines()
    return OK, [({"left": i, "right": j}, line) for (i, j), line in zip(graph.edges, lines)]


def _cmd_intertwined(args):
    graph = _graph(args)
    connected = graph is not None and graph.is_connected()
    row = ({"intertwined": connected}, "yes" if connected else "no")
    return (OK if connected else NEGATIVE), [row]


def _cmd_extract(args):
    from .structure import extract_intertwined

    left, right = _load_pair(args)
    try:
        result = extract_intertwined(left, right)
    except NoIntersection:
        return NEGATIVE, [({"found": False}, "none")]
    n = result.prefix_length
    body, lw, rw = _rendered(result.element)
    row = {"found": True, "prefix_length": n, "block": body, "left_witness": lw,
           "right_witness": rw}
    return OK, [(row, f"N={n} block={body} P=[{lw}] Q=[{rw}]")]


def _cmd_split(args):
    from .structure import star_split

    left, right = _load_pair(args)
    anchor = _common_element(args.anchor, left, right)
    other = _common_element(args.other, left, right)
    if anchor is None or other is None:
        return NEGATIVE, _NOT_COMMON
    below, above = (part.render_body() for part in star_split(anchor, other, left, right))
    return OK, [({"below": below, "above": above}, f"s={below} r={above}")]


def _cmd_small(args):
    from .structure import smallness_check

    left = _load_stream(args.P, args.k)
    right = _load_stream(args.Q, args.k)
    if left.k != right.k:
        raise MismatchedLevel(f"stream levels {left.k} and {right.k}")
    certificate = smallness_check(left, right, args.n, args.horizon)
    witness = certificate.witness
    row = {"tail_index": certificate.tail_index, "horizon": certificate.horizon,
           "verdict": certificate.verdict,
           "witness_block": witness.block.render_body() if witness else None}
    code = OK if certificate.verdict == "empty_at_horizon" else NEGATIVE
    return code, [(row, certificate.verdict)]


def _cmd_diag(args):
    from .diagonal import run_diagonalization, validate_family

    members = [_load_stream(arg, args.k) for arg in args.member]
    family = validate_family(members, args.n, args.horizon)
    trace = run_diagonalization(family, cycles=args.cycles)
    return OK, [
        ({"step": step.index, "q": step.block.render(), "between_index": step.between_index,
          "checks": [{"member": c.member, "before": c.before.value, "after": c.after.value}
                     for c in step.checks]},
         step.render())
        for step in trace.steps
    ]


# --- parser -------------------------------------------------------------
# An argument is (flag, ``add_argument`` keywords).  Every subcommand takes
# ``_COMMON``; a listing also takes ``--cap``.

_COMMON = (
    ("--format", {"choices": ("text", "json"), "default": "text"}),
    ("--k", {"type": _number(int), "default": None, "help": "level; checked against inputs"}),
)
_CAPPED = (
    *_COMMON,
    ("--cap", {"type": _number(float), "default": DEFAULT_CAP_BITS,
               "help": "listing cap in bits: at most 2^BITS listed combinations"}),
)
_PAIR = (("--P", {"required": True}), ("--Q", {"required": True}))
_SEQ = ("--seq", {"required": True})
_STARRED = ("--starred", {"action": "store_true"})
_HORIZON = ("--horizon", {"type": _number(int, 0), "required": True})
_BLOCK = ("--block", {"required": True})

# subcommand -> (help, arguments), in the order ``fink -h`` lists them; the
# handler of subcommand ``name`` is ``_cmd_<name>``
_COMMANDS = {
    "eval": ("evaluate a combination over a sequence", (
        *_COMMON, _SEQ,
        ("--comb", {"required": True, "help": 'witness text, e.g. "0^0 + 1^1"'}),
        _STARRED,
    )),
    "member": ("decide span membership", (
        *_COMMON, _SEQ,
        ("--block", {"required": True, "help": 'block body, e.g. "0:2,1:1"'}),
        _STARRED,
    )),
    "span": ("enumerate a span with witnesses", (*_CAPPED, _SEQ, _STARRED)),
    "intersect": ("intersect two spans", (*_CAPPED, *_PAIR)),
    "valuation": ("valuation F of a block set", (
        *_COMMON,
        ("--blocks", {"required": True}),
        ("--horizon", {"type": _number(int, 0), "default": None}),
    )),
    "graph": ("decomposition graph of a common block", (*_COMMON, *_PAIR, _BLOCK)),
    "intertwined": ("is the common block intertwined?", (*_COMMON, *_PAIR, _BLOCK)),
    "extract": ("extract an intertwined common block", (*_COMMON, *_PAIR)),
    "split": ("star-split around an intertwined anchor", (
        *_COMMON, *_PAIR,
        ("--anchor", {"required": True, "help": "intertwined common block body"}),
        ("--other", {"required": True, "help": "common block body to star against"}),
    )),
    "small": ("smallness probe at a horizon", (
        *_COMMON,
        ("--P", {"required": True, "help": "stream: builtin name, spec, or file"}),
        ("--Q", {"required": True}),
        ("--n", {"type": _number(int, 0), "required": True,
                 "help": "tail index for the left stream"}),
        _HORIZON,
    )),
    "diag": ("validate a family and diagonalize", (
        *_COMMON,
        ("--member", {"action": "append", "required": True,
                      "help": "stream (repeatable): builtin name, spec, or file"}),
        ("--n", {"type": _number(int, 0), "default": 1,
                 "help": "tail index for pairwise validation"}),
        _HORIZON,
        ("--cycles", {"type": _number(int, 1), "default": 1}),
    )),
}


def _build_parser(names=_COMMANDS):
    """The parser of the subcommands ``names``, each built from its row in
    ``_COMMANDS``.  A parser of only some of them still names every
    subcommand in its usage line, so their usage errors read as with all
    of them; only a parser of all of them meets an unknown name, whose
    error names the argument ``command``."""
    parser = _Parser(prog="fink", description="FIN_k block algebra and span computations")
    every = None if len(names) == len(_COMMANDS) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, metavar=every)
    for name in names:
        help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=globals()[f"_cmd_{name}"])
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # a run that names its subcommand first builds only that one's parser
    parser = _build_parser(argv[:1] if argv[:1] and argv[0] in _COMMANDS else _COMMANDS)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc.parser.format_usage(), end="", file=sys.stderr)
        print(f"error: usage: {exc}", file=sys.stderr)
        return ERROR
    if getattr(args, "handler", None) is None:
        parser.print_help(sys.stderr)
        return ERROR
    try:
        code, rows = args.handler(args)
        if args.format == "json":
            import json

            lines = (json.dumps(obj) for obj, _ in rows)
        else:
            lines = (line for _, line in rows)
        write = sys.stdout.write
        for line in lines:
            write(line + "\n")
        return code
    except (FinkError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
