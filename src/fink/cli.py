"""Command-line interface.

Exit codes: 0 for success, 2 for a negative mathematical result (a block
that is not a member, an empty intersection, a nonempty smallness probe,
a disconnected decomposition graph), 1 for every error including usage
mistakes.  All output is deterministic; ``--format json`` emits one JSON
object per result line with fixed keys (documented in the README).
``streams``, ``structure``, ``diagonal`` and ``json`` are imported by the
handlers that use them, so one run loads only its command's modules.
"""

import argparse
import math
import os
import sys

from .blocks import Subblock, peak
from .errors import FinkError, MismatchedLevel, NoIntersection, ParseError
from .span import (
    DEFAULT_CAP_BITS,
    BlockSequence,
    Combination,
    CommonElement,
    enumerate_span,
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


def _number(kind, lower=-math.inf):
    """An argparse type: a finite ``kind`` value no smaller than ``lower``."""

    def parse(text):
        try:
            value = kind(text)
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


def _load_blocks(path, k_flag):
    """A block-set file: same format as a sequence file, ordering not required."""
    k, blocks = parse_block_lines(_read(path))
    if k_flag is not None and k_flag != k:
        raise MismatchedLevel(f"--k {k_flag} but {path} declares k={k}")
    return k, blocks


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


def _print_json(obj):
    import json

    print(json.dumps(obj))


# --- subcommand handlers ------------------------------------------------


def _cmd_eval(args):
    seq = _load_sequence(args.seq, args.k)
    comb = Combination.parse(args.comb, starred=args.starred)
    result = evaluate(seq, comb)
    if args.format == "json":
        _print_json({"block": result.render_body()})
    else:
        print(result.render_body())
    return OK


def _cmd_member(args):
    seq = _load_sequence(args.seq, args.k)
    t = Subblock.parse_body(seq.k, args.block)
    witness = membership_witness(t, seq, starred=args.starred)
    if args.format == "json":
        _print_json(
            {"member": witness is not None,
             "witness": witness.render() if witness else None}
        )
    elif witness is not None:
        print(f"yes {witness.render()}")
    else:
        print("no")
    return OK if witness is not None else NEGATIVE


def _cmd_span(args):
    seq = _load_sequence(args.seq, args.k)
    enum = enumerate_span(seq, starred=args.starred, cap_bits=args.cap)
    if args.format == "json":
        for block, witness in enum:
            _print_json({"block": block.render_body(), "witness": witness.render()})
        if enum.includes_empty:
            _print_json({"block": "-", "witness": None})
    else:
        for block, witness in enum:
            print(f"{block.render_body()} <- {witness.render()}")
        if enum.includes_empty:
            print("- <- -")
    return OK


def _cmd_intersect(args):
    left = _load_sequence(args.P, args.k)
    right = _load_sequence(args.Q, args.k)
    common = intersect_spans(left, right, cap_bits=args.cap)
    for ce in common:
        if args.format == "json":
            _print_json(
                {"block": ce.block.render_body(),
                 "left_witness": ce.left_witness.render(),
                 "right_witness": ce.right_witness.render()}
            )
        else:
            print(
                f"{ce.block.render_body()} <- {ce.left_witness.render()}"
                f" | {ce.right_witness.render()}"
            )
    return OK if common else NEGATIVE


def _cmd_valuation(args):
    _, blocks = _load_blocks(args.blocks, args.k)
    for b in blocks:
        peak(b)  # NotABlock for entries that never attain k
    result = valuation(blocks, horizon=args.horizon)
    if args.format == "json":
        _print_json(
            {"value": result.value,
             "count": result.element_count,
             "horizon": result.horizon}
        )
    else:
        print(result.render())
    return OK


def _common_element(body, left, right):
    t = Subblock.parse_body(left.k, body)
    lw = membership_witness(t, left)
    rw = membership_witness(t, right)
    if lw is None or rw is None:
        return None
    return CommonElement(t, lw, rw)


def _cmd_graph(args):
    from .structure import decomposition_graph

    left = _load_sequence(args.P, args.k)
    right = _load_sequence(args.Q, args.k)
    element = _common_element(args.block, left, right)
    if element is None:
        if args.format == "json":
            _print_json({"member": False})
        else:
            print("no")
        return NEGATIVE
    graph = decomposition_graph(
        element.block, element.left_witness, element.right_witness, left, right
    )
    if args.format == "json":
        for i, j in graph.edges:
            _print_json({"left": i, "right": j})
    else:
        for line in graph.render_lines():
            print(line)
    return OK


def _cmd_intertwined(args):
    from .structure import decomposition_graph

    left = _load_sequence(args.P, args.k)
    right = _load_sequence(args.Q, args.k)
    element = _common_element(args.block, left, right)
    connected = element is not None and decomposition_graph(
        element.block, element.left_witness, element.right_witness, left, right
    ).is_connected()
    if args.format == "json":
        _print_json({"intertwined": connected})
    else:
        print("yes" if connected else "no")
    return OK if connected else NEGATIVE


def _cmd_extract(args):
    from .structure import extract_intertwined

    left = _load_sequence(args.P, args.k)
    right = _load_sequence(args.Q, args.k)
    try:
        result = extract_intertwined(left, right)
    except NoIntersection:
        if args.format == "json":
            _print_json({"found": False})
        else:
            print("none")
        return NEGATIVE
    element = result.element
    if args.format == "json":
        _print_json(
            {"found": True,
             "prefix_length": result.prefix_length,
             "block": element.block.render_body(),
             "left_witness": element.left_witness.render(),
             "right_witness": element.right_witness.render()}
        )
    else:
        print(
            f"N={result.prefix_length} block={element.block.render_body()}"
            f" P=[{element.left_witness.render()}] Q=[{element.right_witness.render()}]"
        )
    return OK


def _cmd_split(args):
    from .structure import star_split

    left = _load_sequence(args.P, args.k)
    right = _load_sequence(args.Q, args.k)
    anchor = _common_element(args.anchor, left, right)
    other = _common_element(args.other, left, right)
    if anchor is None or other is None:
        if args.format == "json":
            _print_json({"member": False})
        else:
            print("no")
        return NEGATIVE
    below, above = star_split(anchor, other, left, right)
    if args.format == "json":
        _print_json({"below": below.render_body(), "above": above.render_body()})
    else:
        print(f"s={below.render_body()} r={above.render_body()}")
    return OK


def _cmd_small(args):
    from .structure import smallness_check

    left = _load_stream(args.P, args.k)
    right = _load_stream(args.Q, args.k)
    if left.k != right.k:
        raise MismatchedLevel(f"stream levels {left.k} and {right.k}")
    certificate = smallness_check(left, right, args.n, args.horizon)
    if args.format == "json":
        witness = certificate.witness
        _print_json(
            {"tail_index": certificate.tail_index,
             "horizon": certificate.horizon,
             "verdict": certificate.verdict,
             "witness_block": witness.block.render_body() if witness else None}
        )
    else:
        print(certificate.verdict)
    return OK if certificate.verdict == "empty_at_horizon" else NEGATIVE


def _cmd_diag(args):
    from .diagonal import run_diagonalization, validate_family

    members = [_load_stream(arg, args.k) for arg in args.member]
    family = validate_family(members, args.n, args.horizon)
    trace = run_diagonalization(family, cycles=args.cycles)
    if args.format == "json":
        for step in trace.steps:
            _print_json(
                {"step": step.index,
                 "q": step.block.render(),
                 "between_index": step.between_index,
                 "checks": [
                     {"member": check.member,
                      "before": check.before.value,
                      "after": check.after.value}
                     for check in step.checks
                 ]}
            )
    else:
        for line in trace.render_lines():
            print(line)
    return OK


# --- parser -------------------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--k", type=int, default=None, help="level; checked against inputs")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument("--cap", type=_number(float), default=DEFAULT_CAP_BITS,
                        help="listing cap in bits: at most 2^BITS listed combinations")

    parser = _Parser(prog="fink", description="FIN_k block algebra and span computations")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("eval", parents=[common], help="evaluate a combination over a sequence")
    p.add_argument("--seq", required=True)
    p.add_argument("--comb", required=True, help='witness text, e.g. "0^0 + 1^1"')
    p.add_argument("--starred", action="store_true")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("member", parents=[common], help="decide span membership")
    p.add_argument("--seq", required=True)
    p.add_argument("--block", required=True, help='block body, e.g. "0:2,1:1"')
    p.add_argument("--starred", action="store_true")
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("span", parents=[capped], help="enumerate a span with witnesses")
    p.add_argument("--seq", required=True)
    p.add_argument("--starred", action="store_true")
    p.set_defaults(handler=_cmd_span)

    p = sub.add_parser("intersect", parents=[capped], help="intersect two spans")
    p.add_argument("--P", required=True)
    p.add_argument("--Q", required=True)
    p.set_defaults(handler=_cmd_intersect)

    p = sub.add_parser("valuation", parents=[common], help="valuation F of a block set")
    p.add_argument("--blocks", required=True)
    p.add_argument("--horizon", type=_number(int, 0), default=None)
    p.set_defaults(handler=_cmd_valuation)

    p = sub.add_parser("graph", parents=[common], help="decomposition graph of a common block")
    p.add_argument("--P", required=True)
    p.add_argument("--Q", required=True)
    p.add_argument("--block", required=True)
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("intertwined", parents=[common], help="is the common block intertwined?")
    p.add_argument("--P", required=True)
    p.add_argument("--Q", required=True)
    p.add_argument("--block", required=True)
    p.set_defaults(handler=_cmd_intertwined)

    p = sub.add_parser("extract", parents=[common], help="extract an intertwined common block")
    p.add_argument("--P", required=True)
    p.add_argument("--Q", required=True)
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("split", parents=[common], help="star-split around an intertwined anchor")
    p.add_argument("--P", required=True)
    p.add_argument("--Q", required=True)
    p.add_argument("--anchor", required=True, help="intertwined common block body")
    p.add_argument("--other", required=True, help="common block body to star against")
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("small", parents=[common], help="smallness probe at a horizon")
    p.add_argument("--P", required=True, help="stream: builtin name, spec, or file")
    p.add_argument("--Q", required=True)
    p.add_argument("--n", type=_number(int, 0), required=True,
                   help="tail index for the left stream")
    p.add_argument("--horizon", type=_number(int, 0), required=True)
    p.set_defaults(handler=_cmd_small)

    p = sub.add_parser("diag", parents=[common], help="validate a family and diagonalize")
    p.add_argument("--member", action="append", required=True,
                   help="stream (repeatable): builtin name, spec, or file")
    p.add_argument("--n", type=_number(int, 0), default=1,
                   help="tail index for pairwise validation")
    p.add_argument("--horizon", type=_number(int, 0), required=True)
    p.add_argument("--cycles", type=_number(int, 1), default=1)
    p.set_defaults(handler=_cmd_diag)

    return parser


def main(argv=None):
    parser = _build_parser()
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
        return args.handler(args)
    except (FinkError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
