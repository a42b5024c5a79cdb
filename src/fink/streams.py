"""Lazy block-sequence streams.

Every stream is eventually periodic: a finite ``head`` of blocks, then the
``base`` templates repeated forever, shifted right by ``shift`` per cycle.
With no base the stream is finite, and asking past its end raises PastEnd.
It is written one of three ways: ``explicit`` (a stored list, all head),
``periodic`` (all base) or ``builtin`` (a named family, stored in the same
form with ``K`` for the level).

``truncate(h)`` counts the blocks whose support fits below the horizon and
refuses more than 2^16.  It then takes the head blocks that fit and shifts
the base templates' pairs cycle by cycle.  The templates were validated
once, when the stream was built, and shifting keeps what was validated, so
the shifted blocks are built in one batch (``Subblock._raw_many``) and the
BlockSequence without checking its blocks again.  A tail of a stream is
never built: the blocks from n on are ``truncate(h).blocks[n:]``, since
supports strictly increase.

The stream spec text format (one line, ``key=value`` tokens):

    kind=builtin name=evens k=2
    kind=periodic shift=2 k=2 base=0:2
    kind=explicit file=path/to/file.seq

Periodic bases with several templates separate the bodies with ``;``.
"""

from itertools import chain, islice, repeat
from operator import attrgetter

from .blocks import Subblock, parse_int
from .errors import EnumerationCapExceeded, InvalidSequence, ParseError, PastEnd
from .span import BlockSequence

__all__ = [
    "Stream",
    "ExplicitStream",
    "PeriodicStream",
    "BuiltinStream",
    "BUILTIN_NAMES",
    "make_builtin",
    "parse_stream_spec",
]


# A truncation costs about a microsecond per shifted block or less: with
# Python 3.11 on a 2-vCPU Xeon VM, 2^16 builtin blocks take 46-64 ms of
# CPU (0.7-1.0 us each), of which the cyclic garbage collector, set off by
# the allocations, takes a third.  So this many take well under a second;
# a horizon past it is refused rather than walked.
_MAX_TRUNCATION = 2**16

# the fields that stream equality and hashing read
_value = attrgetter("k", "head", "base", "shift")


class Stream:
    """An immutable eventually periodic block sequence: ``head``, then
    ``base`` repeated forever, each cycle shifted right by ``shift``."""

    def __init__(self, k, head, base=(), shift=0):
        head, base = tuple(head), tuple(base)
        BlockSequence(k, head + base)  # validates blocks, level, ordering
        if base:
            width = base[-1].max_support - base[0].min_support
            if shift <= width:
                raise InvalidSequence(
                    f"shift {shift} must exceed the base support width {width}"
                )
        self.k = k
        self.head = head
        self.base = base
        self.shift = shift

    def __eq__(self, other):
        """Equal when their ``(k, head, base, shift)`` are, however written:
        builtin ``evens`` at k=2 equals ``kind=periodic shift=2 k=2 base=0:2``."""
        return _value(self) == _value(other) if isinstance(other, Stream) else NotImplemented

    def __hash__(self):
        return hash(_value(self))

    def block(self, n):
        """The n-th block of this stream (0-based)."""
        if n < 0:
            raise IndexError(f"negative stream index {n}")
        if n < len(self.head):
            return self.head[n]
        if not self.base:
            raise PastEnd(f"index {n} beyond the {len(self.head)} stored blocks")
        cycle, slot = divmod(n - len(self.head), len(self.base))
        return self.base[slot].shift(cycle * self.shift)

    def truncate(self, horizon):
        """Every block with support inside [0, horizon], as a sequence.

        Supports increase, so the blocks that fit are a prefix: the head
        blocks that fit, plus one block per cycle for each base template
        that still fits.  Raises EnumerationCapExceeded when more than 2^16
        blocks fit, before building any.

        Past the head, every block is a base template's pairs shifted by a
        whole number of cycles.  Shifting keeps the level, ``is_block`` and,
        since ``shift`` exceeds the base width, the order that the
        constructor checked once, so the blocks are not checked again.
        """
        count = sum(b.max_support <= horizon for b in self.head)
        count += sum(
            (horizon - b.max_support) // self.shift + 1
            for b in self.base
            if b.max_support <= horizon
        )
        if count > _MAX_TRUNCATION:
            raise EnumerationCapExceeded(
                f"more than {_MAX_TRUNCATION} blocks fit below horizon {horizon}"
            )
        blocks = self.head[:count]
        rest = count - len(blocks)  # blocks past the head; none without a base
        if rest:
            cycles = -(-rest // len(self.base))  # the last one may be cut short
            columns = [_shifted_pairs(t, cycles, self.shift) for t in self.base]
            in_order = islice(chain.from_iterable(zip(*columns)), rest)
            blocks += Subblock._raw_many(self.k, in_order, rest)
        return BlockSequence._trusted(self.k, blocks)


def _shifted_pairs(template, cycles, shift):
    """The template's pairs tuple in each of its first ``cycles`` cycles,
    built a column at a time: each pair's position steps by ``shift``."""
    end = cycles * shift
    return zip(*(zip(range(pos, pos + end, shift), repeat(v)) for pos, v in template.pairs))


class ExplicitStream(Stream):
    """A finite stream backed by a stored block sequence."""

    def __init__(self, sequence):
        super().__init__(sequence.k, sequence.blocks)

    def describe(self):
        return f"kind=explicit k={self.k} length={len(self.head)}"


class PeriodicStream(Stream):
    """Base templates repeated forever, shifted right by ``shift`` per cycle."""

    def __init__(self, base, shift):
        base = tuple(base)
        if not base:
            raise InvalidSequence("periodic base must not be empty")
        super().__init__(base[0].k, (), base, shift)

    def describe(self):
        body = ";".join(b.render_body() for b in self.base)
        return f"kind=periodic shift={self.shift} k={self.k} base={body}"


# (head, base, shift) per builtin, K standing for the level.  The two
# interlocked families span infinitely many common blocks, yet their
# intersection is small (empty after dropping one block from either side);
# the even singletons are disjoint in support from both families' odd parts.
_BUILTINS = {
    "evens": ((), ("0:K",), 2),
    "example13_P": (("0:K",), ("1:K",), 2),
    "example13_Q": (("0:K",), ("1:K,2:1",), 2),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


class BuiltinStream(Stream):
    """A named stream from the builtin registry."""

    def __init__(self, name, k):
        if name not in _BUILTINS:
            raise ParseError(f"unknown builtin stream {name!r}; known: {', '.join(BUILTIN_NAMES)}")
        head, base, shift = _BUILTINS[name]
        # every builtin has a base body, and ``parse_body`` refuses a level below 1
        head, base = (
            [Subblock.parse_body(k, body.replace("K", str(k))) for body in bodies]
            for bodies in (head, base)
        )
        super().__init__(k, head, base, shift)
        self.name = name

    def describe(self):
        return f"kind=builtin name={self.name} k={self.k}"


def make_builtin(name, k):
    return BuiltinStream(name, k)


def _parse_tokens(text):
    tokens = {}
    for chunk in text.split():
        if "=" not in chunk:
            raise ParseError(f"expected key=value token, got {chunk!r}")
        key, _, value = chunk.partition("=")
        if key in tokens:
            raise ParseError(f"duplicate key {key!r}")
        tokens[key] = value
    return tokens


def _require(tokens, key):
    if key not in tokens:
        raise ParseError(f"stream spec is missing {key}=")
    return tokens[key]


def _int_token(tokens, key):
    raw = _require(tokens, key)
    try:
        return parse_int(raw)
    except ValueError:
        raise ParseError(f"{key}= must be an integer, got {raw!r}") from None


def parse_stream_spec(text, read_file=None):
    """Build a stream from its one-line spec.

    ``read_file`` maps a path to file contents for ``kind=explicit``; pass
    it explicitly so parsing stays testable without touching the disk.
    """
    tokens = _parse_tokens(text)
    kind = _require(tokens, "kind")
    if kind == "builtin":
        return BuiltinStream(_require(tokens, "name"), _int_token(tokens, "k"))
    if kind == "periodic":
        k = _int_token(tokens, "k")
        shift = _int_token(tokens, "shift")
        bodies = _require(tokens, "base").split(";")
        base = [Subblock.parse_body(k, body) for body in bodies]
        return PeriodicStream(base, shift)
    if kind == "explicit":
        path = _require(tokens, "file")
        if read_file is None:
            def read_file(p):
                with open(p, encoding="utf-8") as handle:
                    return handle.read()
        return ExplicitStream(BlockSequence.parse_file(read_file(path)))
    raise ParseError(f"unknown stream kind {kind!r}")
