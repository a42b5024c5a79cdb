"""Lazy block-sequence streams.

A stream produces the n-th block of an infinite (or explicitly finite)
sequence on demand.  Three kinds exist:

* ``explicit``  - a stored finite list; asking past the end raises PastEnd.
* ``periodic``  - base templates repeated with a fixed support shift.
* ``builtin``   - named families used throughout the tests and the CLI.

``truncate(h)`` collects every block whose support fits below the horizon
into a BlockSequence, and refuses a horizon holding more than 2^16
blocks.  A tail of a stream is never built: the blocks from n on are
``truncate(h).blocks[n:]``, since supports strictly increase.

The stream spec text format (one line, ``key=value`` tokens):

    kind=builtin name=evens k=2
    kind=periodic shift=2 k=2 base=0:2
    kind=explicit file=path/to/file.seq

Periodic bases with several templates separate the bodies with ``;``.
"""

from __future__ import annotations

from .blocks import Subblock
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


# A truncation costs a few microseconds per block, so this many take well
# under a second; a horizon past it is refused rather than walked.
_MAX_TRUNCATION = 2**16


class Stream:
    """Base class: an immutable on-demand block sequence."""

    def __init__(self, k):
        self.k = k

    def _source_block(self, n):
        raise NotImplementedError

    def block(self, n):
        """The n-th block of this stream (0-based)."""
        if n < 0:
            raise IndexError(f"negative stream index {n}")
        return self._source_block(n)

    def truncate(self, horizon):
        """Every block with support inside [0, horizon], as a sequence.

        Raises EnumerationCapExceeded when more than 2^16 blocks fit,
        before collecting the rest.
        """
        blocks = []
        n = 0
        while True:
            try:
                b = self.block(n)
            except PastEnd:
                break
            if b.max_support > horizon:
                break
            if n == _MAX_TRUNCATION:
                raise EnumerationCapExceeded(
                    f"more than {_MAX_TRUNCATION} blocks fit below horizon {horizon}"
                )
            blocks.append(b)
            n += 1
        return BlockSequence(self.k, blocks)


class ExplicitStream(Stream):
    """A finite stream backed by a stored block sequence."""

    def __init__(self, sequence):
        super().__init__(sequence.k)
        self.sequence = sequence

    def _source_block(self, n):
        if n >= len(self.sequence):
            raise PastEnd(f"index {n} beyond the {len(self.sequence)} stored blocks")
        return self.sequence[n]

    def describe(self):
        return f"kind=explicit k={self.k} length={len(self.sequence)}"


class PeriodicStream(Stream):
    """Base templates repeated forever, shifted right by ``shift`` per cycle."""

    def __init__(self, base, shift):
        base = tuple(base)
        if not base:
            raise InvalidSequence("periodic base must not be empty")
        k = base[0].k
        BlockSequence(k, base)  # validates blocks, level, ordering
        width = base[-1].max_support - base[0].min_support
        if shift <= width:
            raise InvalidSequence(
                f"shift {shift} must exceed the base support width {width}"
            )
        super().__init__(k)
        self.base = base
        self.shift = shift

    def _source_block(self, n):
        cycle, slot = divmod(n, len(self.base))
        return self.base[slot].shift(cycle * self.shift)

    def describe(self):
        body = ";".join(b.render_body() for b in self.base)
        return f"kind=periodic shift={self.shift} k={self.k} base={body}"


def _interlocked_singletons(k, n):
    # one block of full value k at position 0, then at each odd position
    if n == 0:
        return Subblock.from_pairs(k, [(0, k)])
    return Subblock.from_pairs(k, [(2 * n - 1, k)])


def _interlocked_tagged(k, n):
    # as above, but every odd-position block carries a value-1 tag just after
    if n == 0:
        return Subblock.from_pairs(k, [(0, k)])
    return Subblock.from_pairs(k, [(2 * n - 1, k), (2 * n, 1)])


def _even_singletons(k, n):
    return Subblock.from_pairs(k, [(2 * n, k)])


# The two interlocked families span infinitely many common blocks, yet their
# intersection is small (empty after dropping one block from either side);
# the even singletons are disjoint in support from both families' odd parts.
_BUILTINS = {
    "example13_P": _interlocked_singletons,
    "example13_Q": _interlocked_tagged,
    "evens": _even_singletons,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


class BuiltinStream(Stream):
    """A named stream from the builtin registry."""

    def __init__(self, name, k):
        if name not in _BUILTINS:
            raise ParseError(f"unknown builtin stream {name!r}; known: {', '.join(BUILTIN_NAMES)}")
        super().__init__(k)
        self.name = name
        self._formula = _BUILTINS[name]

    def _source_block(self, n):
        return self._formula(self.k, n)

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
        return int(raw)
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
