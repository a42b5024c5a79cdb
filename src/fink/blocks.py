"""Finite-support maps into {0, ..., k} and their partial algebra.

A subblock at level k is a finitely supported function from the natural
numbers to {0, ..., k}.  A block is a subblock that attains k somewhere.
Values are immutable; every operation returns a fresh subblock.  Storage is
a dense tuple of values starting at position 0 with trailing zeros trimmed,
so equal functions compare equal structurally.

The text format for a subblock is ``k=<K>|<pos>:<val>,...`` with positions
strictly increasing and values in 1..K; the empty subblock is ``k=<K>|-``.
``parse_body`` handles the part after the bar when the level is known from
context (sequence files, CLI flags).
"""

from __future__ import annotations

from .errors import (
    MismatchedLevel,
    NotABlock,
    OverlappingSupport,
    ParseError,
)

__all__ = ["Subblock", "tetris", "add", "star", "peak"]


class Subblock:
    """An element of the level-k subblock algebra.

    ``values[n]`` is the value at position n; the tuple carries no trailing
    zeros.  The same type stores blocks and proper subblocks; ``is_block``
    is the checked "attains k" predicate and operations that need a block
    validate it at entry.
    """

    __slots__ = ("k", "values")

    def __init__(self, k, values):
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"level must be a positive integer, got {k!r}")
        vals = list(values)
        while vals and vals[-1] == 0:
            vals.pop()
        for pos, v in enumerate(vals):
            if not isinstance(v, int) or not 0 <= v <= k:
                raise ValueError(f"value {v!r} at position {pos} outside 0..{k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "values", tuple(vals))

    # The internal constructor trusts its caller: values must already be a
    # canonical tuple (ints in range, no trailing zeros).
    @classmethod
    def _raw(cls, k, values):
        self = object.__new__(cls)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "values", values)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Subblock is immutable")

    @classmethod
    def from_pairs(cls, k, pairs):
        """Build from (position, value) pairs; positions may come in any order."""
        items = list(pairs)
        if not items:
            return cls._raw(k, ())
        seen = set()
        for pos, _ in items:
            if pos < 0:
                raise ValueError(f"negative position {pos}")
            if pos in seen:
                raise ValueError(f"duplicate position {pos}")
            seen.add(pos)
        vals = [0] * (max(seen) + 1)
        for pos, v in items:
            vals[pos] = v
        return cls(k, vals)

    @classmethod
    def parse_body(cls, k, text):
        """Parse the part after the bar: ``0:2,3:1`` or ``-`` for empty."""
        body = text.strip()
        if body == "-":
            return cls._raw(k, ())
        pairs = []
        last = -1
        for chunk in body.split(","):
            piece = chunk.strip()
            if ":" not in piece:
                raise ParseError(f"expected <pos>:<val>, got {piece!r}")
            left, _, right = piece.partition(":")
            try:
                pos, val = int(left), int(right)
            except ValueError:
                raise ParseError(f"non-integer entry {piece!r}") from None
            if pos <= last:
                raise ParseError(f"positions must strictly increase at {piece!r}")
            if not 1 <= val <= k:
                raise ParseError(f"value must lie in 1..{k} at {piece!r}")
            last = pos
            pairs.append((pos, val))
        return cls.from_pairs(k, pairs)

    @classmethod
    def parse(cls, text):
        """Parse a full literal like ``k=2|0:2,3:1``."""
        stripped = text.strip()
        head, bar, body = stripped.partition("|")
        if not bar or not head.startswith("k="):
            raise ParseError(f"expected k=<K>|<body>, got {stripped!r}")
        try:
            k = int(head[2:])
        except ValueError:
            raise ParseError(f"bad level in {head!r}") from None
        if k < 1:
            raise ParseError(f"level must be positive, got {k}")
        return cls.parse_body(k, body)

    # --- inspection ---------------------------------------------------

    @property
    def support(self):
        return tuple(pos for pos, v in enumerate(self.values) if v)

    @property
    def is_empty(self):
        return not self.values

    @property
    def is_block(self):
        """True when the level k is attained somewhere."""
        return self.k in self.values

    @property
    def min_support(self):
        for pos, v in enumerate(self.values):
            if v:
                return pos
        return None

    @property
    def max_support(self):
        # canonical storage: the last entry is nonzero
        return len(self.values) - 1 if self.values else None

    def value_at(self, pos):
        if 0 <= pos < len(self.values):
            return self.values[pos]
        return 0

    def items(self):
        """(position, value) pairs over the support, ascending."""
        return tuple((pos, v) for pos, v in enumerate(self.values) if v)

    # --- ordering and equality ----------------------------------------

    def before(self, other):
        """Strict block order: entire support to the left of ``other``'s.

        The empty subblock compares before (and after) everything, by
        convention, so splits with empty edge parts pass ordering checks.
        """
        if self.k != other.k:
            raise MismatchedLevel(f"levels {self.k} and {other.k}")
        if self.is_empty or other.is_empty:
            return True
        return self.max_support < other.min_support

    def __lt__(self, other):
        if not isinstance(other, Subblock):
            return NotImplemented
        return self.before(other)

    def __eq__(self, other):
        if not isinstance(other, Subblock):
            return NotImplemented
        return self.k == other.k and self.values == other.values

    def __hash__(self):
        return hash((self.k, self.values))

    def __bool__(self):
        return not self.is_empty

    def __add__(self, other):
        if not isinstance(other, Subblock):
            return NotImplemented
        return add(self, other)

    # --- slicing -------------------------------------------------------

    def restrict_below(self, pos):
        """The part of this subblock on positions strictly below ``pos``."""
        vals = list(self.values[: max(pos, 0)])
        while vals and vals[-1] == 0:
            vals.pop()
        return Subblock._raw(self.k, tuple(vals))

    def restrict_above(self, pos):
        """The part of this subblock on positions strictly above ``pos``."""
        if pos < 0:
            return self
        head = (0,) * (pos + 1)
        tail = self.values[pos + 1 :]
        return Subblock._raw(self.k, head + tail if tail else ())

    def shift(self, offset):
        """Translate every position right by ``offset`` (a nonnegative int)."""
        if offset < 0:
            raise ValueError("shift offset must be nonnegative")
        if not self.values:
            return self
        return Subblock._raw(self.k, (0,) * offset + self.values)

    # --- rendering -----------------------------------------------------

    def render_body(self):
        if not self.values:
            return "-"
        return ",".join(f"{pos}:{v}" for pos, v in enumerate(self.values) if v)

    def render(self):
        return f"k={self.k}|{self.render_body()}"

    def __repr__(self):
        return f"Subblock[{self.render()}]"


def tetris(p, steps=1):
    """Decrement every value by ``steps``, clamping at zero."""
    if steps < 0:
        raise ValueError("tetris steps must be nonnegative")
    if steps == 0:
        return p
    vals = [v - steps if v > steps else 0 for v in p.values]
    while vals and vals[-1] == 0:
        vals.pop()
    return Subblock._raw(p.k, tuple(vals))


def add(p, q):
    """Partial addition: pointwise union, defined only on disjoint supports."""
    if p.k != q.k:
        raise MismatchedLevel(f"levels {p.k} and {q.k}")
    if len(p.values) < len(q.values):
        p, q = q, p
    vals = list(p.values)
    for pos, v in enumerate(q.values):
        if v:
            if vals[pos]:
                raise OverlappingSupport(f"supports meet at position {pos}")
            vals[pos] = v
    return Subblock._raw(p.k, tuple(vals))


def star(p, q):
    """Pointwise maximum of two subblocks at the same level."""
    if p.k != q.k:
        raise MismatchedLevel(f"levels {p.k} and {q.k}")
    if len(p.values) < len(q.values):
        p, q = q, p
    vals = list(p.values)
    for pos, v in enumerate(q.values):
        if v > vals[pos]:
            vals[pos] = v
    return Subblock._raw(p.k, tuple(vals))


def peak(p):
    """The rightmost position where the full value k is attained."""
    for pos in range(len(p.values) - 1, -1, -1):
        if p.values[pos] == p.k:
            return pos
    raise NotABlock(f"value {p.k} never attained")
