"""Finite-support maps into {0, ..., k} and their partial algebra.

A subblock at level k is a finitely supported function from the natural
numbers to {0, ..., k}.  A block is a subblock that attains k somewhere.
Values are immutable; every operation returns a fresh subblock.  Storage is
the ascending tuple of (position, value) pairs over the support, so equal
functions compare equal structurally and every operation costs time in the
size of the support, whatever its positions.

The text format for a subblock is ``k=<K>|<pos>:<val>,...`` with positions
strictly increasing and values in 1..K; the empty subblock is ``k=<K>|-``.
``parse_body`` handles the part after the bar when the level is known from
context (sequence files, CLI flags).  Every integer in fink's text formats
is read by ``parse_int``: an optional ``-`` and ASCII digits.
"""

from bisect import bisect_left
from collections import deque
from itertools import repeat
from operator import attrgetter

from .errors import (
    MismatchedLevel,
    NotABlock,
    OverlappingSupport,
    ParseError,
)

__all__ = ["Subblock", "tetris", "add", "star", "peak"]


def parse_int(text):
    """An optional ``-`` and ASCII digits, after ``strip()``; ValueError
    otherwise.  Bare ``int()`` would also take ``+2``, ``1_0`` and
    non-ASCII digits."""
    text = text.strip()
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _canonical_pairs(k, pairs):
    """Validate a level and (position, value) pairs; ascending, zeros dropped."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"level must be a positive integer, got {k!r}")
    seen = set()
    kept = []
    for pos, v in pairs:
        if pos < 0:
            raise ValueError(f"negative position {pos}")
        if pos in seen:
            raise ValueError(f"duplicate position {pos}")
        seen.add(pos)
        if not isinstance(v, int) or not 0 <= v <= k:
            raise ValueError(f"value {v!r} at position {pos} outside 0..{k}")
        if v:
            kept.append((pos, v))
    kept.sort()
    return tuple(kept)


class Subblock:
    """An element of the level-k subblock algebra.

    ``pairs`` holds the (position, value) pairs with nonzero value, by
    ascending position.  The same type stores blocks and proper subblocks;
    ``is_block`` is the checked "attains k" predicate and operations that
    need a block validate it at entry.  Build one with ``from_pairs``,
    ``parse`` or ``parse_body``.
    """

    __slots__ = ("k", "pairs")

    # The internal constructor trusts its caller: pairs must already be a
    # canonical tuple (ascending positions, values in 1..k).  It fills the
    # slots through their member descriptors, past ``__setattr__``.
    @classmethod
    def _raw(cls, k, pairs):
        self = object.__new__(cls)
        _set_k(self, k)
        _set_pairs(self, pairs)
        return self

    # ``_raw`` for ``count`` subblocks at once, as a tuple, one per pairs
    # tuple drawn from ``pairs`` (which must yield at least ``count``): the
    # instances are allocated and both slots filled by C-level maps, so no
    # Python frame runs per subblock.
    @classmethod
    def _raw_many(cls, k, pairs, count):
        made = tuple(map(object.__new__, repeat(cls, count)))
        deque(map(_set_k, made, repeat(k)), maxlen=0)
        deque(map(_set_pairs, made, pairs), maxlen=0)
        return made

    def __setattr__(self, name, value):
        raise AttributeError("Subblock is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through ``from_pairs``, which rechecks
        return type(self).from_pairs, (self.k, self.pairs)

    @classmethod
    def from_pairs(cls, k, pairs):
        """Build from (position, value) pairs; positions may come in any order."""
        return cls._raw(k, _canonical_pairs(k, pairs))

    @classmethod
    def parse_body(cls, k, text):
        """Parse the part after the bar: ``0:2,3:1`` or ``-`` for empty."""
        if k < 1:
            raise ParseError(f"level must be positive, got {k}")
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
                pos, val = parse_int(left), parse_int(right)
            except ValueError:
                raise ParseError(f"non-integer entry {piece!r}") from None
            if pos < 0:
                raise ParseError(f"negative position at {piece!r}")
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
            k = parse_int(head[2:])
        except ValueError:
            raise ParseError(f"bad level in {head!r}") from None
        return cls.parse_body(k, body)

    # --- inspection ---------------------------------------------------

    @property
    def support(self):
        return tuple(pos for pos, _ in self.pairs)

    @property
    def is_empty(self):
        return not self.pairs

    @property
    def is_block(self):
        """True when the level k is attained somewhere."""
        return any(v == self.k for _, v in self.pairs)

    @property
    def min_support(self):
        return self.pairs[0][0] if self.pairs else None

    @property
    def max_support(self):
        return self.pairs[-1][0] if self.pairs else None

    def value_at(self, pos):
        i = bisect_left(self.pairs, (pos,))
        if i < len(self.pairs) and self.pairs[i][0] == pos:
            return self.pairs[i][1]
        return 0

    def items(self):
        """(position, value) pairs over the support, ascending."""
        return self.pairs

    # --- ordering and equality ----------------------------------------

    def before(self, other):
        """Strict block order: entire support to the left of ``other``'s.

        The empty subblock compares before (and after) everything, by
        convention, so splits with empty edge parts pass ordering checks.
        """
        if self.k != other.k:
            raise MismatchedLevel(f"levels {self.k} and {other.k}")
        a, b = self.pairs, other.pairs
        return not a or not b or a[-1][0] < b[0][0]

    def __eq__(self, other):
        if not isinstance(other, Subblock):
            return NotImplemented
        return self.k == other.k and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.k, self.pairs))

    # --- slicing -------------------------------------------------------

    def restrict_below(self, pos):
        """The part of this subblock on positions strictly below ``pos``."""
        return Subblock._raw(self.k, self.pairs[: bisect_left(self.pairs, (pos,))])

    def restrict_above(self, pos):
        """The part of this subblock on positions strictly above ``pos``."""
        return Subblock._raw(self.k, self.pairs[bisect_left(self.pairs, (pos + 1,)) :])

    def shift(self, offset):
        """Translate every position right by ``offset`` (a nonnegative int)."""
        if offset < 0:
            raise ValueError("shift offset must be nonnegative")
        return Subblock._raw(self.k, tuple((pos + offset, v) for pos, v in self.pairs))

    # --- rendering -----------------------------------------------------

    def render_body(self):
        if not self.pairs:
            return "-"
        return ",".join(f"{pos}:{v}" for pos, v in self.pairs)

    def render(self):
        return f"k={self.k}|{self.render_body()}"

    def __repr__(self):
        return f"Subblock[{self.render()}]"


_set_k = Subblock.k.__set__
_set_pairs = Subblock.pairs.__set__


class Record:
    """Base of the result records: immutable values compared field by field.

    A subclass names its fields in ``__slots__``, in the order of its
    ``__init__`` parameters.  Its ``__init__`` stores each one with
    ``_setattr`` (``object.__setattr__``, past the raising ``__setattr__``)
    and then runs its own checks.  A builder that makes many records fills
    a bare instance (``object.__new__``) through the class's ``_setters``,
    one slot setter per field in order, and runs no frame for it.  Equality
    and hashing read the fields through one ``attrgetter`` per class, so
    two records are equal exactly when they have the same class and equal
    fields; ``repr`` lists the fields as ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through ``__init__``, which rechecks
        return type(self), self._fields(self)


_setattr = object.__setattr__


def tetris(p, steps=1):
    """Decrement every value by ``steps``, clamping at zero."""
    if steps < 0:
        raise ValueError("tetris steps must be nonnegative")
    if steps == 0:
        return p
    return Subblock._raw(p.k, tuple((pos, v - steps) for pos, v in p.pairs if v > steps))


def add(p, q):
    """Partial addition: pointwise union, defined only on disjoint supports."""
    if p.k != q.k:
        raise MismatchedLevel(f"levels {p.k} and {q.k}")
    a, b = p.pairs, q.pairs
    if not a or not b or a[-1][0] < b[0][0]:
        return Subblock._raw(p.k, a + b)
    if b[-1][0] < a[0][0]:
        return Subblock._raw(p.k, b + a)
    merged = sorted(a + b)
    for (pos, _), (nxt, _) in zip(merged, merged[1:]):
        if pos == nxt:
            raise OverlappingSupport(f"supports meet at position {pos}")
    return Subblock._raw(p.k, tuple(merged))


def star(p, q):
    """Pointwise maximum of two subblocks at the same level.

    Only the longer operand's pairs inside the shorter one's window
    ``[min_support, max_support]`` are merged; the rest of the longer one
    is copied as tuple slices, so the cost is one pass over the support.
    """
    if p.k != q.k:
        raise MismatchedLevel(f"levels {p.k} and {q.k}")
    a, b = p.pairs, q.pairs
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return Subblock._raw(p.k, a)
    lo = bisect_left(a, (b[0][0],))
    hi = bisect_left(a, (b[-1][0] + 1,))
    merged = dict(a[lo:hi])
    for pos, v in b:
        if v > merged.get(pos, 0):
            merged[pos] = v
    return Subblock._raw(p.k, a[:lo] + tuple(sorted(merged.items())) + a[hi:])


def peak(p):
    """The rightmost position where the full value k is attained."""
    for pos, v in reversed(p.pairs):
        if v == p.k:
            return pos
    raise NotABlock(f"value {p.k} never attained")
