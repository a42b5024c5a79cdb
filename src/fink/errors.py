"""Exception taxonomy for the fink library.

Class names double as the stable error codes surfaced by the CLI.
Negative mathematical results (a block not being a member, an empty
intersection) are ordinary return values or dedicated exceptions that the
CLI maps to exit code 2; everything else here is an error (exit code 1).
"""

__all__ = [
    "FinkError",
    "MismatchedLevel",
    "OverlappingSupport",
    "NotABlock",
    "InvalidSequence",
    "InvalidCombination",
    "IndexOutOfRange",
    "EnumerationCapExceeded",
    "PastEnd",
    "WitnessMismatch",
    "NoIntersection",
    "MinimalityViolation",
    "NotIntertwined",
    "ClaimViolation",
    "HorizonExhausted",
    "NotAlmostDisjoint",
    "ParseError",
]


class FinkError(Exception):
    """Base class for every library-specific error."""


class MismatchedLevel(FinkError):
    """Two values carrying different levels k were combined."""


class OverlappingSupport(FinkError):
    """Partial addition was applied to subblocks whose supports meet."""


class NotABlock(FinkError):
    """A subblock that never attains the level k was used where a block is required."""


class InvalidSequence(FinkError):
    """A block sequence violates the strict support ordering or contains a non-block."""


class InvalidCombination(FinkError):
    """A combination violates its shape invariants (index order, exponent range, min exponent)."""


class IndexOutOfRange(FinkError):
    """A combination refers to a generator index the sequence does not have."""


class EnumerationCapExceeded(FinkError):
    """A span enumeration or listing, or a stream truncation, is larger than its cap."""


class PastEnd(FinkError):
    """An explicit stream was asked for a block beyond its final entry."""


class WitnessMismatch(FinkError):
    """A supplied witness does not evaluate to the block it is claimed to produce."""


class NoIntersection(FinkError):
    """The two spans share no element at the examined horizon (a negative result)."""


class MinimalityViolation(FinkError):
    """A discarded split part attains k, contradicting minimality of the chosen prefix."""


class NotIntertwined(FinkError):
    """The anchor block's decomposition graph is disconnected where connectivity is required."""


class ClaimViolation(FinkError):
    """An internal claim that the construction relies on failed; aborts loudly."""

    def __init__(self, message, step=None, member=None):
        parts = []
        if step is not None:
            parts.append(f"step={step}")
        if member is not None:
            parts.append(f"member={member}")
        prefix = " ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.step = step
        self.member = member


class HorizonExhausted(FinkError):
    """No admissible block exists within the configured horizon, or a block reaches past it."""


class NotAlmostDisjoint(FinkError):
    """A pair of family members fails the smallness check at the configured tail and horizon."""

    def __init__(self, i, j, certificate=None):
        super().__init__(f"members {i} and {j} fail the smallness check")
        self.pair = (i, j)
        self.certificate = certificate


class ParseError(FinkError):
    """Malformed textual input; carries the line when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line
