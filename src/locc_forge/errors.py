"""Exception hierarchy shared by all locc_forge modules.

Exit-code mapping used by the CLI, which maps every fault in outside input
to InstanceError at one boundary:
    InstanceError         -> 2  (malformed input)
    ConversionImpossible  -> 3  (transformation ruled out)
    CapExceeded           -> 4  (resource cap)
    everything else below -> 5  (internal invariant violation)
"""


class LoccForgeError(Exception):
    """Base class for all errors raised by this package."""


class InstanceError(LoccForgeError):
    """Malformed instance file or otherwise invalid user input."""


class ConversionImpossible(LoccForgeError):
    """The requested transformation is ruled out by the majorization test."""

    def __init__(self, message: str, violation_index: int | None = None):
        super().__init__(message)
        self.violation_index = violation_index


class CapExceeded(LoccForgeError):
    """A dense-representation or tensor-power cap would be exceeded."""


class DecompositionFailed(LoccForgeError):
    """The permutation-mixture walk left mass unplaced; the message names
    the stage, the rank, the steps taken and the mass."""


class InternalContradiction(LoccForgeError):
    """A plan or waypoint that the package made failed its own validation:
    a built plan or a conclusive settle measurement failed a check, or the
    conclusive waypoint broke an invariant.  The message names the stage,
    the values that tripped it and where."""


class ZeroBranch(LoccForgeError):
    """A local operator annihilated the state (branch probability ~ 0)."""
