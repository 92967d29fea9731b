"""Exception hierarchy shared by all mcgtwist modules."""


class McgTwistError(Exception):
    """Base class for all errors raised by mcgtwist."""


class SpecInvalid(McgTwistError):
    """The surface parameters violate a hypothesis of the computation."""


class NoIntegerSolution(McgTwistError):
    """A linear system has no solution over the integers.  Raised only
    by `intlin.ColumnSolver.solve`, which neither `compute_h1` nor
    `verify_spec` calls."""


class RelationOutsideKernel(McgTwistError):
    """A rewritten relation is not a cycle; indicates a catalog bug."""


class UnstableSampling(McgTwistError):
    """Quotient invariants differ across ambiguity samples."""


class UnknownDerived(McgTwistError):
    """Request for a derived word that is not defined for the surface."""


class UnknownLetter(McgTwistError):
    """A word contains a letter with no matrix in the representation."""


class NotACycle(McgTwistError):
    """A chain expected to lie in the cycle lattice does not."""


class DescentFailed(McgTwistError):
    """A functional does not descend to the homology quotient."""
