"""Exception types raised across the package."""


class SheafFuseError(Exception):
    """Base class for all library errors."""


class UnknownEntity(SheafFuseError):
    """A named entity does not belong to the universe."""


class TopologyTooLarge(SheafFuseError):
    """Open-set enumeration exceeded the configured cap."""


class SpaceMismatch(SheafFuseError):
    """A point was used with a space it does not belong to."""


class NotComparable(SheafFuseError):
    """Restriction requested between opens without an inclusion."""


class MissingIntersectionStalk(SheafFuseError):
    """A basis open, or the end of a restriction, carries no stalk."""


class NonlinearSheaf(SheafFuseError):
    """A linear-only operation was applied to a nonlinear sheaf."""


class IntersectionNotOpen(SheafFuseError):
    """A cover intersection is not an open set of the topology."""


class UnmappedBin(SheafFuseError):
    """A stochastic lift encountered mass outside the codomain bins."""


class NoTopStalk(SheafFuseError):
    """The stalk over the whole space has no finite parameterization."""


class DegenerateAssignment(SheafFuseError):
    """An operation received an assignment with empty domain."""
