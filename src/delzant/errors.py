"""Exception hierarchy shared by all delzant modules."""


class DelzantError(Exception):
    """Base class for every error raised by this package."""


# -- exact arithmetic ---------------------------------------------------------

class ZeroVector(DelzantError):
    pass


class NonSquare(DelzantError):
    pass


class DimensionMismatch(DelzantError):
    pass


# -- polytope construction ----------------------------------------------------

class NotFullDimensional(DelzantError):
    pass


class EmptyPolytope(DelzantError):
    pass


class Unbounded(DelzantError):
    pass


class OriginNotInterior(DelzantError):
    pass


class NonGenericDirection(DelzantError):
    pass


class NotSimple(DelzantError):
    pass


class NonLatticeEdge(DelzantError):
    pass


# -- reflexive / Delzant verifiers --------------------------------------------

class NotDelzant(DelzantError):
    pass


class NotReflexive(DelzantError):
    pass


class UnsupportedDimension(DelzantError):
    pass


class NotGorensteinOfIndex(DelzantError):
    pass


class InconsistentCones(DelzantError):
    pass


class MalformedVector(DelzantError):
    pass


# -- bounds / enumeration -----------------------------------------------------

class UnboundedSearch(DelzantError):
    """A search with no finite bound, or one larger than its limit: the
    admissible set with no cap given, or a brute-force oracle over too
    many facets or too large a segment box."""


class NonNegativeS(DelzantError):
    pass


# -- GKM graphs ---------------------------------------------------------------

class InvalidGraph(DelzantError):
    pass


class InconsistentIndex(DelzantError):
    pass


class NonPositiveIndex(DelzantError):
    pass


class DirectionDependent(DelzantError):
    """The in-degree census changed with the generic direction chosen."""


# -- root systems -------------------------------------------------------------

class UnsupportedType(DelzantError):
    pass


class NotARoot(DelzantError):
    pass


# -- IO -----------------------------------------------------------------------

class MalformedInput(DelzantError):
    pass
