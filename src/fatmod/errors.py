"""Exception hierarchy shared by all fatmod modules."""


class FatmodError(Exception):
    """Base class for all errors raised by this package."""


class MalformedGraph(FatmodError):
    """Permutation data does not describe a valid fatgraph."""


class NotExpandable(FatmodError):
    """Attempt to expand a vertex of valence three or less."""


class NotAnAutomorphism(FatmodError):
    """A half-edge permutation does not commute with the graph structure."""


class WrongType(FatmodError):
    """Graph has the wrong (genus, boundary) type for the operation."""


class WrongBoundaryCount(WrongType):
    """Operation requires a single boundary cycle."""


class BadLeafCount(FatmodError):
    """Tree has an even or too small number of gluable cells."""


class NotSymmetric(FatmodError):
    """Involution does not have the fixed-cell structure needed for cutting."""


class ResourceLimit(FatmodError):
    """A configured enumeration size cap was exceeded."""


class CacheError(FatmodError):
    """Census cache file is missing, corrupt, or from another version."""
