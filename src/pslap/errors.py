"""Exception types raised across the package."""


class PslapError(Exception):
    """Base class for all pslap-specific errors."""


class NegativeFiltration(PslapError):
    """A filtration value is negative or not finite."""


class DegenerateSimplex(PslapError):
    """The vertices of a simplex are affinely dependent."""


class DuplicatePoints(PslapError):
    """Two input points coincide exactly."""


class AllCollinear(PslapError):
    """2D input admits no full-dimensional triangulation."""


class AllCoplanar(PslapError):
    """3D input admits no full-dimensional tessellation."""


class SnapshotOrderViolation(PslapError):
    """Snapshot pair passed in the wrong order (alpha > alpha + p)."""


class LinearSolveFailure(PslapError):
    """The SVD behind the persistent projector's kernel basis failed."""


class EigensolveFailure(PslapError):
    """The eigenvalue solver did not converge."""


class ParseError(PslapError):
    """Malformed input file; message carries the offending line number."""


class MixedDimensions(PslapError):
    """Input point file mixes 2D and 3D rows."""


class NoCAAtoms(PslapError):
    """PDB file contains no alpha-carbon ATOM records."""
