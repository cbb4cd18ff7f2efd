"""Exception types raised across the package.

Each type's category base decides what the command line does with it:
``exit_code`` is the process exit status and ``label`` the word after
``pslap:`` on its one stderr line.  A new error type inherits both from
its base, so it never needs a second entry elsewhere.
"""


class PslapError(Exception):
    """Base class for all pslap-specific errors."""

    exit_code = 2
    label = "error"


class InputError(PslapError):
    """The input file or the command line is unusable."""

    exit_code = 1
    label = "input error"


class GeometryError(PslapError):
    """The point set admits no alpha complex as given."""

    exit_code = 2
    label = "geometry error"


class SolverError(PslapError):
    """A linear-algebra routine failed."""

    exit_code = 3
    label = "solver error"


class NegativeFiltration(PslapError):
    """A filtration value is negative or not finite."""


class DegenerateSimplex(GeometryError):
    """The vertices of a simplex are affinely dependent."""


class DuplicatePoints(GeometryError):
    """Two input points coincide exactly."""


class AllCollinear(GeometryError):
    """2D input admits no full-dimensional triangulation."""


class AllCoplanar(GeometryError):
    """3D input admits no full-dimensional tessellation."""


class SnapshotOrderViolation(PslapError):
    """Snapshot pair in the wrong order, the later snapshot not holding the
    earlier: p < 0, which ``spectrum_at`` raises and a sweep flags on the
    row as ``failed:SnapshotOrderViolation``."""


class LinearSolveFailure(SolverError):
    """The SVD behind the persistent projector's kernel basis failed."""


class EigensolveFailure(SolverError):
    """The eigenvalue solver did not converge."""


class MatrixTooLarge(SolverError):
    """A dense matrix would exceed ``boundary.MAX_DENSE_BYTES``."""


class ParseError(InputError):
    """Malformed input file; message carries the offending line number."""


class MixedDimensions(InputError):
    """Input point file mixes 2D and 3D rows."""


class NoCAAtoms(InputError):
    """PDB file contains no alpha-carbon ATOM records."""
