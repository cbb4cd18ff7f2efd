"""Persistent spectral Laplacians of point clouds over alpha-complex filtrations."""

# set before the submodule imports: dataio stamps it into the JSON envelope
__version__ = "0.1.0"

from .alpha import alpha_complex, assign_filtration, critical_alphas
from .boundary import SparseBoundaryMatrix, full_boundary, persistent_boundary
from .dataio import (
    read_pdb_ca,
    read_xyz,
    write_curves_svg,
    write_spectra_csv,
    write_spectra_json,
)
from .geometry import PointSet, delaunay, orientation
from .oracle import Barcode, BettiOracle, betti_from_barcode, reduce
from .simplices import FilteredComplex
from .spectra import (
    SpectrumRecord,
    accumulated_laplacian_diagonal,
    detect_anomalies,
    spectrum_at,
    sweep,
)

__all__ = [
    "Barcode",
    "BettiOracle",
    "FilteredComplex",
    "PointSet",
    "SparseBoundaryMatrix",
    "SpectrumRecord",
    "accumulated_laplacian_diagonal",
    "alpha_complex",
    "assign_filtration",
    "betti_from_barcode",
    "critical_alphas",
    "delaunay",
    "detect_anomalies",
    "full_boundary",
    "orientation",
    "persistent_boundary",
    "read_pdb_ca",
    "read_xyz",
    "reduce",
    "spectrum_at",
    "sweep",
    "write_curves_svg",
    "write_spectra_csv",
    "write_spectra_json",
]
