"""Numerical laboratory for symplectic normal forms, escape-function
positivity, model monodromy contraction and spectral gaps, Hermite
quasimode ladders, and a warped-product geodesic example."""

from .symplectic import (
    ClassificationAmbiguousError,
    SpectralClassification,
    SymplecticError,
    SymplecticMatrix,
    UnsupportedSpectrumError,
    build_quadratic_hamiltonian,
    classify_spectrum,
    random_symplectic,
    standard_form,
    symplectic_defect,
)
from .escape import PositivityReport, verify_positivity
from .weyl import (
    GridError,
    PhaseGrid,
    WeylOperator,
    microlocal_cutoff,
    op_exponential,
    quantize,
)
from .monodromy import (
    build_hyperbolic_monodromy,
    conjugated_contraction,
    contraction_sweep,
)
from .quasimode import (
    QuasimodeLadder,
    exact_model_ladder,
    hermite_mode,
    perturbed_ladder,
    residual_certify,
)
from .geodesic import (
    PoincareReport,
    WarpedMetric,
    hessian_signature,
    integrate,
    poincare_linearization,
)

__version__ = "0.1.0"
