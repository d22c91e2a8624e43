"""Model monodromy operators on a phase-space grid.

The hyperbolic model quantizes the stretch generator lambda*x*xi; after
the two-parameter rescaling its time-one map is
M = exp(-i lambda (X Xi)^w / hbar_tilde), unitary on the grid.
Conjugating by the exponential of the quantized escape weight turns
unitarity into a strict contraction on states concentrated near the
origin; this module measures that contraction rate, and per h the gap
min Re<(I - M)u, u> on states microlocalized in the h-calculus.  (x xi)^w
generates dilations, so the gap is the same for every h up to grid
resolution.  The elliptic model enters through its quantized rotation
generator (alpha/2)(x^2 + xi^2), whose eigenvectors are the Hermite
functions; the ladder residuals are measured against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weyl import (
    PhaseGrid,
    cutoff_range,
    microlocal_cutoff,
    op_exponential,
    quantize,
)


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the model monodromy runs.

    lam is the hyperbolic stretch rate, h the small quantization
    parameter, hbar_tilde the fixed second parameter of the rescaled
    calculus, s the escape-weight strength, and grid the phase-space grid
    the rescaled operators live on.
    """

    lam: float
    h: float
    hbar_tilde: float
    s: float
    grid: PhaseGrid

    def __post_init__(self):
        if not 0.0 < self.h <= self.hbar_tilde <= 1.0:
            raise ValueError(
                f"parameters must satisfy 0 < h <= hbar_tilde <= 1, "
                f"got h={self.h}, hbar_tilde={self.hbar_tilde}"
            )
        if abs(self.s) > 0.5:
            raise ValueError(f"weight strength |s| must be <= 1/2, got {self.s}")
        if self.grid.hbar != self.hbar_tilde:
            raise ValueError("grid.hbar must equal hbar_tilde (rescaled calculus)")


@dataclass(frozen=True)
class MonodromyResult:
    """Contraction and gap data for one h of a sweep."""

    h: float
    hbar_tilde: float
    s: float
    norm_conjugated: float
    unitarity_defect: float
    gap_value: float
    subspace_rank: int


def _stretch_generator(p: ModelParams):
    """Quantized rescaled stretch symbol lambda (h/hbar_tilde) X Xi."""
    factor = p.lam * p.h / p.hbar_tilde
    return quantize(lambda x, xi: factor * x * xi, p.grid,
                    symbol_tag=f"stretch lam={p.lam} h={p.h}")


def build_hyperbolic_monodromy(p: ModelParams) -> np.ndarray:
    """Time-one map M = exp(-i Q1 / h) of the rescaled stretch generator.

    The rescaling cancels h exactly in the model, so M equals
    exp(-i lambda (X Xi)^w / hbar_tilde) for every h; unitarity holds to
    rounding accuracy.
    """
    return op_exponential(_stretch_generator(p), -1.0j / p.h)


def unitarity_defect(m: np.ndarray) -> float:
    """||M^H M - I||_2, read off the spectrum of the Hermitian defect."""
    herm = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.abs(np.linalg.eigvalsh(herm)).max())


def escape_weight(p: ModelParams) -> np.ndarray:
    """Quantization of the hyperbolic escape weight
    (1/2) log((1 + X^2)/(1 + Xi^2)) on the rescaled grid.  The symbol is
    real and even in Xi, so its Weyl kernel is real symmetric."""

    def symbol(x, xi):
        return 0.5 * (np.log1p(x ** 2) - np.log1p(xi ** 2))

    return quantize(symbol, p.grid, symbol_tag="escape weight").matrix.real


def microlocal_basis(grid: PhaseGrid, width_x: float = 1.0,
                     width_xi: float | None = None,
                     sv_tol: float = 1e-6) -> np.ndarray:
    """Orthonormal basis of the microlocalized subspace: the numerical
    range of the Gaussian phase-space cutoff."""
    return cutoff_range(microlocal_cutoff(grid, width_x, width_xi), sv_tol=sv_tol)


def restricted_norm(image: np.ndarray) -> float:
    """sup ||M u|| / ||u|| over u in the span of an orthonormal basis B,
    read off the image M B."""
    return float(np.linalg.norm(image, 2))


def restricted_gap(m: np.ndarray, basis: np.ndarray) -> float:
    """min Re<(I - M) u, u> / ||u||^2 over u in the span of the basis."""
    block = basis.conj().T @ m @ basis
    herm = np.eye(block.shape[0]) - 0.5 * (block + block.conj().T)
    return float(np.linalg.eigvalsh(herm)[0])


def conjugated_contraction(p: ModelParams) -> tuple[float, float]:
    """Weight-conjugated contraction of the hyperbolic model monodromy.

    Builds M and the weight exponentials exp(+-s G^w), and applies the
    conjugated map Mtilde = exp(-s G^w) M exp(+s G^w) factor by factor to
    the N x r basis of the microlocalized subspace (the N x N Mtilde is
    never formed).  Returns the restricted norm r of Mtilde there and the
    unitarity defect of M.  r < 1 is the contraction; at s = 0 the map
    stays unitary and r = 1.
    """
    m = build_hyperbolic_monodromy(p)
    defect = unitarity_defect(m)
    gw = escape_weight(p)
    w_minus = op_exponential(gw, -p.s)
    w_plus = op_exponential(gw, +p.s)
    basis = microlocal_basis(p.grid)
    return restricted_norm(w_minus @ (m @ (w_plus @ basis))), defect


def unconjugated_gap(p: ModelParams, m: np.ndarray):
    """Gap of the unconjugated monodromy M on h-microlocalized states.

    States with unit phase-space concentration in the h-calculus transport
    under the zoom to position width sqrt(hbar_tilde/h) and momentum width
    sqrt(h/hbar_tilde) on the rescaled grid; the gap is the smallest
    restricted eigenvalue of Herm(I - M) on that subspace.  The position
    width is capped at L/4 so the cutoff tails stay inside the window.
    Returns (gap, subspace rank).
    """
    wx = min(math.sqrt(p.hbar_tilde / p.h), p.grid.L / 4.0)
    wxi = 1.0 / math.sqrt(p.hbar_tilde / p.h)
    basis = microlocal_basis(p.grid, width_x=wx, width_xi=wxi, sv_tol=1e-4)
    return restricted_gap(m, basis), basis.shape[1]


def contraction_sweep(h_values, lam: float, s: float, hbar_tilde: float,
                      grid: PhaseGrid, gap_grid: PhaseGrid) -> list:
    """One MonodromyResult per h: the conjugated norm and unitarity defect
    on `grid`, and the unconjugated gap and its subspace rank at that h on
    `gap_grid`."""
    h_values = [float(h) for h in h_values]
    # the rescaled stretch generator is the same matrix for every h (the
    # quantization parameter cancels in the model), so the conjugated norm
    # and the gap-grid monodromy are computed once
    r, defect = conjugated_contraction(
        ModelParams(lam=lam, h=h_values[0], hbar_tilde=hbar_tilde, s=s, grid=grid)
    )
    m_gap = build_hyperbolic_monodromy(
        ModelParams(lam=lam, h=h_values[0], hbar_tilde=hbar_tilde, s=s, grid=gap_grid)
    )
    results = []
    for h in h_values:
        p_gap = ModelParams(lam=lam, h=h, hbar_tilde=hbar_tilde, s=s, grid=gap_grid)
        gap_val, rank = unconjugated_gap(p_gap, m_gap)
        results.append(MonodromyResult(
            h=h, hbar_tilde=hbar_tilde, s=s, norm_conjugated=r,
            unitarity_defect=defect, gap_value=gap_val, subspace_rank=rank,
        ))
    return results


# ---------------------------------------------------------------------------
# elliptic model
# ---------------------------------------------------------------------------

def rotation_generator(alpha: float, grid: PhaseGrid):
    """Quantized rotation symbol (alpha/2)(x^2 + xi^2) on the h-grid: the
    (read-only) matrix of a real symbol, exactly Hermitian as quantized."""
    return quantize(lambda x, xi: 0.5 * alpha * (x ** 2 + xi ** 2), grid,
                    symbol_tag=f"rotation alpha={alpha}").matrix
