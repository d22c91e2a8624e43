"""Model monodromy operators on a phase-space grid.

The hyperbolic model quantizes the stretch generator lambda*x*xi; after
the two-parameter rescaling its time-one map is
M = exp(-i lambda (X Xi)^w / hbar_tilde), unitary on the grid.
Conjugating by the exponential of the quantized escape weight turns
unitarity into a strict contraction on states concentrated near the
origin, and the contraction rate together with the spectral-gap fit of
Re<(I - M)u, u> across an h-sweep is what this module measures.  The
elliptic model enters through its quantized rotation generator
(alpha/2)(x^2 + xi^2), whose eigenvectors are the Hermite functions; the
ladder residuals are measured against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .weyl import (
    PhaseGrid,
    cutoff_range,
    microlocal_cutoff,
    op_exponential,
    quantize,
)

DEFAULT_HBAR_TILDE = 0.2
DEFAULT_WEIGHT = 0.3


class AliasingError(ValueError):
    """State carries energy beyond the target Nyquist band."""


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the model monodromy runs.

    lam is the hyperbolic stretch rate, alpha the elliptic rotation angle,
    h the small quantization parameter, hbar_tilde the fixed second
    parameter of the rescaled calculus, s the escape-weight strength, and
    grid the phase-space grid the rescaled operators live on.
    """

    lam: float = 1.0
    alpha: float = 1.0
    h: float = 0.01
    hbar_tilde: float = DEFAULT_HBAR_TILDE
    s: float = DEFAULT_WEIGHT
    grid: PhaseGrid = None

    def __post_init__(self):
        if not 0.0 < self.h <= self.hbar_tilde <= 1.0:
            raise ValueError(
                f"parameters must satisfy 0 < h <= hbar_tilde <= 1, "
                f"got h={self.h}, hbar_tilde={self.hbar_tilde}"
            )
        if abs(self.s) > 0.5:
            raise ValueError(f"weight strength |s| must be <= 1/2, got {self.s}")
        if self.grid is None:
            object.__setattr__(self, "grid", PhaseGrid(L=16.0, N=512, hbar=self.hbar_tilde))
        if self.grid.hbar != self.hbar_tilde:
            raise ValueError("grid.hbar must equal hbar_tilde (rescaled calculus)")


@dataclass(frozen=True)
class MonodromyResult:
    """Contraction and gap data for one parameter cell."""

    h: float
    hbar_tilde: float
    s: float
    norm_conjugated: float
    gap_constant: float
    gap_exponent: float
    unitarity_defect: float
    subspace_rank: int = 0
    gap_value: float = 0.0


def rescale_state(u, h: float, hbar_tilde: float,
                  grid_from: PhaseGrid, grid_to: PhaseGrid,
                  tail_tol: float = 1e-8):
    """Unitary zoom between the h-grid and the hbar_tilde-grid:
    (T u)(X) = (h/hbar_tilde)^(1/4) u((h/hbar_tilde)^(1/2) X).

    When the position windows are matched, L_from = sqrt(h/hbar_tilde) * L_to,
    the resampling is exact and the map is a scalar multiple of the sample
    vector.  Otherwise the samples are evaluated by trigonometric
    interpolation, after checking that no spectral energy would alias past
    the target Nyquist frequency.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (grid_from.N,):
        raise ValueError(f"state has shape {u.shape}, expected ({grid_from.N},)")
    if grid_from.N != grid_to.N:
        raise ValueError("rescaling requires equal grid sizes")
    ratio = math.sqrt(h / hbar_tilde)
    amp = (h / hbar_tilde) ** 0.25
    if math.isclose(grid_from.L, ratio * grid_to.L, rel_tol=1e-12):
        return amp * u
    # general path: evaluate the trigonometric interpolant of u at the
    # dilated target points
    targets = ratio * grid_to.x
    if np.abs(targets).max() > grid_from.L:
        raise AliasingError("dilated target points leave the source window")
    coeffs = np.fft.fftshift(np.fft.fft(u)) / grid_from.N
    freqs = np.pi * (np.arange(grid_from.N) - grid_from.N // 2) / grid_from.L
    # frequencies above the target band must carry no energy
    limit = grid_to.xi_max / grid_to.hbar / max(ratio, 1e-300)
    tail = np.abs(coeffs[np.abs(freqs) > limit]).sum()
    if tail > tail_tol * max(np.abs(coeffs).sum(), 1e-300):
        raise AliasingError(
            f"spectral tail beyond the target Nyquist band: {tail:.3e}"
        )
    phases = np.exp(1j * np.outer(targets + grid_from.L, freqs))
    vals = phases @ coeffs
    return amp * vals


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


def conjugated_contraction(p: ModelParams, gap_data: bool = True) -> MonodromyResult:
    """Weight-conjugated contraction of the hyperbolic model monodromy.

    Builds M and the weight exponentials exp(+-s G^w), and applies the
    conjugated map Mtilde = exp(-s G^w) M exp(+s G^w) factor by factor to
    the N x r basis of the microlocalized subspace (the N x N Mtilde is
    never formed); reports the restricted norm r of Mtilde there.  r < 1
    is the contraction; at s = 0 the map stays unitary and r = 1.  The
    unconjugated gap min Re<(I - M)u, u> on the subspace transported from
    the h-calculus (position width sqrt(hbar_tilde/h), momentum width its
    inverse) is recorded for the h-sweep fit.
    """
    m = build_hyperbolic_monodromy(p)
    defect = unitarity_defect(m)
    gw = escape_weight(p)
    w_minus = op_exponential(gw, -p.s)
    w_plus = op_exponential(gw, +p.s)
    basis = microlocal_basis(p.grid)
    r = restricted_norm(w_minus @ (m @ (w_plus @ basis)))
    gap_val = 0.0
    rank = basis.shape[1]
    if gap_data:
        gap_val, rank = unconjugated_gap(p, m=m)
    return MonodromyResult(
        h=p.h, hbar_tilde=p.hbar_tilde, s=p.s,
        norm_conjugated=r, gap_constant=0.0, gap_exponent=0.0,
        unitarity_defect=defect, subspace_rank=rank, gap_value=gap_val,
    )


def unconjugated_gap(p: ModelParams, m: np.ndarray | None = None,
                     width_cap: float | None = None):
    """Gap of the unconjugated monodromy on h-microlocalized states.

    States with unit phase-space concentration in the h-calculus transport
    under the zoom to position width sqrt(hbar_tilde/h) and momentum width
    sqrt(h/hbar_tilde) on the rescaled grid; the gap is the smallest
    restricted eigenvalue of Herm(I - M) on that subspace.  Widths are
    capped at L/4 so the cutoff tails stay inside the window.
    """
    if m is None:
        m = build_hyperbolic_monodromy(p)
    wx = math.sqrt(p.hbar_tilde / p.h)
    if width_cap is None:
        width_cap = p.grid.L / 4.0
    wx = min(wx, width_cap)
    wxi = 1.0 / math.sqrt(p.hbar_tilde / p.h)
    basis = microlocal_basis(p.grid, width_x=wx, width_xi=wxi, sv_tol=1e-4)
    return restricted_gap(m, basis), basis.shape[1]


def fit_gap_exponent(h_values, gap_values):
    """Least-squares fit of gap(h) = C^-1 h^N in log-log coordinates.
    Returns (C, N)."""
    h_values = np.asarray(h_values, dtype=float)
    gap_values = np.asarray(gap_values, dtype=float)
    if np.any(gap_values <= 0):
        raise ValueError("gap values must be positive for the log-log fit")
    if h_values.size < 2:
        return float(1.0 / gap_values[0]), 0.0
    slope, intercept = np.polyfit(np.log(h_values), np.log(gap_values), 1)
    return float(np.exp(-intercept)), float(slope)


def contraction_sweep(h_values, lam: float = 1.0, s: float = DEFAULT_WEIGHT,
                      hbar_tilde: float = DEFAULT_HBAR_TILDE,
                      grid: PhaseGrid | None = None,
                      gap_grid: PhaseGrid | None = None) -> list:
    """Run conjugated_contraction over an h-sweep and attach the fitted
    spectral-gap law Re<(I - M)u, u> >= C^-1 h^N to every row."""
    if grid is None:
        grid = PhaseGrid(L=16.0, N=512, hbar=hbar_tilde)
    if gap_grid is None:
        gap_grid = PhaseGrid(L=48.0, N=512, hbar=hbar_tilde)
    h_values = [float(h) for h in h_values]
    # the rescaled stretch generator is the same matrix for every h (the
    # quantization parameter cancels in the model), so the conjugated norm
    # and the gap-grid monodromy are computed once
    base = conjugated_contraction(
        ModelParams(lam=lam, h=h_values[0], hbar_tilde=hbar_tilde, s=s, grid=grid),
        gap_data=False,
    )
    m_gap = build_hyperbolic_monodromy(
        ModelParams(lam=lam, h=h_values[0], hbar_tilde=hbar_tilde, s=s, grid=gap_grid)
    )
    results = []
    gaps = []
    for h in h_values:
        p_gap = ModelParams(lam=lam, h=h, hbar_tilde=hbar_tilde, s=s, grid=gap_grid)
        gap_val, rank = unconjugated_gap(p_gap, m=m_gap)
        results.append(replace(base, h=h, gap_value=gap_val, subspace_rank=rank))
        gaps.append(gap_val)
    c, n_exp = fit_gap_exponent(h_values, gaps)
    return [replace(r, gap_constant=c, gap_exponent=n_exp) for r in results]


# ---------------------------------------------------------------------------
# elliptic model
# ---------------------------------------------------------------------------

def rotation_generator(alpha: float, grid: PhaseGrid):
    """Quantized rotation symbol (alpha/2)(x^2 + xi^2) on the h-grid: the
    (read-only) matrix of a real symbol, exactly Hermitian as quantized."""
    return quantize(lambda x, xi: 0.5 * alpha * (x ** 2 + xi ** 2), grid,
                    symbol_tag=f"rotation alpha={alpha}").matrix
