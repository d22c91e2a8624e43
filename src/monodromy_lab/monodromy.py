"""Model monodromy operators on a phase-space grid.

The hyperbolic model quantizes the stretch generator lambda*x*xi; after
the two-parameter rescaling its time-one map is
M = exp(-i lambda (X Xi)^w / hbar_tilde), unitary on the grid.
Conjugating by the exponential of the quantized escape weight turns
unitarity into a strict contraction on states concentrated near the
origin; this module measures that contraction rate, and per h the gap
min Re<(I - M)u, u> on states microlocalized in the h-calculus.  (x xi)^w
generates dilations, so the gap is the same for every h up to grid
resolution.

h cancels from M, so every operator here reads its one hbar, hbar_tilde,
as grid.hbar; h enters only gap_basis, through the widths of the
h-microlocalized states.

The microlocalized states are the range of the Gaussian cutoff
A = g_x(x) g_xi(hbar D) with widths (a, b).  A A^T has the Mehler kernel
exp(-alpha (x^2 + y^2) + 2 beta x y), beta = b^2 / (4 hbar^2),
alpha = 1 / (2 a^2) + beta, so A has singular values sigma_0 q^(n/2),
q = beta / (alpha + sqrt(alpha^2 - beta^2)), on the Hermite functions
phi_n(sqrt(gamma) x) at scale gamma = 2 sqrt(alpha^2 - beta^2).  The
range at tolerance tau is spanned by the first floor(2 ln tau / ln q) + 1
of them; the basis is read off a thin N x n factor of sampled Hermite
functions, never off the dense N x N cutoff.

The elliptic model enters through its quantized rotation generator
(alpha/2)(x^2 + xi^2), whose eigenvectors are the Hermite functions
(hermite_rows); the ladder residuals are measured against it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .weyl import GridError, PhaseGrid, cutoff_range, op_exponential, quantize


def build_hyperbolic_monodromy(lam: float, grid: PhaseGrid) -> np.ndarray:
    """Time-one map M = exp(-i lambda (X Xi)^w / hbar_tilde) of the stretch
    generator, hbar_tilde = grid.hbar; unitary to rounding accuracy."""
    return op_exponential(quantize(lambda x, xi: x * xi, grid), -1.0j * lam / grid.hbar)


def unitarity_defect(m: np.ndarray) -> float:
    """||M^H M - I||_2, read off the spectrum of the Hermitian defect."""
    herm = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.abs(np.linalg.eigvalsh(herm)).max())


def escape_weight(grid: PhaseGrid) -> np.ndarray:
    """Quantization of the hyperbolic escape weight
    (1/2) log((1 + X^2)/(1 + Xi^2)) on the rescaled grid.  The symbol is
    real and even in Xi, so its Weyl kernel is real symmetric float64."""
    return quantize(lambda x, xi: 0.5 * (np.log1p(x ** 2) - np.log1p(xi ** 2)), grid).matrix


def microlocal_basis(grid: PhaseGrid, width_x: float = 1.0,
                     width_xi: float | None = None,
                     sv_tol: float = 1e-6) -> np.ndarray:
    """Orthonormal basis of the microlocalized subspace: the numerical
    range of the Gaussian cutoff g_x(x) g_xi(hbar D) with widths
    (width_x, width_xi), at relative singular-value tolerance sv_tol.

    The range is taken from the N x n Mehler factor whose column k is the
    Hermite function phi_k(sqrt(gamma) x) scaled by q^(k/2) (see the
    module notes for alpha, beta, q and gamma).  n = floor(2 ln sv_tol /
    ln q) + 3 is the rank plus two spare columns; a grid with fewer than n
    points cannot hold the subspace and is refused with GridError before
    anything is allocated, as is a width_x or hbar whose square underflows.
    """
    if width_xi is None:
        width_xi = width_x
    if not (width_x ** 2 > 0.0 and grid.hbar ** 2 > 0.0):  # alpha and beta divide by them
        raise GridError(f"width_x = {width_x!r} or hbar = {grid.hbar!r} squares to zero")
    beta = width_xi ** 2 / (4.0 * grid.hbar ** 2)
    alpha = 1.0 / (2.0 * width_x ** 2) + beta
    root = math.sqrt(alpha ** 2 - beta ** 2)
    q = beta / (alpha + root)
    if not 0.0 < q < 1.0:  # a subnormal hbar or width rounds q off (0, 1)
        raise GridError(f"the microlocal subspace has Mehler ratio q = {q!r}, "
                        f"outside (0, 1) in floating point")
    n = math.floor(2.0 * math.log(sv_tol) / math.log(q)) + 3
    if n > grid.N:
        raise GridError(f"the microlocal subspace needs {n} Hermite modes, "
                        f"more than the N = {grid.N} grid points hold")
    rows = itertools.islice(hermite_rows(math.sqrt(2.0 * root) * grid.x), n)
    factor = np.array(list(rows)).T * q ** (0.5 * np.arange(n))
    return cutoff_range(factor, sv_tol=sv_tol)


def restricted_norm(image: np.ndarray) -> float:
    """sup ||M u|| / ||u|| over u in the span of an orthonormal basis B,
    read off the image M B."""
    return float(np.linalg.norm(image, 2))


def restricted_gap(m: np.ndarray, basis: np.ndarray) -> float:
    """min Re<(I - M) u, u> / ||u||^2 over u in the span of the basis."""
    block = basis.conj().T @ m @ basis
    herm = np.eye(block.shape[0]) - 0.5 * (block + block.conj().T)
    return float(np.linalg.eigvalsh(herm)[0])


def conjugated_contraction(lam: float, s: float, grid: PhaseGrid) -> tuple[float, float]:
    """Weight-conjugated contraction of the hyperbolic model monodromy.

    Builds the N x r basis of the microlocalized subspace first, so a grid
    that cannot hold it is refused before any factorization.  Then builds
    M and the weight exponentials exp(+-s G^w), and applies the conjugated
    map Mtilde = exp(-s G^w) M exp(+s G^w) factor by factor to the basis
    (the N x N Mtilde is never formed).  Returns the restricted norm r of
    Mtilde there and the unitarity defect of M.  r < 1 is the contraction;
    at s = 0 the map stays unitary and r = 1.
    """
    basis = microlocal_basis(grid)
    m = build_hyperbolic_monodromy(lam, grid)
    defect = unitarity_defect(m)
    gw = escape_weight(grid)
    w_minus = op_exponential(gw, -s)
    w_plus = op_exponential(gw, +s)
    return restricted_norm(w_minus @ (m @ (w_plus @ basis))), defect


def gap_basis(h: float, grid: PhaseGrid) -> np.ndarray:
    """Basis of the states microlocalized in the h-calculus.

    States with unit phase-space concentration in the h-calculus transport
    under the zoom to position width sqrt(hbar_tilde/h) and momentum width
    sqrt(h/hbar_tilde) on the rescaled grid, hbar_tilde = grid.hbar.  The
    position width is capped at L/4 so the cutoff tails stay inside the
    window.
    """
    zoom = math.sqrt(grid.hbar / h)
    return microlocal_basis(grid, width_x=min(zoom, grid.L / 4.0),
                            width_xi=1.0 / zoom, sv_tol=1e-4)


def unconjugated_gap(m: np.ndarray, basis: np.ndarray):
    """Gap of the unconjugated monodromy M on h-microlocalized states: the
    smallest restricted eigenvalue of Herm(I - M) on the span of `basis`
    (gap_basis at that h).  Returns (gap, subspace rank).
    """
    return restricted_gap(m, basis), basis.shape[1]


def contraction_sweep(h_values, lam: float, s: float, grid: PhaseGrid,
                      gap_grid: PhaseGrid) -> tuple:
    """(r, defect, [(gap, rank) per h]): the conjugated norm and unitarity
    defect on `grid`, which no h changes, and per h the unconjugated gap
    and its subspace rank on `gap_grid`.

    The gap bases are built first and conjugated_contraction builds its
    basis before it factorizes: bases are cheap, and a grid that cannot
    hold one is refused with GridError before any N x N factorization.
    """
    gap_bases = [gap_basis(h, gap_grid) for h in h_values]
    r, defect = conjugated_contraction(lam, s, grid)
    m_gap = build_hyperbolic_monodromy(lam, gap_grid)
    return r, defect, [unconjugated_gap(m_gap, b) for b in gap_bases]


# ---------------------------------------------------------------------------
# elliptic model
# ---------------------------------------------------------------------------

def rotation_generator(alpha: float, grid: PhaseGrid):
    """Quantized rotation symbol (alpha/2)(x^2 + xi^2) on the h-grid: the
    (read-only) float64 matrix of a real symbol even in xi, real symmetric."""
    return quantize(lambda x, xi: 0.5 * alpha * (x ** 2 + xi ** 2), grid).matrix


def hermite_rows(y: np.ndarray):
    """Yield the normalized Hermite functions phi_0(y), phi_1(y), ..., the
    eigenbasis of the rotation generator, with phi_k(y) = H_k(y) e^{-y^2/2}
    / sqrt(2^k k! sqrt(pi)), by the stable three-term recurrence; two rows
    are held at a time."""
    phi_prev = np.pi ** -0.25 * np.exp(-y ** 2 / 2.0)
    yield phi_prev
    phi = math.sqrt(2.0) * y * phi_prev
    for k in itertools.count(1):
        yield phi
        phi, phi_prev = (
            math.sqrt(2.0 / (k + 1)) * y * phi - math.sqrt(k / (k + 1)) * phi_prev,
            phi,
        )
