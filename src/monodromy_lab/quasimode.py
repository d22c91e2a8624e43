"""Hermite quasimodes and eigenvalue ladders for the elliptic model.

The exact ladder enumerates z = (alpha/2)(2 beta + 1) h + 2 pi k h inside
the window |z| <= c0 h^(1/m).  The perturbed ladder takes the closed-form
root z = (zeta + 2 pi k h) / 2 of the section-map quantization condition
2 z - zeta = 2 pi k h, zeta = h sum_j lambda_j (2 beta_j + 1), at constant
rates lambda_j; at the model rate lambda = alpha/2 the exact ladder is twice
the root, entry by entry.  Both are one lattice z = (zeta + c 2 pi k h) / 2,
which `_enumerate` builds (c = 2 at rate alpha, c = 1 at rates lambda) as
numpy columns sorted by z, one beta box per k; the counting sweep reads the
exact ladder's count.  Known defect: `perturbed_ladder` passes it a cap,
every beta_j at its k = 0 bound, so for k < 0 it drops window points past
the cap (ROADMAP item 11).  Ladder entries are certified by the residual of
their quasimode on the transverse grid, whose hbar is h: the time factor
e^{i 2 pi k t} is an exact eigenfunction of h D_t.  `certify_ladder` sizes
that grid with `ladder_grid`, the top mode's disc at its Weyl count, and
refuses the ladder unless every residual is <= RESIDUAL_TOL.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .monodromy import hermite_rows, rotation_generator
from .weyl import GridError, PhaseGrid

# lattice points one ladder enumeration may visit; checked before the
# enumeration starts
MAX_LATTICE_POINTS = 10 ** 7


class LadderError(ValueError):
    pass


class LadderSizeError(LadderError):
    """The (k, beta) lattice points exceed MAX_LATTICE_POINTS."""


# ---------------------------------------------------------------------------
# Hermite modes
# ---------------------------------------------------------------------------

def hermite_mode(beta: int, grid: PhaseGrid) -> np.ndarray:
    """Sampled Hermite mode h^(-1/4) H_beta(x / sqrt(h)) e^(-x^2 / 2h) at
    h = grid.hbar as a real float64 vector, renormalized to unit L2 norm on
    the grid.  Any beta is sampled, since its certified residual judges the
    grid; a mode the grid samples as zero is refused with GridError."""
    if beta < 0:
        raise ValueError("Hermite indices must be nonnegative")
    h = grid.hbar
    vals = next(itertools.islice(hermite_rows(grid.x / math.sqrt(h)), beta, None))
    vals = vals * h ** -0.25
    norm = math.sqrt(float(np.sum(vals ** 2) * grid.dx))
    if not norm > 0:
        raise GridError(f"the grid samples Hermite mode {beta} as zero")
    return vals / norm


# ---------------------------------------------------------------------------
# Ladders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuasimodeLadder:
    """Ladder entries as numpy columns sorted by z; beta is count x modes."""

    m_exponent: float
    c0: float
    h: float
    k: np.ndarray
    beta: np.ndarray
    z: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        zmax = self.c0 * self.h ** (1.0 / self.m_exponent)
        outside = np.abs(self.z) > zmax * (1.0 + 1e-12)
        if outside.any():
            raise LadderError(f"ladder entry z={float(self.z[outside.argmax()])!r} "
                              f"falls outside |z| <= {zmax!r}")

    @property
    def count(self) -> int:
        return self.z.size


def k_window(h: float, m_exponent: float, c0: float) -> int:
    """Integer window |k| <= c0 h^(1/m - 1) / pi, sized so the k-term stays
    within twice the z-window; past MAX_LATTICE_POINTS, LadderSizeError."""
    window = c0 * h ** (1.0 / m_exponent - 1.0) / math.pi
    _check_lattice(window)  # as a float first: an infinite window cannot be floored
    return math.floor(window)


def _check_lattice(size) -> None:
    if not size <= MAX_LATTICE_POINTS:  # a nan size is refused too
        raise LadderSizeError(f"ladder work of {size:.3g} lattice points "
                              f"exceeds MAX_LATTICE_POINTS = {MAX_LATTICE_POINTS}")


def _enumerate(rates, c: int, h: float, m_exponent: float, c0: float,
               cap: float = math.inf) -> list:
    """Columns (k, beta, z, residual), sorted stably by z, of the lattice points
    z = (zeta + c 2 pi k h) / 2, zeta = h sum_j rates[j] (2 beta_j + 1), with k
    in the k window and |z| <= zmax (1 + 1e-15); residual |2 z - zeta - c 2 pi k h|.
    Each k's box holds beta_j <= (2 zmax - c 2 pi k h) / (2 h rates[j]) - 1/2, one
    spare for rounding, and `cap`; past MAX_LATTICE_POINTS visits, LadderSizeError."""
    zmax = c0 * h ** (1.0 / m_exponent)
    kmax = k_window(h, m_exponent, c0)

    def boxes(ks):  # the bases c 2 pi k h, and each k's points per mode
        bases = c * (2.0 * math.pi * ks * h)
        with np.errstate(all="ignore"):  # a subnormal rate gives inf, or nan
            tops = np.floor((2.0 * zmax - bases[:, None]) / (2.0 * h * np.array(rates)) - 0.5)
        return bases, np.maximum(np.minimum(tops + 1.0, cap) + 1.0, 0.0)

    # before any per-k array: their length, and k = -kmax's box, the widest
    _check_lattice(max(float(np.prod(boxes(np.array([-kmax]))[1])), 2 * kmax + 1))
    ks = np.arange(-kmax, kmax + 1)
    bases, sizes = boxes(ks)
    _check_lattice(float(np.prod(sizes, axis=1).sum()))
    chunks = []
    for k, base, box in zip(ks.tolist(), bases.tolist(), sizes.astype(int).tolist()):
        # rows beta_j in itertools.product order; zeta adds the modes in turn
        # from 0.0, so every z rounds as a scalar sum would
        beta = np.indices(box).reshape(len(rates), -1)
        acc = 0.0
        for rate, b in zip(rates, beta):
            acc = acc + rate * (2 * b + 1)
        zeta = h * acc
        z = 0.5 * (zeta + base)
        keep = np.abs(z) <= zmax * (1.0 + 1e-15)
        z = z[keep]
        chunks.append((np.full(z.size, k), beta[:, keep].T, z,
                       np.abs(2.0 * z - zeta[keep] - base)))
    columns = [np.concatenate(c) for c in zip(*chunks)]
    order = np.argsort(columns[2], kind="stable")
    return [c[order] for c in columns]


def exact_model_ladder(alpha, h: float, m_exponent: float, c0: float) -> QuasimodeLadder:
    """All (k, beta) with z = (alpha/2)(2 beta + 1) h + 2 pi k h in the window
    |z| <= c0 h^(1/m): the lattice at rate alpha and c = 2, whose z equals that
    sum bit for bit (doubling is exact), with zero residuals at continuum level.
    An empty window gives an empty (valid) ladder; values that collide at 1e-12
    of the window are refused with LadderError, past MAX_LATTICE_POINTS with
    LadderSizeError."""
    alpha = float(alpha)
    if h <= 0 or alpha <= 0:
        raise ValueError("alpha and h must be positive")
    k, beta, z, _ = _enumerate([alpha], 2, h, m_exponent, c0)
    collide = np.diff(z) < 1e-12 * c0 * h ** (1.0 / m_exponent)
    if collide.any():
        a, b = map(float, z[np.argmax(collide):][:2])
        raise LadderError(f"ladder values {a!r} and {b!r} collide at 1e-12 resolution")
    return QuasimodeLadder(m_exponent, c0, h, k, beta, z, np.zeros(z.size))


def perturbed_ladder(lam0, h: float, m_exponent: float, c0: float) -> QuasimodeLadder:
    """Closed-form roots z = (zeta + 2 pi k h) / 2 of the section-map
    quantization condition at constant rates lam0, one per transverse mode,
    with zeta = h sum_j lam0[j] (2 beta_j + 1) and the residual
    |2 z - zeta - 2 pi k h|: the lattice at rates lam0 and c = 1.

    Known defect: every beta_j is capped at its k = 0 bound
    floor((2 zmax / (h min lam0) - 1) / 2) + 1, for every k.
    """
    zmax = c0 * h ** (1.0 / m_exponent)
    lam_h = h * min(lam0)
    cap = np.floor(max(0.0, (2.0 * zmax / lam_h - 1.0) / 2.0)) + 1 if lam_h > 0 else math.inf
    return QuasimodeLadder(m_exponent, c0, h, *_enumerate(lam0, 1, h, m_exponent, c0, cap))


# ---------------------------------------------------------------------------
# Residual certification on the transverse grid
# ---------------------------------------------------------------------------

# the largest residual a certified ladder entry may have, on any grid
RESIDUAL_TOL = 1e-8
GRID_MARGIN = 8  # ground-state widths sqrt(h) ladder_grid adds past the top mode


def residual_certify(k: int, beta: int, z: float, alpha: float,
                     grid: PhaseGrid) -> float:
    """Residual of the lattice-mode quasimode u(t, x) = e^{i 2 pi k t}
    v_beta(x) under the model operator h D_t + Q - z on the period-one
    time circle times the transverse grid, at h = grid.hbar.

    For ladder-quantized z the residual sits at discretization level; a
    detuned z + delta reports |delta| exactly, a useful diagnostic rather
    than an error.
    """
    v = hermite_mode(beta, grid)
    q = rotation_generator(alpha, grid)
    # h D_t acts on e^{i 2 pi k t} as 2 pi k h exactly, for every k, so the
    # residual reduces to the transverse factor and needs no time grid
    t_phase = 2.0 * math.pi * k * grid.hbar
    resid_vec = (q @ v) + (t_phase - z) * v
    return float(np.sqrt(np.sum(resid_vec ** 2) * grid.dx))


def ladder_grid(ladder: QuasimodeLadder) -> PhaseGrid:
    """L = R = sqrt(h (2 beta + 1)) + GRID_MARGIN sqrt(h) at the top beta, N the
    least power of two >= 2 R^2 / (pi h); pi h N / (2 L) then covers R too."""
    h, top = ladder.h, int(ladder.beta.max(initial=0))
    radius = math.sqrt(h * (2 * top + 1)) + GRID_MARGIN * math.sqrt(h)
    count = math.ceil(2.0 * radius * radius / (math.pi * h))
    return PhaseGrid(L=radius, N=1 << (count - 1).bit_length(), hbar=h)


def certify_ladder(ladder: QuasimodeLadder,
                   alpha: float) -> tuple[PhaseGrid, QuasimodeLadder]:
    """`ladder_grid(ladder)` and the ladder with every residual certified on
    it at the model rate alpha.  Certify, then refuse: GridError names the
    worst residual, or the first nan, when it is not <= RESIDUAL_TOL."""
    grid = ladder_grid(ladder)  # refused past MAX_GRID_N before any residual
    ks, betas = ladder.k.tolist(), ladder.beta[:, 0].tolist()
    residual = np.array([residual_certify(k, beta, z, alpha, grid)
                         for k, beta, z in zip(ks, betas, ladder.z.tolist())])
    worst = np.append(residual, 0.0)  # an empty window passes any grid
    i = int(np.argmax(worst))  # the largest residual, or the first nan
    if not worst[i] <= RESIDUAL_TOL:
        raise GridError(f"grid: certified residual {worst[i]:.3g} at (k, beta) = "
                        f"({ks[i]}, {betas[i]}) exceeds RESIDUAL_TOL = {RESIDUAL_TOL:g}")
    return grid, replace(ladder, residual=residual)
