"""Hermite quasimodes and eigenvalue ladders for the elliptic model.

The exact ladder enumerates z = (alpha/2)(2 beta + 1) h + 2 pi k h inside
the window |z| <= c0 h^(1/m).  The perturbed ladder takes the section-map
quantization condition

    2 z - zeta_beta = 2 pi k h,    zeta_beta = h sum_j lambda_j (2 beta_j + 1),

at constant rates lambda_j, whose root is the closed form
z = (zeta_beta + 2 pi k h) / 2.  Note the normalization: at the model rate
lambda = alpha/2 the direct ladder is exactly twice the root, 2 z_root =
z_direct, entry by entry.  A ladder is numpy columns sorted by z, built one
k at a time from arrays; the counting sweep reads the exact ladder's count.
Known defect: the perturbed beta lattice is capped from the window at k = 0
alone, so for k < 0 it drops window points past the cap (ROADMAP item 1
moves the benchmark pin with the fix).  Ladder entries are certified by the
residual of their quasimode on the transverse grid, whose hbar is h: the
time factor e^{i 2 pi k t} is an exact eigenfunction of h D_t.  Without a grid,
`ladder_grid` covers the top mode's disc at its Weyl count.  Certify, then
refuse: the grid holds the ladder when every residual is <= RESIDUAL_TOL.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
    if size > MAX_LATTICE_POINTS:
        raise LadderSizeError(f"ladder work of {size:.3g} lattice points "
                              f"exceeds MAX_LATTICE_POINTS = {MAX_LATTICE_POINTS}")


def _by_z(chunks: list, modes: int) -> list:
    """Per-k chunks (k, beta, z, residual) joined in k order, sorted stably by z."""
    empty = (np.empty(0, int), np.empty((0, modes), int), np.empty(0), np.empty(0))
    columns = [np.concatenate(c) for c in zip(empty, *chunks)]
    order = np.argsort(columns[2], kind="stable")
    return [c[order] for c in columns]


def exact_model_ladder(alpha, h: float, m_exponent: float, c0: float) -> QuasimodeLadder:
    """All (k, beta) with z = (alpha/2)(2 beta + 1) h + 2 pi k h inside the
    window |z| <= c0 h^(1/m), one arange of beta per k; residuals are zero
    at continuum level.  Empty windows give an empty (valid) ladder; a window
    past MAX_LATTICE_POINTS is refused with LadderSizeError, and values that
    collide at 1e-12 resolution with LadderError."""
    alpha = float(alpha)
    if h <= 0 or alpha <= 0:
        raise ValueError("alpha and h must be positive")
    zmax = c0 * h ** (1.0 / m_exponent)
    kmax = k_window(h, m_exponent, c0)
    # each k admits at most 2 zmax / (alpha h) + 1 values of b
    _check_lattice((2 * kmax + 1) * (2.0 * zmax / (alpha * h) + 1.0))
    chunks = []
    for k in range(-kmax, kmax + 1):
        base = 2.0 * math.pi * k * h
        # (alpha/2)(2b+1)h in [-zmax - base, zmax - base], b >= 0
        hi = (zmax - base) / (alpha * h)
        if hi < 0.5:
            continue
        lo = (-zmax - base) / (alpha * h)
        b = np.arange(max(0, int(math.ceil(lo - 0.5))), int(math.floor(hi - 0.5 + 1e-15)) + 1)
        z = 0.5 * alpha * (2 * b + 1) * h + base
        keep = np.abs(z) <= zmax * (1.0 + 1e-15)
        z = z[keep]
        chunks.append((np.full(z.size, k), b[keep, None], z, np.zeros(z.size)))
    k, beta, z, residual = _by_z(chunks, 1)
    collide = np.diff(z) < 1e-12 * np.maximum(1.0, np.abs(z[:-1]))
    if collide.any():
        a, b = map(float, z[np.argmax(collide):][:2])
        raise LadderError(f"ladder values {a!r} and {b!r} collide at 1e-12 resolution")
    return QuasimodeLadder(m_exponent, c0, h, k, beta, z, residual)


def perturbed_ladder(lam0, h: float, m_exponent: float, c0: float) -> QuasimodeLadder:
    """Closed-form roots z = (zeta + 2 pi k h) / 2 of the section-map
    quantization condition at constant rates lam0, one per transverse mode,
    with zeta = h sum_j lam0[j] (2 beta_j + 1).

    Each beta_j runs up to floor((2 zmax / (h min lam0) - 1) / 2) + 1 for
    every k; a lattice past MAX_LATTICE_POINTS is refused with
    LadderSizeError before it is built.  The beta lattice and its zeta are
    built once, as arrays; each k keeps the points with |z| <= c0 h^(1/m),
    with the residual |2 z - zeta - 2 pi k h|.
    """
    zmax = c0 * h ** (1.0 / m_exponent)
    kmax = k_window(h, m_exponent, c0)
    lam_h = h * min(lam0)
    b_span = max(0.0, (2.0 * zmax / lam_h - 1.0) / 2.0) if lam_h > 0 else math.inf
    _check_lattice(b_span)  # as a float first: a subnormal rate makes it inf
    b_cap = int(b_span) + 1
    _check_lattice((2 * kmax + 1) * (b_cap + 1) ** len(lam0))
    # rows beta_j in itertools.product order; zeta adds the modes in turn from
    # 0.0, so every z rounds as a scalar sum would
    lattice = np.indices((b_cap + 1,) * len(lam0)).reshape(len(lam0), -1)
    acc = 0.0
    for lam, b in zip(lam0, lattice):
        acc = acc + lam * (2 * b + 1)
    zeta = h * acc
    chunks = []
    for k in range(-kmax, kmax + 1):
        base = 2.0 * math.pi * k * h
        z = 0.5 * (zeta + base)
        keep = np.abs(z) <= zmax
        z = z[keep]
        chunks.append((np.full(z.size, k), lattice[:, keep].T, z,
                       np.abs(2.0 * z - zeta[keep] - base)))
    return QuasimodeLadder(m_exponent, c0, h, *_by_z(chunks, len(lam0)))


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
