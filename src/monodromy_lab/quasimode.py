"""Hermite quasimodes and eigenvalue ladders for the elliptic model.

The exact ladder enumerates z = (alpha/2)(2 beta + 1) h + 2 pi k h inside
the window |z| <= c0 h^(1/m).  The perturbed ladder solves the section-map
quantization condition

    2 z - zeta_beta(z) = 2 pi k h,
    zeta_beta(z) = h sum_j lambda_j(z) (2 beta_j + 1)
                   + sum_{l>=1} z^l Q_l(h (2 beta + 1)),

by staged successive substitution; stage increments shrink like
h^((j+1)/m).  Note the normalization: feeding the model rate
lambda(z) = alpha/2 with no corrections makes the direct ladder exactly
twice the solved root, z_direct = 2 * z_root, entry by entry.  Ladder
entries are certified by the residual of their quasimode on the transverse
grid, whose hbar is h: the time factor e^{i 2 pi k t} is an exact
eigenfunction of h D_t.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .weyl import PhaseGrid

# lattice point stages one ladder enumeration may visit; checked before the
# enumeration starts
MAX_LATTICE_POINTS = 10 ** 7
# stage-increment bound of perturbed_ladder, in units of its h-power scale
DIVERGENCE_MARGIN = 50.0


class LadderError(ValueError):
    pass


class LadderDivergenceError(LadderError):
    """A stage increment violated the h^((j+1)/m) magnitude ladder."""


class LadderSizeError(LadderError):
    """The (k, beta) lattice points times the stages each runs exceed
    MAX_LATTICE_POINTS."""


class GridCapacityError(ValueError):
    """Hermite index not resolvable on the grid."""


# ---------------------------------------------------------------------------
# Hermite modes
# ---------------------------------------------------------------------------

def hermite_rows(y: np.ndarray):
    """Yield the normalized Hermite functions phi_0(y), phi_1(y), ... with
    phi_k(y) = H_k(y) e^{-y^2/2} / sqrt(2^k k! sqrt(pi)), by the stable
    three-term recurrence; two rows are held at a time."""
    phi_prev = np.pi ** -0.25 * np.exp(-y ** 2 / 2.0)
    yield phi_prev
    phi = math.sqrt(2.0) * y * phi_prev
    for k in itertools.count(1):
        yield phi
        phi, phi_prev = (
            math.sqrt(2.0 / (k + 1)) * y * phi - math.sqrt(k / (k + 1)) * phi_prev,
            phi,
        )


def hermite_values(beta: int, y: np.ndarray) -> np.ndarray:
    """The Hermite function phi_beta(y), row beta of hermite_rows(y)."""
    return next(itertools.islice(hermite_rows(y), beta, None))


def grid_capacity(grid: PhaseGrid) -> int:
    """Largest resolvable Hermite index at h = grid.hbar: the classical
    turning point sqrt(h (2 beta + 1)) must stay inside a quarter window."""
    return int(((grid.L ** 2 / 4.0) / grid.hbar - 1.0) / 2.0)


def hermite_mode(beta: int, grid: PhaseGrid) -> np.ndarray:
    """Sampled Hermite mode h^(-1/4) H_beta(x / sqrt(h)) e^(-x^2 / 2h) at
    h = grid.hbar as a complex vector, renormalized to unit L2 norm on the
    grid.

    Refused when beta exceeds the grid capacity.
    """
    if beta < 0:
        raise ValueError("Hermite indices must be nonnegative")
    h = grid.hbar
    cap = grid_capacity(grid)
    if beta > cap:
        raise GridCapacityError(
            f"Hermite index {beta} exceeds grid capacity {cap} "
            f"(need h(2 beta + 1) <= L^2/4)"
        )
    vals = hermite_values(beta, grid.x / math.sqrt(h)) * h ** -0.25
    vals = vals.astype(complex)
    norm = math.sqrt(float(np.sum(np.abs(vals) ** 2) * grid.dx))
    return vals / norm


# ---------------------------------------------------------------------------
# Ladders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderEntry:
    k: int
    beta: tuple
    z: float
    residual: float
    stages: tuple = ()


@dataclass(frozen=True)
class QuasimodeLadder:
    m_exponent: float
    c0: float
    h: float
    entries: tuple

    def __post_init__(self):
        zmax = self.c0 * self.h ** (1.0 / self.m_exponent)
        for e in self.entries:
            if abs(e.z) > zmax * (1.0 + 1e-12):
                raise LadderError(
                    f"ladder entry z={e.z!r} falls outside |z| <= {zmax!r}"
                )

    @property
    def count(self) -> int:
        return len(self.entries)


def k_window(h: float, m_exponent: float, c0: float) -> int:
    """Integer window |k| <= c0 h^(1/m - 1) / pi, sized so the k-term stays
    within twice the z-window; past MAX_LATTICE_POINTS, LadderSizeError."""
    window = c0 * h ** (1.0 / m_exponent - 1.0) / math.pi
    _check_lattice(window)  # as a float first: an infinite window cannot be floored
    return math.floor(window)


def _check_lattice(size) -> None:
    if size > MAX_LATTICE_POINTS:
        raise LadderSizeError(f"ladder work of {size:.3g} lattice point stages "
                              f"exceeds MAX_LATTICE_POINTS = {MAX_LATTICE_POINTS}")


def _dedup_check(entries):
    """Distinctness of ladder values, compared at 1e-12 resolution."""
    zs = sorted(e.z for e in entries)
    for a, b in zip(zs, zs[1:]):
        if b - a < 1e-12 * max(1.0, abs(a)):
            raise LadderError(f"ladder values {a!r} and {b!r} collide at 1e-12 resolution")


def exact_model_ladder(alpha, h: float, m_exponent: float, c0: float) -> QuasimodeLadder:
    """All (k, beta) with z = (alpha/2)(2 beta + 1) h + 2 pi k h inside the
    window |z| <= c0 h^(1/m); residuals are identically zero at continuum
    level.  Empty windows give an empty (valid) ladder; a window past
    MAX_LATTICE_POINTS is refused with LadderSizeError."""
    alpha = float(alpha)
    if h <= 0 or alpha <= 0:
        raise ValueError("alpha and h must be positive")
    zmax = c0 * h ** (1.0 / m_exponent)
    kmax = k_window(h, m_exponent, c0)
    # each k admits at most 2 zmax / (alpha h) + 1 values of b
    _check_lattice((2 * kmax + 1) * (2.0 * zmax / (alpha * h) + 1.0))
    entries = []
    for k in range(-kmax, kmax + 1):
        base = 2.0 * math.pi * k * h
        # (alpha/2)(2b+1)h in [-zmax - base, zmax - base], b >= 0
        hi = (zmax - base) / (alpha * h)
        if hi < 0.5:
            continue
        lo = (-zmax - base) / (alpha * h)
        b_lo = max(0, int(math.ceil(lo - 0.5)))
        b_hi = int(math.floor(hi - 0.5 + 1e-15))
        for b in range(b_lo, b_hi + 1):
            z = 0.5 * alpha * (2 * b + 1) * h + base
            if abs(z) <= zmax * (1.0 + 1e-15):
                entries.append(LadderEntry(k=k, beta=(b,), z=z, residual=0.0))
    _dedup_check(entries)
    entries.sort(key=lambda e: e.z)
    return QuasimodeLadder(m_exponent=m_exponent, c0=c0, h=h, entries=tuple(entries))


def perturbed_ladder(lambda_fns, q_corrections, h: float, m_exponent: float,
                     c0: float, order: int) -> QuasimodeLadder:
    """Staged solution of the section-map quantization condition.

    Parameters
    ----------
    lambda_fns : sequence of callables
        Smooth rates lambda_j(z), one per transverse mode.
    q_corrections : sequence of callables
        Coefficients Q_l(I) of the z-power expansion of the transverse
        eigenvalue, l = 1, 2, ...; each maps the action vector
        I = h (2 beta + 1) to a scalar and must vanish at I = 0.
    order : int
        Number of correction stages beyond stage zero.

    Stage zero solves 2 z = h sum lambda_j(0) (2 beta_j + 1) + 2 pi k h;
    each later stage re-substitutes the current root into the right-hand
    side.  The increment of stage j must obey |dz_j| <= DIVERGENCE_MARGIN
    max(|z0|, h^(1/m)) h^(j/m), of order h^((j+1)/m), or
    LadderDivergenceError is raised.  Entries are kept when the converged
    root lies inside |z| <= c0 h^(1/m).  A lattice whose points times the
    order + 1 stages each runs exceed MAX_LATTICE_POINTS is refused with
    LadderSizeError before enumeration.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    n_modes = len(lambda_fns)
    for l, q in enumerate(q_corrections, start=1):
        at_zero = float(q(np.zeros(n_modes)))
        if abs(at_zero) > 1e-12:
            raise LadderError(f"correction Q_{l} must vanish at I = 0, got {at_zero!r}")
    zmax = c0 * h ** (1.0 / m_exponent)
    kmax = k_window(h, m_exponent, c0)
    lam0 = np.array([float(f(0.0)) for f in lambda_fns])

    def zeta(z, action):
        val = h * float(sum(f(z) * (2 * b + 1)
                            for f, b in zip(lambda_fns, action)))
        iv = h * (2 * np.asarray(action, dtype=float) + 1.0)
        for l, q in enumerate(q_corrections, start=1):
            val += z ** l * float(q(iv))
        return val

    # enumerate the beta lattice per mode from the stage-zero window
    with np.errstate(over="ignore", divide="ignore"):
        b_span = max(0.0, (2.0 * zmax / (h * lam0.min()) - 1.0) / 2.0)
    _check_lattice(b_span)  # as a float first: a subnormal rate makes it inf
    b_cap = int(b_span) + 1
    _check_lattice((2 * kmax + 1) * (b_cap + 1) ** n_modes * (order + 1))
    entries = []
    betas = _beta_lattice(n_modes, b_cap)
    for k in range(-kmax, kmax + 1):
        for beta in betas:
            z0 = 0.5 * (h * float(lam0 @ (2 * np.asarray(beta) + 1.0))
                        + 2.0 * math.pi * k * h)
            if abs(z0) > 2.0 * zmax:
                continue
            stages = [z0]
            z = z0
            for j in range(1, order + 1):
                z_next = 0.5 * (zeta(z, beta) + 2.0 * math.pi * k * h)
                dz = z_next - z
                bound = DIVERGENCE_MARGIN * max(abs(z0), h ** (1.0 / m_exponent)) \
                    * h ** (j / m_exponent)
                if abs(dz) > bound:
                    raise LadderDivergenceError(
                        f"stage {j} increment {dz!r} exceeds "
                        f"{bound!r} at (k={k}, beta={beta})"
                    )
                stages.append(dz)
                z = z_next
            if abs(z) <= zmax:
                residual = abs(2.0 * z - zeta(z, beta) - 2.0 * math.pi * k * h)
                entries.append(LadderEntry(k=k, beta=tuple(beta), z=z,
                                           residual=residual, stages=tuple(stages)))
    entries.sort(key=lambda e: e.z)
    return QuasimodeLadder(m_exponent=m_exponent, c0=c0, h=h, entries=tuple(entries))


def _beta_lattice(n_modes: int, cap: int):
    if n_modes == 1:
        return [(b,) for b in range(cap + 1)]
    smaller = _beta_lattice(n_modes - 1, cap)
    return [(b,) + rest for b in range(cap + 1) for rest in smaller]


# ---------------------------------------------------------------------------
# Residual certification on the transverse grid
# ---------------------------------------------------------------------------

def residual_certify(k: int, beta: int, z: float, alpha: float,
                     grid: PhaseGrid) -> float:
    """Residual of the lattice-mode quasimode u(t, x) = e^{i 2 pi k t}
    v_beta(x) under the model operator h D_t + Q - z on the period-one
    time circle times the transverse grid, at h = grid.hbar.

    For ladder-quantized z the residual sits at discretization level; a
    detuned z + delta reports |delta| exactly, a useful diagnostic rather
    than an error.
    """
    from .monodromy import rotation_generator

    v = hermite_mode(beta, grid)
    q = rotation_generator(alpha, grid)
    # h D_t acts on e^{i 2 pi k t} as 2 pi k h exactly, for every k, so the
    # residual reduces to the transverse factor and needs no time grid
    t_phase = 2.0 * math.pi * k * grid.hbar
    resid_vec = (q @ v) + (t_phase - z) * v
    return float(np.sqrt(np.sum(np.abs(resid_vec) ** 2) * grid.dx))
