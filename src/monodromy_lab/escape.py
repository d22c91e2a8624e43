"""Escape function for hyperbolic/elliptic phase-space splittings, its
derivative along quadratic flows, and sampled positivity certificates.

The escape function on R^(2(dim_hyp+dim_ell)) is

    G(X, Xi) = (1/2) log((1 + |X_hyp|^2) / (1 + |Xi_hyp|^2))
               + (i/2) (|X_ell|^2 - |Xi_ell|^2),

with the hyperbolic coordinates leading and the elliptic ones trailing.
Its derivative along the flow of a hyperbolic quadratic generator is
positive away from the origin; `verify_positivity` certifies this by
sampling, streaming the samples in fixed blocks so its memory does not
grow with the sample count, and `diagonal_normal_form` produces the exact
normal form in the diagonal case.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np

from .symplectic import QuadraticHamiltonian, SymplecticMatrix


# rows of samples the positivity certificate evaluates at once
_BLOCK = 1 << 16
# smallest envelope the certificate divides by
_TINY = np.finfo(float).tiny


class EscapeDimensionError(ValueError):
    """Vector length does not match the declared splitting."""


@dataclass(frozen=True)
class EscapeFunction:
    """Phase-space weight with real part on the hyperbolic coordinates and
    imaginary part on the elliptic ones."""

    dim_hyp: int
    dim_ell: int

    @property
    def dim(self) -> int:
        return self.dim_hyp + self.dim_ell

    def _split(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise EscapeDimensionError(
                f"expected a vector of length {self.dim}, got shape {v.shape}"
            )
        return v[: self.dim_hyp], v[self.dim_hyp:]

    def value(self, x, xi) -> complex:
        xh, xe = self._split(x)
        gh, ge = self._split(xi)
        real = 0.5 * np.log((1.0 + xh @ xh) / (1.0 + gh @ gh))
        imag = 0.5 * (xe @ xe - ge @ ge)
        return complex(real, imag)

    def gradient(self, x, xi):
        """Closed-form (d/dX, d/dXi) of G; complex-valued on elliptic slots."""
        xh, xe = self._split(x)
        gh, ge = self._split(xi)
        gx = np.concatenate([xh / (1.0 + xh @ xh), 1j * xe])
        gxi = np.concatenate([-gh / (1.0 + gh @ gh), -1j * ge])
        return gx, gxi


def hamiltonian_action(q: QuadraticHamiltonian, ef: EscapeFunction, x, xi) -> complex:
    """Derivative of the escape function along the flow of the constant-
    coefficient quadratic generator: sum_j dq/dXi_j dG/dX_j - dq/dX_j dG/dXi_j."""
    if q.m != ef.dim:
        raise EscapeDimensionError(
            f"generator has {q.m} modes but escape function has {ef.dim}"
        )
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    m = q.hyp_coeffs
    dq_dx = m.T @ xi        # d<Mx, xi>/dx
    dq_dxi = m @ x          # d<Mx, xi>/dxi
    gx, gxi = ef.gradient(x, xi)
    return complex(dq_dxi @ gx - dq_dx @ gxi)


@dataclass(frozen=True)
class PositivityReport:
    min_ratio: float
    argmin_point: tuple
    samples: int
    radius: float

    def to_json(self) -> str:
        return json.dumps({
            "min_ratio": self.min_ratio,
            "argmin_point": list(self.argmin_point),
            "samples": self.samples,
            "radius": self.radius,
        })


def _hyperbolic_reduction(q: QuadraticHamiltonian) -> np.ndarray:
    """Coefficient matrix of q restricted to its hyperbolic modes (the
    elliptic modes carry no stretch and are dropped)."""
    hyp_slots = np.flatnonzero(q.ah_coeffs == 0.0)
    m = q.hyp_coeffs
    ell_slots = np.flatnonzero(q.ah_coeffs != 0.0)
    if ell_slots.size:
        coupling = max(np.abs(m[ell_slots, :]).max(initial=0.0),
                       np.abs(m[:, ell_slots]).max(initial=0.0))
        if coupling > 1e-12 * max(1.0, np.linalg.norm(m)):
            raise ValueError("generator couples hyperbolic and elliptic modes")
    return m[np.ix_(hyp_slots, hyp_slots)]


def _sample_blocks(rng: np.random.Generator, samples: int, radius: float,
                   dim: int):
    """Yield the certificate's points in blocks of at most _BLOCK rows: the
    ball samples, then the radial sweep.  `rng` hands out the same draws
    in the same order as one draw of every array would."""
    directions = copy.deepcopy(rng)
    sizes = [min(_BLOCK, samples - start) for start in range(0, samples, _BLOCK)]
    for size in sizes:
        rng.standard_normal((size, dim))
    for size in sizes:
        pts = directions.standard_normal((size, dim))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        pts *= (radius * rng.uniform(0.0, 1.0, size=size) ** (1.0 / dim))[:, None]
        yield pts
    sweep_dirs = rng.standard_normal((64, dim))
    sweep_dirs /= np.linalg.norm(sweep_dirs, axis=1)[:, None]
    sweep_radii = np.geomspace(1e-2, 1e3, 40)
    yield (sweep_dirs[:, None, :] * sweep_radii[None, :, None]).reshape(-1, dim)


def verify_positivity(q: QuadraticHamiltonian, samples: int, radius: float,
                      rng: np.random.Generator) -> PositivityReport:
    """Sampled lower bound for Re(H_q G) against the saturating envelope
    |X|^2/(1+|X|^2) + |Xi|^2/(1+|Xi|^2) on the hyperbolic modes.

    The generator is first restricted to its hyperbolic modes (elliptic
    modes contribute nothing to the stretch).  Points are drawn uniformly
    from the ball of the given radius, plus a log-spaced radial sweep out
    to 1e3 to probe the large-argument asymptotics.  A nonpositive ratio is
    reported with its witness point; for hyperbolic generators the ratio
    must stay positive.  A sample whose Re(H_q G) or envelope is not finite,
    or whose envelope falls below the smallest normal float, raises
    ValueError rather than being dropped; every sample counts.

    Draw order on `rng`: samples x dim standard normals (the directions,
    row after row), then `samples` uniform radii, then 64 x dim normals for
    the sweep directions; `rng` ends where one draw of each array would
    leave it.  The samples stream in blocks of _BLOCK rows (a copy of `rng`
    replays the directions, `rng` skips them once and then hands out each
    block's radii), so memory stays a few _BLOCK x dim arrays whatever
    `samples` is.  The first minimum wins, as with one argmin.
    """
    m_red = _hyperbolic_reduction(q)
    n_h = m_red.shape[0]
    if n_h == 0:
        raise ValueError("generator has no hyperbolic modes to certify")

    min_ratio, witness, kept = math.inf, None, 0
    for pts in _sample_blocks(rng, samples, radius, 2 * n_h):
        x = pts[:, :n_h]
        xi = pts[:, n_h:]
        # vectorized Re(H_q G): <M x, x/(1+|x|^2)> + <M xi, xi/(1+|xi|^2)>;
        # overflow is checked below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            x_norm2 = np.einsum("ij,ij->i", x, x)
            xi_norm2 = np.einsum("ij,ij->i", xi, xi)
            num = (np.einsum("ij,ij->i", x @ m_red.T, x) / (1.0 + x_norm2)
                   + np.einsum("ij,ij->i", xi @ m_red.T, xi) / (1.0 + xi_norm2))
            env = x_norm2 / (1.0 + x_norm2) + xi_norm2 / (1.0 + xi_norm2)
        if not (np.isfinite(num).all() and np.isfinite(env).all()):
            raise ValueError("Re(H_q G) or its envelope is not finite at a "
                             f"sample of the ball of radius {radius:g}")
        # the ratio is a Rayleigh quotient, well conditioned down to the
        # smallest normal envelope; below it the quotient is not computable
        if env.min() < _TINY:
            raise ValueError("the envelope underflows at a sample of the "
                             f"ball of radius {radius:g}")
        kept += env.size
        ratios = num / env
        idx = int(np.argmin(ratios))
        if witness is None or ratios[idx] < min_ratio:
            min_ratio, witness = float(ratios[idx]), pts[idx].copy()
    return PositivityReport(
        min_ratio=min_ratio,
        argmin_point=(tuple(witness[:n_h]), tuple(witness[n_h:])),
        samples=kept,
        radius=radius,
    )


@dataclass(frozen=True)
class EscapeNormalForm:
    """Exact normal form of Re(H_q G) for diagonal hyperbolic generators:
    rates r sorted ascending, positive-definite scalings M, M', and the
    symplectic coordinate change realizing the identity."""

    M: np.ndarray
    Mprime: np.ndarray
    r: np.ndarray
    coord_change: SymplecticMatrix

    def __post_init__(self):
        for arr in (self.M, self.Mprime, self.r):
            arr.setflags(write=False)
        if np.any(np.diff(self.r) < 0):
            raise ValueError("rates r must be sorted ascending")
        for name, mat in (("M", self.M), ("Mprime", self.Mprime)):
            lo = float(np.linalg.eigvalsh(mat).min())
            if lo <= 0:
                raise ValueError(f"{name} must be positive definite (min eig {lo:.3e})")

    def rhs(self, x, xi) -> float:
        """sum r_j^-2 x_j^2 / (1 + |M x|^2) + sum r_j^-2 xi_j^2 / (1 + |M' xi|^2)."""
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        w = self.r ** -2.0
        mx = self.M @ x
        mxi = self.Mprime @ xi
        return float((w * x ** 2).sum() / (1.0 + mx @ mx)
                     + (w * xi ** 2).sum() / (1.0 + mxi @ mxi))


class UnsupportedShapeError(ValueError):
    """Generator is not of the diagonal positive form; use verify_positivity
    for the sampled certificate instead."""


def diagonal_normal_form(q: QuadraticHamiltonian) -> EscapeNormalForm:
    """Exact escape normal form for q = sum lambda_j x_j xi_j, lambda_j > 0.

    In these coordinates Re(H_q G) already has the normal-form shape with
    unit scalings: the rates are r_j = lambda_j^(-1/2) and the coordinate
    change is the mode permutation sorting them ascending.
    """
    m = q.hyp_coeffs
    n = q.m
    offdiag = m - np.diag(np.diag(m))
    if np.linalg.norm(offdiag) > 1e-12 * max(1.0, np.linalg.norm(m)):
        raise UnsupportedShapeError(
            "generator couples modes; the constructive normal form covers the "
            "diagonal case only -- use verify_positivity for the sampled check"
        )
    lam = np.diag(m).copy()
    if np.any(lam <= 0) or np.count_nonzero(q.ah_coeffs):
        raise UnsupportedShapeError(
            "diagonal normal form requires strictly positive rates on every mode"
        )
    rates = lam ** -0.5
    order = np.argsort(rates, kind="stable")
    # x = perm @ x_new routes sorted-mode i onto original mode order[i]
    perm = np.zeros((n, n))
    perm[order, np.arange(n)] = 1.0
    coord = np.zeros((2 * n, 2 * n))
    coord[:n, :n] = perm
    coord[n:, n:] = perm
    return EscapeNormalForm(
        M=np.eye(n), Mprime=np.eye(n), r=rates[order],
        coord_change=SymplecticMatrix.from_array(coord),
    )
