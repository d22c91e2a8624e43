"""Sampled positivity certificate for the escape function of a quadratic
generator.

On R^(2(dim_hyp+dim_ell)), hyperbolic coordinates leading and elliptic
ones trailing, the escape function is

    G(X, Xi) = (1/2) log((1 + |X_hyp|^2) / (1 + |Xi_hyp|^2))
               + (i/2) (|X_ell|^2 - |Xi_ell|^2).

Along the flow of the stretch generator <M x, xi> on the hyperbolic modes
its real part has the derivative

    Re(H_q G) = <M x, x> / (1 + |x|^2) + <M xi, xi> / (1 + |xi|^2),

which is positive away from the origin for a hyperbolic generator.
`verify_positivity` certifies this by sampling, one block of _BLOCK draws
at a time, so its memory does not grow with the sample count.
`EscapeFunction` evaluates G itself and its closed-form gradient.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .symplectic import QuadraticHamiltonian


# rows of samples the positivity certificate draws and evaluates at once: a
# dim-6 block of normals is 384 KiB, so the few block arrays stay in a 2 MiB
# L2 cache; larger blocks only raise the peak memory
_BLOCK = 1 << 13
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
    """Yield the certificate's points as (g, rho) blocks of at most _BLOCK
    rows, the point of row i being g_i rho_i / |g_i|: the ball samples
    (per block, its normals g and then its radii rho), then the radial
    sweep (64 normal directions, each at 40 log-spaced radii)."""
    for start in range(0, samples, _BLOCK):
        size = min(_BLOCK, samples - start)
        g = rng.standard_normal((size, dim))
        yield g, radius * rng.uniform(0.0, 1.0, size=size) ** (1.0 / dim)
    sweep_radii = np.geomspace(1e-2, 1e3, 40)
    yield np.repeat(rng.standard_normal((64, dim)), 40, axis=0), np.tile(sweep_radii, 64)


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

    Draw order on `rng`: per block of _BLOCK rows, size x dim standard
    normals and then `size` uniforms for the radii rho = radius U^(1/dim);
    after the last block, 64 x dim normals for the sweep directions.  Each
    sample is drawn once and evaluated off its raw normal g: with
    s = rho^2/|g|^2 the ratio is sum(a s/(1 + n s)) / sum(n s/(1 + n s))
    over the x and xi halves, n = |g_half|^2 and a = <M g_half, g_half>, so
    no scaled point is built and M = I gives exactly 1.  Only the few
    block arrays are live, so memory stays O(_BLOCK) whatever `samples`
    is.  The first minimum wins, as with one argmin.
    """
    m_red = _hyperbolic_reduction(q)
    n_h = m_red.shape[0]
    if n_h == 0:
        raise ValueError("generator has no hyperbolic modes to certify")

    dim = 2 * n_h
    # g @ blockdiag(M^T, M^T) is (M g_x, M g_xi); `halves` sums each half
    m_both = np.zeros((dim, dim))
    m_both[:n_h, :n_h] = m_both[n_h:, n_h:] = m_red.T
    halves = np.zeros((dim, 2))
    halves[:n_h, 0] = halves[n_h:, 1] = 1.0
    min_ratio, witness, kept = math.inf, None, 0
    for g, rho in _sample_blocks(rng, samples, radius, dim):
        # overflow is checked below, not warned about
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            n = (g * g) @ halves
            a = (g @ m_both * g) @ halves
            s = (rho * rho / n.sum(axis=1))[:, None]
            n, a = n * s, a * s
            num = (a / (1.0 + n)).sum(axis=1)
            env = (n / (1.0 + n)).sum(axis=1)
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
            min_ratio = float(ratios[idx])
            witness = g[idx] * (rho[idx] / np.linalg.norm(g[idx]))
    return PositivityReport(
        min_ratio=min_ratio,
        argmin_point=(tuple(witness[:n_h]), tuple(witness[n_h:])),
        samples=kept,
        radius=radius,
    )
