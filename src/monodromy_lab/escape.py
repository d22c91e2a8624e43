"""Sampled positivity certificate for the escape function of a stretch
generator.

The generator is q = <M x, xi> on R^(2 m_h): the hyperbolic modes of a
classified map, in its adapted coordinates with rescaled Jordan chains
(`symplectic.build_quadratic_hamiltonian`), or M = diag(rates).  The
elliptic modes carry no stretch and are not sampled, so the escape
function is its real part on the hyperbolic modes,

    Re G(x, xi) = (1/2) log((1 + |x|^2) / (1 + |xi|^2)),

whose derivative along the flow of q is

    Re(H_q G) = <M x, x> / (1 + |x|^2) + <M xi, xi> / (1 + |xi|^2),

positive away from the origin when the symmetric part of M is positive
definite.  `verify_positivity` certifies this by sampling, _BLOCK draws at
a time in one in-place pass, so memory does not grow with the sample count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


# rows of samples the certificate draws and evaluates at once.  The draw
# order, so every certificate, depends on it.  A dim-6 block peaks at 1.6 MiB
# traced; blocks of 2^11 .. 2^16 rows take the same time (Xeon, 4 MiB L2)
_BLOCK = 1 << 13
# smallest envelope the certificate divides by
_TINY = np.finfo(float).tiny


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
        }, allow_nan=False)


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


def verify_positivity(m: np.ndarray, samples: int, radius: float,
                      rng: np.random.Generator) -> PositivityReport:
    """Sampled lower bound for Re(H_q G), q = <M x, xi> with M the m_h x m_h
    matrix `m`, against the saturating envelope
    |x|^2/(1+|x|^2) + |xi|^2/(1+|xi|^2), over points drawn uniformly from
    the ball of the given radius in R^(2 m_h) and a log-spaced radial sweep
    out to 1e3.  The minimum ratio, at least the smallest eigenvalue of the
    symmetric part of M, is reported with its witness (x, xi) in the
    coordinates M is written in; the first minimum wins.  A 0 x 0
    generator is refused, and a sample whose Re(H_q G) or envelope is not
    finite, or whose envelope is below the smallest normal float, raises
    ValueError: every sample counts.

    Draw order on `rng`: per block of _BLOCK rows, size x dim standard
    normals and then `size` uniforms for the radii rho = radius U^(1/dim);
    after the last block, 64 x dim normals for the sweep directions.  A
    sample is evaluated off its raw normal g: with s = rho^2/|g|^2 the
    ratio is sum(a s/(1 + n s)) / sum(n s/(1 + n s)) over the x and xi
    halves, n = |g_half|^2 and a = <M g_half, g_half>, so M = I gives
    exactly 1.  The size x 2 arrays n and a are scaled and divided by
    1 + n s in place and their columns added: besides g and rho, only these
    three and the size-long s, sums and ratios are live, O(_BLOCK) memory.
    """
    n_h = m.shape[0]
    if n_h == 0:
        raise ValueError("generator has no hyperbolic modes to certify")

    dim = 2 * n_h
    # g @ blockdiag(M^T, M^T) is (M g_x, M g_xi); `halves` sums each half
    m_both = np.zeros((dim, dim))
    m_both[:n_h, :n_h] = m_both[n_h:, n_h:] = m.T
    halves = np.zeros((dim, 2))
    halves[:n_h, 0] = halves[n_h:, 1] = 1.0
    min_ratio, witness, kept = math.inf, None, 0
    for g, rho in _sample_blocks(rng, samples, radius, dim):
        # overflow is checked below, not warned about
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            n = (g * g) @ halves
            a = (g @ m_both * g) @ halves
            s = (rho * rho / (n[:, 0] + n[:, 1]))[:, None]
            n *= s
            a *= s
            d = 1.0 + n
            a /= d
            n /= d
            num, env = a[:, 0] + a[:, 1], n[:, 0] + n[:, 1]
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
        argmin_point=(tuple(map(float, witness[:n_h])),
                      tuple(map(float, witness[n_h:]))),
        samples=kept,
        radius=radius,
    )
