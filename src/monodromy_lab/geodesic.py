"""Geodesic flow on the warped product (R/Z)_x x R_y x R_z with metric
diag(w^2, 1, 1), w(y, z) = cosh(y) (2 z^4 - z^2 + 1).

Three closed geodesics run along the x-circle at (y, z) = (0, 0) and
(0, +-1/2).  The module integrates the flow with fixed-step RK4 and
classifies the transverse monodromy of the closed orbits through its
Floquet multipliers.  The accelerations never read x, so a state whose
(y, z, vx, vy, vz) one RK4 step leaves bitwise unchanged is a fixed point
of the transverse flow: every later step repeats the same x increment,
which is then added without retaking the stages.  Each closed orbit is
such a rest point, where the variational equation X' = J X has the
constant coefficient J = geodesic_jacobian(state0), so its tangent map
over time t is exp(t J) in closed form.  The Hessian signature of the
effective potential w^-2 - 1 at the orbit is a second verdict that needs
no integration: one negative direction at the semi-hyperbolic orbit
z = 0, two at the hyperbolic pair z = +-1/2.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .symplectic import _expm, symplectic_defect

DOMAIN_BOUND = 10.0
# work and storage one integrate call may take; larger runs are refused
MAX_STEPS = 10 ** 7
MAX_ROWS = 10 ** 6
BASE_Z = (0.0, 0.5, -0.5)
# a Floquet multiplier farther than this from the unit circle is off it
MULTIPLIER_TOL = 1e-4

VERDICT_SEMI_HYPERBOLIC = "semi-hyperbolic"
VERDICT_HYPERBOLIC = "hyperbolic"
VERDICT_ELLIPTIC = "elliptic"


class StepLimitError(ValueError):
    """An integration would exceed MAX_STEPS steps or MAX_ROWS stored rows."""


def _u(z):
    return 2.0 * z ** 4 - z ** 2 + 1.0


def _u_prime(z):
    return 8.0 * z ** 3 - 2.0 * z


def _u_second(z):
    return 24.0 * z ** 2 - 2.0


class WarpedMetric:
    """Closed-form warp factor and the conserved energy."""

    @staticmethod
    def warp(y, z):
        return np.cosh(y) * _u(z)

    @staticmethod
    def energy(state):
        """g(v, v) along the trajectory; conserved by the flow."""
        state = np.asarray(state, dtype=float)
        w = WarpedMetric.warp(state[..., 1], state[..., 2])
        return (w * state[..., 3]) ** 2 + state[..., 4] ** 2 + state[..., 5] ** 2


def _accel(y, z, vx, vy, vz):
    """Accelerations (vx', vy', vz') of the geodesic system."""
    # _u and _u_prime written out: RK4 calls this four times a step, and the
    # same expressions round the same way without the two calls
    uz = 2.0 * z ** 4 - z ** 2 + 1.0
    up = 8.0 * z ** 3 - 2.0 * z
    ch = math.cosh(y)
    vx2 = vx ** 2
    return (-2.0 * math.tanh(y) * vy * vx - 2.0 * (up / uz) * vz * vx,
            math.sinh(y) * ch * uz ** 2 * vx2,
            up * uz * ch ** 2 * vx2)


def geodesic_jacobian(state):
    """Closed-form Jacobian of the first-order geodesic system for state
    (x, y, z, vx, vy, vz), whose accelerations are _accel."""
    x, y, z, vx, vy, vz = state
    uz = _u(z)
    up = _u_prime(z)
    upp = _u_second(z)
    ty = math.tanh(y)
    ch = math.cosh(y)
    sech2 = 1.0 / ch ** 2
    shch = math.sinh(y) * ch
    ch2 = ch ** 2
    ratio = up / uz
    dratio_dz = (upp * uz - up * up) / uz ** 2
    vx2 = vx ** 2
    return np.fromiter((
        0.0, 0.0, 0.0, 1.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0, 1.0, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0, 1.0,
        # d(vx')/d(...)
        0.0, -2.0 * sech2 * vy * vx, -2.0 * dratio_dz * vz * vx,
        -2.0 * ty * vy - 2.0 * ratio * vz, -2.0 * ty * vx, -2.0 * ratio * vx,
        # d(vy')/d(...)
        0.0, math.cosh(2.0 * y) * uz ** 2 * vx2, 2.0 * shch * uz * up * vx2,
        2.0 * shch * uz ** 2 * vx, 0.0, 0.0,
        # d(vz')/d(...)
        0.0, 2.0 * up * uz * shch * vx2, (upp * uz + up * up) * ch2 * vx2,
        2.0 * up * uz * ch2 * vx, 0.0, 0.0,
    ), float, 36).reshape(6, 6)


@dataclass
class Trajectory:
    t: np.ndarray
    states: np.ndarray       # shape (n, 6): columns x, y, z, vx, vy, vz
    energy: np.ndarray
    truncated: bool = False

    @property
    def energy_drift(self) -> float:
        return float(np.abs(self.energy - self.energy[0]).max())


def integrate(state0, t_final: float, step: float = 1e-4,
              stride: int = 1, tangent0=None):
    """Fixed-step fourth-order Runge-Kutta integration of the geodesic
    flow; the state and the RK4 stages are Python floats, and the stages
    carry only the transverse components (y, z, vx, vy, vz) the
    accelerations read.  x advances by the weighted sum of the stage
    velocities vx.

    A step that leaves (y, z, vx, vy, vz) bitwise unchanged has reached a
    fixed point of the transverse flow: the stages never read x, so every
    later step would repeat its stage inputs and its x increment.  The
    remaining steps are then not taken; the saved x increment is added
    once per step, rounding as the steps would.

    A tangent block tangent0 is carried only from a rest point of the
    transverse flow inside the domain (vy = vz = 0 and zero
    accelerations), where it is exp(t_final J) tangent0 in closed form,
    J = geodesic_jacobian(state0); any other start is refused with
    ValueError before the first step.

    Blows past |y| or |z| > 10 truncate the trajectory with a flag, fixed
    point or not.  Runs past MAX_STEPS steps or MAX_ROWS stored rows are
    refused with StepLimitError.  Returns (Trajectory, tangent_final)."""
    if step <= 0 or stride < 1:
        raise ValueError("step and stride must be positive")
    ratio = t_final / step
    # bounded as a float first: a subnormal step makes the ratio infinite
    n_steps = int(round(ratio)) if ratio <= MAX_STEPS + 0.5 else MAX_STEPS + 1
    if n_steps > MAX_STEPS or n_steps // stride > MAX_ROWS:
        raise StepLimitError(f"{ratio:.6g} RK4 steps at stride {stride} exceed "
                             f"{MAX_STEPS} steps or {MAX_ROWS} stored rows")
    x, y, z, vx, vy, vz = (float(v) for v in np.asarray(state0, dtype=float))
    tangent = None
    if tangent0 is not None:
        # the domain first: _accel overflows far outside it
        if not (abs(y) <= DOMAIN_BOUND and abs(z) <= DOMAIN_BOUND
                and vy == vz == 0.0 and not any(_accel(y, z, vx, vy, vz))):
            raise ValueError("a tangent block needs a rest point of the "
                             "transverse flow inside the domain")
        jac = geodesic_jacobian((x, y, z, vx, vy, vz))
        tangent = _expm(t_final * jac) @ np.asarray(tangent0, dtype=float)
    half, sixth = 0.5 * step, step / 6.0
    # looked up once per call: the step loop reads them as locals
    accel, bound, last = _accel, DOMAIN_BOUND, n_steps - 1
    pack = struct.Struct("5d").pack
    states = np.empty((n_steps // stride + 2, 6))
    states[0] = x, y, z, vx, vy, vz
    ts = [0.0]
    truncated = fixed = False
    for i in range(n_steps):
        if fixed:
            x += dx
        else:
            ax1, ay1, az1 = accel(y, z, vx, vy, vz)
            vx2, vy2, vz2 = vx + half * ax1, vy + half * ay1, vz + half * az1
            ax2, ay2, az2 = accel(y + half * vy, z + half * vz, vx2, vy2, vz2)
            vx3, vy3, vz3 = vx + half * ax2, vy + half * ay2, vz + half * az2
            ax3, ay3, az3 = accel(y + half * vy2, z + half * vz2, vx3, vy3, vz3)
            vx4, vy4, vz4 = vx + step * ax3, vy + step * ay3, vz + step * az3
            ax4, ay4, az4 = accel(y + step * vy3, z + step * vz3, vx4, vy4, vz4)
            dx = sixth * (vx + 2 * vx2 + 2 * vx3 + vx4)
            x += dx
            y1 = y + sixth * (vy + 2 * vy2 + 2 * vy3 + vy4)
            z1 = z + sixth * (vz + 2 * vz2 + 2 * vz3 + vz4)
            vx1 = vx + sixth * (ax1 + 2 * ax2 + 2 * ax3 + ax4)
            vy1 = vy + sixth * (ay1 + 2 * ay2 + 2 * ay3 + ay4)
            vz1 = vz + sixth * (az1 + 2 * az2 + 2 * az3 + az4)
            truncated = abs(y1) > bound or abs(z1) > bound
            # == short-circuits on a moving state; the bytes tell 0.0 from -0.0
            fixed = (not truncated and y1 == y and z1 == z and vx1 == vx
                     and vy1 == vy and vz1 == vz
                     and pack(y1, z1, vx1, vy1, vz1) == pack(y, z, vx, vy, vz))
            y, z, vx, vy, vz = y1, z1, vx1, vy1, vz1
        if truncated or (i + 1) % stride == 0 or i == last:
            states[len(ts)] = x, y, z, vx, vy, vz
            ts.append((i + 1) * step)
        if truncated:
            break
    states = states[:len(ts)]
    traj = Trajectory(t=np.array(ts), states=states,
                      energy=WarpedMetric.energy(states), truncated=truncated)
    return traj, tangent


@dataclass(frozen=True)
class PoincareReport:
    base_z: float
    period: float
    multipliers: tuple
    verdict: str
    hessian_signature: tuple
    closure_residual: float
    symplectic_defect: float
    monodromy: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.monodromy.setflags(write=False)

    def to_json(self) -> str:
        return json.dumps({
            "base_z": self.base_z,
            "period": self.period,
            "multipliers": [[m.real, m.imag] for m in self.multipliers],
            "verdict": self.verdict,
            "hessian_signature": list(self.hessian_signature),
            "closure_residual": self.closure_residual,
            "symplectic_defect": self.symplectic_defect,
            "monodromy": [list(row) for row in self.monodromy],
        }, allow_nan=False)


def _classify_multipliers(mults):
    """Verdict and the number of multiplier pairs off the unit circle."""
    n_off = sum(1 for mu in mults if abs(abs(mu) - 1.0) > MULTIPLIER_TOL)
    pairs_off, pairs_on = n_off // 2, (len(mults) - n_off) // 2
    if pairs_off and pairs_on:
        return VERDICT_SEMI_HYPERBOLIC, pairs_off
    if pairs_off:
        return VERDICT_HYPERBOLIC, pairs_off
    return VERDICT_ELLIPTIC, pairs_off


def poincare_linearization(z0: float, step: float = 1e-4) -> PoincareReport:
    """Transverse linearization of one of the three closed geodesics.

    The section is the hypersurface x = x0 (mod 1) with transverse
    coordinates (y, z, vy, vz).  The orbit starts at unit energy,
    vx0 = 1 / w(0, z0), so the return time is the x-period T = 1 / vx0.
    The orbit is a rest point of the transverse flow, so its monodromy is
    exp(T J) in closed form (see integrate), whatever the step; the 4 x 4
    transverse block is extracted and its multipliers come in symplectic
    pairs (mu, 1/mu).  The Hessian signature of the
    effective potential at (0, z0) must count one "-" per pair off the
    unit circle, or ValueError is raised.
    """
    if min(abs(z0 - b) for b in BASE_Z) > 1e-12:
        raise ValueError(f"base orbit must have z0 in {BASE_Z}, got {z0}")
    w0 = float(WarpedMetric.warp(0.0, z0))
    vx0 = 1.0 / w0
    period = 1.0 / vx0
    state0 = np.array([0.0, 0.0, z0, vx0, 0.0, 0.0])
    traj, tangent = integrate(state0, period, step=step, stride=10 ** 9,
                              tangent0=np.eye(6))
    closure = float(np.linalg.norm(traj.states[-1][[1, 2, 4, 5]]
                                   - state0[[1, 2, 4, 5]]))
    if closure > 1e-6:
        raise ValueError(f"orbit failed to close: residual {closure:.3e}")
    # transverse block in (y, z, vy, vz)
    idx = [1, 2, 4, 5]
    mono = tangent[np.ix_(idx, idx)]
    mults = np.linalg.eigvals(mono)
    order = np.argsort(-np.abs(mults))
    mults = mults[order]
    defect = symplectic_defect(mono)
    verdict, pairs_off = _classify_multipliers(mults)
    # the base orbits sit at y = 0, where the potential gradient vanishes
    # exactly, so (0, z0) is the critical point to read the signature at
    signature = hessian_signature(0.0, z0)
    if signature.count("-") != pairs_off:
        raise ValueError(
            f"Hessian signature {signature} at z0 = {z0} disagrees with the "
            f"{verdict} verdict ({pairs_off} multiplier pairs off the unit circle)"
        )
    return PoincareReport(
        base_z=z0, period=period, multipliers=tuple(complex(m) for m in mults),
        verdict=verdict, hessian_signature=signature, closure_residual=closure,
        symplectic_defect=defect, monodromy=mono,
    )


def potential_hessian(y, z):
    """Closed-form second derivatives of the effective potential."""
    uz = _u(z)
    up = _u_prime(z)
    upp = _u_second(z)
    sech2 = 1.0 / math.cosh(y) ** 2
    ty = math.tanh(y)
    # V = sech(y)^2 u(z)^-2 - 1
    v_yy = (4.0 * ty ** 2 - 2.0 * sech2) * sech2 * uz ** -2.0
    v_zz = sech2 * (6.0 * up ** 2 * uz ** -4.0 - 2.0 * upp * uz ** -3.0)
    v_yz = (-2.0 * sech2 * ty) * (-2.0 * uz ** -3.0 * up)
    return np.array([[v_yy, v_yz], [v_yz, v_zz]])


def hessian_signature(y: float, z: float) -> tuple:
    """Signs of the Hessian eigenvalues at a critical point."""
    evals = np.linalg.eigvalsh(potential_hessian(y, z))
    return tuple("+" if e > 0 else "-" for e in evals)
