import cmath
import contextlib
import json
import math

import numpy as np
import pytest
import scipy.linalg

from monodromy_lab import geodesic
from monodromy_lab.geodesic import (
    DOMAIN_BOUND,
    MAX_ROWS,
    MAX_STEPS,
    StepLimitError,
    WarpedMetric,
    geodesic_jacobian,
    hessian_signature,
    integrate,
    poincare_linearization,
    potential_hessian,
)
from monodromy_lab.symplectic import standard_form


def geodesic_rhs(state):
    """First-order geodesic system for state (x, y, z, vx, vy, vz): the array
    form of geodesic._accel."""
    x, y, z, vx, vy, vz = state
    return np.array([vx, vy, vz, *geodesic._accel(y, z, vx, vy, vz)])


# ---------------------------------------------------------------------------
# metric and Christoffel symbols, read off the accelerations
# -Gamma^a_bc v^b v^c of geodesic_rhs
# ---------------------------------------------------------------------------

def test_warp_positive_on_domain():
    ys = np.linspace(-5, 5, 41)
    zs = np.linspace(-5, 5, 41)
    yy, zz = np.meshgrid(ys, zs)
    assert np.all(WarpedMetric.warp(yy, zz) > 0)
    # the polynomial factor attains its minimum 7/8 at z^2 = 1/4
    zmin = np.sqrt(0.25)
    assert WarpedMetric.warp(0.0, zmin) == pytest.approx(7.0 / 8.0)


def test_christoffel_origin_all_zero():
    # Gamma(0, 0) = 0: the accelerations vanish for every velocity
    rng = np.random.default_rng(3)
    for _ in range(20):
        accel = geodesic_rhs([0.0, 0.0, 0.0, *rng.standard_normal(3)])[3:]
        assert all(v == pytest.approx(0.0, abs=1e-15) for v in accel)


def test_christoffel_sample_values():
    # at (y, z) = (1, 0), velocity (1, 0, 0) sees -Gamma^y_xx, (1, 1, 0)
    # adds -2 Gamma^x_xy, and (1, 0, 1) adds -2 Gamma^x_xz
    gamma_yxx = -geodesic_rhs([0.0, 1.0, 0.0, 1.0, 0.0, 0.0])[4]
    assert gamma_yxx == pytest.approx(-math.sinh(1.0) * math.cosh(1.0))
    gamma_xxy = -0.5 * geodesic_rhs([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])[3]
    assert gamma_xxy == pytest.approx(math.tanh(1.0))
    # z-derivative factor 8 z^3 - 2 z vanishes at z = 0
    assert geodesic_rhs([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])[3] == 0.0


def test_christoffel_metric_compatibility():
    # oracle: Levi-Civita formula with finite differences of the metric
    # diag(w^2, 1, 1), contracted with a velocity
    rng = np.random.default_rng(4)
    eps = 1e-6

    def metric(q):
        return np.diag([WarpedMetric.warp(q[1], q[2]) ** 2, 1.0, 1.0])

    for _ in range(100):
        q = rng.uniform(-1.5, 1.5, size=3)
        v = rng.uniform(-1.0, 1.0, size=3)
        dg = np.zeros((3, 3, 3))  # dg[k, i, j] = d_k g_ij
        for k in range(3):
            qp, qm = q.copy(), q.copy()
            qp[k] += eps
            qm[k] -= eps
            dg[k] = (metric(qp) - metric(qm)) / (2 * eps)
        ginv = np.linalg.inv(metric(q))
        gamma_fd = np.zeros((3, 3, 3))
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    gamma_fd[a, b, c] = 0.5 * sum(
                        ginv[a, l] * (dg[b, c, l] + dg[c, b, l] - dg[l, b, c])
                        for l in range(3)
                    )
        accel = geodesic_rhs([*q, *v])[3:]
        assert np.abs(accel + np.einsum("abc,b,c->a", gamma_fd, v, v)).max() <= 1e-7


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def test_rhs_invariant_orbits():
    for z0 in (0.0, 0.5, -0.5):
        state = np.array([0.3, 0.0, z0, 1.0, 0.0, 0.0])
        deriv = geodesic_rhs(state)
        assert np.allclose(deriv, [1.0, 0, 0, 0, 0, 0], atol=1e-14)


def test_rhs_energy_derivative_vanishes():
    # closed-form check: dE/dt = grad E . rhs = 0 along the flow
    rng = np.random.default_rng(5)
    eps = 1e-7
    for _ in range(50):
        state = rng.uniform(-1.0, 1.0, size=6)
        deriv = geodesic_rhs(state)
        grad = np.zeros(6)
        for i in range(6):
            sp, sm = state.copy(), state.copy()
            sp[i] += eps
            sm[i] -= eps
            grad[i] = (WarpedMetric.energy(sp) - WarpedMetric.energy(sm)) / (2 * eps)
        assert abs(grad @ deriv) <= 1e-6 * max(1.0, float(WarpedMetric.energy(state)))


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(6)
    eps = 1e-6
    for _ in range(25):
        state = rng.uniform(-1.0, 1.0, size=6)
        jac = geodesic_jacobian(state)
        fd = np.zeros((6, 6))
        for i in range(6):
            sp, sm = state.copy(), state.copy()
            sp[i] += eps
            sm[i] -= eps
            fd[:, i] = (geodesic_rhs(sp) - geodesic_rhs(sm)) / (2 * eps)
        assert np.abs(jac - fd).max() <= 1e-6


def test_integrate_central_orbit_closes():
    state0 = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    traj, _ = integrate(state0, 1.0, step=1e-4, stride=1000)
    final = traj.states[-1]
    assert np.abs(final[[1, 2, 4, 5]]).max() <= 1e-8
    assert final[0] == pytest.approx(1.0, abs=1e-10)
    assert traj.energy_drift <= 1e-8


def test_integrate_perturbed_orbit_energy_and_moduli():
    # small transverse kick: bounded oscillation in z, exponential growth in y
    state0 = np.array([0.0, 1e-6, 1e-3, 1.0, 0.0, 0.0])
    traj, _ = integrate(state0, 3.0, step=1e-3, stride=10)
    assert traj.energy_drift <= 1e-8
    zmax = np.abs(traj.states[:, 2]).max()
    assert zmax <= 5e-3  # elliptic direction stays bounded
    # hyperbolic direction: dy(t) ~ dy0 cosh(t) at unit rate and dvy(0) = 0
    ygrow = np.abs(traj.states[:, 1]).max() / 1e-6
    assert ygrow == pytest.approx(math.cosh(3.0), rel=0.01)


def test_integrate_time_reversal():
    state0 = np.array([0.0, 0.05, 0.45, 1.0, 0.02, -0.01])
    traj, _ = integrate(state0, 1.0, step=1e-4, stride=10 ** 9)
    turn = traj.states[-1].copy()
    turn[3:] *= -1.0
    back, _ = integrate(turn, 1.0, step=1e-4, stride=10 ** 9)
    final = back.states[-1].copy()
    final[3:] *= -1.0
    assert np.abs(final - state0).max() <= 1e-7


def test_integrate_blowup_guard():
    state0 = np.array([0.0, 2.5, 0.0, 3.0, 4.0, 0.0])
    traj, _ = integrate(state0, 50.0, step=1e-3, stride=100)
    assert traj.truncated
    assert np.abs(traj.states[-1][[1, 2]]).max() > 10.0 - 1.0


def test_integrate_refuses_oversized_runs():
    state0 = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    with pytest.raises(StepLimitError, match="RK4 steps"):
        integrate(state0, 1e12, step=1e-4, stride=100)
    with pytest.raises(StepLimitError):
        integrate(state0, (MAX_STEPS + 1) * 1e-3, step=1e-3, stride=10 ** 9)
    with pytest.raises(StepLimitError):
        integrate(state0, 2 * MAX_ROWS * 1e-3, step=1e-3, stride=1)
    with pytest.raises(ValueError, match="stride"):
        integrate(state0, 1.0, step=1e-3, stride=0)


# ---------------------------------------------------------------------------
# float kernel against the array-based RK4 loop
# ---------------------------------------------------------------------------

def _rhs_reference(state):
    """The geodesic right-hand side written out once more, on numpy scalars."""
    x, y, z, vx, vy, vz = state
    uz = 2.0 * z ** 4 - z ** 2 + 1.0
    up = 8.0 * z ** 3 - 2.0 * z
    return np.array([
        vx,
        vy,
        vz,
        -2.0 * math.tanh(y) * vy * vx - 2.0 * (up / uz) * vz * vx,
        math.sinh(y) * math.cosh(y) * uz ** 2 * vx ** 2,
        up * uz * math.cosh(y) ** 2 * vx ** 2,
    ])


def numpy_rk4(state0, t_final, step, stride):
    """Oracle: RK4 with the state and every stage held in numpy arrays,
    the same step and storage rules as `integrate`.  Returns (t, states,
    truncated)."""
    state = np.asarray(state0, dtype=float).copy()
    n_steps = int(round(t_final / step))
    ts, rows = [0.0], [state.copy()]
    truncated = False
    for i in range(n_steps):
        k1 = _rhs_reference(state)
        k2 = _rhs_reference(state + 0.5 * step * k1)
        k3 = _rhs_reference(state + 0.5 * step * k2)
        k4 = _rhs_reference(state + step * k3)
        state = state + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        truncated = abs(state[1]) > DOMAIN_BOUND or abs(state[2]) > DOMAIN_BOUND
        if truncated or (i + 1) % stride == 0 or i == n_steps - 1:
            ts.append((i + 1) * step)
            rows.append(state.copy())
        if truncated:
            break
    return np.array(ts), np.array(rows), truncated


def _assert_same(got, want, rel):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want)))


# tangent per case: None (no tangent block), "expm" (a rest point of the
# transverse flow, where the tangent is exp(t_final J) against
# scipy.linalg.expm) or "refused" (a moving start, or a rest point outside
# the domain: ValueError before any step); a state at rest outside the
# domain must truncate after its first step, like the oracle.  Times and
# states are bitwise those of the oracle: integrate takes every floating
# point operation of the array loop, on the same operands in the same order
@pytest.mark.parametrize("state0, t_final, step, stride, tangent, truncates", [
    ([0.0, 0.01, 0.05, 1.0, 0.0, 0.0], 0.5, 1e-4, 100, None, False),
    ([0.0, 0.01, 0.05, 1.0, 0.0, 0.0], 5.0, 1e-4, 100, None, False),
    ([0.0, 0.05, 0.45, 1.0, 0.02, -0.01], 1.0, 1e-3, 10, None, False),
    ([0.0, 0.05, 0.45, 1.0, 0.02, -0.01], 1.0, 1e-3, 10, "refused", False),
    ([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 1.0, 1e-3, 10 ** 9, "expm", False),
    ([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 1.0, 1e-4, 10 ** 9, "expm", False),
    ([0.0, 0.0, 0.5, 8.0 / 7.0, 0.0, 0.0], 7.0 / 8.0, 1e-3, 10 ** 9, "expm", False),
    ([0.0, 0.0, -0.5, 8.0 / 7.0, 0.0, 0.0], 7.0 / 8.0, 1e-3, 10 ** 9, "expm", False),
    ([0.0, 0.0, 0.5, 8.0 / 7.0, 0.0, 0.0], 7.0 / 8.0, 1e-3, 10, "expm", False),
    ([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 1.0, 1e-3, 7, None, False),
    ([0.0, 0.3, 0.2, 0.0, 0.0, 0.0], 1.0, 1e-3, 10, None, False),
    ([0.0, 0.3, 0.2, 0.0, 0.0, 0.0], 1.0, 1e-3, 10, "expm", False),
    ([0.0, 2.5, 0.0, 3.0, 4.0, 0.0], 50.0, 1e-3, 100, None, True),
    ([0.0, 11.0, 0.5, 0.0, 0.0, 0.0], 1.0, 1e-3, 10, None, True),
    ([0.0, 0.5, -12.0, 0.0, 0.0, 0.0], 1.0, 1e-3, 10, "refused", True),
], ids=["free", "free_benchmark", "moving", "free_tangent", "orbit_0",
        "orbit_0_step1e-4", "orbit_+half", "orbit_-half", "orbit_+half_stride10",
        "orbit_0_stride7", "rest", "rest_tangent", "truncated", "rest_outside",
        "rest_outside_tangent"])
def test_integrate_matches_numpy_loop(monkeypatch, state0, t_final, step, stride,
                                      tangent, truncates):
    ts, states, truncated = numpy_rk4(state0, t_final, step, stride)
    assert truncated == truncates
    if tangent == "refused":
        # refused before the first step: _accel is never called
        monkeypatch.setattr(geodesic, "_accel", None)
        with pytest.raises(ValueError, match="rest point"):
            integrate(np.array(state0), t_final, step=step, stride=stride,
                      tangent0=np.eye(6))
        return
    traj, tan = integrate(np.array(state0), t_final, step=step, stride=stride,
                          tangent0=None if tangent is None else np.eye(6))
    assert traj.truncated == truncates
    assert np.array_equal(traj.t, ts)
    assert np.array_equal(traj.states, states)
    if tangent == "expm":
        jac = geodesic_jacobian(np.array(state0, dtype=float))
        _assert_same(tan, scipy.linalg.expm(t_final * jac), rel=1e-13)
    else:
        assert tan is None


@pytest.mark.parametrize("state0, t_final, tangent, calls", [
    ([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 1.0, True, 1),
    ([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 2.0, True, 1),
    ([0.0, 0.0, 0.5, 8.0 / 7.0, 0.0, 0.0], 7.0 / 8.0, True, 1),
    ([0.0, 0.05, 0.45, 1.0, 0.02, -0.01], 1.0, True, 0),
    ([0.0, 0.05, 0.45, 1.0, 0.02, -0.01], 1.0, False, 0),
], ids=["orbit_0", "orbit_0_twice", "orbit_+half", "free_tangent", "free"])
def test_integrate_rebuilds_jacobian_only_when_inputs_change(
        monkeypatch, state0, t_final, tangent, calls):
    # a base orbit is a rest point of the transverse flow, so its tangent is
    # exp(t_final J) with J built once, however long the run is; a moving
    # start with a tangent is refused before J is built
    count = []

    def counting_jacobian(state):
        count.append(1)
        return geodesic_jacobian(state)

    monkeypatch.setattr(geodesic, "geodesic_jacobian", counting_jacobian)
    moving = tangent and any(state0[4:])
    with pytest.raises(ValueError) if moving else contextlib.nullcontext():
        integrate(np.array(state0), t_final, step=1e-3, stride=10,
                  tangent0=np.eye(6) if tangent else None)
    assert len(count) == calls


@pytest.mark.parametrize("state0, t_final, tangent, calls", [
    ([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 1.0, True, 5),
    ([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 2.0, True, 5),
    ([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 1.0, False, 4),
    ([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 2.0, False, 4),
    ([0.0, 0.0, 0.5, 8.0 / 7.0, 0.0, 0.0], 7.0 / 8.0, True, 5),
    ([0.0, 0.0, -0.5, 8.0 / 7.0, 0.0, 0.0], 7.0 / 8.0, False, 4),
    ([0.0, 0.05, 0.45, 1.0, 0.02, -0.01], 1.0, False, 4 * 1000),
], ids=["orbit_0_tangent", "orbit_0_twice_tangent", "orbit_0", "orbit_0_twice",
        "orbit_+half_tangent", "orbit_-half", "free"])
def test_integrate_stops_stepping_at_a_fixed_point(monkeypatch, state0, t_final,
                                                   tangent, calls):
    # a base orbit leaves (y, z, vx, vy, vz) bitwise unchanged after its
    # first step, so only that step evaluates the four RK4 stages; a moving
    # state evaluates them every step, and a tangent block adds the one
    # evaluation that confirms the start is a rest point
    count = []
    accel = geodesic._accel

    def counting_accel(*args):
        count.append(1)
        return accel(*args)

    monkeypatch.setattr(geodesic, "_accel", counting_accel)
    traj, _ = integrate(np.array(state0), t_final, step=1e-3, stride=10,
                        tangent0=np.eye(6) if tangent else None)
    assert len(count) == calls
    assert traj.t[-1] == pytest.approx(t_final)


# ---------------------------------------------------------------------------
# Poincare classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("z0", [0.0, 0.5, -0.5])
def test_poincare_matches_analytic_floquet(z0):
    # the base orbit is an equilibrium of the reduced flow, so its transverse
    # monodromy is exp(T J) with T = u(z0): multipliers e^{+-T} (y-mode)
    # and e^{+-T sqrt(u''/u)} (z-mode)
    report = poincare_linearization(z0)
    period = 2.0 * z0 ** 4 - z0 ** 2 + 1.0
    rate_z = cmath.sqrt((24.0 * z0 ** 2 - 2.0) / period)
    got = list(report.multipliers)
    for want in (cmath.exp(period), cmath.exp(-period),
                 cmath.exp(period * rate_z), cmath.exp(-period * rate_z)):
        best = min(got, key=lambda g: abs(g - want))
        assert abs(best - want) <= 1e-9 * abs(want)
        got.remove(best)
    state0 = np.array([0.0, 0.0, z0, 1.0 / period, 0.0, 0.0])
    idx = [1, 2, 4, 5]
    exact = scipy.linalg.expm(period * geodesic_jacobian(state0))[np.ix_(idx, idx)]
    assert np.abs(report.monodromy - exact).max() <= 1e-13


def test_poincare_central_orbit_semi_hyperbolic():
    report = poincare_linearization(0.0)
    assert report.verdict == "semi-hyperbolic"
    mults = np.array(report.multipliers)
    off = mults[np.abs(np.abs(mults) - 1.0) > 1e-4]
    on = mults[np.abs(np.abs(mults) - 1.0) <= 1e-4]
    assert off.size == 2 and on.size == 2
    # real pair e^{+-1}: unit-speed normalization makes the stretch rate 1
    assert np.max(np.abs(off)) == pytest.approx(math.e, rel=1e-6)
    # elliptic pair e^{+-i sqrt(2)}
    angle = abs(np.angle(on[0]))
    assert angle == pytest.approx(math.sqrt(2.0), abs=1e-6)


@pytest.mark.parametrize("z0", [0.5, -0.5])
def test_poincare_side_orbits_hyperbolic(z0):
    report = poincare_linearization(z0)
    assert report.verdict == "hyperbolic"
    mults = np.array(report.multipliers)
    assert np.abs(mults.imag).max() <= 1e-8
    # stretch exponents T and T*sqrt(32/7) with period T = 7/8
    period = 7.0 / 8.0
    expected = sorted([math.exp(period), math.exp(period * math.sqrt(32.0 / 7.0))])
    got = sorted(np.abs(mults[np.abs(mults) > 1.0]))
    assert got == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("z0, signature", [
    (0.0, ("-", "+")), (0.5, ("-", "-")), (-0.5, ("-", "-")),
])
def test_poincare_records_hessian_signature(z0, signature):
    # one negative Hessian direction per multiplier pair off the unit circle
    report = poincare_linearization(z0)
    assert report.hessian_signature == signature
    off = sum(abs(abs(mu) - 1.0) > 1e-4 for mu in report.multipliers) // 2
    assert signature.count("-") == off
    assert json.loads(report.to_json())["hessian_signature"] == list(signature)


def test_poincare_symplectic_pairing():
    for z0 in (0.0, 0.5):
        report = poincare_linearization(z0)
        mults = np.array(report.multipliers)
        assert abs(np.prod(mults) - 1.0) <= 1e-6
        # (mu, 1/mu) pairing
        for mu in mults:
            assert np.min(np.abs(mults - 1.0 / mu)) <= 1e-6 * max(1.0, abs(1.0 / mu))
        assert np.linalg.det(report.monodromy) == pytest.approx(1.0, abs=1e-6)
        assert report.symplectic_defect <= 1e-6


def test_poincare_stable_under_step_halving():
    r1 = poincare_linearization(0.0, step=1e-4)
    r2 = poincare_linearization(0.0, step=5e-5)
    assert r1.verdict == r2.verdict
    m1 = np.sort_complex(np.array(r1.multipliers))
    m2 = np.sort_complex(np.array(r2.multipliers))
    assert np.abs(m1 - m2).max() <= 1e-4


def test_poincare_rejects_non_base_orbit():
    with pytest.raises(ValueError, match="base orbit"):
        poincare_linearization(0.3)


# ---------------------------------------------------------------------------
# effective potential V = w^-2 - 1, built here from the warp factor
# ---------------------------------------------------------------------------

def potential(y, z):
    return WarpedMetric.warp(y, z) ** -2.0 - 1.0


def potential_gradient(y, z, step=1e-20):
    """Complex-step derivatives Im V(q + i step e_k) / step: finite
    differences without cancellation, exact to rounding."""
    return np.array([potential(y + 1j * step, z).imag,
                     potential(y, z + 1j * step).imag]) / step


def test_potential_at_origin():
    assert potential(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_potential_gradient_zeros():
    for z0 in (0.0, 0.5, -0.5):
        assert np.abs(potential_gradient(0.0, z0)).max() <= 1e-14


def test_hessian_signatures():
    assert hessian_signature(0.0, 0.0) == ("-", "+")
    assert hessian_signature(0.0, 0.5) == ("-", "-")
    assert hessian_signature(0.0, -0.5) == ("-", "-")


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(7)
    eps = 1e-5
    for _ in range(40):
        y, z = rng.uniform(-1.0, 1.0, size=2)
        h = potential_hessian(y, z)
        fd = np.zeros((2, 2))
        pts = [(eps, 0), (-eps, 0), (0, eps), (0, -eps)]
        gp = [potential_gradient(y + dy, z + dz) for dy, dz in pts]
        fd[:, 0] = (gp[0] - gp[1]) / (2 * eps)
        fd[:, 1] = (gp[2] - gp[3]) / (2 * eps)
        assert np.abs(h - 0.5 * (fd + fd.T)).max() <= 1e-7
