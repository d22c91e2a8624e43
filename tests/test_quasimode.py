import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from monodromy_lab.quasimode import (
    GridCapacityError,
    LadderDivergenceError,
    LadderSizeError,
    exact_model_ladder,
    grid_capacity,
    hermite_mode,
    k_window,
    perturbed_ladder,
    residual_certify,
)
from monodromy_lab.weyl import PhaseGrid, quantize

GRID = PhaseGrid(L=1.0, N=512, hbar=1e-3)


def grid_norm(grid, u) -> float:
    """L2 norm of the samples u(x_k) with the quadrature weight dx."""
    return float(np.sqrt(np.sum(np.abs(np.asarray(u)) ** 2) * grid.dx))


# ---------------------------------------------------------------------------
# Hermite modes
# ---------------------------------------------------------------------------

def test_hermite_ground_state():
    h = 0.1
    g = PhaseGrid(L=6.0, N=512, hbar=h)
    v = hermite_mode(0, g)
    expected = (math.pi * h) ** -0.25 * np.exp(-g.x ** 2 / (2 * h))
    assert np.abs(v - expected).max() <= 1e-10
    assert grid_norm(g, v) == pytest.approx(1.0, abs=1e-12)


def test_hermite_parity_orthogonality():
    h = 0.1
    g = PhaseGrid(L=6.0, N=512, hbar=h)
    v0 = hermite_mode(0, g)
    v1 = hermite_mode(1, g)
    assert abs(np.vdot(v0, v1) * g.dx) <= 1e-12


def test_hermite_orthonormal_family():
    h = 0.05
    g = PhaseGrid(L=6.0, N=512, hbar=h)
    modes = [hermite_mode(b, g) for b in range(12)]
    for i in range(12):
        for j in range(12):
            expected = 1.0 if i == j else 0.0
            assert abs(np.vdot(modes[i], modes[j]) * g.dx - expected) <= 1e-10


def test_hermite_oscillator_expectation():
    h = 0.05
    g = PhaseGrid(L=6.0, N=512, hbar=h)
    v5 = hermite_mode(5, g)
    op = quantize(lambda x, xi: x ** 2 + xi ** 2, g)
    val = (v5.conj() @ (op.matrix @ v5)).real * g.dx
    assert val == pytest.approx(11.0 * h, abs=1e-8)


def test_hermite_eigenrelation_invariant():
    h = 0.05
    g = PhaseGrid(L=6.0, N=512, hbar=h)
    op = quantize(lambda x, xi: x ** 2 + xi ** 2, g).matrix
    for b in (0, 3, 8):
        v = hermite_mode(b, g)
        resid = grid_norm(g, op @ v - h * (2 * b + 1) * v)
        assert resid <= 1e-8


def test_hermite_capacity_refused():
    h = 0.1
    g = PhaseGrid(L=2.0, N=256, hbar=h)
    cap = grid_capacity(g)
    with pytest.raises(GridCapacityError, match="capacity"):
        hermite_mode(cap + 1, g)


# ---------------------------------------------------------------------------
# exact ladder
# ---------------------------------------------------------------------------

def brute_force_count(alpha, h, m_exp, c0):
    zmax = c0 * h ** (1.0 / m_exp)
    kmax = k_window(h, m_exp, c0)
    count = 0
    b_cap = int(3.0 * zmax / (alpha * h)) + 2
    for k in range(-kmax, kmax + 1):
        for b in range(0, b_cap):
            z = 0.5 * alpha * (2 * b + 1) * h + 2 * math.pi * k * h
            if abs(z) <= zmax * (1.0 + 1e-15):
                count += 1
    return count


def test_exact_ladder_against_enumeration_oracle():
    for h in (1e-2, 1e-3):
        ladder = exact_model_ladder(1.0, h, 2.0, 1.0)
        assert ladder.count == brute_force_count(1.0, h, 2.0, 1.0)
        zmax = 1.0 * h ** 0.5
        assert all(abs(e.z) <= zmax * (1 + 1e-12) for e in ladder.entries)
        assert all(e.residual == 0.0 for e in ladder.entries)


def test_exact_ladder_entries_closed_form():
    h = 1e-3
    ladder = exact_model_ladder(1.0, h, 2.0, 1.0)
    for e in ladder.entries:
        assert e.z == 0.5 * (2 * e.beta[0] + 1) * h + 2 * math.pi * e.k * h


def test_exact_ladder_empty_window():
    ladder = exact_model_ladder(1.0, 1e-2, 2.0, 0.0)
    assert ladder.count == 0


def test_exact_ladder_monotone_in_window():
    h = 1e-3
    counts = [exact_model_ladder(1.0, h, 2.0, c0).count
              for c0 in (0.25, 0.5, 1.0, 2.0)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    # set inclusion: smaller window is a subset
    small = set((e.k, e.beta) for e in exact_model_ladder(1.0, h, 2.0, 0.5).entries)
    large = set((e.k, e.beta) for e in exact_model_ladder(1.0, h, 2.0, 1.0).entries)
    assert small <= large


def test_exact_ladder_distinct_rational_alpha():
    ladder = exact_model_ladder(Fraction(1), 1e-3, 2.0, 1.0)
    zs = np.array([e.z for e in ladder.entries])
    assert np.unique(zs).size == zs.size


def test_counting_slope_bracket():
    # slope of log N(h) / log(1/h) across three decades
    for h in (1e-2, 1e-3, 1e-4):
        n = exact_model_ladder(1.0, h, 2.0, 1.0).count
        slope = math.log(n) / math.log(1.0 / h)
        assert 0.75 <= slope <= 2.25


# ---------------------------------------------------------------------------
# perturbed ladder
# ---------------------------------------------------------------------------

def test_perturbed_matches_exact_at_zero_corrections():
    # model rate lambda(z) = alpha/2 (the rotation generator coefficient),
    # no corrections: the quantization equation 2z = h alpha (2b+1)/1 ... =
    # zeta + 2 pi k h makes the direct ladder exactly twice the solved root
    alpha, h = 1.0, 1e-3
    pert = perturbed_ladder([lambda z: alpha / 2.0], [], h, 2.0, 1.0, order=0)
    direct = {(e.k, e.beta): e.z for e in exact_model_ladder(alpha, h, 2.0, 2.0).entries}
    assert pert.count > 0
    for e in pert.entries:
        z_direct = direct[(e.k, e.beta)]
        assert 2.0 * e.z == pytest.approx(z_direct, rel=1e-14, abs=1e-18)


def test_perturbed_first_order_increment():
    # single correction Q_1(I) = c I: stage one adds z0 * c * h (2 b + 1) / 2
    alpha, h, c = 1.0, 1e-3, 0.7
    pert = perturbed_ladder([lambda z: alpha], [lambda iv: c * float(iv.sum())],
                            h, 2.0, 1.0, order=1)
    assert pert.count > 0
    for e in pert.entries:
        z0 = e.stages[0]
        z1 = e.stages[1]
        expected = z0 * c * h * (2 * e.beta[0] + 1) / 2.0
        assert z1 == pytest.approx(expected, rel=1e-12, abs=1e-18)


def test_perturbed_against_root_finder_oracle():
    # synthetic z-dependent rate lambda(z) = 1 + z; converged staged roots
    # agree with direct scalar root-finding of 2z - zeta(z) = 2 pi k h
    alpha_fn = lambda z: 1.0 + z
    h = 1e-3
    pert = perturbed_ladder([alpha_fn], [], h, 2.0, 1.0, order=12)
    assert pert.count > 0
    for e in pert.entries:
        b = e.beta[0]

        def eqn(z):
            return 2.0 * z - h * (1.0 + z) * (2 * b + 1) - 2.0 * math.pi * e.k * h

        root = brentq(eqn, -1.0, 1.0, xtol=1e-15)
        assert e.z == pytest.approx(root, abs=1e-10)
        assert e.residual <= 1e-12


def test_perturbed_stage_magnitudes_shrink():
    h = 1e-4
    pert = perturbed_ladder([lambda z: 1.0 + 0.5 * z],
                            [lambda iv: 0.3 * float(iv.sum())],
                            h, 2.0, 1.0, order=3)
    m = 2.0
    for e in pert.entries:
        for j, dz in enumerate(e.stages[1:], start=1):
            assert abs(dz) <= 10.0 * max(abs(e.stages[0]), h ** (1 / m)) * h ** (j / m)


def test_perturbed_divergence_reported():
    # a violently growing correction breaks the magnitude ladder
    with pytest.raises(LadderDivergenceError, match="stage"):
        perturbed_ladder([lambda z: 1.0], [lambda iv: 1e6 * float(iv.sum())],
                         1e-3, 2.0, 1.0, order=2)


def test_perturbed_multi_mode_lattice():
    h = 1e-2
    pert = perturbed_ladder([lambda z: 1.0, lambda z: math.sqrt(2.0)], [],
                            h, 2.0, 1.0, order=0)
    assert pert.count > 0
    assert all(len(e.beta) == 2 for e in pert.entries)


def test_oversized_lattices_refused():
    with pytest.raises(LadderSizeError, match="MAX_LATTICE_POINTS"):
        exact_model_ladder(1.0, 1e-3, 2.0, 1e9)
    with pytest.raises(LadderSizeError):
        perturbed_ladder([lambda z: 0.5, lambda z: 0.7], [], 1e-3, 2.0, 1e9, order=0)
    # the benchmark windows, ~3.2e4 (exact, h = 1e-5) and ~1.2e4 (two
    # modes, h = 1e-3) lattice points, stay admitted
    assert exact_model_ladder(1.0, 1e-5, 2.0, 0.5).count > 0
    assert perturbed_ladder([lambda z: 0.5, lambda z: 0.7], [], 1e-3, 2.0, 0.5,
                            order=0).count > 0


# ---------------------------------------------------------------------------
# residual certification
# ---------------------------------------------------------------------------

def test_residual_quantized_entry():
    alpha, h = 1.0, 1e-3
    r = residual_certify(0, 0, 0.5 * alpha * h, alpha, GRID)
    assert r <= 1e-8


def test_residual_detuned():
    alpha, h = 1.0, 1e-3
    z0 = 0.5 * alpha * 3 * h + 2.0 * math.pi * h  # k=1, beta=1
    for delta in (1e-6, 1e-4, 1e-2):
        r = residual_certify(1, 1, z0 + delta, alpha, GRID)
        assert r == pytest.approx(delta, rel=1e-8)


def test_residual_needs_no_time_grid():
    # h D_t acts on e^{i 2 pi k t} as 2 pi k h for every k: a |k| past any
    # fixed time grid certifies like k = 0
    alpha, h = 100.0, 1e-3
    z = 0.5 * alpha * 3 * h + 2.0 * math.pi * (-33) * h  # k=-33, beta=1
    assert residual_certify(-33, 1, z, alpha, GRID) <= 1e-8
    assert residual_certify(-33, 1, z + 1e-4, alpha, GRID) == pytest.approx(
        1e-4, rel=1e-8)


def test_residual_capacity_refused():
    alpha, h = 1.0, 1e-3
    small = PhaseGrid(L=0.1, N=128, hbar=h)
    with pytest.raises(GridCapacityError):
        residual_certify(0, 50, 0.5 * alpha * 101 * h, alpha, small)
