import math

import numpy as np
import pytest

from monodromy_lab.monodromy import (
    build_hyperbolic_monodromy,
    conjugated_contraction,
    contraction_sweep,
    escape_weight,
    gap_basis,
    hermite_rows,
    microlocal_basis,
    restricted_gap,
    restricted_norm,
    rotation_generator,
    unconjugated_gap,
    unitarity_defect,
)
from monodromy_lab.quasimode import hermite_mode
from monodromy_lab.weyl import (
    GridError,
    PhaseGrid,
    cutoff_range,
    microlocal_cutoff,
    op_exponential,
    quantize,
)

HT = 0.2
GRID = PhaseGrid(L=16.0, N=512, hbar=HT)


def grid_norm(grid, u) -> float:
    """L2 norm of the samples u(x_k) with the quadrature weight dx."""
    return float(np.sqrt(np.sum(np.abs(np.asarray(u)) ** 2) * grid.dx))


# ---------------------------------------------------------------------------
# hyperbolic model
# ---------------------------------------------------------------------------

def test_hyperbolic_monodromy_unitary():
    m = build_hyperbolic_monodromy(1.0, GRID)
    assert unitarity_defect(m) <= 1e-9


def test_hyperbolic_monodromy_is_hbar_free():
    # x_k xi_p = pi hbar (2k/N - 1)(p - N/2): L and hbar both cancel from
    # (X Xi)^w / hbar, so M = exp(-i lam (X Xi)^w / hbar) depends on N and
    # lam alone, and the same matrix comes back on every L and hbar
    ms = [build_hyperbolic_monodromy(1.0, PhaseGrid(L=length, N=256, hbar=hbar))
          for length in (16.0, 48.0) for hbar in (0.2, 0.05, 1.0)]
    for m in ms[1:]:
        assert np.abs(m - ms[0]).max() <= 1e-12


def test_unitarity_defect_is_spectral_norm():
    rng = np.random.default_rng(3)
    m = np.eye(40) + 0.1 * (rng.standard_normal((40, 40))
                            + 1j * rng.standard_normal((40, 40)))
    oracle = np.linalg.norm(m.conj().T @ m - np.eye(40), 2)
    assert unitarity_defect(m) == pytest.approx(oracle, rel=1e-12)


def test_escape_weight_is_real_symmetric_quantization():
    gw = escape_weight(GRID)
    assert gw.dtype == np.float64
    assert np.array_equal(gw, gw.T)
    full = quantize(lambda x, xi: 0.5 * (np.log1p(x ** 2) - np.log1p(xi ** 2)),
                    GRID).matrix
    assert np.abs(gw - full).max() <= 1e-14


def test_hyperbolic_monodromy_zero_rate_is_identity():
    m = build_hyperbolic_monodromy(0.0, GRID)
    assert np.abs(m - np.eye(GRID.N)).max() <= 1e-12


@pytest.mark.parametrize("lam, length, n", [(0.5, 16.0, 512), (1.0, 48.0, 512),
                                            (2.0, 16.0, 1024)])
def test_hyperbolic_monodromy_vacuum_amplitude(lam, length, n):
    # the metaplectic squeeze exp(-i lam (x xi)^w / hbar) keeps
    # <phi_0|M|phi_0> = (cosh lam)^(-1/2) on the Gaussian ground state
    grid = PhaseGrid(L=length, N=n, hbar=HT)
    v = hermite_mode(0, grid)
    amp = v @ build_hyperbolic_monodromy(lam, grid) @ v * grid.dx
    assert abs(amp - math.cosh(lam) ** -0.5) <= 1e-12


def test_hyperbolic_variance_growth():
    # the time-one map spreads the ground Gaussian along the unstable
    # direction: position variance grows by e^(2 lam) (lam=1)
    m = build_hyperbolic_monodromy(1.0, GRID)
    u = np.exp(-GRID.x ** 2 / (2.0 * HT)).astype(complex)
    u /= grid_norm(GRID, u)
    v = m @ u
    var0 = np.sum(GRID.x ** 2 * np.abs(u) ** 2) * GRID.dx
    var1 = np.sum(GRID.x ** 2 * np.abs(v) ** 2) * GRID.dx
    assert var1 / var0 == pytest.approx(math.e ** 2, rel=0.05)


def test_group_law():
    q1 = build_hyperbolic_monodromy(1.0, GRID)  # time-one map
    # fractional times via the same generator
    gen = quantize(lambda x, xi: x * xi, GRID).matrix
    gen = 0.5 * (gen + gen.conj().T)
    m_t = lambda t: op_exponential(gen, -1.0j * t / HT)
    lhs = m_t(0.4) @ m_t(0.6)
    assert np.linalg.norm(lhs - q1, 2) <= 1e-8


# ---------------------------------------------------------------------------
# conjugated contraction
# ---------------------------------------------------------------------------

def test_contraction_no_weight_is_unitary():
    r, _ = conjugated_contraction(1.0, 0.0, GRID)
    assert r == pytest.approx(1.0, abs=1e-9)


def test_contraction_strict_for_positive_weight():
    r, defect = conjugated_contraction(1.0, 0.3, GRID)
    assert r < 1.0
    assert defect <= 1e-9


def test_contraction_gap_matches_unconjugated_gap():
    # a sweep row carries the gap and rank unconjugated_gap gives at its h
    gap_grid = PhaseGrid(L=32.0, N=256, hbar=HT)
    _, _, gaps = contraction_sweep([0.05, 0.02], 1.0, 0.3,
                                   PhaseGrid(L=16.0, N=256, hbar=HT), gap_grid)
    gap, rank = unconjugated_gap(build_hyperbolic_monodromy(1.0, gap_grid),
                                 gap_basis(0.02, gap_grid))
    assert gaps[1][0] == pytest.approx(gap, abs=1e-13)
    assert gaps[1][1] == rank


def test_gap_is_dilation_covariant():
    # (x xi)^w generates dilations: at h / 4 the h-microlocal widths double
    # in x and halve in xi, so doubling L gives the same sampled basis and
    # the same monodromy matrix, hence the same gap and rank
    gaps = []
    for h, length in ((0.05, 32.0), (0.0125, 64.0)):
        grid = PhaseGrid(L=length, N=256, hbar=HT)
        gaps.append(unconjugated_gap(build_hyperbolic_monodromy(1.0, grid),
                                     gap_basis(h, grid)))
    (gap_a, rank_a), (gap_b, rank_b) = gaps
    assert rank_a == rank_b
    assert gap_a > 0.0
    assert abs(gap_a - gap_b) <= 1e-10


def test_contraction_monotone_in_weight():
    rs = []
    for s in (0.0, 0.125, 0.25, 0.375, 0.5):
        rs.append(conjugated_contraction(1.0, s, GRID)[0])
    assert all(b < a + 1e-12 for a, b in zip(rs, rs[1:]))
    assert rs[0] == pytest.approx(1.0, abs=1e-9)


def test_contraction_sign_flip_expands():
    # with the opposite weight sign the restricted map expands: smallest
    # singular value on the subspace stays above 1/r of the contracted run
    r_plus, _ = conjugated_contraction(1.0, 0.3, GRID)
    m = build_hyperbolic_monodromy(1.0, GRID)
    gw = escape_weight(GRID)
    m_minus = op_exponential(gw, +0.3) @ m @ op_exponential(gw, -0.3)
    basis = microlocal_basis(GRID)
    smin = np.linalg.svd(m_minus @ basis, compute_uv=False)[-1]
    assert smin >= 1.0 / r_plus - 1e-9
    assert smin > 1.0


def test_contraction_gap_inequality_random_states():
    r, _ = conjugated_contraction(1.0, 0.3, GRID)
    m = build_hyperbolic_monodromy(1.0, GRID)
    gw = escape_weight(GRID)
    m_tilde = op_exponential(gw, -0.3) @ m @ op_exponential(gw, 0.3)
    basis = microlocal_basis(GRID)
    rng = np.random.default_rng(7)
    for _ in range(25):
        w = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
        u = basis @ w
        u /= np.linalg.norm(u)
        gap = (1.0 - (u.conj() @ (m_tilde @ u))).real
        assert gap >= (1.0 - r) - 1e-9


def test_contraction_sweep_constant_rate_and_gap_fit():
    hs = [1 / 100, 1 / 200]
    small_gap_grid = PhaseGrid(L=32.0, N=256, hbar=HT)
    # one r and one defect serve every h: no h enters the conjugated map
    r, defect, gaps = contraction_sweep(hs, 1.0, 0.3,
                                        PhaseGrid(L=16.0, N=256, hbar=HT),
                                        small_gap_grid)
    assert r < 1.0
    assert defect <= 1e-9
    assert len(gaps) == len(hs)
    assert all(gap > 0 and rank > 0 for gap, rank in gaps)


# the gap (x xi)^w has at every h, read off the resolved rows h <= 0.05
CONVERGED_GAP = 0.0683280237


@pytest.mark.xfail(strict=True, reason="under-resolved: on the default gap "
                   "grid the h = 0.2 and h = 0.1 subspaces (ranks 41 and 47) "
                   "give 0.0720266 and 0.0683272; a grid-free gap (ROADMAP "
                   "items 1 and 2) resolves them")
@pytest.mark.parametrize("h", [0.2, 0.1])
def test_contraction_sweep_gap_resolved_at_coarse_h(h):
    # the contract command's default grids
    _, _, [(gap, _)] = contraction_sweep([h], 1.0, 0.3, GRID,
                                         PhaseGrid(L=48.0, N=512, hbar=HT))
    assert gap == pytest.approx(CONVERGED_GAP, rel=1e-9)


# ---------------------------------------------------------------------------
# closed-form (Mehler) microlocal basis against the dense cutoff
# ---------------------------------------------------------------------------

GAP_GRID = PhaseGrid(L=48.0, N=512, hbar=HT)


def mehler_rank(hbar, width_x, width_xi, tol):
    """floor(2 ln tol / ln q) + 1 from the Mehler kernel of the cutoff."""
    beta = width_xi ** 2 / (4.0 * hbar ** 2)
    alpha = 1.0 / (2.0 * width_x ** 2) + beta
    q = beta / (alpha + math.sqrt(alpha ** 2 - beta ** 2))
    return math.floor(2.0 * math.log(tol) / math.log(q)) + 1


def principal_cosine_defect(a, b):
    """1 - the smallest principal cosine between two orthonormal bases."""
    return 1.0 - np.linalg.svd(a.conj().T @ b, compute_uv=False)[-1]


def test_mehler_basis_matches_dense_cutoff_range():
    dense = cutoff_range(microlocal_cutoff(GRID), sv_tol=1e-6)
    basis = microlocal_basis(GRID)
    assert basis.shape == dense.shape == (GRID.N, 70)
    assert principal_cosine_defect(dense, basis) <= 1e-12
    gw = escape_weight(GRID)
    m_tilde = (op_exponential(gw, -0.3) @ build_hyperbolic_monodromy(1.0, GRID)
               @ op_exponential(gw, 0.3))
    r, _ = conjugated_contraction(1.0, 0.3, GRID)
    assert r == pytest.approx(restricted_norm(m_tilde @ basis), rel=1e-13)
    assert r == pytest.approx(restricted_norm(m_tilde @ dense), rel=1e-13)


@pytest.mark.parametrize("h", [0.05, 0.02, 0.01])
def test_mehler_gap_basis_matches_dense_cutoff_range(h):
    wx, wxi = math.sqrt(HT / h), math.sqrt(h / HT)
    dense = cutoff_range(microlocal_cutoff(GAP_GRID, wx, wxi), sv_tol=1e-4)
    basis = gap_basis(h, GAP_GRID)
    assert basis.shape == dense.shape == (GAP_GRID.N, 47)
    assert principal_cosine_defect(dense, basis) <= 1e-12
    m = build_hyperbolic_monodromy(1.0, GAP_GRID)
    assert restricted_gap(m, basis) == pytest.approx(restricted_gap(m, dense),
                                                     rel=1e-13)


@pytest.mark.parametrize("hbar, width_x, width_xi, tol", [
    (0.2, 1.0, 1.0, 1e-6), (0.2, 2.0, 0.5, 1e-4), (0.4, 1.0, 1.0, 1e-6),
    (0.1, 1.0, 1.0, 1e-3), (0.3, 1.0, 0.5, 1e-8)])
def test_mehler_mode_count_is_rank_plus_two(hbar, width_x, width_xi, tol):
    # each case is resolved on the 512-point grid: the dense cutoff has
    # the same rank there
    rank = mehler_rank(hbar, width_x, width_xi, tol)
    grid = PhaseGrid(L=16.0, N=512, hbar=hbar)
    assert microlocal_basis(grid, width_x, width_xi, tol).shape[1] == rank
    # n = rank + 2 sampled modes: a grid of n points is taken, one point
    # fewer is refused before any allocation (N is even, so step by 2)
    n = rank + 2
    small = PhaseGrid(L=16.0, N=n + n % 2, hbar=hbar)
    microlocal_basis(small, width_x, width_xi, tol)
    with pytest.raises(GridError, match=f"needs {n} Hermite modes"):
        microlocal_basis(PhaseGrid(L=16.0, N=n - 1 - (n - 1) % 2, hbar=hbar),
                         width_x, width_xi, tol)


def two_row_hermite(beta, y):
    """The two-row Hermite recurrence hermite_rows replaced."""
    phi_prev = np.pi ** -0.25 * np.exp(-y ** 2 / 2.0)
    if beta == 0:
        return phi_prev
    phi = math.sqrt(2.0) * y * phi_prev
    for k in range(1, beta):
        phi, phi_prev = (
            math.sqrt(2.0 / (k + 1)) * y * phi - math.sqrt(k / (k + 1)) * phi_prev,
            phi,
        )
    return phi


def test_hermite_rows_match_two_row_recurrence_bitwise():
    y = np.linspace(-20.0, 20.0, 801) * math.pi / 3.0
    for beta, row in zip(range(81), hermite_rows(y)):
        expected = two_row_hermite(beta, y)
        assert np.array_equal(row.view(np.int64), expected.view(np.int64)), beta


# ---------------------------------------------------------------------------
# elliptic model
# ---------------------------------------------------------------------------

ELL_GRID = PhaseGrid(L=1.0, N=512, hbar=1e-3)


def elliptic_propagator(alpha, h):
    """exp(-i Q / h) of the quantized rotation generator on the h-grid;
    the elliptic monodromy is M(z) = e^(i z / h) exp(-i Q / h)."""
    return op_exponential(rotation_generator(alpha, ELL_GRID), -1.0j / h)


def test_elliptic_hermite_eigenrelation():
    alpha, h = 1.0, 1e-3
    prop = elliptic_propagator(alpha, h)
    for k, b in ((0, 0), (1, 3), (-2, 7)):
        z = 0.5 * alpha * (2 * b + 1) * h + 2.0 * math.pi * k * h
        m = np.exp(1.0j * z / h) * prop
        v = hermite_mode(b, ELL_GRID)
        phase = np.exp(1j * (z - 0.5 * alpha * (2 * b + 1) * h) / h)
        assert np.sqrt(np.sum(np.abs(m @ v - phase * v) ** 2) * ELL_GRID.dx) <= 1e-8
        # quantized z fixes the mode
        assert np.sqrt(np.sum(np.abs(m @ v - v) ** 2) * ELL_GRID.dx) <= 1e-8


def test_elliptic_detuned_phase_closed_form():
    alpha, h = 1.0, 1e-3
    m = elliptic_propagator(alpha, h)  # M(0)
    v = hermite_mode(0, ELL_GRID)
    # ||M(0) v0 - v0|| = |e^{-i alpha/2} - 1| = 2 |sin(alpha/4)|
    resid = np.sqrt(np.sum(np.abs(m @ v - v) ** 2) * ELL_GRID.dx)
    assert resid == pytest.approx(2.0 * abs(math.sin(alpha / 4.0)), abs=1e-8)


def test_elliptic_unitarity_and_eigenphase_slope():
    alpha, h = 1.0, 1e-3
    m = elliptic_propagator(alpha, h)  # M(0)
    assert unitarity_defect(m) <= 1e-9
    # eigenphase of M(z) on v_k is linear in k with slope -alpha
    phases = []
    for b in range(4):
        v = hermite_mode(b, ELL_GRID)
        lam = (v.conj() @ (m @ v)) * ELL_GRID.dx
        phases.append(np.angle(lam))
    diffs = np.diff(np.unwrap(phases))
    assert np.allclose(diffs, -alpha, atol=1e-8)


def test_rotation_generator_spectrum():
    alpha, h = 1.0, 1e-3
    q = rotation_generator(alpha, ELL_GRID)
    v = hermite_mode(5, ELL_GRID)
    val = (v.conj() @ (q @ v)).real * ELL_GRID.dx
    assert val == pytest.approx(0.5 * alpha * 11 * h, rel=1e-10)
