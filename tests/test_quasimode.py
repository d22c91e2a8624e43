import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monodromy_lab.quasimode import (
    LadderError,
    LadderSizeError,
    QuasimodeLadder,
    exact_model_ladder,
    hermite_mode,
    k_window,
    ladder_grid,
    perturbed_ladder,
    residual_certify,
)
from monodromy_lab.weyl import MAX_GRID_N, GridError, PhaseGrid, quantize

GRID = PhaseGrid(L=1.0, N=512, hbar=1e-3)


def keys(ladder) -> list:
    """(k, beta tuple) of every ladder entry, in ladder order."""
    return list(zip(ladder.k.tolist(), map(tuple, ladder.beta.tolist())))


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


def test_hermite_mode_refuses_a_mode_sampled_as_zero():
    # x / sqrt(h) steps by 50: the odd mode is 0 at x = 0 and underflows at
    # every other sample, so it has no norm to divide by
    g = PhaseGrid(L=16.0, N=64, hbar=1e-4)
    assert grid_norm(g, hermite_mode(0, g)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(GridError, match="samples Hermite mode 1 as zero"):
        hermite_mode(1, g)


# ---------------------------------------------------------------------------
# exact ladder
# ---------------------------------------------------------------------------

# lattice points past which a brute-force property skips a draw; the
# admitted lattices go up to MAX_LATTICE_POINTS, which the ladders build as
# arrays but the pure-Python oracles would walk for seconds each
ORACLE_LATTICE_POINTS = 2 * 10 ** 5


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
        assert np.all(np.abs(ladder.z) <= zmax * (1 + 1e-12))
        assert np.all(ladder.residual == 0.0)


def test_exact_ladder_entries_closed_form():
    h = 1e-3
    ladder = exact_model_ladder(1.0, h, 2.0, 1.0)
    for (k, (b,)), z in zip(keys(ladder), ladder.z.tolist()):
        assert z == 0.5 * (2 * b + 1) * h + 2 * math.pi * k * h


def test_exact_ladder_empty_window():
    ladder = exact_model_ladder(1.0, 1e-2, 2.0, 0.0)
    assert ladder.count == 0
    assert ladder.beta.shape == (0, 1)


def test_exact_ladder_monotone_in_window():
    h = 1e-3
    counts = [exact_model_ladder(1.0, h, 2.0, c0).count
              for c0 in (0.25, 0.5, 1.0, 2.0)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    # set inclusion: smaller window is a subset
    small = set(keys(exact_model_ladder(1.0, h, 2.0, 0.5)))
    large = set(keys(exact_model_ladder(1.0, h, 2.0, 1.0)))
    assert small <= large


def test_exact_ladder_distinct_rational_alpha():
    ladder = exact_model_ladder(Fraction(1), 1e-3, 2.0, 1.0)
    assert np.unique(ladder.z).size == ladder.z.size


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.3, 3.0), log_h=st.floats(-4.0, -1.0),
       c0=st.floats(0.1, 1.0), m_exp=st.sampled_from([1.5, 2.0, 3.0]))
def test_exact_ladder_count_matches_brute_force(alpha, log_h, c0, m_exp):
    # the count the counting sweep reads, against the enumeration oracle
    h = 10.0 ** log_h
    zmax = c0 * h ** (1.0 / m_exp)
    lattice = (2 * k_window(h, m_exp, c0) + 1) * (3.0 * zmax / (alpha * h) + 2)
    assume(lattice <= ORACLE_LATTICE_POINTS)
    try:
        ladder = exact_model_ladder(alpha, h, m_exp, c0)
    except LadderError as exc:  # a resonant alpha
        assert "collide" in str(exc)
        return
    assert ladder.count == brute_force_count(alpha, h, m_exp, c0)
    assert ladder.k.shape == ladder.z.shape == ladder.residual.shape == (ladder.count,)
    assert ladder.beta.shape == (ladder.count, 1)


def test_exact_ladder_count_refuses_collisions():
    # alpha = 4 pi puts z(k, b) = 2 pi h (2 b + 1 + k) on a lattice that
    # (k, b) and (k + 2, b - 1) share; the counting sweep reads this count
    with pytest.raises(LadderError, match="collide at 1e-12 resolution"):
        exact_model_ladder(4.0 * math.pi, 1e-3, 2.0, 1.0).count


def test_ladder_refuses_entries_outside_the_window():
    z = np.array([0.0, 0.2])
    with pytest.raises(LadderError, match="z=0.2 falls outside"):
        QuasimodeLadder(2.0, 1.0, 1e-2, np.zeros(2, int), np.zeros((2, 1), int),
                        z, np.zeros(2))


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
    # model rate alpha/2 (the rotation generator coefficient): the
    # quantization equation 2z = h (alpha/2)(2b+1) + 2 pi k h makes the
    # direct ladder exactly twice the solved root
    alpha, h = 1.0, 1e-3
    pert = perturbed_ladder([alpha / 2.0], h, 2.0, 1.0)
    exact = exact_model_ladder(alpha, h, 2.0, 2.0)
    direct = dict(zip(keys(exact), exact.z.tolist()))
    assert pert.count > 0
    for key, z in zip(keys(pert), pert.z.tolist()):
        assert 2.0 * z == pytest.approx(direct[key], rel=1e-14, abs=1e-18)


def test_perturbed_multi_mode_lattice():
    h = 1e-2
    pert = perturbed_ladder([1.0, math.sqrt(2.0)], h, 2.0, 1.0)
    assert pert.count > 0
    assert pert.beta.shape == (pert.count, 2)


def test_oversized_lattices_refused():
    with pytest.raises(LadderSizeError, match="MAX_LATTICE_POINTS"):
        exact_model_ladder(1.0, 1e-3, 2.0, 1e9)
    with pytest.raises(LadderSizeError):
        perturbed_ladder([0.5, 0.7], 1e-3, 2.0, 1e9)
    # the benchmark windows, ~3.2e4 (exact, h = 1e-5) and ~1.2e4 (two
    # modes, h = 1e-3) lattice points, stay admitted
    assert exact_model_ladder(1.0, 1e-5, 2.0, 0.5).count > 0
    assert perturbed_ladder([0.5, 0.7], 1e-3, 2.0, 0.5).count > 0


def capped_lattice(lams, h, m_exp, c0):
    """zmax, kmax and the beta cap of perturbed_ladder, as its docstring
    states them."""
    zmax = c0 * h ** (1.0 / m_exp)
    cap = math.floor(max(0.0, (2.0 * zmax / (h * min(lams)) - 1.0) / 2.0)) + 1
    return zmax, k_window(h, m_exp, c0), cap


def brute_force_perturbed(lams, h, m_exp, c0):
    """{(k, (b_1, .., b_n)): z} over the capped beta lattice, by nested
    loops that leave a mode once z has passed the window for good (every
    rate is positive, so z grows with each b_j)."""
    zmax, kmax, cap = capped_lattice(lams, h, m_exp, c0)
    points = {}

    def walk(k, beta, low):
        # low: z with b = 0 in every mode from len(beta) on
        if len(beta) == len(lams):
            z = h * sum(lam * (b + 0.5) for lam, b in zip(lams, beta)) + math.pi * k * h
            if abs(z) <= zmax:
                points[(k, beta)] = z
            return
        lam = lams[len(beta)]
        for b in range(cap + 1):
            if low + h * lam * b > zmax * (1.0 + 1e-9):
                break
            walk(k, beta + (b,), low + h * lam * b)

    for k in range(-kmax, kmax + 1):
        walk(k, (), math.pi * k * h + 0.5 * h * sum(lams))
    return points


@settings(max_examples=60, deadline=None)
@given(lams=st.lists(st.floats(0.2, 2.0), min_size=1, max_size=3),
       log_h=st.floats(-3.0, -1.0), c0=st.floats(0.1, 1.0),
       m_exp=st.sampled_from([1.5, 2.0, 3.0]))
def test_perturbed_matches_brute_force_lattice(lams, log_h, c0, m_exp):
    h = 10.0 ** log_h
    zmax, kmax, cap = capped_lattice(lams, h, m_exp, c0)
    # also skips every lattice perturbed_ladder refuses with LadderSizeError
    assume((2 * kmax + 1) * (cap + 1) ** len(lams) <= ORACLE_LATTICE_POINTS)
    ladder = perturbed_ladder(lams, h, m_exp, c0)
    expected = brute_force_perturbed(lams, h, m_exp, c0)
    got = dict(zip(keys(ladder), ladder.z.tolist()))
    for key in set(got) ^ set(expected):
        z = got[key] if key in got else expected[key]
        assert abs(abs(z) - zmax) <= 1e-12 * zmax, key
    for key in set(got) & set(expected):
        assert abs(got[key] - expected[key]) <= 1e-15 * zmax
    zs = ladder.z.tolist()
    assert zs == sorted(zs)
    eps = np.finfo(float).eps
    assert np.all(ladder.residual <= 4.0 * eps * zmax)


@pytest.mark.xfail(strict=True, reason="the beta cap drops window points with "
                   "k < 0 (ROADMAP items 1 and 11)")
def test_perturbed_full_window_count():
    # 5479 is the brute-force count of the full window; the cap gives 4646
    assert perturbed_ladder([0.5, 0.7], 1e-3, 2.0, 0.5).count == 5479


def test_perturbed_ladder_holds_only_its_columns():
    # 31 k values times 26^3 beta points; the 133 678 entries take 48 bytes
    # each in the four columns (6.1 MiB), and no object is kept per entry
    tracemalloc.start()
    try:
        ladder = perturbed_ladder([2.0, 2.0, 2.0], 1e-3, 3.0, 0.5)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ladder.count == 133678
    assert held <= 8 * 2 ** 20


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
    # the beta = 50 turning point sqrt(101 h) = 0.32 lies past L: the mode
    # is sampled all the same, and its residual, past RESIDUAL_TOL = 1e-8,
    # is what refuses the grid
    alpha, h = 1.0, 1e-3
    small = PhaseGrid(L=0.1, N=128, hbar=h)
    assert residual_certify(0, 50, 0.5 * alpha * 101 * h, alpha, small) > 1e-8


def complex_rotation_generator(alpha, grid):
    """The rotation generator as a complex kernel: every midpoint row keeps
    its full complex half spectrum, rounding-level imaginary part and all,
    as quantize gave it before real kernels."""
    n = grid.N
    mid = (-2.0 * grid.L + grid.dx * np.arange(2 * n - 1)) / 2.0
    xi = np.fft.ifftshift(grid.xi)[None, :]
    vals = 0.5 * alpha * (mid[:, None] ** 2 + xi ** 2)
    half = np.fft.rfft(vals, axis=1, norm="forward")
    i, j = np.ogrid[:n, :n]
    r = (i - j) % n
    mat = np.take(half, (i + j) * (n // 2 + 1) + np.minimum(r, n - r))
    np.conjugate(mat, out=mat, where=r <= n // 2)
    return mat


def test_residuals_real_path_match_complex_operator():
    # the benchmark's exact ladder: every residual from the float64
    # operator and mode against the complex operator and complex mode
    alpha, h = 1.0, 1e-3
    ladder = exact_model_ladder(alpha, h, 2.0, 0.5)
    assert ladder.count == 174
    q = complex_rotation_generator(alpha, GRID)
    assert 0.0 < np.abs(q.imag).max() <= 1e-16 * np.abs(q).max()
    for (k, (b,)), z in zip(keys(ladder), ladder.z.tolist()):
        v = hermite_mode(b, GRID).astype(complex)
        resid = q @ v + (2.0 * math.pi * k * h - z) * v
        want = float(np.sqrt(np.sum(np.abs(resid) ** 2) * GRID.dx))
        got = residual_certify(k, b, z, alpha, GRID)
        assert abs(got - want) <= 1e-15


def test_residual_certify_allocates_no_complex_operator():
    # a float64 operator is 2 MiB on this grid, a complex one 4 MiB; the
    # warm-up call builds the cached gather indices
    residual_certify(0, 3, 0.0035, 1.0, GRID)
    tracemalloc.start()
    try:
        residual_certify(0, 3, 0.0035, 1.0, GRID)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20


# ---------------------------------------------------------------------------
# the grid a ladder sizes for itself
# ---------------------------------------------------------------------------

def test_ladder_grid_of_the_benchmark_ladder():
    # the top mode beta = 46 reaches sqrt(93 h) = 0.305; eight widths
    # sqrt(h) past it, R = 0.558, whose Weyl count 2 R^2 / (pi h) = 198.2
    # rounds up to N = 256
    grid = ladder_grid(exact_model_ladder(1.0, 1e-3, 2.0, 0.5))
    assert grid == PhaseGrid(L=math.sqrt(93e-3) + 8.0 * math.sqrt(1e-3), N=256,
                             hbar=1e-3)


def test_ladder_grid_of_an_empty_ladder_holds_the_ground_state():
    ladder = exact_model_ladder(1.0, 1e-3, 2.0, 1e-6)
    assert ladder.count == 0
    # R = 9 sqrt(h), Weyl count 162 / pi = 51.6
    assert ladder_grid(ladder) == PhaseGrid(L=9.0 * math.sqrt(1e-3), N=64, hbar=1e-3)


@given(log_h=st.floats(-8.0, 0.0), top=st.integers(0, 4000))
@settings(max_examples=200, deadline=None)
def test_ladder_grid_covers_the_top_mode_disc(log_h, top):
    h = 10.0 ** log_h
    ladder = QuasimodeLadder(2.0, 1.0, h, np.zeros(1, int), np.array([[top]]),
                             np.zeros(1), np.zeros(1))
    radius = math.sqrt(h * (2 * top + 1)) + 8.0 * math.sqrt(h)
    weyl_count = 2.0 * radius ** 2 / (math.pi * h)
    if weyl_count > MAX_GRID_N:
        with pytest.raises(GridError, match="MAX_GRID_N"):
            ladder_grid(ladder)
        return
    grid = ladder_grid(ladder)
    assert grid.hbar == h and grid.L == radius
    # the least power of two at or past the Weyl count, so the momentum
    # window pi h N / (2 L) reaches R as the position window does
    assert grid.N & (grid.N - 1) == 0
    assert grid.N / 2 < weyl_count * (1 + 1e-12) and weyl_count <= grid.N * (1 + 1e-12)
    assert np.abs(grid.xi).max() >= radius * (1 - 1e-12)
