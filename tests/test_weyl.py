import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import circulant, eigvalsh, expm

from monodromy_lab import weyl
from monodromy_lab.monodromy import escape_weight, rotation_generator
from monodromy_lab.weyl import (
    MAX_GRID_N,
    GridError,
    PhaseGrid,
    cutoff_range,
    microlocal_cutoff,
    op_exponential,
    quantize,
)


GRID = PhaseGrid(L=10.0, N=256, hbar=0.1)


def grid_norm(grid, u) -> float:
    """L2 norm of the samples u(x_k) with the quadrature weight dx."""
    return float(np.sqrt(np.sum(np.abs(np.asarray(u)) ** 2) * grid.dx))


def fourier_multiplier(func, grid: PhaseGrid) -> np.ndarray:
    """Direct construction F^-1 diag(func(xi)) F; reference for symbols
    independent of x."""
    n = grid.N
    f = np.fft.fft(np.eye(n), axis=0)
    finv = np.fft.ifft(np.eye(n), axis=0)
    diag = func(np.fft.ifftshift(grid.xi))
    return finv @ (diag[:, None] * f)


def test_grid_geometry():
    g = GRID
    assert g.x[0] == -10.0
    assert g.x[1] - g.x[0] == pytest.approx(g.dx)
    assert g.xi[g.N // 2] == 0.0
    assert np.all(np.diff(g.xi) > 0)


def test_grid_validation():
    with pytest.raises(GridError):
        PhaseGrid(L=10.0, N=255, hbar=0.1)
    with pytest.raises(GridError):
        PhaseGrid(L=-1.0, N=256, hbar=0.1)
    # L * L / hbar overflows, so x and hermite_mode's x / sqrt(hbar) would too
    with pytest.raises(GridError, match="grid span overflows"):
        PhaseGrid(L=1e154, N=512, hbar=1e-3)


def test_grid_refuses_oversized_n():
    # refused when the grid is made, before any N x N operator exists
    assert PhaseGrid(L=10.0, N=MAX_GRID_N, hbar=0.1).N == MAX_GRID_N
    for n in (MAX_GRID_N + 2, 2 ** 20):
        with pytest.raises(GridError, match="MAX_GRID_N"):
            PhaseGrid(L=10.0, N=n, hbar=0.1)


def test_quantize_constant_is_identity():
    op = quantize(lambda x, xi: np.ones_like(x * xi), GRID)
    assert np.abs(op.matrix - np.eye(GRID.N)).max() <= 1e-10


def test_quantize_position_is_diagonal():
    op = quantize(lambda x, xi: x + 0.0 * xi, GRID)
    off = op.matrix - np.diag(np.diag(op.matrix))
    assert np.abs(off).max() <= 1e-10
    assert np.allclose(np.diag(op.matrix).real, GRID.x, atol=1e-10)


def test_quantize_kinetic_matches_fourier_multiplier():
    op = quantize(lambda x, xi: xi ** 2 + 0.0 * x, GRID)
    oracle = fourier_multiplier(lambda xi: xi ** 2, GRID)
    ev_op = np.sort(np.linalg.eigvalsh(0.5 * (op.matrix + op.matrix.conj().T)))
    ev_or = np.sort(np.linalg.eigvals(oracle).real)
    assert np.abs(ev_op - ev_or).max() <= 1e-8
    assert np.abs(op.matrix - oracle).max() <= 1e-8


def test_quantize_linear_in_symbol():
    rng = np.random.default_rng(0)
    c1, c2 = rng.standard_normal(2)

    def sym_a(x, xi):
        return np.exp(-x ** 2) + 0.0 * xi

    def sym_b(x, xi):
        return xi ** 2 / (1.0 + xi ** 2) + 0.0 * x

    op_a = quantize(sym_a, GRID).matrix
    op_b = quantize(sym_b, GRID).matrix
    op_ab = quantize(lambda x, xi: c1 * sym_a(x, xi) + c2 * sym_b(x, xi), GRID).matrix
    assert np.abs(op_ab - (c1 * op_a + c2 * op_b)).max() <= 1e-10


def test_quantize_real_symbol_hermitian():
    op = quantize(lambda x, xi: x * xi, GRID)
    defect = np.linalg.norm(op.matrix - op.matrix.conj().T)
    assert defect <= 1e-10 * max(1.0, np.abs(op.matrix).max())


def test_quantize_rejects_nan():
    def bad_symbol(x, xi):
        with np.errstate(divide="ignore", invalid="ignore"):
            return x / (xi - xi)

    with pytest.raises(GridError, match="non-finite"):
        quantize(bad_symbol, GRID)


def test_harmonic_oscillator_spectrum():
    grid = PhaseGrid(L=10.0, N=512, hbar=0.1)
    op = quantize(lambda x, xi: x ** 2 + xi ** 2, grid)
    h = 0.5 * (op.matrix + op.matrix.conj().T)
    evals = np.sort(np.linalg.eigvalsh(h))
    expected = grid.hbar * (2 * np.arange(11) + 1)
    assert np.abs(evals[:11] - expected).max() <= 0.005 * expected[0]
    rel = np.abs(evals[:11] / expected - 1.0)
    assert rel.max() <= 0.005


def min_eigenvalue(op) -> float:
    """Smallest eigenvalue of a quantized operator, from scipy's eigvalsh."""
    return float(eigvalsh(op.matrix, subset_by_index=(0, 0))[0])


def test_min_eigenvalue_identity():
    op = quantize(lambda x, xi: np.ones_like(x * xi), GRID)
    assert min_eigenvalue(op) == pytest.approx(1.0, abs=1e-9)


def test_min_eigenvalue_harmonic():
    for hbar in (0.05, 0.1, 0.2):
        grid = PhaseGrid(L=10.0, N=512, hbar=hbar)
        op = quantize(lambda x, xi: x ** 2 + xi ** 2, grid)
        assert min_eigenvalue(op) == pytest.approx(hbar, rel=0.01)


def test_saturating_oscillator_lower_bound():
    # smallest eigenvalue of the saturating oscillator stays comparable to
    # hbar across a sweep: min_eig >= hbar / C with stable C
    ratios = []
    for hbar in (0.2, 0.1, 0.05):
        grid = PhaseGrid(L=10.0, N=512, hbar=hbar)
        op = quantize(
            lambda x, xi: x ** 2 / (1.0 + x ** 2) + xi ** 2 / (1.0 + xi ** 2), grid
        )
        ratios.append(min_eigenvalue(op) / hbar)
    ratios = np.array(ratios)
    assert np.all(ratios > 0.0)
    mean = ratios.mean()
    assert np.abs(ratios - mean).max() <= 0.2 * mean


def test_op_exponential_zero_time():
    op = quantize(lambda x, xi: x * xi, GRID)
    assert np.allclose(op_exponential(op, 0.0), np.eye(GRID.N), atol=1e-14)


def test_op_exponential_unitary_for_hermitian():
    op = quantize(lambda x, xi: x ** 2 + xi ** 2, GRID)
    u = op_exponential(op, -1.0j / GRID.hbar)
    defect = np.linalg.norm(u.conj().T @ u - np.eye(GRID.N))
    assert defect <= 1e-10 * GRID.N


def test_op_exponential_overflow_refused():
    op = quantize(lambda x, xi: x ** 2 + xi ** 2, GRID)
    with pytest.raises(OverflowError, match="refused"):
        op_exponential(op, 1e6)


def test_op_exponential_against_split_step():
    # oracle: high-resolution split-step propagation of the dilation flow
    # exp(-i t (x xi)^w / hbar) acting on a Gaussian: the flow is metaplectic
    # and maps the ground Gaussian to a squeezed Gaussian with widths e^t.
    grid = PhaseGrid(L=12.0, N=512, hbar=0.1)
    op = quantize(lambda x, xi: x * xi, grid)
    t = 0.4
    u0 = np.exp(-grid.x ** 2 / (2.0 * grid.hbar)).astype(complex)
    u0 /= grid_norm(grid, u0)
    prop = op_exponential(op, -1.0j * t / grid.hbar)
    u1 = prop @ u0
    # exact metaplectic image: Gaussian with position variance e^{2t} hbar/2
    var = np.sum(grid.x ** 2 * np.abs(u1) ** 2) * grid.dx
    assert var == pytest.approx(np.exp(2 * t) * grid.hbar / 2.0, rel=1e-6)
    assert grid_norm(grid, u1) == pytest.approx(1.0, abs=1e-9)


def test_microlocal_cutoff_contracts():
    grid = PhaseGrid(L=8.0, N=256, hbar=0.2)
    pi_c = microlocal_cutoff(grid)
    s = np.linalg.svd(pi_c, compute_uv=False)
    assert s[0] <= 1.0 + 1e-9
    basis = cutoff_range(pi_c, sv_tol=1e-6)
    assert basis.shape[1] < grid.N // 2
    # concentrated Gaussian passes nearly unchanged
    u = np.exp(-grid.x ** 2 / (2.0 * grid.hbar)).astype(complex)
    u /= grid_norm(grid, u)
    assert grid_norm(grid, pi_c @ u - u) <= 0.2


SMALL = PhaseGrid(L=6.0, N=64, hbar=0.2)


def close_to(a, b, tol=1e-12):
    """Entrywise agreement relative to the scale of b (at least 1)."""
    return np.abs(a - b).max() <= tol * max(1.0, np.abs(b).max())


def test_op_exponential_matches_scaling_and_squaring():
    gen = quantize(lambda x, xi: x * xi + 0.1 * x ** 2, SMALL).matrix
    for t in (-1.0j / SMALL.hbar, 0.3, -0.7 + 0.5j):
        assert close_to(op_exponential(gen, t), expm(t * gen))


def test_op_exponential_group_law():
    gen = quantize(lambda x, xi: 0.5 * (np.log1p(x ** 2) - np.log1p(xi ** 2)),
                   SMALL).matrix
    for s, t in ((0.3, -0.3), (0.2, 0.45), (-2.0j, 0.7j)):
        lhs = op_exponential(gen, s) @ op_exponential(gen, t)
        assert close_to(lhs, op_exponential(gen, s + t))


def test_op_exponential_rejects_nonhermitian():
    gen = quantize(lambda x, xi: x * xi, SMALL).matrix.copy()
    gen[0, 1] += 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        op_exponential(gen, 0.1)


def test_microlocal_cutoff_matches_dense_fourier_construction():
    for wx, wxi in ((1.0, None), (2.5, 0.4)):
        pi_c = microlocal_cutoff(SMALL, wx, wxi)
        assert pi_c.dtype == np.float64
        gx = np.exp(-SMALL.x ** 2 / (2.0 * wx ** 2))
        mom = fourier_multiplier(lambda xi: np.exp(-xi ** 2 / (2.0 * (wxi or wx) ** 2)),
                                 SMALL)
        assert np.abs(pi_c - np.diag(gx) @ mom).max() <= 1e-14


@pytest.mark.parametrize("n", [2, 64, 512])
def test_microlocal_cutoff_matches_scipy_circulant(n):
    # the gather only copies kernel entries, so the match is bit for bit
    grid = PhaseGrid(L=8.0, N=n, hbar=0.2)
    gx = np.exp(-grid.x ** 2 / 2.0)
    gxi = np.exp(-np.fft.ifftshift(grid.xi) ** 2 / 2.0)
    want = gx[:, None] * circulant(np.fft.ifft(gxi).real)
    assert np.array_equal(microlocal_cutoff(grid), want)


def meshgrid_kernel(symbol, grid: PhaseGrid) -> np.ndarray:
    """The complex-FFT kernel with a parity twist and a 2-D gather, as
    quantize built it before the real half-spectrum; reference for it."""
    n = grid.N
    mid = (-2.0 * grid.L + grid.dx * np.arange(2 * n - 1)) / 2.0
    vals = np.asarray(symbol(mid[:, None], grid.xi[None, :]), dtype=complex)
    if vals.shape != (2 * n - 1, n):
        vals = np.broadcast_to(vals, (2 * n - 1, n)).copy()
    transform = n * np.fft.ifft(vals, axis=1)  # index r = (i - j) mod N
    r_signed = np.arange(-(n - 1), n)
    phase = np.where(r_signed % 2 == 0, 1.0, -1.0)  # e^{-i pi r}
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    mid_idx = ii + jj
    r_idx = (ii - jj) % n
    kernel = transform[mid_idx, r_idx] * phase[(ii - jj) + (n - 1)]
    dxi = np.pi * grid.hbar / grid.L
    return kernel * (dxi * grid.dx / (2.0 * np.pi * grid.hbar))


REAL_SYMBOLS = [
    lambda x, xi: x * xi,
    lambda x, xi: np.exp(-x ** 2) * np.cos(3.0 * xi) + xi ** 3,
    lambda x, xi: 0.5 * (np.log1p(x ** 2) - np.log1p(xi ** 2)),
    lambda x, xi: 2.5,
]
COMPLEX_SYMBOLS = [
    lambda x, xi: (x + 1j * xi) ** 2,
    lambda x, xi: np.exp(1j * x * xi) / (1.0 + x ** 2),
]


@pytest.mark.parametrize("n", [2, 4, 64, 256, 512])
def test_quantize_matches_meshgrid_kernel(n):
    grid = PhaseGrid(L=3.0, N=n, hbar=0.07)
    for symbol in REAL_SYMBOLS + COMPLEX_SYMBOLS:
        mat = quantize(symbol, grid).matrix
        ref = meshgrid_kernel(symbol, grid)
        assert np.abs(mat - ref).max() <= 1e-14 * np.abs(ref).max()


def one_shot_kernel(symbol, grid: PhaseGrid, even_rows_real=True) -> np.ndarray:
    """quantize's kernel before it streamed the midpoint rows: all 2N-1 rows
    evaluated and transformed at once, then one gather of the N^2 entries
    from the whole half spectrum; reference for the blocked kernel.  With
    even_rows_real, the rows even in xi keep only the real part of their
    spectrum, and a part whose rows are all even gives a float64 kernel;
    without it, every row keeps its full complex spectrum."""
    n = grid.N
    mid = (-2.0 * grid.L + grid.dx * np.arange(2 * n - 1)) / 2.0
    vals = np.asarray(symbol(mid[:, None], np.fft.ifftshift(grid.xi)[None, :]))
    if vals.shape != (2 * n - 1, n):
        vals = np.broadcast_to(vals, (2 * n - 1, n))
    mat = one_shot_real_kernel(vals.real, even_rows_real)
    if np.iscomplexobj(vals):
        mat = mat + 1j * one_shot_real_kernel(vals.imag, even_rows_real)
    return mat


def one_shot_real_kernel(vals: np.ndarray, even_rows_real: bool) -> np.ndarray:
    n = vals.shape[1]
    half = np.fft.rfft(vals, axis=1, norm="forward")
    # a row is even in xi when a(xi_p) = a(xi_(-p mod N)) for every p
    even = (vals == np.roll(vals[:, ::-1], 1, axis=1)).all(axis=1)
    if even_rows_real:
        half.imag[even] = 0.0
    i, j = np.ogrid[:n, :n]
    r = (i - j) % n
    mat = np.take(half, (i + j) * (n // 2 + 1) + np.minimum(r, n - r))
    np.conjugate(mat, out=mat, where=r <= n // 2)
    return mat.real.copy() if even_rows_real and even.all() else mat


@pytest.mark.parametrize("n", [2, 4, 64, 66, 512])
def test_quantize_matches_one_shot_kernel_bitwise(n):
    # 2N-1 is never a multiple of the block size here, so the last block
    # is short; every row gets the same FFT, gather and conjugation, and
    # the same choice of a real or a complex spectrum
    grid = PhaseGrid(L=3.0, N=n, hbar=0.07)
    for symbol in REAL_SYMBOLS + COMPLEX_SYMBOLS:
        mat = quantize(symbol, grid).matrix
        ref = one_shot_kernel(symbol, grid)
        assert mat.dtype == ref.dtype
        assert np.array_equal(mat.view(np.float64), ref.view(np.float64))


@pytest.mark.parametrize("n", [66, 512])
def test_quantize_rejects_nan_in_last_block(n):
    grid = PhaseGrid(L=3.0, N=n, hbar=0.07)
    last_mid = grid.x[-1]  # the midpoint of x_{N-1} with itself

    def symbol(x, xi):
        return np.where(x > last_mid - grid.dx / 4.0, np.nan, 1.0) + 0.0 * xi

    with pytest.raises(GridError, match="non-finite"):
        quantize(symbol, grid)


def test_quantize_allocates_little_beyond_its_result():
    # the blocked stream holds one block of symbol values, half spectrum
    # and gathered entries beside the N x N result; the warm-up call builds
    # the cached gather indices, which later calls reuse
    grid = PhaseGrid(L=1.0, N=512, hbar=1e-3)
    rotation_generator(1.0, grid)
    tracemalloc.start()
    try:
        q = rotation_generator(1.0, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert q.nbytes == 2 * 2 ** 20
    assert peak <= q.nbytes + 2 * 2 ** 20


@pytest.mark.parametrize("n", [2, 4, 64, 256, 512])
def test_quantize_real_symbol_exactly_hermitian(n):
    grid = PhaseGrid(L=3.0, N=n, hbar=0.07)
    for symbol in REAL_SYMBOLS:
        mat = quantize(symbol, grid).matrix
        assert np.array_equal(mat, mat.conj().T)


def test_quantize_complex_symbol_by_linearity():
    for symbol in COMPLEX_SYMBOLS:
        whole = quantize(symbol, SMALL).matrix
        re = quantize(lambda x, xi: symbol(x, xi).real, SMALL).matrix
        im = quantize(lambda x, xi: symbol(x, xi).imag, SMALL).matrix
        assert np.array_equal(whole, re + 1j * im)


def test_rotation_generator_exactly_hermitian():
    for alpha, h in ((1.0, 1e-3), (0.7, 0.05)):
        q = rotation_generator(alpha, PhaseGrid(L=1.5, N=256, hbar=h))
        assert np.array_equal(q, q.conj().T)


def test_quantize_dtype_follows_parity_in_xi():
    # real symbols even in xi give float64 kernels; odd or mixed parity in
    # xi, or a nonzero imaginary part, gives complex128
    grid = PhaseGrid(L=3.0, N=64, hbar=0.07)
    for mat in (rotation_generator(1.0, grid), escape_weight(grid),
                quantize(lambda x, xi: 2.5, grid).matrix):
        assert mat.dtype == np.float64
    for symbol in REAL_SYMBOLS[:2] + COMPLEX_SYMBOLS:
        assert quantize(symbol, grid).matrix.dtype == np.complex128


def mixed_parity(x, xi):
    """Even in xi for x < 0, odd in xi for x > 0."""
    return np.where(x < 0.0, (1.0 + x ** 2) * np.cos(xi), x * np.sin(xi))


def test_quantize_mixed_parity_does_not_depend_on_block_rows(monkeypatch):
    # at 16 rows the leading blocks are all even and the result is widened
    # to complex at the first odd row; at 1023 rows one block holds them all
    grid = PhaseGrid(L=3.0, N=512, hbar=0.07)
    mats = []
    try:
        for rows in (16, 1023):
            monkeypatch.setattr(weyl, "_BLOCK_ROWS", rows)
            weyl._block_gather.cache_clear()
            mats.append(quantize(mixed_parity, grid).matrix)
    finally:
        weyl._block_gather.cache_clear()
    ref = one_shot_kernel(mixed_parity, grid)
    for mat in mats:
        assert mat.dtype == np.complex128
        assert np.array_equal(mat.view(np.float64), ref.view(np.float64))


# the fixed grid ladder residuals took before each ladder sized its own
# (quasimode.ladder_grid; the benchmark ladder's is L = 0.558, N = 256), and
# the grid of the contraction's escape weight
LADDER_GRID = PhaseGrid(L=1.0, N=512, hbar=1e-3)
CONTRACT_GRID = PhaseGrid(L=16.0, N=512, hbar=0.2)


def test_quantize_drops_only_rounding_level_imaginary_parts():
    # an even row's spectrum is real; the complex FFT leaves rounding noise
    # in its imaginary part, which the real kernel drops
    cases = [
        (rotation_generator(1.0, LADDER_GRID),
         lambda x, xi: 0.5 * 1.0 * (x ** 2 + xi ** 2), LADDER_GRID),
        (escape_weight(CONTRACT_GRID), REAL_SYMBOLS[2], CONTRACT_GRID),
    ]
    for mat, symbol, grid in cases:
        ref = one_shot_kernel(symbol, grid, even_rows_real=False)
        assert np.array_equal(mat, ref.real)
        assert np.abs(ref.imag).max() <= 1e-16 * np.abs(ref).max()


def test_gather_tables_are_int32():
    for _, _, dest, src, _ in weyl._block_gather(512):
        assert dest.dtype == src.dtype == np.int32


def test_gather_cache_keeps_one_grid_size():
    # the tables hold 9 N^2 bytes (two int32 indices and a flag per entry);
    # quantizing at a new N drops the tables of the last one
    tracemalloc.start()
    try:
        for n in (1024, 2048):
            rotation_generator(1.0, PhaseGrid(L=1.0, N=n, hbar=1e-3))
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        weyl._block_gather.cache_clear()
    assert 9 * 2048 ** 2 <= current <= 9 * 2048 ** 2 + 2 ** 20


coefficients = st.lists(st.floats(-10.0, 10.0), min_size=9, max_size=9)


def polynomial(coef):
    """Real polynomial sum c_ab x^a xi^b of degree at most 2 in each variable."""
    c = np.reshape(coef, (3, 3))
    return lambda x, xi: sum(c[a, b] * x ** a * xi ** b
                             for a in range(3) for b in range(3))


@settings(max_examples=30, deadline=None)
@given(coefficients, coefficients, st.floats(-3.0, 3.0))
def test_quantize_polynomial_hermitian_and_linear(coef_a, coef_b, t):
    op_a = quantize(polynomial(coef_a), SMALL).matrix
    op_b = quantize(polynomial(coef_b), SMALL).matrix
    combined = np.add(coef_a, np.multiply(t, coef_b))
    op_ab = quantize(polynomial(combined), SMALL).matrix
    for mat in (op_a, op_b, op_ab):
        assert np.array_equal(mat, mat.conj().T)
    scale = max(1.0, np.abs(op_a).max() + abs(t) * np.abs(op_b).max())
    assert np.abs(op_ab - (op_a + t * op_b)).max() <= 1e-12 * scale


# the monomials x^a xi^b of total degree at most 2, as slots of `polynomial`
DEGREE_TWO = tuple(zip(*[(a, b) for a in range(3) for b in range(3) if a + b <= 2]))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from([1.0, -1.0]),
       st.floats(-10.0, 10.0))
def test_op_exponential_group_law_on_random_symbols(coef, s, t, sign, tau):
    c = np.zeros((3, 3))
    c[DEGREE_TWO] = coef
    gen = quantize(polynomial(c), SMALL).matrix
    # s and t share a sign: with opposite signs the product cancels a growth
    # of e^(|s| ||A||) and carries eps times it, far above the bound
    s, t = sign * s, sign * t
    lhs = op_exponential(gen, s) @ op_exponential(gen, t)
    assert close_to(lhs, op_exponential(gen, s + t))
    unitary = op_exponential(gen, 1j * tau)
    assert close_to(unitary @ unitary.conj().T, np.eye(SMALL.N))
