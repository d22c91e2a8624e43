"""Discrete Weyl quantization on a periodic position grid.

A symbol a(x, xi) becomes a dense matrix through the symmetrized kernel

    K(x_i, x_j) = (2 pi hbar)^-1 sum_l a((x_i+x_j)/2, xi_l)
                  exp(i (x_i - x_j) xi_l / hbar) dxi dx,

evaluated by one real FFT over the frequency index for every midpoint.
The midpoint rows are streamed in blocks, each evaluated, transformed and
scattered into the result by cached int32 tables, so no N x N temporary
is built beside it.  Real symbols give exactly Hermitian matrices, float64
real symmetric ones when even in xi; complex ones go through by linearity;
symbols independent of xi give diagonal multiplication operators.  States
are sample vectors u(x_k); inner products carry the quadrature weight dx.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_EXP_OVERFLOW = 600.0
# largest grid whose dense N x N operators one run may build; checked when
# the grid is made, before any allocation
MAX_GRID_N = 4096
# midpoint rows quantize evaluates and transforms at a time; at N = 512 one
# block's symbol values and half spectrum take about 0.5 MiB
_BLOCK_ROWS = 64


class GridError(ValueError):
    """Grid cannot represent the requested object."""


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform position grid of N points on [-L, L) with the discrete
    Fourier dual scaled by hbar: xi_j = pi * hbar * (j - N/2) / L."""

    L: float
    N: int
    hbar: float

    def __post_init__(self):
        if self.N % 2 != 0 or self.N <= 0:
            raise GridError(f"N must be a positive even integer, got {self.N}")
        if self.N > MAX_GRID_N:
            raise GridError(f"N = {self.N} exceeds MAX_GRID_N = {MAX_GRID_N}")
        if self.L <= 0 or self.hbar <= 0:
            raise GridError("L and hbar must be positive")
        # x, xi and hermite_mode's x / sqrt(hbar) stay finite where L * L / hbar
        # and hbar / L do
        if not np.isfinite([self.L * self.L / self.hbar, self.hbar / self.L]).all():
            raise GridError(f"grid span overflows: L = {self.L!r}, hbar = {self.hbar!r}")

    @property
    def x(self) -> np.ndarray:
        return -self.L + 2.0 * self.L * np.arange(self.N) / self.N

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def xi(self) -> np.ndarray:
        return np.pi * self.hbar * (np.arange(self.N) - self.N // 2) / self.L


@dataclass(frozen=True)
class WeylOperator:
    """Dense matrix realization of a quantized symbol on a PhaseGrid."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def _is_hermitian(mat: np.ndarray) -> bool:
    scale = max(1.0, float(np.abs(mat).max()))
    return bool(np.abs(mat - mat.conj().T).max() <= 1e-10 * scale)


def quantize(symbol, grid: PhaseGrid) -> WeylOperator:
    """Weyl-quantize a symbol a(x, xi), a vectorized function of two
    arrays (x, xi), on the grid.

    Notes
    -----
    One real FFT per midpoint row (x_i + x_j)/2, O(N^2 log N).  The 2N-1
    rows go in blocks of _BLOCK_ROWS: each block's symbol values are
    checked, transformed, and their entries gathered into the preallocated
    result, so memory beyond the result stays O(N * _BLOCK_ROWS).  Real
    symbols give exactly Hermitian matrices; complex symbols go through by
    linearity, Re and Im apart.  The result is float64 when every midpoint
    row of the symbol is real and even in xi, else complex128.
    """
    n = grid.N
    # midpoints (x_i + x_j)/2 live on the half-step grid of 2N-1 points
    mid = (-2.0 * grid.L + grid.dx * np.arange(2 * n - 1)) / 2.0
    xi = np.fft.ifftshift(grid.xi)[None, :]
    mat = None
    # a block's int32 indices, widened to the intp that numpy gathers fastest
    wide = np.empty(n * _BLOCK_ROWS, dtype=np.intp)
    for s0, s1, dest, src, conjugate in _block_gather(n):
        vals = np.asarray(symbol(mid[s0:s1, None], xi))
        if vals.shape != (s1 - s0, n):
            vals = np.broadcast_to(vals, (s1 - s0, n))
        if not np.all(np.isfinite(vals)):
            raise GridError("symbol evaluated to a non-finite value on the grid")
        np.copyto(idx := wide[:src.size], src)
        entries = _real_kernel(vals.real, idx, conjugate)
        if np.iscomplexobj(vals):
            entries = entries + 1j * _real_kernel(vals.imag, idx, conjugate)
        # float64 until a row odd in xi, or an imaginary part, widens it
        mat = (np.empty((n, n), entries.dtype) if mat is None
               else mat.astype(np.result_type(mat, entries), copy=False))
        np.copyto(idx, dest)
        mat.reshape(-1)[idx] = entries
        del vals, entries  # before the next block is evaluated
    return WeylOperator(matrix=mat)


def _real_kernel(vals: np.ndarray, src: np.ndarray,
                 conjugate: np.ndarray) -> np.ndarray:
    """Entries K[i, j] = (1/N) sum_p vals[i + j - s0, p] e^{2 pi i (i - j) p / N}
    of one block of real midpoint rows, frequencies in FFT order (xi_p =
    pi hbar p / L mod the grid): the Weyl sum, since dxi dx / (2 pi hbar) =
    1/N and no parity twist is left.  Rows even in xi (column p equal to
    N - p) drop the rounding-level imaginary part of their real spectrum."""
    half = np.fft.rfft(vals, axis=1, norm="forward")
    n = vals.shape[1]
    even = (vals[:, 1:n // 2] == vals[:, :n // 2:-1]).all(axis=1)
    if even.all():
        half = half.real.copy()  # frees the complex half before the gather
        return np.take(half, src)
    half.imag[even] = 0.0
    entries = np.take(half, src)
    np.conjugate(entries, out=entries, where=conjugate)
    return entries


@lru_cache(maxsize=1)
def _block_gather(n: int) -> tuple:
    """Per block of midpoint rows s0 <= i + j < s1: the flat destinations
    i N + j in K (ascending), the flat sources in the block's
    (s1 - s0) x (N/2+1) half spectrum, row i + j - s0 and column
    min(r, N - r) with r = (i - j) mod N, and where to conjugate (r <= N/2);
    columns 0 and N/2 are real, so K is exactly Hermitian.  Indices are
    int32, as N^2 <= MAX_GRID_N^2 < 2^31."""
    i = np.arange(n, dtype=np.int32)[:, None]
    blocks = []
    for s0 in range(0, 2 * n - 1, _BLOCK_ROWS):
        s1 = min(s0 + _BLOCK_ROWS, 2 * n - 1)
        j = np.arange(s0, s1, dtype=np.int32)[None, :] - i
        inside = (j >= 0) & (j < n)
        ii, jj = np.broadcast_to(i, j.shape)[inside], j[inside]
        r = (ii - jj) % n
        src = (ii + jj - s0) * (n // 2 + 1) + np.minimum(r, n - r)
        block = (s0, s1, ii * n + jj, src, r <= n // 2)
        for shared in block[2:]:
            shared.setflags(write=False)
        blocks.append(block)
    return tuple(blocks)


def op_exponential(a, t: complex) -> np.ndarray:
    """exp(t A) = V diag(e^(t lam)) V^H of a Hermitian operator from one eigh.

    The growth factor is exactly exp(max |Re(t) lam|), refused beyond e^600;
    imaginary t stays unitary however large.
    """
    mat = a.matrix if isinstance(a, WeylOperator) else np.asarray(a)
    if not _is_hermitian(mat):
        raise ValueError("op_exponential requires a Hermitian generator")
    lam, vec = np.linalg.eigh(mat)
    growth = abs(np.real(t)) * float(np.abs(lam).max())
    if growth > _EXP_OVERFLOW:
        raise OverflowError(
            f"operator exponential refused: max |Re(t) lam| = {growth:.3e} "
            f"exceeds {_EXP_OVERFLOW:.0f}"
        )
    return (vec * np.exp(t * lam)) @ vec.conj().T


def microlocal_cutoff(grid: PhaseGrid, width_x: float = 1.0,
                      width_xi: float | None = None) -> np.ndarray:
    """Dense N x N phase-space cutoff onto states concentrated near the
    origin: a Gaussian envelope in position composed with its Fourier twin
    in momentum.  Runs use its closed-form range (monodromy's
    microlocal_basis); this matrix is kept as the dense reference."""
    if width_xi is None:
        width_xi = width_x
    gx = np.exp(-grid.x ** 2 / (2.0 * width_x ** 2))
    gxi = np.exp(-np.fft.ifftshift(grid.xi) ** 2 / (2.0 * width_xi ** 2))
    # F^-1 diag(gxi) F is the circulant with kernel ifft(gxi)[(i - j) mod N];
    # gxi is even in xi, so the kernel is real
    i, j = np.ogrid[:grid.N, :grid.N]
    return gx[:, None] * np.fft.ifft(gxi).real[(i - j) % grid.N]


def cutoff_range(cutoff: np.ndarray, sv_tol: float = 1e-6) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical range of a cutoff, or
    of any N x k factor F of it (F F^T = A A^T up to scale): left singular
    vectors with sigma >= sv_tol * sigma_max, from one thin SVD."""
    u, s, _ = np.linalg.svd(cutoff, full_matrices=False)
    if s[0] == 0.0:
        raise ValueError("cutoff is identically zero")
    rank = int(np.sum(s >= sv_tol * s[0]))
    return u[:, :rank]
