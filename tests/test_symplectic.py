import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm

from monodromy_lab import symplectic
from monodromy_lab.symplectic import (
    ClassificationAmbiguousError,
    SymplecticError,
    SymplecticMatrix,
    UnsupportedSpectrumError,
    build_quadratic_hamiltonian,
    classify_spectrum,
    random_symplectic,
    standard_form,
    symplectic_defect,
)


def rotation_factor(cls):
    """exp(-J F): the unit-modulus factor of a classified map."""
    return expm(-standard_form(cls.dim) @ cls.F)


def stretch_factor(cls):
    """exp(B): the positive-spectrum factor of a classified map."""
    return expm(cls.B)


def hyp_flow(m):
    """-J Hess(<M x, xi>) for an m x m matrix M: its exponential is the
    time-one flow of the stretch generator."""
    hess = np.block([[np.zeros_like(m), m.T], [m, np.zeros_like(m)]])
    return -standard_form(2 * m.shape[0]) @ hess


def rotation(alpha):
    # exp(-alpha J) in 2D: positively oriented elliptic block
    return np.array([[math.cos(alpha), math.sin(alpha)],
                     [-math.sin(alpha), math.cos(alpha)]])


# ---------------------------------------------------------------------------
# symplectic matrices
# ---------------------------------------------------------------------------

def test_from_array_rejects_nonsymplectic():
    with pytest.raises(SymplecticError, match="defect"):
        SymplecticMatrix.from_array(np.diag([2.0, 2.0]))


# ---------------------------------------------------------------------------
# matrix exponentials
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 6, 8, 10, 12]), st.floats(0.01, 3.0),
       st.integers(0, 2 ** 32 - 1))
def test_expm_matches_scipy(dim, scale, seed):
    m = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(dim, dim))
    gen = scale * standard_form(dim) @ (0.5 * (m + m.T))
    exact = expm(gen)
    assert np.abs(symplectic._expm(gen) - exact).max() <= 1e-12 * np.abs(exact).max()


@pytest.mark.parametrize("lam", [-2.0, 0.0, 0.7, 3.5])
def test_expm_jordan_generator(lam):
    # exp(lam I + N) = e^lam (I + N + N^2/2) for the size-3 nilpotent N
    gen = lam * np.eye(3) + np.eye(3, k=1)
    exact = math.exp(lam) * np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    assert np.abs(symplectic._expm(gen) - exact).max() <= 1e-14 * math.exp(lam)


@pytest.mark.parametrize("dim", [1, 2, 6])
def test_expm_of_zero_is_identity(dim):
    assert np.array_equal(symplectic._expm(np.zeros((dim, dim))), np.eye(dim))


@pytest.mark.parametrize("blocks,angles", [
    ([], [0.5]),
    ([("real-negative", 0.7, 0.0, 1)], []),
    ([("real-negative", 0.4, 0.0, 2), ("real-positive", 0.7, 0.0, 1)], [1.3, 2.9]),
    ([("complex-hyperbolic", 0.5, 0.8, 1), ("real-negative", 1.1, 0.0, 1)], [2.2]),
], ids=["elliptic", "negative", "negative_chain_elliptic", "mixed"])
def test_rotation_factor_matches_scipy(blocks, angles):
    # scipy's expm(-J F) is itself off by up to 2.3e-15 at the angle 2.9,
    # so the closed form is also held to one ulp of cos and sin in mpmath
    mat, _ = _block_built_map(blocks, angles, seed=11, scale=0.4)
    cls = classify_spectrum(SymplecticMatrix.from_array(mat, tol=1e-8))
    f = np.diag(cls.F)[: cls.dim // 2]
    closed = symplectic._rotation_factor(f)
    assert np.abs(closed - rotation_factor(cls)).max() <= 4e-15
    cos = np.diag([float(mpmath.cos(v)) for v in f])
    sin = np.diag([float(mpmath.sin(v)) for v in f])
    assert np.abs(closed - np.block([[cos, sin], [-sin, cos]])).max() <= 2.3e-16


# ---------------------------------------------------------------------------
# spectral classification
# ---------------------------------------------------------------------------

def test_classify_model_map():
    cls = classify_spectrum(np.diag([math.e, 1.0 / math.e]))
    assert (cls.n_hr_plus, cls.n_hc, cls.n_hr_minus, cls.n_e) == (1, 0, 0, 0)
    assert np.allclose(cls.F, 0.0, atol=1e-14)
    assert cls.reconstruction_error <= 1e-10
    assert cls.blocks[0].lam == pytest.approx(1.0, abs=1e-12)


def test_classify_rotation():
    cls = classify_spectrum(rotation(1.0))
    assert (cls.n_e, cls.n_hc, cls.n_hr_plus, cls.n_hr_minus) == (1, 0, 0, 0)
    assert np.allclose(cls.B, 0.0, atol=1e-12)
    assert np.allclose(cls.F, np.eye(2), atol=1e-10)
    assert cls.blocks[0].lam.imag == pytest.approx(1.0, abs=1e-10)
    assert cls.reconstruction_error <= 1e-10


def test_classify_negative_pair():
    cls = classify_spectrum(np.diag([-2.0, -0.5]))
    assert cls.n_hr_minus == 1
    blk = cls.blocks[0]
    assert blk.lam.real == pytest.approx(math.log(2.0), abs=1e-12)
    # rotation block is pi times the identity on this mode
    assert np.allclose(cls.F, math.pi * np.eye(2), atol=1e-12)
    assert np.allclose(rotation_factor(cls), -np.eye(2), atol=1e-12)
    assert cls.reconstruction_error <= 1e-10


def test_classify_identity_is_ambiguous():
    with pytest.raises(ClassificationAmbiguousError):
        classify_spectrum(np.eye(2))


def test_classify_ambiguous_band():
    # eigenvalues at distance 5e-6 from the unit circle with tol_unit 1e-6
    r = 1.0 + 5e-6
    with pytest.raises(ClassificationAmbiguousError, match="ambiguous band"):
        classify_spectrum(np.diag([r, 1.0 / r]), tol_unit=1e-6)


def test_classify_repeated_elliptic_unsupported():
    blk = rotation(0.7)
    mat = np.zeros((4, 4))
    # same rotation angle on two symplectic planes (x1,xi1) and (x2,xi2)
    for i in (0, 1):
        mat[i, i] = blk[0, 0]
        mat[i, i + 2] = blk[0, 1]
        mat[i + 2, i] = blk[1, 0]
        mat[i + 2, i + 2] = blk[1, 1]
    with pytest.raises(UnsupportedSpectrumError, match="multiplicity"):
        classify_spectrum(mat)


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_classify_random_reconstruction(dim):
    rng = np.random.default_rng(100 + dim)
    done = 0
    while done < 25:
        try:
            k = random_symplectic(dim, rng)
            cls = classify_spectrum(k)
        except ClassificationAmbiguousError:
            continue
        assert cls.reconstruction_error <= 1e-8
        # dimension count across block kinds
        total = sum(4 * b.k if b.kind == "complex-hyperbolic"
                    else 2 * b.k for b in cls.blocks)
        assert total == dim
        done += 1


def test_classify_branch_pairing_exact():
    # mirrored eigenvalues get exactly mirrored logarithms: the generator B
    # is real, block-diagonal in (x, xi), and its xi-block is exactly minus
    # the transpose of its x-block, so lambda(1/mu) = -lambda(mu) and
    # lambda(conj mu) = conj(lambda(mu)) hold bit for bit
    rng = np.random.default_rng(5)
    k = random_symplectic(6, rng)
    cls = classify_spectrum(k)
    m = cls.dim // 2
    assert cls.B.dtype == np.float64
    assert np.array_equal(cls.B[m:, m:], -cls.B[:m, :m].T)
    assert not cls.B[:m, m:].any() and not cls.B[m:, :m].any()


def test_classify_then_to_json_reconstructs_once(monkeypatch):
    # classify_spectrum keeps the reconstruction error it checked, so
    # to_json reports it without another exponential; the oracle rebuilds
    # T exp(-J F) exp(B) T^-1 from the fields
    calls = []
    real_expm = symplectic._expm

    def spy(a):
        calls.append(a.shape)
        return real_expm(a)

    mat = random_symplectic(6, np.random.default_rng(3)).entries
    monkeypatch.setattr(symplectic, "_expm", spy)
    cls = classify_spectrum(mat)
    assert len(calls) == 1  # exp(B); exp(-J F) is a closed-form rotation
    doc = json.loads(cls.to_json())
    assert len(calls) == 1
    assert doc["reconstruction_error"] == cls.reconstruction_error
    rec = cls.basis @ rotation_factor(cls) @ stretch_factor(cls) @ np.linalg.inv(cls.basis)
    assert cls.reconstruction_error == pytest.approx(
        np.linalg.norm(rec - mat) / np.linalg.norm(mat), rel=1e-6, abs=1e-15)


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_classify_huge_entries_reconstruct(scale):
    # the unscaled norms overflowed, inf/inf gave a NaN error, and a NaN
    # passed the reconstruction check
    cls = classify_spectrum(np.diag([scale, 1.0 / scale]))
    assert math.isfinite(cls.reconstruction_error)
    assert cls.reconstruction_error <= 1e-12


def test_classify_jordan_block():
    # defective eigenvalue e with a size-2 chain, embedded symplectically
    lam = 1.0
    bx = np.array([[lam, 1.0], [0.0, lam]])
    big = np.zeros((4, 4))
    big[:2, :2] = bx
    big[2:, 2:] = -bx.T
    rng = np.random.default_rng(3)
    t = random_symplectic(4, rng, scale=0.4)
    mat = t.entries @ expm(big) @ np.linalg.inv(t.entries)
    cls = classify_spectrum(mat)
    assert cls.n_hr_plus == 1
    assert cls.blocks[0].k == 2
    assert cls.reconstruction_error <= 1e-10


def _block_built_map(blocks, angles, seed, scale=0.5):
    """exp(-J F) exp(B) from hyperbolic blocks (kind, log, angle, k) and
    elliptic angles, conjugated by a seeded random symplectic matrix.
    Returns the map and every eigenvalue it was built with."""
    bxs, rot, mus = [], [], []
    for kind, lam, theta, k in blocks:
        if kind == "complex-hyperbolic":
            lam2 = np.array([[lam, theta], [-theta, lam]])
            bxs.append(np.kron(np.eye(k), lam2) + np.kron(np.eye(k, k=1), np.eye(2)))
            rot += [0.0] * 2 * k
            mus.append(np.exp(complex(lam, theta)))
        else:
            negative = kind == "real-negative"
            bxs.append(lam * np.eye(k) + np.eye(k, k=1))
            rot += [math.pi * negative] * k
            mus.append(-math.exp(lam) if negative else math.exp(lam))
    for alpha in angles:
        bxs.append(np.zeros((1, 1)))
        rot.append(alpha)
        mus.append(np.exp(1j * alpha))
    bx = block_diag(*bxs)
    m = bx.shape[0]
    big = np.zeros((2 * m, 2 * m))
    big[:m, :m] = bx
    big[m:, m:] = -bx.T
    f = np.diag(rot * 2)
    mat = expm(-standard_form(2 * m) @ f) @ expm(big)
    t = random_symplectic(2 * m, np.random.default_rng(seed), scale=scale).entries
    spectrum = [z for mu in mus for z in (mu, np.conj(mu), 1 / mu, 1 / np.conj(mu))]
    return t @ mat @ np.linalg.inv(t), np.array(spectrum)


def _kinds(cls):
    return sorted((b.kind, b.k) for b in cls.blocks)


@pytest.mark.parametrize("kind,sign", [("real-positive", 1.0), ("real-negative", -1.0)])
def test_classify_repeated_real_pair(kind, sign):
    mu = math.exp(0.6)
    diag = sign * np.diag([mu, mu, 1.0 / mu, 1.0 / mu])
    t = random_symplectic(4, np.random.default_rng(31), scale=0.5).entries
    for mat in (diag, t @ diag @ np.linalg.inv(t)):
        cls = classify_spectrum(SymplecticMatrix.from_array(mat, tol=1e-8))
        assert _kinds(cls) == [(kind, 1), (kind, 1)]
        assert all(b.mu == pytest.approx(sign * mu, rel=1e-12) for b in cls.blocks)
        assert cls.reconstruction_error <= 1e-10


@pytest.mark.parametrize("blocks,expected", [
    ([("complex-hyperbolic", 0.5, 0.8, 1)] * 2, [("complex-hyperbolic", 1)] * 2),
    ([("real-negative", 0.7, 0.0, 2)], [("real-negative", 2)]),
    ([("complex-hyperbolic", 0.5, 0.8, 2)], [("complex-hyperbolic", 2)]),
    ([("real-positive", 0.7, 0.0, 2)] * 2, [("real-positive", 2)] * 2),
], ids=["repeated_complex_quadruple", "negative_jordan_2", "complex_jordan_2",
        "repeated_jordan_2"])
def test_classify_repeated_and_jordan_blocks(blocks, expected):
    mat, spectrum = _block_built_map(blocks, [], seed=37, scale=0.4)
    cls = classify_spectrum(SymplecticMatrix.from_array(mat, tol=1e-8))
    assert _kinds(cls) == expected
    assert cls.reconstruction_error <= 1e-10
    for b in cls.blocks:
        assert np.abs(spectrum - b.mu).min() <= 1e-8 * abs(b.mu)


@pytest.mark.parametrize("blocks,powers,thin", [
    ([("real-positive", 0.7, 0.0, 2)] * 2, 2, 3),
    ([("complex-hyperbolic", 0.5, 0.8, 2)], 2, 2),
], ids=["two_real_chains", "complex_chain"])
def test_classify_jordan_factors_each_power_once(monkeypatch, blocks, powers, thin):
    # one SVD of each power (A - mu)^s gives the staircase rank, the
    # nullspace and, at the last power, the left nullspace W whose J^T W
    # is the omega-dual space; the partner 1/mu's staircase only confirms
    # its cluster.  The other SVDs are of thin n x r matrices, for mu's
    # chains alone (one projection per chain, bar a first chain of size 1,
    # and the chain-basis rank check)
    mat, _ = _block_built_map(blocks, [], seed=37, scale=0.4)
    n = mat.shape[0]
    shapes = []
    real_svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    cls = classify_spectrum(SymplecticMatrix.from_array(mat, tol=1e-8))
    assert _kinds(cls) == sorted((kind, k) for kind, _, _, k in blocks)
    assert shapes.count((n, n)) == 2 * powers
    assert all(cols < n for rows, cols in shapes if (rows, cols) != (n, n))
    assert len(shapes) - shapes.count((n, n)) == thin


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4, 6, 8, 10, 12]), st.integers(0, 2 ** 32 - 1))
def test_classify_random_symplectic_property(dim, seed):
    mat = random_symplectic(dim, np.random.default_rng(seed)).entries
    try:
        cls = classify_spectrum(mat)
    except ClassificationAmbiguousError:
        assume(False)
    assert cls.reconstruction_error <= 1e-8
    assert sum(2 * b.x_width for b in cls.blocks) == dim
    evals = np.linalg.eigvals(mat)
    for b in cls.blocks:
        assert np.abs(evals - b.mu).min() <= 1e-8 * max(1.0, abs(b.mu))


HYPERBOLIC_BLOCK = st.tuples(
    st.sampled_from(["real-positive", "real-negative", "complex-hyperbolic"]),
    st.sampled_from([0.4, 0.7, 1.1]),       # log |mu|
    st.sampled_from([0.5, 1.3, 2.2, 2.9]),  # arg mu of a complex quadruple
    st.integers(1, 2),                      # Jordan size
)


@settings(max_examples=60, deadline=None)
@given(st.lists(HYPERBOLIC_BLOCK, max_size=4),
       st.lists(st.sampled_from([0.5, 1.3, 2.2, 2.9]), unique=True, max_size=3),
       st.integers(0, 2 ** 32 - 1))
def test_classify_block_built_property(blocks, angles, seed):
    """Negative-real, repeated and Jordan blocks under a random symplectic
    conjugation.  A Jordan block's eigenvalues come out of eig split by
    about sqrt(machine epsilon), so the eigenvalue oracle here is the
    spectrum the map was built with."""
    widths = [2 * k if kind == "complex-hyperbolic" else k for kind, _, _, k in blocks]
    assume(0 < sum(widths) + len(angles) <= 6)
    mat, spectrum = _block_built_map(blocks, angles, seed)
    try:
        cls = classify_spectrum(SymplecticMatrix.from_array(mat, tol=1e-8))
    except ClassificationAmbiguousError:
        assume(False)
    assert cls.reconstruction_error <= 1e-8
    assert sum(2 * b.x_width for b in cls.blocks) == mat.shape[0]
    assert _kinds(cls) == sorted([(kind, k) for kind, _, _, k in blocks]
                                 + [("elliptic", 1)] * len(angles))
    for b in cls.blocks:
        assert np.abs(spectrum - b.mu).min() <= 1e-8 * max(1.0, abs(b.mu))


# the maps a greedy 1e-6 clustering got wrong: eig separates the
# eigenvalues of a size-k chain by about (1e-12)^(1/k), past 1e-6 for
# k >= 3; and distinct eigenvalues that share a single-linkage component at
# some JORDAN_SPLIT^(1/k) level, which the rank staircase keeps apart even
# 1e-7 apart, inside the 1e-6 gap the greedy clustering used
CLOSE_EIGENVALUE_MAPS = [
    ([("real-positive", 0.7, 0.0, 3)], [], 37, 0.1),
    ([("real-positive", 0.7, 0.0, 3)], [], 5, 0.3),
    ([("real-negative", 0.7, 0.0, 3)], [1.3], 11, 0.2),
    ([("complex-hyperbolic", 0.5, 0.8, 3)], [], 3, 0.1),
    ([("real-positive", 0.7, 0.0, 4)], [], 3, 0.1),
    ([("real-positive", 0.7, 0.0, 3), ("real-negative", 0.4, 0.0, 1)], [2.2], 8, 0.3),
    ([], [1e-4, 3e-4], 3, 0.1),  # all four eigenvalues within 1e-3 of 1
    ([], [1e-4, 3e-4], 37, 0.3),
    ([], [0.5, 0.50005, 0.5001], 3, 0.1),  # three within 1e-4 on the circle
    ([], [0.5, 0.50005, 0.5001], 37, 0.3),
    ([("real-positive", lam, 0.0, 1) for lam in (0.7, 0.70005, 0.7001)], [], 3, 0.1),
    ([("real-positive", lam, 0.0, 1) for lam in (0.7, 0.70005, 0.7001)], [], 37, 0.3),
    ([], [0.5, 0.5 + 1e-7], 3, 0.1),
    ([("real-positive", lam, 0.0, 1) for lam in (0.7, 0.7 + 1e-7)], [], 37, 0.3),
    ([("complex-hyperbolic", 0.5, theta, 1) for theta in (0.8, 0.8 + 1e-7)], [], 3, 0.1),
    # several chains on one eigenvalue, with sizes two or more apart: each
    # new top vector must be projected off the first `size` columns of the
    # longer chains, which lie in N_size, not off whole chains
    *[([("real-positive", 0.4, 0.5, k) for k in (1, 3)], [], seed, 0.25) for seed in range(4)],
    ([("real-negative", 0.4, 0.5, k) for k in (2, 4)], [], 0, 0.25),
    ([("real-negative", 0.4, 0.5, k) for k in (1, 2, 3)], [], 0, 0.25),
]


@pytest.mark.parametrize("blocks,angles,seed,scale", CLOSE_EIGENVALUE_MAPS, ids=[
    "positive_3_seed37", "positive_3_seed5", "negative_3_elliptic",
    "complex_3", "positive_4", "positive_3_simple_elliptic",
    "distinct_elliptic_near_one_seed3", "distinct_elliptic_near_one_seed37",
    "distinct_elliptic_triple_seed3", "distinct_elliptic_triple_seed37",
    "distinct_real_triple_seed3", "distinct_real_triple_seed37",
    "distinct_elliptic_1e-7", "distinct_real_1e-7", "distinct_complex_1e-7",
    *[f"positive_1_3_seed{seed}" for seed in range(4)], "negative_2_4", "negative_1_2_3"])
def test_classify_close_eigenvalues(blocks, angles, seed, scale):
    mat, spectrum = _block_built_map(blocks, angles, seed=seed, scale=scale)
    cls = classify_spectrum(SymplecticMatrix.from_array(mat, tol=1e-8))
    assert _kinds(cls) == sorted([(kind, k) for kind, _, _, k in blocks]
                                 + [("elliptic", 1)] * len(angles))
    assert cls.reconstruction_error <= 1e-12
    for b in cls.blocks:
        assert np.abs(spectrum - b.mu).min() <= 1e-8 * abs(b.mu)


LONG_CHAIN_BLOCK = st.tuples(
    st.sampled_from(["real-positive", "real-negative", "complex-hyperbolic"]),
    st.sampled_from([0.4, 0.7, 1.1]),       # log |mu|
    st.sampled_from([0.5, 1.3, 2.2, 2.9]),  # arg mu of a complex quadruple
    st.integers(1, 4),                      # Jordan size
)


@settings(max_examples=60, deadline=None)
@given(st.lists(LONG_CHAIN_BLOCK, min_size=1, max_size=3),
       st.lists(st.sampled_from([0.5, 1.3, 2.2, 2.9]), unique=True, max_size=2),
       st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.3))
def test_classify_jordan_chains_up_to_size_four(blocks, angles, seed, scale):
    # blocks that share (kind, log |mu|) are several chains on one
    # eigenvalue.  A size-4 chain at scale 0.3 reconstructs to about 1.4e-12
    # (5.8e-13 even from the exact eigenvalue), so the bound here is 1e-11
    widths = [2 * k if kind == "complex-hyperbolic" else k for kind, _, _, k in blocks]
    assume(sum(widths) + len(angles) <= 6)
    mat, _ = _block_built_map(blocks, angles, seed, scale=scale)
    try:
        cls = classify_spectrum(SymplecticMatrix.from_array(mat, tol=1e-8))
    except ClassificationAmbiguousError:
        assume(False)
    assert _kinds(cls) == sorted([(kind, k) for kind, _, _, k in blocks]
                                 + [("elliptic", 1)] * len(angles))
    assert cls.reconstruction_error <= 1e-11


@settings(max_examples=60, deadline=None)
@given(st.lists(LONG_CHAIN_BLOCK, min_size=1, max_size=3),
       st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.3))
def test_staircase_left_nullspace_spans_the_partner_eigenspace(blocks, seed, scale):
    """classify_spectrum reads a cluster's omega-dual space as J^T W, W the
    left nullspace of its own last staircase power.  The oracle is the
    construction it replaced: the last nullspace of the partner cluster's
    staircase, taken at that cluster's mean."""
    widths = [2 * k if kind == "complex-hyperbolic" else k for kind, _, _, k in blocks]
    assume(sum(widths) <= 6)
    mat, _ = _block_built_map(blocks, [], seed, scale=scale)
    n = mat.shape[0]

    def point(mu):  # as in classify_spectrum
        return mu.real if abs(mu.imag) <= symplectic.REAL_AXIS_TOL * max(1.0, abs(mu)) else mu

    def staircase(mu, k):
        return symplectic._jordan_staircase(mat, point(mu), k)

    def condition(mu, k):  # ||P|| / sigma_r(P), P the last staircase power
        power = np.linalg.matrix_power(mat - point(mu) * np.eye(n), len(staircase(mu, k)[1]))
        sv = np.linalg.svd(power, compute_uv=False)
        return sv[0] / sv[n - k - 1]

    clusters = symplectic._cluster_eigenvalues(np.linalg.eigvals(mat), staircase)
    jordan = [(mu, k) for mu, k in clusters if k > 1 and abs(mu) > 1.0]
    assume(jordan)
    norm = np.linalg.norm(mat, 2)
    for mu, k in jordan:
        dual = standard_form(n).T @ staircase(mu, k)[2]
        partner, count = min(clusters, key=lambda c: abs(c[0] - 1.0 / mu))
        assert count == k
        old = staircase(partner, count)[1][-1]
        # both bases are orthonormal: the sines of the principal angles are
        # the singular values of the part of one off the other's span.  Each
        # nullspace is only accurate to about eps ||P|| / sigma_r(P).  With a
        # second Jordan block near the cluster that passes 1e-10 (sines of
        # 1.8e-10 occur at scale 0.3), and the sines stay below a fifth of it
        bound = np.finfo(float).eps * (condition(mu, k) + condition(partner, count))
        sines = np.linalg.svd(old - dual @ (dual.conj().T @ old), compute_uv=False)
        assert sines.max() <= max(1e-10, bound)
        power = np.linalg.matrix_power(mat - np.eye(n) / point(mu), k)
        assert np.linalg.norm(power @ dual, 2) <= 1e-10 * norm ** k


GROUP = st.tuples(
    st.sampled_from([-2.5, -0.6, 0.4, 1.7, 3.0]),  # centre
    st.integers(1, 4),                              # size
    st.booleans(),                                  # one Jordan chain, or distinct
    st.floats(-6.5, -2.0))                          # log10 spacing when distinct


@settings(max_examples=100, deadline=None)
@given(st.lists(GROUP, min_size=1, max_size=4, unique_by=lambda g: g[0]),
       st.integers(0, 2 ** 32 - 1))
def test_cluster_eigenvalues_finds_generated_groups(groups, seed):
    """A chain of size k is one cluster of k at its centre; k distinct
    eigenvalues spaced 10^-6.5 .. 10^-2 apart stay k clusters, though the
    tighter ones share a component at the JORDAN_SPLIT^(1/k) level.  (At
    10^-7 the staircase itself confirms some of them as one eigenvalue.)"""
    blocks, expected = [], []
    for centre, k, chain, spacing in groups:
        if chain:
            blocks.append(centre * np.eye(k) + np.eye(k, k=1))
            expected.append((centre, k))
        else:
            values = centre + 10.0 ** spacing * (np.arange(k) - (k - 1) / 2)
            blocks.append(np.diag(values))
            expected += [(v, 1) for v in values]
    rng = np.random.default_rng(seed)
    n = sum(b.shape[0] for b in blocks)
    t = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)
    a = t @ block_diag(*blocks) @ np.linalg.inv(t)
    clusters = symplectic._cluster_eigenvalues(
        np.linalg.eigvals(a), lambda mu, k: symplectic._jordan_staircase(a, mu, k))
    assert sorted(count for _, count in clusters) == sorted(k for _, k in expected)
    for centre, k in expected:
        mean, count = min(clusters, key=lambda c: abs(c[0] - centre))
        assert count == k
        assert abs(mean - centre) <= 1e-10


def bfs_cluster_eigenvalues(evals, staircase):
    """Oracle: the clustering with one breadth-first search per level over
    the unclustered eigenvalues, O(n^3) in all."""
    ev = evals[np.lexsort((evals.imag, evals.real))]
    n = ev.size
    gap = np.abs(ev[:, None] - ev) / np.maximum(1.0, np.maximum(abs(ev)[:, None], abs(ev)))
    nearest = (gap + np.diag(np.full(n, np.inf))).min(axis=1)
    ks, bounds = symplectic._level_gaps(n)
    keep = (nearest <= bounds[:, None]).sum(axis=1) >= ks
    free, clusters = np.ones(n, dtype=bool), []
    for k, bound in zip(ks[keep], bounds[keep]):
        link = (gap <= bound) & free & free[:, None]
        seen = link.sum(axis=1) < 2
        for i in np.flatnonzero(~seen):
            if seen[i]:
                continue
            comp, front = link[i].copy(), link[i].copy()
            while front.any():
                front = link[front].any(axis=0) & ~comp
                comp |= front
            seen |= comp
            members = list(np.flatnonzero(comp))
            total = sum(ev[members[1:]], ev[members[0]])
            if len(members) == k and staircase(total / k, k) is not None:
                clusters.append([total, members])
                free[members] = False
    clusters += [[ev[i], [i]] for i in np.flatnonzero(free)]
    return [(total / len(members), len(members))
            for total, members in sorted(clusters, key=lambda c: c[1][0])]


PLANTED = st.tuples(
    st.integers(0, 3),                              # centre, shared by nested groups
    st.integers(2, 6),                              # size
    st.one_of(st.just(-np.inf), st.floats(-16.0, -0.5)),  # log10 spacing
    st.booleans())                                  # on the real axis


@settings(max_examples=150, deadline=None)
@given(st.lists(PLANTED, min_size=1, max_size=5), st.integers(0, 12),
       st.sets(st.integers(2, 12)), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_cluster_eigenvalues_matches_breadth_first_search(groups, background, sizes,
                                                          veto, seed):
    """The Kruskal clustering returns the breadth-first search's (mean,
    count) list bit for bit, and asks the staircase the same questions in
    the same order, on planted groups nested around shared centres with a
    staircase that confirms some sizes and vetoes some means."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4)
    values = [rng.uniform(-3, 3, background) + 1j * rng.uniform(-3, 3, background)]
    for c, k, spacing, real in groups:
        offsets = rng.standard_normal(k) + (0.0 if real else 1j) * rng.standard_normal(k)
        values.append((centres[c].real if real else centres[c]) + 10.0 ** spacing * offsets)
    evals = np.concatenate(values)
    calls = {"kruskal": [], "bfs": []}

    def staircase(side):
        def confirm(mu, k):
            calls[side].append((mu, k))
            return k if k in sizes and int(abs(mu) * 1e3) % veto else None
        return confirm

    got = symplectic._cluster_eigenvalues(evals, staircase("kruskal"))
    want = bfs_cluster_eigenvalues(evals, staircase("bfs"))
    assert got == want
    assert calls["kruskal"] == calls["bfs"]


@pytest.mark.parametrize("k", [2, 3, 5])
def test_cluster_eigenvalues_links_at_exactly_the_level_gap(k):
    # k eigenvalues JORDAN_SPLIT^(1/k) apart in a row, centred on 0 so that
    # each is an exact multiple: every gap sits on the level's bound, which
    # links.  (At k = 5 numpy's array power rounds one ulp below the scalar
    # one, so the level filter and the link must read one table.)
    step = symplectic._level_gaps(k)[1][0]
    assert step == symplectic.JORDAN_SPLIT ** (1.0 / k)
    evals = step * (np.arange(k) - (k - 1) / 2)
    assert np.diff(evals).tolist() == [step] * (k - 1)
    confirm = lambda mu, m: m  # noqa: E731
    assert symplectic._cluster_eigenvalues(evals, confirm) == [(evals.sum() / k, k)]
    assert bfs_cluster_eigenvalues(evals, confirm) == [(evals.sum() / k, k)]


# ---------------------------------------------------------------------------
# quadratic generators
# ---------------------------------------------------------------------------

def test_quadratic_model_case():
    cls = classify_spectrum(np.diag([math.e, 1.0 / math.e]))
    q = build_quadratic_hamiltonian(cls)
    # q = <M x, xi> = x*xi with unit coefficient
    assert q.shape == (1, 1)
    assert q[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(expm(hyp_flow(q)), stretch_factor(cls), atol=1e-10)


def test_quadratic_rotation_case():
    mat = rotation(0.8)
    cls = classify_spectrum(mat)
    # no stretch; rotation generator (alpha/2)(x^2 + xi^2) with F = alpha
    assert build_quadratic_hamiltonian(cls).shape == (0, 0)
    assert cls.F[0, 0] / 2.0 == pytest.approx(0.4, abs=1e-10)
    in_basis = np.linalg.inv(cls.basis) @ mat @ cls.basis
    assert np.allclose(rotation_factor(cls), in_basis, atol=1e-10)


def test_quadratic_complex_hyperbolic_flow():
    lam = 1.0 + 1.0j
    # build a 4x4 symplectic matrix with eigenvalues mu, conj(mu), 1/mu, 1/conj(mu)
    lam2 = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
    big = np.zeros((4, 4))
    big[:2, :2] = lam2
    big[2:, 2:] = -lam2.T
    mat = expm(big)
    cls = classify_spectrum(mat)
    assert cls.n_hc == 1
    m = build_quadratic_hamiltonian(cls)
    # real part couples x.xi diagonally, imaginary part rotates the pair
    assert m[0, 0] == pytest.approx(lam.real, abs=1e-9)
    assert m[1, 1] == pytest.approx(lam.real, abs=1e-9)
    assert m[0, 1] == pytest.approx(lam.imag, abs=1e-9)
    assert m[1, 0] == pytest.approx(-lam.imag, abs=1e-9)
    # oracle: matrix exponential of the flow matrix reproduces exp(B), and
    # there is no rotation factor
    assert np.allclose(expm(hyp_flow(m)), stretch_factor(cls), atol=1e-8)
    assert np.allclose(rotation_factor(cls), np.eye(4), atol=1e-12)


def test_quadratic_real_for_real_inputs():
    rng = np.random.default_rng(17)
    k = random_symplectic(6, rng)
    cls = classify_spectrum(k)
    q = build_quadratic_hamiltonian(cls)
    assert q.dtype == np.float64
    # flow of the full generator stays symplectic
    flow = expm(hyp_flow(q))
    assert symplectic_defect(flow) <= 1e-10


def hyperbolic_width(cls):
    return sum(b.x_width for b in cls.blocks if b.kind != "elliptic")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4, 6, 8, 10, 12]), st.integers(0, 2 ** 32 - 1))
def test_quadratic_is_the_leading_block_of_b(dim, seed):
    # without Jordan chains the generator is B's x-block on the leading
    # hyperbolic slots, bit for bit; B is zero on every elliptic slot, so
    # nothing couples the two kinds of modes
    try:
        cls = classify_spectrum(random_symplectic(dim, np.random.default_rng(seed)))
    except ClassificationAmbiguousError:
        assume(False)
    m, m_h = cls.dim // 2, hyperbolic_width(cls)
    assert all(b.k == 1 for b in cls.blocks)
    q = build_quadratic_hamiltonian(cls)
    assert q.shape == (m_h, m_h)
    assert np.array_equal(q, cls.B[:m_h, :m_h])
    assert not cls.B[:m, m_h:m].any() and not cls.B[m_h:m, :m].any()


@settings(max_examples=60, deadline=None)
@given(st.lists(HYPERBOLIC_BLOCK, min_size=1, max_size=3),
       st.lists(st.sampled_from([0.5, 1.3, 2.2, 2.9]), unique=True, max_size=2),
       st.integers(0, 2 ** 32 - 1))
def test_quadratic_rescales_jordan_chains(blocks, angles, seed):
    # D^-1 M D keeps the spectrum of the stretch block and lifts the
    # symmetric part of every chain to at least Re(lam)/2
    widths = [2 * k if kind == "complex-hyperbolic" else k for kind, _, _, k in blocks]
    assume(sum(widths) + len(angles) <= 6)
    mat, _ = _block_built_map(blocks, angles, seed)
    try:
        cls = classify_spectrum(SymplecticMatrix.from_array(mat, tol=1e-8))
    except ClassificationAmbiguousError:
        assume(False)
    m_h = hyperbolic_width(cls)
    q = build_quadratic_hamiltonian(cls)
    assert q.shape == (m_h, m_h)
    # a chain's eigenvalues come out of eig split by about sqrt(epsilon)
    dist = np.abs(np.linalg.eigvals(q)[:, None] - np.linalg.eigvals(cls.B[:m_h, :m_h]))
    assert dist.min(axis=0).max() <= 1e-6 and dist.min(axis=1).max() <= 1e-6
    floor = min(b.lam.real for b in cls.blocks if b.kind != "elliptic") / 2.0
    assert np.linalg.eigvalsh(0.5 * (q + q.T)).min() >= floor - 1e-12
