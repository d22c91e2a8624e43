import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from monodromy_lab.escape import _BLOCK, PositivityReport, _sample_blocks, verify_positivity
from monodromy_lab.symplectic import (
    build_quadratic_hamiltonian,
    classify_spectrum,
    standard_form,
)


def hyp_flow(m):
    """-J Hess(<M x, xi>): its exponential is the time-one flow of the
    stretch generator."""
    hess = np.block([[np.zeros_like(m), m.T], [m, np.zeros_like(m)]])
    return -standard_form(2 * m.shape[0]) @ hess


def diag_generator(lams):
    return np.diag(np.array(lams, dtype=float))


# ---------------------------------------------------------------------------
# verify_positivity
# ---------------------------------------------------------------------------

def test_positivity_model_identity():
    rng = np.random.default_rng(0)
    report = verify_positivity(diag_generator([1.0]), samples=20000, radius=10.0, rng=rng)
    assert report.min_ratio == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rates", [[1.0], [1.0, 1.0, 1.0]])
def test_positivity_identity_generator_is_exactly_one(rates):
    # with M = I the numerator and the envelope are the same sums
    report = verify_positivity(diag_generator(rates), samples=3 * _BLOCK + 5,
                               radius=10.0, rng=np.random.default_rng(7))
    assert report.min_ratio == 1.0


def test_positivity_diagonal_two_modes():
    rng = np.random.default_rng(1)
    report = verify_positivity(diag_generator([2.0, 3.0]), samples=100000, radius=10.0, rng=rng)
    assert report.min_ratio >= 2.0 - 1e-9
    assert report.min_ratio <= 3.0 + 1e-9


def test_positivity_complex_hyperbolic_block():
    lam = 1.0 + 5.0j
    q = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
    rng = np.random.default_rng(2)
    report = verify_positivity(q, samples=50000, radius=10.0, rng=rng)
    assert report.min_ratio > 0.0


def mixed_generator():
    """Semi-hyperbolic generator: one stretch mode, one elliptic mode."""
    rot = np.array([[math.cos(1.0), math.sin(1.0)], [-math.sin(1.0), math.cos(1.0)]])
    mat = np.zeros((4, 4))
    mat[0, 0], mat[2, 2] = math.e, 1.0 / math.e
    mat[1, 1], mat[1, 3] = rot[0, 0], rot[0, 1]
    mat[3, 1], mat[3, 3] = rot[1, 0], rot[1, 1]
    cls = classify_spectrum(mat)
    assert cls.n_e == 1 and cls.n_hr_plus == 1
    return build_quadratic_hamiltonian(cls)


def test_positivity_excludes_elliptic_modes():
    q = mixed_generator()
    rng = np.random.default_rng(3)
    report = verify_positivity(q, samples=20000, radius=10.0, rng=rng)
    assert report.min_ratio == pytest.approx(1.0, abs=1e-9)


def test_positivity_refuses_map_without_hyperbolic_modes():
    rot = np.array([[math.cos(1.0), math.sin(1.0)], [-math.sin(1.0), math.cos(1.0)]])
    q = build_quadratic_hamiltonian(classify_spectrum(rot))
    assert q.shape == (0, 0)
    with pytest.raises(ValueError, match="no hyperbolic modes"):
        verify_positivity(q, samples=100, radius=10.0, rng=np.random.default_rng(0))


def test_positivity_ratio_matches_finite_differences():
    # oracle: at the reported witness, the central difference of
    # G = (1/2) log((1 + |x|^2) / (1 + |xi|^2)) along the time-t flow
    # expm(t * hyp_flow(q)), divided by the saturating envelope
    rng = np.random.default_rng(11)
    n = 2
    q = rng.standard_normal((n, n))
    report = verify_positivity(q, samples=2000, radius=10.0, rng=rng)
    z = np.concatenate(report.argmin_point)

    def escape(w):
        return 0.5 * math.log((1.0 + w[:n] @ w[:n]) / (1.0 + w[n:] @ w[n:]))

    eps = 1e-6
    flow = hyp_flow(q)
    fd = (escape(expm(eps * flow) @ z) - escape(expm(-eps * flow) @ z)) / (2 * eps)
    nx, nxi = z[:n] @ z[:n], z[n:] @ z[n:]
    envelope = nx / (1.0 + nx) + nxi / (1.0 + nxi)
    assert fd / envelope == pytest.approx(report.min_ratio, abs=1e-6)


def test_positivity_report_serializes():
    rng = np.random.default_rng(5)
    report = verify_positivity(diag_generator([1.0]), samples=100, radius=5.0, rng=rng)
    text = report.to_json()
    assert '"min_ratio"' in text and '"samples"' in text


def one_shot_positivity(m_red, samples, radius, rng):
    """Oracle: the same certificate with every sample drawn first, in the
    certificate's order (per _BLOCK rows, the normals and then the radii;
    then the sweep directions), and then scaled onto its point and
    evaluated at once, in one array."""
    n_h = m_red.shape[0]
    if n_h == 0:
        raise ValueError("generator has no hyperbolic modes to certify")

    dim = 2 * n_h
    blocks = []
    for start in range(0, samples, _BLOCK):
        size = min(_BLOCK, samples - start)
        dirs = rng.standard_normal((size, dim))
        radii = radius * rng.uniform(0.0, 1.0, size=size) ** (1.0 / dim)
        blocks.append((dirs, radii))
    pts = np.vstack([d for d, _ in blocks])
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= np.concatenate([r for _, r in blocks])[:, None]

    sweep_dirs = rng.standard_normal((64, dim))
    sweep_dirs /= np.linalg.norm(sweep_dirs, axis=1)[:, None]
    sweep_radii = np.geomspace(1e-2, 1e3, 40)
    sweep = (sweep_dirs[:, None, :] * sweep_radii[None, :, None]).reshape(-1, dim)

    all_pts = np.vstack([pts, sweep])
    x_all = all_pts[:, :n_h]
    xi_all = all_pts[:, n_h:]
    # vectorized Re(H_q G): <M x, x/(1+|x|^2)> + <M xi, xi/(1+|xi|^2)>
    x_norm2 = np.einsum("ij,ij->i", x_all, x_all)
    xi_norm2 = np.einsum("ij,ij->i", xi_all, xi_all)
    num = (np.einsum("ij,ij->i", x_all @ m_red.T, x_all) / (1.0 + x_norm2)
           + np.einsum("ij,ij->i", xi_all @ m_red.T, xi_all) / (1.0 + xi_norm2))
    env = x_norm2 / (1.0 + x_norm2) + xi_norm2 / (1.0 + xi_norm2)
    keep = env > 1e-14
    ratios = num[keep] / env[keep]
    idx = int(np.argmin(ratios))
    witness = all_pts[keep][idx]
    return PositivityReport(
        min_ratio=float(ratios[idx]),
        argmin_point=(tuple(witness[:n_h]), tuple(witness[n_h:])),
        samples=int(keep.sum()),
        radius=radius,
    )


def coupled_generator():
    return np.array([[1.0, 0.7], [-0.4, 2.0]])


GENERATORS = {
    "diagonal": lambda: diag_generator([1.0, 2.0, 0.5]),
    "coupled": coupled_generator,
    "mixed_elliptic": mixed_generator,
}


# around one and three blocks, and around the same counts for blocks of
# 1 << 16 rows, which end on a block boundary here too
@pytest.mark.parametrize("samples", [
    1, 7, *(n + d for n in (_BLOCK, 1 << 16) for d in (-1, 0, 1)),
    3 * _BLOCK + 17, 3 * (1 << 16) + 17])
@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_streamed_positivity_matches_one_shot(kind, samples):
    q = GENERATORS[kind]()
    rng = np.random.default_rng(samples)
    oracle_rng = copy.deepcopy(rng)
    got = verify_positivity(q, samples=samples, radius=10.0, rng=rng)
    want = one_shot_positivity(q, samples=samples, radius=10.0, rng=oracle_rng)
    # the certificate evaluates off the raw draws, the oracle off the
    # scaled points: the two associations differ by a few ulps
    assert got.samples == want.samples
    assert got.min_ratio == pytest.approx(want.min_ratio, rel=1e-14, abs=0.0)
    for got_half, want_half in zip(got.argmin_point, want.argmin_point):
        assert got_half == pytest.approx(want_half, rel=1e-14, abs=0.0)
    # the caller's generator ends in the same state
    assert rng.random() == oracle_rng.random()


def test_positivity_memory_does_not_grow_with_samples():
    # the one-shot certificate peaks at about 192 MiB here, the streamed
    # one at a few _BLOCK x dim arrays
    q = diag_generator([1.0, 2.0, 0.5])
    tracemalloc.start()
    try:
        report = verify_positivity(q, samples=10 ** 6, radius=10.0,
                                   rng=np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.samples == 10 ** 6 + 64 * 40
    assert peak < 4 * 2 ** 20


@settings(max_examples=25, deadline=None)
@given(rates=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_positivity_diagonal_ratio_within_rates(rates, seed):
    # for a diagonal generator the ratio is an average of the rates
    report = verify_positivity(diag_generator(rates), samples=500, radius=10.0,
                               rng=np.random.default_rng(seed))
    assert min(rates) - 1e-12 <= report.min_ratio <= max(rates) + 1e-12
    x, xi = (np.array(v) for v in report.argmin_point)
    nx, nxi = x @ x, xi @ xi
    r = np.array(rates)
    num = (r * x ** 2).sum() / (1.0 + nx) + (r * xi ** 2).sum() / (1.0 + nxi)
    ratio = num / (nx / (1.0 + nx) + nxi / (1.0 + nxi))
    assert ratio == pytest.approx(report.min_ratio, abs=1e-12)



def pre_inplace_positivity(m, samples, radius, rng):
    """Oracle: the certificate as it was before its block pass went in
    place, with a new array per step and the halves summed by .sum(axis=1)."""
    n_h = m.shape[0]
    dim = 2 * n_h
    m_both = np.zeros((dim, dim))
    m_both[:n_h, :n_h] = m_both[n_h:, n_h:] = m.T
    halves = np.zeros((dim, 2))
    halves[:n_h, 0] = halves[n_h:, 1] = 1.0
    min_ratio, witness, kept = math.inf, None, 0
    for g, rho in _sample_blocks(rng, samples, radius, dim):
        n = (g * g) @ halves
        a = (g @ m_both * g) @ halves
        s = (rho * rho / n.sum(axis=1))[:, None]
        n, a = n * s, a * s
        num = (a / (1.0 + n)).sum(axis=1)
        env = (n / (1.0 + n)).sum(axis=1)
        assert np.isfinite(num).all() and np.isfinite(env).all() and env.min() >= np.finfo(float).tiny
        kept += env.size
        ratios = num / env
        idx = int(np.argmin(ratios))
        if witness is None or ratios[idx] < min_ratio:
            min_ratio = float(ratios[idx])
            witness = g[idx] * (rho[idx] / np.linalg.norm(g[idx]))
    return PositivityReport(min_ratio, (tuple(map(float, witness[:n_h])),
                                        tuple(map(float, witness[n_h:]))), kept, radius)


def jordan_chain_generator(lam=0.3, k=3):
    """The rescaled stretch matrix of exp(diag(N, -N^T)), N = lam I + the
    unit superdiagonal: one Jordan chain of length k."""
    n = lam * np.eye(k) + np.eye(k, k=1)
    big = np.zeros((2 * k, 2 * k))
    big[:k, :k], big[k:, k:] = n, -n.T
    return build_quadratic_hamiltonian(classify_spectrum(expm(big)))


BITWISE_GENERATORS = {
    **GENERATORS, "jordan_chain": jordan_chain_generator,
    # the rate sets of the benchmark's normal-forms positivity runs
    **{"rates-" + "-".join(map(str, r)): lambda r=r: diag_generator(r)
       for r in ([1.0, 2.0, 0.5], [0.3, 3.0], [1.0])}}


@pytest.mark.parametrize("samples", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17, 10 ** 5])
@pytest.mark.parametrize("kind", sorted(BITWISE_GENERATORS))
def test_inplace_positivity_is_bitwise_the_old_pass(kind, samples):
    q = BITWISE_GENERATORS[kind]()
    rng = np.random.default_rng(samples)
    oracle_rng = copy.deepcopy(rng)
    got = verify_positivity(q, samples=samples, radius=10.0, rng=rng)
    want = pre_inplace_positivity(q, samples=samples, radius=10.0, rng=oracle_rng)
    assert got.to_json() == want.to_json()
    assert rng.random() == oracle_rng.random()


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1))
def test_positivity_coupled_ratio_bounded_by_symmetric_part(dim, seed):
    """For a non-diagonal M whose symmetric part S is positive definite,
    every sampled ratio is a weighted mean of two Rayleigh quotients of S,
    so min_ratio >= lambda_min(S); the witness's ratio, recomputed from its
    point, is min_ratio."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    sym = basis @ np.diag(rng.uniform(0.5, 3.0, dim)) @ basis.T
    skew = rng.uniform(-1.0, 1.0, (dim, dim))
    m = sym + skew - skew.T
    report = verify_positivity(m, samples=2000, radius=10.0, rng=rng)
    assert report.min_ratio >= np.linalg.eigvalsh((m + m.T) / 2).min() - 1e-12
    x, xi = (np.array(v) for v in report.argmin_point)
    nx, nxi = x @ x, xi @ xi
    num = (m @ x) @ x / (1.0 + nx) + (m @ xi) @ xi / (1.0 + nxi)
    ratio = num / (nx / (1.0 + nx) + nxi / (1.0 + nxi))
    assert ratio == pytest.approx(report.min_ratio, rel=1e-14, abs=1e-14)
