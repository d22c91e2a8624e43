"""Symplectic linear algebra: spectral classification of linearized
return maps into the real factorization exp(-J F) exp(B), and the stretch
generator of exp(B) that `escape.verify_positivity` certifies the escape
function against.

Conventions
-----------
Phase space is R^(2m) with coordinates z = (x_1..x_m, xi_1..xi_m).  The
symplectic structure is the bilinear form omega(v, w) = v^T J w with

    J = [[0, -I], [I, 0]],

so a matrix K is symplectic iff K^T J K = J, and the Lie algebra consists
of B with B^T J + J B = 0.  The Hamiltonian flow matrix of a quadratic
form q(z) = (1/2) z^T H z is -J H (Hamilton's equations
xdot = dq/dxi, xidot = -dq/dx).

The stretch generator is q = <M x, xi> on the hyperbolic modes, passed on
as the plain matrix M.  Its Jordan chains are rescaled so that the
symmetric part of M is positive definite (see build_quadratic_hamiltonian).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

# coefficients C(13, k) / (26!/(26-k)!) of the degree-13 Pade approximant of
# exp, and the 1-norm up to which it is accurate to double precision (Higham 2005)
_PADE13 = tuple(math.comb(13, k) / math.perm(26, k) for k in range(14))
_THETA13 = 5.371920351148152

DEFAULT_SYMPLECTIC_TOL = 1e-10
# a cluster whose imaginary part is below this (relative) is factored in real arithmetic
REAL_AXIS_TOL = 1e-6
# eig splits a k-fold eigenvalue by about JORDAN_SPLIT^(1/k), relative
JORDAN_SPLIT = 1e-12
# singular values below this fraction of the largest count as zero
RANK_TOL = 1e-8
# largest relative error of T exp(-J F) exp(B) T^-1 against the input
RECONSTRUCTION_TOL = 1e-8

KIND_COMPLEX_HYPERBOLIC = "complex-hyperbolic"
KIND_REAL_POSITIVE = "real-positive"
KIND_REAL_NEGATIVE = "real-negative"
KIND_ELLIPTIC = "elliptic"


class SymplecticError(ValueError):
    """Input fails a symplectic-structure precondition."""


class ClassificationAmbiguousError(SymplecticError):
    """An eigenvalue sits in the ambiguous band around the unit circle,
    or exactly at +-1, where no stability type can be assigned."""


class UnsupportedSpectrumError(SymplecticError):
    """Spectrum shape outside the supported classification (for example a
    repeated eigenvalue on the unit circle)."""


def standard_form(dim: int) -> np.ndarray:
    """Matrix of the symplectic form on R^dim: -I upper-right, I lower-left."""
    if dim % 2 != 0 or dim <= 0:
        raise SymplecticError(f"phase-space dimension must be a positive even integer, got {dim}")
    m = dim // 2
    j = np.zeros((dim, dim))
    j[:m, m:] = -np.eye(m)
    j[m:, :m] = np.eye(m)
    return j


def symplectic_defect(mat: np.ndarray) -> float:
    """Frobenius norm of K^T J K - J."""
    mat = np.asarray(mat, dtype=float)
    j = standard_form(mat.shape[0])
    return float(np.linalg.norm(mat.T @ j @ mat - j))


@dataclass(frozen=True)
class SymplecticMatrix:
    """Even-dimensional real matrix whose symplectic defect passed a check."""

    entries: np.ndarray
    dim: int

    @classmethod
    def from_array(cls, mat, tol: float = DEFAULT_SYMPLECTIC_TOL) -> "SymplecticMatrix":
        mat = np.array(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise SymplecticError(f"expected a square matrix, got shape {mat.shape}")
        defect = symplectic_defect(mat)
        if defect > tol:
            raise SymplecticError(
                f"matrix is not symplectic: defect {defect:.3e} exceeds tolerance {tol:.3e}"
            )
        mat.setflags(write=False)
        return cls(entries=mat, dim=mat.shape[0])


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring the degree-13 Pade
    approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 2005): numpy's
    matmul and solve, so the package never imports scipy.linalg."""
    s = max(0, math.frexp(np.linalg.norm(a, 1) / _THETA13)[1])
    a = a / 2.0 ** s
    b, eye = _PADE13, np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def random_symplectic(dim: int, rng: np.random.Generator, scale: float = 1.0) -> SymplecticMatrix:
    """_expm of a random Lie-algebra element J S, S symmetric with entries
    uniform in [-1, 1]; symplectic to exponential accuracy."""
    m = rng.uniform(-1.0, 1.0, size=(dim, dim))
    gen = standard_form(dim) @ (0.5 * (m + m.T))
    return SymplecticMatrix.from_array(_expm(scale * gen), tol=1e-8)


# ---------------------------------------------------------------------------
# Spectral classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralBlock:
    """One invariant block of the linearized return map.

    mu is the representative eigenvalue (|mu| > 1 for hyperbolic kinds,
    |mu| = 1 for elliptic), k its Jordan multiplicity, lam the chosen
    logarithm branch, and kind one of the four block kinds.
    """

    mu: complex
    k: int
    lam: complex
    kind: str

    @property
    def x_width(self) -> int:
        # number of x-coordinates this block occupies
        return 2 * self.k if self.kind == KIND_COMPLEX_HYPERBOLIC else self.k


@dataclass(frozen=True)
class SpectralClassification:
    """Eigenvalue inventory of a symplectic matrix together with the real
    factorization dS = exp(-J F) exp(B) in an adapted symplectic basis.

    ``basis`` holds the symplectic change of coordinates T, so that
    T^{-1} dS T = exp(-J F) exp(B) with B block-diagonal in the adapted
    coordinates (hyperbolic generator) and F symmetric diagonal (rotation
    generator: pi per real-negative mode, the signed angle per elliptic
    mode, zero elsewhere).  ``reconstruction_error`` is the relative error
    of T exp(-J F) exp(B) T^{-1} against the classified matrix.
    """

    dim: int
    blocks: tuple
    B: np.ndarray
    F: np.ndarray
    basis: np.ndarray
    reconstruction_error: float

    def __post_init__(self):
        for arr in (self.B, self.F, self.basis):
            arr.setflags(write=False)

    @property
    def n_hc(self) -> int:
        return sum(1 for b in self.blocks if b.kind == KIND_COMPLEX_HYPERBOLIC)

    @property
    def n_hr_plus(self) -> int:
        return sum(1 for b in self.blocks if b.kind == KIND_REAL_POSITIVE)

    @property
    def n_hr_minus(self) -> int:
        return sum(1 for b in self.blocks if b.kind == KIND_REAL_NEGATIVE)

    @property
    def n_e(self) -> int:
        return sum(1 for b in self.blocks if b.kind == KIND_ELLIPTIC)

    def to_json(self) -> str:
        return json.dumps({
            "dim": self.dim,
            "n_hc": self.n_hc,
            "n_hr_plus": self.n_hr_plus,
            "n_hr_minus": self.n_hr_minus,
            "n_e": self.n_e,
            "blocks": [
                {
                    "mu": [b.mu.real, b.mu.imag],
                    "multiplicity": b.k,
                    "log": [b.lam.real, b.lam.imag],
                    "kind": b.kind,
                }
                for b in self.blocks
            ],
            "rotation_diagonal": [float(v) for v in np.diag(self.F)[: self.dim // 2]],
            "reconstruction_error": self.reconstruction_error,
        }, indent=2, allow_nan=False)


def _level_gaps(n: int):
    """Cluster sizes k = n .. 2 and their relative gaps JORDAN_SPLIT^(1/k),
    each a scalar power: the one table that picks the levels and links at
    them (numpy's array power rounds one ulp lower at k = 5, 12, 31, ...)."""
    ks = np.arange(n, 1, -1)
    return ks, np.array([JORDAN_SPLIT ** (1.0 / k) for k in ks.tolist()])


def _cluster_eigenvalues(evals: np.ndarray, staircase):
    """(mean, count) per cluster, in lexsort order, summed in that order.
    For k = n .. 2, a single-linkage component of k unclustered eigenvalues
    at relative gap JORDAN_SPLIT^(1/k) is one cluster if staircase(mean, k)
    confirms a k-fold eigenvalue there; every other eigenvalue is a cluster
    of one.  A cluster is a whole component at its level, so a union of them
    at lower, tighter levels: one Kruskal pass gives every level's components."""
    ev = evals[np.lexsort((evals.imag, evals.real))]
    n = ev.size
    gap = np.abs(ev[:, None] - ev) / np.maximum(1.0, np.maximum(abs(ev)[:, None], abs(ev)))
    nearest = (gap + np.diag(np.full(n, np.inf))).min(axis=1)  # to another eigenvalue
    # a k-member component needs k eigenvalues with a neighbour inside its gap
    ks, bounds = _level_gaps(n)
    keep = (nearest <= bounds[:, None]).sum(axis=1) >= ks
    levels, bounds = ks[keep], bounds[keep]
    found = {}  # k: the components of exactly k eigenvalues at level k
    if levels.size:  # Kruskal, adding the gaps of each wider level in turn
        i, j = np.nonzero(np.triu(gap <= bounds[0], 1))
        order = np.argsort(gap[i, j])
        w, i, j = gap[i, j][order], i[order].tolist(), j[order].tolist()
        label, done = np.arange(n), 0
        for k, bound in zip(levels[::-1], bounds[::-1]):
            stop = int(np.searchsorted(w, bound, side="right"))
            for a, b in zip(i[done:stop], j[done:stop]):
                if label[a] != label[b]:
                    label[label == label[b]] = label[a]
            done, sizes = stop, np.bincount(label, minlength=n)
            found[k] = sorted(np.flatnonzero(label == c).tolist() for c in np.flatnonzero(sizes == k))
    free, clusters = np.ones(n, dtype=bool), []  # clusters: [sum, members]
    for k in levels:
        for members in found[k]:
            total = sum(ev[members[1:]], ev[members[0]])
            # a component is clustered whole or not at all
            if free[members].all() and staircase(total / k, k) is not None:
                clusters.append([total, members])
                free[members] = False
    clusters += [[ev[i], [i]] for i in np.flatnonzero(free)]
    return [(total / len(members), len(members))
            for total, members in sorted(clusters, key=lambda c: c[1][0])]


def _rank(sv: np.ndarray) -> int:
    """Numerical rank read off descending singular values at RANK_TOL."""
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_TOL * sv[0]))


def _jordan_staircase(a: np.ndarray, mu, mult: int):
    """Jordan block sizes of mu, largest first, the nested nullspaces N_s
    of (A - mu)^s, and W with W^T (A - mu)^s = 0 at the last power; None
    unless the ranks fall by mult in all, no step by more than the one
    before.  One full SVD of each power gives its rank, read at
    RANK_TOL ||A - mu||^s, N_s, the right singular directions past that
    rank, and (at the last power) W, the conjugated left ones.  For a
    symplectic A, A^T = J A^-1 J^T, so (A - 1/mu)^s J^T W = 0: J^T W spans
    the generalized eigenspace of the partner 1/mu."""
    n = a.shape[0]
    shifted = a - mu * np.eye(n)
    ranks, nulls = [n], []
    power = np.eye(n)
    for s in range(1, mult + 1):
        power = power @ shifted
        u, sv, vh = np.linalg.svd(power)
        norm = sv[0] if s == 1 else norm
        ranks.append(int(np.sum(sv > RANK_TOL * norm ** s)))
        nulls.append(vh[ranks[-1]:].conj().T)
        drop = ranks[-2] - ranks[-1]
        if ranks[-1] <= n - mult or drop == 0 or (s > 1 and drop > ranks[-3] - ranks[-2]):
            break
    # number of blocks of size >= s is rank((A-mu)^(s-1)) - rank((A-mu)^s)
    at_least = -np.diff(ranks)
    counts = at_least - np.append(at_least[1:], 0)  # blocks of size exactly s
    if ranks[-1] != n - mult or counts.min() < 0:
        return None
    sizes = [s for s in range(len(counts), 0, -1) for _ in range(counts[s - 1])]
    return sizes, nulls, u[:, ranks[-1]:].conj()


def _jordan_chains(a: np.ndarray, mu, stair):
    """Chain basis columns for the generalized eigenspace of mu, from its
    confirmed _jordan_staircase, largest chain first, so that A acts on each
    chain as mu exp(N), N the unit-superdiagonal nilpotent: each chain is
    built with L = log(A / mu), not with A - mu.  Works in mu's own
    arithmetic: real chains for real mu."""
    sizes, nulls, _ = stair
    n = a.shape[0]
    # log(I + (A - mu)/mu) as a finite series: its terms from the largest
    # chain size on vanish on the generalized eigenspace
    nil = (a - mu * np.eye(n)) / mu
    log_a, term = np.zeros_like(nil), np.eye(n, dtype=nil.dtype)
    for j in range(1, sizes[0]):
        term = term @ nil
        log_a += ((-1) ** (j + 1) / j) * term
    chains = []
    for size in sizes:  # descending
        top_space = nulls[size - 1]
        # project away N_(size-1) and the first `size` columns of each chain
        # already taken; all lie in N_size, so the projected top vector stays
        # there.  They overlap, so the basis of their span must be
        # rank-revealing (a QR basis adds a stray direction)
        avoid = [c[:, :size] for c in chains] + ([nulls[size - 2]] if size >= 2 else [])
        candidates = top_space
        if avoid:
            u, sv, _ = np.linalg.svd(np.hstack(avoid), full_matrices=False)
            q = u[:, :_rank(sv)]
            candidates = top_space - q @ (q.conj().T @ top_space)
        norms = np.linalg.norm(candidates, axis=0)
        top = candidates[:, int(np.argmax(norms))]
        if np.linalg.norm(top) < 1e-10:
            raise UnsupportedSpectrumError(
                f"failed to extract a Jordan chain of size {size} for eigenvalue {mu}"
            )
        chain = [top / np.linalg.norm(top)]
        for _ in range(size - 1):
            chain.append(log_a @ chain[-1])
        chains.append(np.column_stack(chain[::-1]))  # column 0 is an eigenvector
    if _rank(np.linalg.svd(np.hstack(chains), compute_uv=False)) < sum(sizes):
        raise UnsupportedSpectrumError(f"Jordan chain basis for {mu} is rank deficient")
    return chains


def _real_basis_from_complex(cols: np.ndarray) -> np.ndarray:
    """Realify complex columns u -> (Re u, Im u) pairs, interleaved."""
    out = []
    for j in range(cols.shape[1]):
        out.append(cols[:, j].real)
        out.append(cols[:, j].imag)
    return np.column_stack(out)


def _rotation_factor(f: np.ndarray) -> np.ndarray:
    """exp(-J diag(f, f)) in closed form: a rotation by f_i per mode."""
    cos, sin = np.cos(f), np.sin(f)
    return np.diag(np.concatenate([cos, cos])) + np.diag(sin, f.size) - np.diag(sin, -f.size)


def _generator_block(b: SpectralBlock) -> np.ndarray:
    """Real x-block of B for a hyperbolic block: lam I + N for a real
    eigenvalue; for a complex one, 2x2 rotations-plus-stretch on the
    diagonal and 2x2 identity couplings above."""
    lam, d = b.lam, b.x_width // b.k
    diag = [[lam.real, lam.imag], [-lam.imag, lam.real]] if d == 2 else lam.real
    blk = np.eye(b.x_width, k=d)
    for i in range(0, b.x_width, d):
        blk[i:i + d, i:i + d] = diag
    return blk


def classify_spectrum(ds, tol_unit: float = 1e-6) -> SpectralClassification:
    """Classify the spectrum of a symplectic matrix and build the real
    factorization dS = exp(-J F) exp(B) in an adapted symplectic basis.

    Eigenvalues are sorted into four kinds: complex-hyperbolic quadruples
    (|mu| > 1, Im mu != 0), real pairs mu > 1, real pairs mu < -1, and
    unit-modulus elliptic pairs.  Repeated hyperbolic eigenvalues are
    supported, with one or several Jordan chains each; their block sizes
    are detected by staircase rank tests, whose left nullspace W also gives
    the omega-dual space J^T W of the partner 1/mu (see _jordan_staircase).
    Repeated elliptic eigenvalues are refused.  Elliptic angles are signed
    by the symplectic orientation of the invariant plane, so a
    negatively-oriented rotation carries Im(lam) < 0.  The factorization
    must reconstruct the input to relative error RECONSTRUCTION_TOL.

    Parameters
    ----------
    ds : SymplecticMatrix or array
    tol_unit : float
        Distance to the unit circle below which an eigenvalue counts as
        unit-modulus.  Eigenvalues with distance in (tol_unit, 10*tol_unit)
        are refused as ambiguous.

    Raises
    ------
    ClassificationAmbiguousError
        Eigenvalue in the ambiguous band, or at +-1.
    UnsupportedSpectrumError
        Repeated elliptic eigenvalue (multiplicity > 1), or Jordan chains
        the rank tests cannot extract.
    SymplecticError
        Adapted basis not symplectic, or reconstruction error past
        RECONSTRUCTION_TOL.
    """
    if not isinstance(ds, SymplecticMatrix):
        ds = SymplecticMatrix.from_array(ds)
    a = ds.entries
    n = ds.dim
    m = n // 2
    evals, evecs = np.linalg.eig(a)

    def point(mu):  # a real cluster is factored in real arithmetic
        return mu.real if abs(mu.imag) <= REAL_AXIS_TOL * max(1.0, abs(mu)) else mu

    stairs = {}

    def staircase(mu, mult):
        # A is real, so a conjugate point reuses the conjugate nullspaces
        mu = point(mu)
        if (mu, mult) not in stairs and (mu.conjugate(), mult) in stairs:
            stair = stairs[mu.conjugate(), mult]
            stairs[mu, mult] = stair and (stair[0], [v.conj() for v in stair[1]], stair[2].conj())
        if (mu, mult) not in stairs:
            stairs[mu, mult] = _jordan_staircase(a, mu, mult)
        return stairs[mu, mult]

    clusters = _cluster_eigenvalues(evals, staircase)
    groups = []   # (representative mu, multiplicity, kind)
    for mu, mult in clusters:
        dist = abs(abs(mu) - 1.0)
        real = np.isrealobj(point(mu))
        if dist <= tol_unit:
            if real:
                raise ClassificationAmbiguousError(
                    f"eigenvalue {mu:.6g} sits at +-1 on the unit circle; "
                    "neither hyperbolic nor nonresonant-elliptic"
                )
            if mu.imag > 0:
                if mult > 1:
                    raise UnsupportedSpectrumError(
                        f"elliptic eigenvalue {mu / abs(mu):.6g} has multiplicity {mult}; "
                        "repeated unit-modulus eigenvalues are unsupported"
                    )
                groups.append((mu / abs(mu), 1, KIND_ELLIPTIC))
            continue
        if dist < 10.0 * tol_unit:
            raise ClassificationAmbiguousError(
                f"eigenvalue {mu:.6g} lies in the ambiguous band around the unit "
                f"circle (distance {dist:.3e}, tol {tol_unit:.1e})"
            )
        if abs(mu) < 1.0:
            continue  # handled through its reciprocal partner
        if real:
            kind = KIND_REAL_POSITIVE if mu.real > 0 else KIND_REAL_NEGATIVE
            groups.append((mu.real, mult, kind))
        elif mu.imag > 0:
            groups.append((mu, mult, KIND_COMPLEX_HYPERBOLIC))
        # Im mu < 0 representatives are the conjugates; skipped.

    def eig_column(mu):
        # column of the shared eig for a simple eigenvalue, real for real mu
        col = evecs[:, [int(np.argmin(np.abs(evals - mu)))]]
        return col if np.iscomplexobj(mu) else col.real

    parts = []    # (block, its x-half basis columns, its xi-half columns)
    j_form = standard_form(n)
    for mu, mult, kind in groups:
        if kind == KIND_ELLIPTIC:
            u = eig_column(mu)[:, 0]
            gamma = complex(u @ (j_form @ np.conj(u))) / 1j  # omega(u, conj u) = i*gamma
            gamma = gamma.real
            if abs(gamma) < 1e-12:
                raise UnsupportedSpectrumError(
                    f"degenerate symplectic pairing for elliptic eigenvalue {mu:.6g}"
                )
            if gamma < 0:
                u = np.conj(u)       # negatively oriented plane: flip representative
                mu = np.conj(mu)
                gamma = -gamma
            u = u * math.sqrt(2.0 / gamma)
            parts.append((SpectralBlock(mu=mu, k=1, lam=complex(0.0, cmath.log(mu).imag),
                                        kind=kind), u.real[:, None], u.imag[:, None]))
            continue
        hc = kind == KIND_COMPLEX_HYPERBOLIC
        lam = cmath.log(mu) if hc else complex(math.log(abs(mu)))
        if mult == 1:
            chains = [eig_column(mu)]
            dual_space = eig_column(1.0 / mu)
        else:  # the cluster's own staircase: J^T W spans the eigenspace of 1/mu
            stair = staircase(mu, mult)
            chains, dual_space = _jordan_chains(a, mu, stair), j_form.T @ stair[2]
        # omega-dual basis of all chains at once: omega(x_i, f_j) = -c delta_ij,
        # c = 2 for the realified complex pairs (for a cluster, C^T J J^T W = C^T W)
        gram = np.hstack(chains).T @ j_form @ dual_space
        w = dual_space @ np.linalg.solve(gram, -(2.0 if hc else 1.0) * np.eye(mult))
        splits = np.cumsum([c.shape[1] for c in chains])[:-1]
        for c, w_cols in zip(chains, np.hsplit(w, splits)):
            k = c.shape[1]
            if hc:  # (Re u, Im u) against (Re w, -Im w)
                c, w_cols = _real_basis_from_complex(c), _real_basis_from_complex(w_cols.conj())
            parts.append((SpectralBlock(mu=complex(mu), k=k, lam=lam, kind=kind), c, w_cols))

    # --- order blocks: hc, hr+, hr-, elliptic --------------------------------
    kind_order = {KIND_COMPLEX_HYPERBOLIC: 0, KIND_REAL_POSITIVE: 1,
                  KIND_REAL_NEGATIVE: 2, KIND_ELLIPTIC: 3}
    parts.sort(key=lambda part: (kind_order[part[0].kind], -part[0].k))
    blocks, x_cols, f_groups = zip(*parts)

    if sum(c.shape[1] for c in x_cols) != m:
        raise UnsupportedSpectrumError(
            "classified blocks do not fill the phase space: "
            f"{sum(c.shape[1] for c in x_cols)} x-columns for m = {m}"
        )

    basis = np.column_stack([np.hstack(x_cols), np.hstack(f_groups)])
    basis_defect = symplectic_defect(basis)
    if basis_defect > 1e-6:
        raise SymplecticError(
            f"adapted basis is not symplectic: defect {basis_defect:.3e}"
        )

    # --- assemble B and F in the adapted coordinates -------------------------
    big_b = np.zeros((n, n))
    big_f = np.zeros((n, n))
    pos = 0
    for b in blocks:
        w = b.x_width
        if b.kind == KIND_ELLIPTIC:
            big_f[pos, pos] = b.lam.imag
        else:
            big_b[pos:pos + w, pos:pos + w] = _generator_block(b)
            if b.kind == KIND_REAL_NEGATIVE:
                big_f[pos:pos + w, pos:pos + w] = math.pi * np.eye(b.k)
        pos += w
    big_b[m:, m:] = -big_b[:m, :m].T
    big_f[m:, m:] = big_f[:m, :m]

    rec = _rotation_factor(np.diag(big_f)[:m]) @ _expm(big_b)
    rec = basis @ rec @ np.linalg.inv(basis)
    # both norms scaled by max|a|, so a huge entry does not overflow them
    top = np.max(np.abs(a))
    err = float(np.linalg.norm((rec - a) / top) / np.linalg.norm(a / top))
    if not err <= RECONSTRUCTION_TOL:  # a NaN error is refused too
        raise SymplecticError(
            f"factorization exp(-J F) exp(B) fails to reconstruct the input: "
            f"relative error {err:.3e} > {RECONSTRUCTION_TOL:.1e}"
        )
    return SpectralClassification(dim=n, blocks=blocks, B=big_b, F=big_f,
                                  basis=basis, reconstruction_error=err)


def build_quadratic_hamiltonian(cls: SpectralClassification) -> np.ndarray:
    """The m_h x m_h matrix M of the stretch generator <M x, xi> on the
    hyperbolic modes of a classified map, m_h the sum of their x-widths.

    M is the x-block of B on the leading hyperbolic slots (classify_spectrum
    orders the blocks hc, hr+, hr-, elliptic; the elliptic modes carry no
    stretch): per complex-hyperbolic mode Re(lam)(x1 xi1 + x2 xi2)
    - Im(lam)(x1 xi2 - x2 xi1), per real mode lam x xi, plus the unit
    couplings of a Jordan chain.  Each chain of length k > 1 is rescaled
    by D = diag(1, eps, ..., eps^(k-1)), eps = Re(lam)/2, with every entry
    repeated for both coordinates of a complex mode: M -> D^-1 M D, the
    symplectic change x -> D^-1 x, xi -> D xi.  Its couplings shrink to eps,
    so the symmetric part of M is at least Re(lam)/2 on the chain, and
    Re(H_q G) is positive for every hyperbolic map.
    """
    m_h = sum(b.x_width for b in cls.blocks if b.kind != KIND_ELLIPTIC)
    gen = np.array(cls.B[:m_h, :m_h])
    pos = 0
    for b in cls.blocks:
        if b.k > 1:  # elliptic blocks are simple
            scale = np.repeat((b.lam.real / 2.0) ** np.arange(b.k), b.x_width // b.k)
            chain = slice(pos, pos + b.x_width)
            gen[chain, chain] *= scale / scale[:, None]
        pos += b.x_width
    return gen
