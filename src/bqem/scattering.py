"""Method-of-fundamental-solutions solver for Maxwell boundary value
problems on ellipsoids, in chiral or achiral homogeneous media.

The approximate fields are right linear combinations of the Dirac-operator
kernels placed at N source points y_j on an auxiliary ellipsoid shrunk
inside the surface, for exterior problems:

    E_N(x) = 1/2    Vec( sum_j K(+alpha1)(x - y_j) a_j + K(-alpha2)(x - y_j) b_j )
    H_N(x) = 1/(2j) Vec( sum_j K(+alpha1)(x - y_j) a_j - K(-alpha2)(x - y_j) b_j )

with constant biquaternion coefficients a_j, b_j (8N complex unknowns).
Collocation at 2N surface points imposes, per point, the two tangential
components of E_N x n - xi (H_N x n) x n = E x n - xi (H x n) x n for the
problem's reference field (E, H) and impedance xi (0 is a perfect
conductor, E_N x n = E x n), plus the two scalar constraints
Sc(sum K a + sum K b) = 0 and Sc(sum K a - sum K b) = 0 that keep the
combinations purely vectorial, giving a square 8N x 8N complex system.
Collocation and source points are laid out on a generalized (golden-angle)
spiral, which is quasi-uniform and never touches the parametrization poles.

The sums are matrix products.  As K_s a_s = sum_i K_si (e_i a_s) over the
units e_i, the coefficients are laid out once per evaluation as a (4N, 8)
matrix per branch, row (s, i) holding the components of e_i a_s (of e_i b_s,
scalar rows negated for K(-alpha2)) under the two combinations; the
kernels of a block of points, read as a (points, 4N) matrix, times it give
both combinations at those points.

The magnetic-dipole exterior problem is the reference benchmark: solve
with the known dipole field of the medium, chiral or not, as the reference
field, and report the maximum componentwise error on an inflated
evaluation ellipsoid for a sweep of N.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np
import scipy  # scipy.linalg loads on first attribute access, at the first solve

from .algebra import _CONJ, Biquaternion, _cross, _mul_components
from .errors import DegenerateSample, SingularMatrix, SourceSingularity
from .kernels import ChiralMedium, _radius, chiral_wavenumbers, dipole_field, fundamental_solution

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

# Collocation and source points closer than this are rejected outright.
COINCIDENCE_TOL = 1e-10

# Largest 4C x 8N complex system matrix (16 bytes an entry) a problem may
# ask for: 2 GiB, a square system up to N = 1448.  The dense solve holds the
# matrix and one factor of the same size, so a larger one is refused as a
# config error before anything is allocated.
MAX_MATRIX_BYTES = 2**31

# The dipole moment of the default reference field: a dipole at the origin.
DIPOLE_MOMENT = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)

# Kernel entries (point, source pairs) per block: assembly and field
# evaluation run one block of points at a time, and the 1-norm one block of
# matrix rows, so no temporary grows with the number of points or with the
# matrix.  Both pay: under `bqem` (fixed mmap threshold), one block and
# np.linalg.norm(A, 1) made the warm `mfs_large` pass 6.7 % slower at the
# same peak; a library process keeps glibc's dynamic threshold, which holds
# freed 4-32 MiB temporaries on the heap (175 MB RSS without blocks, 144 MB
# with; 171 MB with np.linalg.norm(A, 1) alone).
_BLOCK_ENTRIES = 2**14


@dataclass(frozen=True)
class Ellipsoid:
    """Ellipsoid x1 = a cos(eta) sin(nu), x2 = b sin(eta) sin(nu), x3 = c cos(nu)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not all(0.0 < s < np.inf for s in (self.a, self.b, self.c)):  # NaN fails too
            raise ValueError(f"semi-axes must be positive and finite, got {self.a}, {self.b}, {self.c}")


@dataclass(frozen=True)
class SurfaceSamples:
    """A batch of surface points with outward normals and tangent frames.

    normal = t1 x t2 with all three unit length and mutually orthogonal.
    """

    pos: np.ndarray
    normal: np.ndarray
    t1: np.ndarray
    t2: np.ndarray

    def __len__(self) -> int:
        return self.pos.shape[0]


def _parametrize(surface: Ellipsoid, eta, nu, scale: float):
    """Positions at parameter values (eta, nu) on the scaled surface, with
    the scaled semi-axes and the sines and cosines they were built from.

    The one position formula: ``surface_frame`` and ``spiral_points`` both
    take their positions from here.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    a, b, c = scale * surface.a, scale * surface.b, scale * surface.c
    sn, cn = np.sin(nu), np.cos(nu)
    se, ce = np.sin(eta), np.cos(eta)
    if np.any(sn < 1e-12):
        raise DegenerateSample("sample at or beyond a parametrization pole: nu must lie in (0, pi)")
    pos = np.stack([a * ce * sn, b * se * sn, c * cn], axis=-1)
    return pos, (a, b, c), (se, ce, sn, cn)


def surface_frame(surface: Ellipsoid, eta, nu) -> SurfaceSamples:
    """Positions plus orthonormal frames at parameter values (eta, nu) on the surface.

    The normal r_nu x r_eta = sin nu (bc cos eta sin nu, ac sin eta sin nu, ab cos nu)
    points outward: its dot product with the gradient (x/a^2, y/b^2, z/c^2) is
    sin nu (bc/a cos^2 eta sin^2 nu + ac/b sin^2 eta sin^2 nu + ab/c cos^2 nu) > 0
    for nu in (0, pi), which ``_parametrize`` enforces.  A normal of norm 0 or
    not finite is rejected; the tangent frame is Gram-Schmidt from r_eta.
    """
    pos, (a, b, c), (se, ce, sn, cn) = _parametrize(surface, eta, nu, 1.0)
    r_eta = np.stack([-a * se * sn, b * ce * sn, np.zeros_like(sn)], axis=-1)
    r_nu = np.stack([a * ce * cn, b * se * cn, -c * sn], axis=-1)

    n = _cross(r_nu, r_eta)
    norm = np.linalg.norm(n, axis=-1, keepdims=True)
    if not np.all((norm > 0.0) & (norm < np.inf)):  # NaN fails too
        raise DegenerateSample("normal of norm 0 or not finite (degenerate parameter point)")
    n = n / norm

    t1 = r_eta / np.linalg.norm(r_eta, axis=-1, keepdims=True)
    t2 = _cross(n, t1)
    return SurfaceSamples(pos=pos, normal=n, t1=t1, t2=t2)


def _spiral(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Parameters (eta, nu) of the golden-angle spiral of ``count`` samples."""
    if count < 1:
        raise ValueError("count must be >= 1")
    k = np.arange(count)
    z = 1.0 - (2.0 * k + 1.0) / count
    return np.mod(GOLDEN_ANGLE * k, 2.0 * np.pi), np.arccos(z)


def sample_surface(surface: Ellipsoid, count: int) -> SurfaceSamples:
    """Quasi-uniform golden-angle spiral of ``count`` samples on the surface."""
    return surface_frame(surface, *_spiral(count))


def spiral_points(surface: Ellipsoid, count: int, scale: float = 1.0) -> np.ndarray:
    """The (count, 3) positions of ``sample_surface``'s spiral on the surface scaled by ``scale``."""
    return _parametrize(surface, *_spiral(count), scale)[0]


def parametric_grid(surface: Ellipsoid, n_eta: int, n_nu: int, scale: float = 1.0) -> np.ndarray:
    """The (n_eta n_nu, 3) positions of a regular (eta, nu) evaluation grid, poles excluded."""
    eta = 2.0 * np.pi * np.arange(n_eta) / n_eta
    nu = np.pi * (np.arange(n_nu) + 0.5) / n_nu
    ee, nn = np.meshgrid(eta, nu, indexing="ij")
    return _parametrize(surface, ee.ravel(), nn.ravel(), scale)[0]


# Maps (n, 3) points to the fields (E, H) there.
Fields = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class MfsProblem:
    """One exterior boundary value problem for the solver.

    ``reference`` maps points to the fields (E, H) whose boundary values
    the solution must match; None means the medium's ``dipole_field`` with
    DIPOLE_MOMENT at the origin.  ``impedance`` xi, a finite complex
    number, imposes E_N x n - xi (H_N x n) x n = E x n - xi (H x n) x n;
    0 is a perfect conductor, E_N x n = E x n.  Both sides come from the
    same tangential rows, so a solution that reproduces the
    reference satisfies them exactly.  The sources lie on a copy of the
    surface shrunk by ``source_scale``, in (0, 1); semi-axes so large that
    distances on the surface scaled by EVAL_SCALE overflow are refused.
    ``oversample`` > 1 collocates more than 2N points and solves in the
    least-squares sense.  The 4C x 8N system matrix (C = ceil(2N oversample)
    collocation points) may take at most ``MAX_MATRIX_BYTES``.  A resonant
    medium, with no split wavenumbers, raises ``ChiralResonance``, and
    alpha = 0 a ``ValueError``: a time-harmonic problem needs a non-zero
    wavenumber, and H = -curl E/(i alpha) divides by it.
    """

    surface: Ellipsoid
    medium: ChiralMedium
    n_sources: int
    source_scale: float
    reference: Fields | None = None
    impedance: complex = 0.0
    oversample: float = 1.0

    def __post_init__(self):
        try:
            finite = np.isfinite(complex(self.impedance))
        except (TypeError, ValueError):  # None, or a string complex() cannot read
            finite = False
        if not finite:
            raise ValueError(f"impedance must be a finite number, 0 for a perfect conductor, got {self.impedance!r}")
        chiral_wavenumbers(self.medium.alpha, self.medium.beta)
        if self.medium.alpha == 0.0:
            raise ValueError("alpha must be non-zero: a time-harmonic problem needs a wavenumber")
        if self.n_sources < 1:
            raise ValueError("n_sources must be >= 1")
        if not 0.0 < self.source_scale < 1.0:
            raise ValueError(f"source_scale must lie in (0, 1) for an exterior problem, got {self.source_scale}")
        # run_benchmark's points lie on the surface scaled by at most EVAL_SCALE,
        # the sources on it scaled by source_scale: no offset x - y is longer than this
        axes = np.array([self.surface.a, self.surface.b, self.surface.c])
        with np.errstate(over="ignore"):  # an overflow gives inf, rejected next
            bound = _radius((EVAL_SCALE + self.source_scale) * axes)
        if not bound < np.inf:
            raise ValueError(f"semi-axes {axes.tolist()} too large: distances on the {EVAL_SCALE:g}x surface overflow")
        if not self.oversample >= 1.0:
            raise ValueError("oversample must be >= 1")
        # bytes counted in floats, after n_sources is bounded, so that no
        # size overflows on the way
        if not (
            self.n_sources <= MAX_MATRIX_BYTES
            and 4.0 * np.ceil(2.0 * self.n_sources * self.oversample) * 8.0 * self.n_sources * 16.0
            <= MAX_MATRIX_BYTES
        ):
            raise ValueError(
                f"n_sources {self.n_sources} with oversample {self.oversample} gives a system matrix "
                f"beyond the {MAX_MATRIX_BYTES / 2**30:g} GiB ceiling"
            )

    def n_collocation(self) -> int:
        return int(np.ceil(2 * self.n_sources * self.oversample))

    def reference_fields(self) -> Fields:
        """``reference``, or the default dipole of the medium the problem has now."""
        if self.reference is not None:
            return self.reference
        return partial(dipole_field, DIPOLE_MOMENT, self.medium)


def source_points(problem: MfsProblem) -> np.ndarray:
    """The (N, 3) source positions: only the collocation points need frames."""
    return spiral_points(problem.surface, problem.n_sources, problem.source_scale)


def collocation_points(problem: MfsProblem) -> SurfaceSamples:
    return sample_surface(problem.surface, problem.n_collocation())


def _kernels(medium: ChiralMedium, pts, sources) -> tuple[np.ndarray, np.ndarray]:
    """Components of K(alpha1) and K(alpha2) at the offsets pts - sources,
    of shape (points, sources, 4).

    Raises ``SourceSingularity`` when a point lies within COINCIDENCE_TOL of
    a source.  Branch b uses K(-alpha2), which is K(alpha2) with its scalar
    part negated; the callers apply that sign.  With alpha1 == alpha2
    (beta = 0) the kernel is evaluated once and shared by both branches.
    """
    dx = pts[:, None, :] - sources[None, :, :]
    if np.min(_radius(dx)) < COINCIDENCE_TOL:
        raise SourceSingularity("a point coincides with a source point")
    alpha1, alpha2 = medium.alpha1, medium.alpha2
    k1 = fundamental_solution(alpha1, dx).components
    return k1, (k1 if alpha2 == alpha1 else fundamental_solution(alpha2, dx).components)


def _blocks(count: int, width: int):
    """Slices covering range(count), each of about _BLOCK_ENTRIES / width items (at least one)."""
    step = max(1, _BLOCK_ENTRIES // width)
    return (slice(i, min(i + step, count)) for i in range(0, count, step))


def _row_operators(sign: int) -> tuple[np.ndarray, np.ndarray]:
    """The constant parts of the row operators of one branch (see
    ``_assemble_rows``): -T[1:] as a (3, 16) matrix and the (2, 4, 4) pair
    T[0], sign T[0], where T[k, i, j] is component j of e_k e_i, times sign
    for i = 0 and conjugated in j."""
    units = np.eye(4)
    T = _mul_components(units[:, None, :], units) * np.outer([sign, 1.0, 1.0, 1.0], _CONJ)
    return -T[1:].reshape(3, 16), np.stack([T[0], sign * T[0]])


# Branch a carries sign 1, branch b sign -1.
_ROW_OPERATORS = (_row_operators(1), _row_operators(-1))


def _assemble_rows(problem: MfsProblem, col: SurfaceSamples, src: np.ndarray):
    """Matrix and right-hand side rows for the collocation batch ``col``
    against the (N, 3) source positions ``src``.

    The matrix is filled one block of collocation points at a time; the
    kernels of a block are the only temporaries that grow with the sources.
    Tangential row k of a point imposes (E_N x n) . t_k + xi H_N . t_k, as
    ((H x n) x n) . t = -H . t, and its right-hand side is the same
    functional of the reference field, (E x n) . t_k + xi H . t_k.
    """
    n_col, n_src = len(col), len(src)
    xi = complex(problem.impedance)
    # Every row is Sc(X K(sign*alpha) a) with one quaternion X per point and
    # row kind: X = -d for the two tangential rows (the projection <d, Vec q>
    # of E_N x n on t is -Sc(d q) for the pure vector d = (n x t)/2), and
    # X = 1 and sign for the scalar constraints Sc(K a) and Sc(sign K a).
    # As Sc(Y a) = <conj Y, a> componentwise, the block of one point and row
    # kind is L K, with L the 4 x 4 map K(alpha) -> conj(X K(sign*alpha)) and
    # K(sign*alpha) = K(alpha) with its scalar part times sign.  Lt is L
    # transposed, so the block is the (n_src, 4) product K(alpha) Lt.  Lt is
    # linear in X, sum_k X_k T[k] for the constant T of ``_row_operators``:
    # d contracted with -T[1:] for the tangential rows, T[0] and sign T[0]
    # for the scalar ones.  Each entry is a single +-d_k, 0 or +-1, so
    # nothing rounds.

    # axes: collocation point, row kind, branch (a or b), source, component
    A = np.empty((n_col, 4, 2, n_src, 4), dtype=complex)
    for blk in _blocks(n_col, n_src):
        kernels = _kernels(problem.medium, col.pos[blk], src)
        t = np.stack([col.t1[blk], col.t2[blk]], axis=1)
        n_cross_t = 0.5 * _cross(col.normal[blk, None, :], t)
        Lt = np.empty((len(t), 4, 4, 4), dtype=complex)
        for branch, (K, sign, (tangential, scalar)) in enumerate(zip(kernels, (1, -1), _ROW_OPERATORS)):
            # branch b enters H_N (and with it the impedance term) and the
            # second scalar constraint with the sign it carries in K(sign * alpha)
            d = n_cross_t + sign * (xi / 2j) * t
            Lt[:, :2] = (d.reshape(-1, 3) @ tangential).reshape(-1, 2, 4, 4)
            Lt[:, 2:] = scalar
            np.matmul(K[:, None], Lt, out=A[blk, :, branch])
        del kernels, K  # before the next block's are built

    E, H = problem.reference_fields()(col.pos)
    e_cross_n = _cross(E, col.normal)
    rhs = np.zeros(4 * n_col, dtype=complex)
    for k, t in enumerate((col.t1.astype(complex), col.t2.astype(complex))):
        rhs[k::4] = np.einsum("ci,ci->c", e_cross_n, t) + xi * np.einsum("ci,ci->c", H, t)
    return A.reshape(4 * n_col, 8 * n_src), rhs


def assemble_system(problem: MfsProblem) -> tuple[np.ndarray, np.ndarray]:
    """Collocation matrix (4C x 8N) and right-hand side for the problem.

    Four rows per collocation point: two tangential boundary-condition
    components and the two scalar-part constraints.
    """
    return _assemble_rows(problem, collocation_points(problem), source_points(problem))


@dataclass(frozen=True)
class SolveResult:
    coeffs: np.ndarray
    cond: float
    residual: float


def _check_triangular(tri: np.ndarray) -> None:
    """A zero or non-finite diagonal entry in U or R: the factor is singular."""
    d = np.diag(tri)
    bad = np.flatnonzero(~np.isfinite(d) | (d == 0))
    if bad.size:
        raise SingularMatrix(f"triangular factor has diagonal entry {d[bad[0]]} at index {bad[0]}")


def _norm1(matrix: np.ndarray) -> float:
    """max_j sum_i |a_ij|, from one block of rows at a time: no |A| the size of the matrix.

    Row 0 of the buffer carries the column sums into the next block, so the
    rows are added in the order ``np.linalg.norm(matrix, 1)`` adds them, to
    the same bits.
    """
    m, n = matrix.shape
    buf = np.zeros((max(1, _BLOCK_ENTRIES // n) + 1, n))
    for blk in _blocks(m, n):
        rows = blk.stop - blk.start
        np.abs(matrix[blk], out=buf[1 : rows + 1])
        buf[0] = buf[: rows + 1].sum(axis=0)
    return float(buf[0].max())


def _upper_in_place(qr: np.ndarray) -> np.ndarray:
    """The leading n x n block of a Fortran-ordered m x n factor, moved to the
    front of its own buffer as a contiguous n x n array; overwrites ``qr``.

    ``ztrcon`` takes its order from the row count and needs a contiguous
    array, so ``qr[:n]`` would be copied.
    """
    m, n = qr.shape
    flat = qr.reshape(-1, order="F")
    for j in range(1, n):
        flat[j * n : (j + 1) * n] = flat[j * m : j * m + n]
    return flat[: n * n].reshape((n, n), order="F")


def solve_dense(matrix: np.ndarray, rhs: np.ndarray) -> SolveResult:
    """LU with partial pivoting (square) or Householder QR least squares (tall).

    The tall solve keeps Q in its Householder reflectors (``zgeqrf``) and
    applies Q^H to the right-hand side with ``zunmqr``; Q is never formed,
    and R is read in place from the factor.  Neither ``matrix`` nor ``rhs``
    is overwritten, and besides the matrix the solve holds one factor of its
    size (the LU or QR copy) and arrays that grow with one side only.

    ``cond`` is LAPACK's 1-norm condition estimate on the triangular factor
    (``zgecon`` on the LU factors, ``ztrcon`` on R).  Conditioning rejects
    nothing, as an ill-conditioned MFS system can still fit accurately; the
    residual ||Ax - b||/||b|| is reported instead, taken after an exact
    power-of-two rescaling so that ||b||^2 cannot overflow.  SingularMatrix:
    U or R is not invertible, or the solve overflows (a subnormal pivot) and
    leaves non-finite coefficients.
    """
    matrix = np.asarray(matrix, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    m, n = matrix.shape
    if m == n:
        anorm = _norm1(matrix)
        with warnings.catch_warnings():  # a zero pivot is SingularMatrix, raised next
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(matrix, check_finite=False)
        _check_triangular(lu)
        x = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
        rcond, _ = scipy.linalg.lapack.zgecon(lu, anorm, norm="1")
    elif m > n:
        lapack = scipy.linalg.lapack
        lwork, _ = lapack.zgeqrf_lwork(m, n)
        qr, tau, _, _ = lapack.zgeqrf(matrix, lwork=int(lwork.real))
        _check_triangular(qr)
        c = rhs[:, None]
        _, work, _ = lapack.zunmqr("L", "C", qr, tau, c, -1)
        qhb, _, _ = lapack.zunmqr("L", "C", qr, tau, c, int(work[0].real))
        # ztrtrs reads the upper triangle of the leading n x n block of qr
        x = lapack.ztrtrs(qr, qhb, overwrite_b=1)[0][:n, 0]
        rcond, _ = lapack.ztrcon(_upper_in_place(qr), norm="1")
    else:
        raise ValueError("system has fewer rows than unknowns")
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("solve gave non-finite coefficients: the triangular factor is numerically singular")
    # Ax - b and b scaled by 2^-k with max|b| < 2^k (k = 0 for b = 0): exact,
    # so the ratio keeps its bits, and |b|^2 cannot overflow in the norms;
    # k >= -1021 keeps 2^-k finite for a subnormal b
    k = np.frexp(np.max(np.abs(rhs), initial=0.0))[1]
    scale = np.ldexp(1.0, -max(k, -1021))
    res = float(np.linalg.norm(scale * (matrix @ x - rhs)) / max(np.linalg.norm(scale * rhs), 1e-300))
    return SolveResult(coeffs=x, cond=1.0 / rcond if rcond > 0.0 else np.inf, residual=res)


@dataclass(frozen=True)
class MfsSolution:
    """Source points and solved coefficients defining E_N, H_N."""

    sources: np.ndarray
    coeffs_a: Biquaternion
    coeffs_b: Biquaternion
    medium: ChiralMedium
    cond: float = np.nan
    residual: float = np.nan


def solve_problem(problem: MfsProblem) -> MfsSolution:
    out = solve_dense(*assemble_system(problem))
    n = problem.n_sources
    coeffs = out.coeffs.reshape(2 * n, 4)
    return MfsSolution(
        sources=source_points(problem),
        coeffs_a=Biquaternion(coeffs[:n]),
        coeffs_b=Biquaternion(coeffs[n:]),
        medium=problem.medium,
        cond=out.cond,
        residual=out.residual,
    )


def _coefficient_matrices(sol: MfsSolution) -> tuple[np.ndarray, np.ndarray]:
    """The (4S, 8) matrices W_a, W_b that contract a block of K(alpha1),
    K(alpha2) components, reshaped to (points, 4S), into [plus | minus].

    sum_s K_s a_s = sum_(s,i) K_si (e_i a_s) over the units e_i, so row
    (s, i) of W_a holds the components of e_i a_s, once under plus and once
    under minus.  Branch b uses K(-alpha2), which is K(alpha2) with its
    scalar part negated, so the rows i = 0 of W_b are negated, and it
    enters minus with the opposite sign.
    """
    units = np.eye(4)
    ea = _mul_components(units, sol.coeffs_a.components[:, None, :])  # [s, i] = e_i a_s
    eb = _mul_components(units, sol.coeffs_b.components[:, None, :])
    eb[:, 0] *= -1.0
    W_a = np.concatenate([ea, ea], axis=-1).reshape(-1, 8)
    W_b = np.concatenate([eb, -eb], axis=-1).reshape(-1, 8)
    return W_a, W_b


def evaluate_fields(sol: MfsSolution, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E_N, H_N and the scalar-part leak at points x (batched, (..., 3)).

    sc_leak is the larger modulus of the scalar parts of the two kernel
    combinations; it measures how well the purely-vectorial constraints
    carry over from the collocation points.  Each block of points is one
    product of its (points, 4S) kernels with the coefficient matrix
    (``_coefficient_matrices``) into the (points, 8) sums plus | minus, and
    at beta != 0 a second one, for branch b's own kernels, added to it; at
    beta = 0 both branches share one K(alpha), so their matrices are added
    instead.  The points are taken one block at a time, so the working set
    beyond the result does not grow with the number of points.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,):
        raise ValueError("positions must have trailing length 3")
    pts = x.reshape(-1, 3)
    n_src = len(sol.sources)
    W_a, W_b = _coefficient_matrices(sol)
    shared = sol.medium.alpha1 == sol.medium.alpha2
    if shared:
        W_a = W_a + W_b
    sums = np.empty((len(pts), 8), dtype=complex)
    for blk in _blocks(len(pts), n_src):
        K1, K2 = _kernels(sol.medium, pts[blk], sol.sources)
        rows = (blk.stop - blk.start, 4 * n_src)
        np.matmul(K1.reshape(rows), W_a, out=sums[blk])
        if not shared:
            sums[blk] += K2.reshape(rows) @ W_b
        del K1, K2  # before the next block's are built
    sums = sums.reshape(x.shape[:-1] + (8,))
    plus, minus = sums[..., :4], sums[..., 4:]
    E = 0.5 * plus[..., 1:]
    H = minus[..., 1:] / 2j
    sc_leak = np.maximum(np.abs(plus[..., 0]), np.abs(minus[..., 0]))
    return E, H, sc_leak


# Where run_benchmark measures errors: an (n_eta, n_nu) parametric grid on
# the surface scaled by EVAL_SCALE, and a spiral of
# BOUNDARY_CHECK_FACTOR * (collocation points) + 7 samples on the surface.
EVAL_GRID = (24, 12)
EVAL_SCALE = 5.0
BOUNDARY_CHECK_FACTOR = 3


def run_benchmark(problem: MfsProblem, n_values) -> list[dict]:
    """Solve the problem for each N and compare against its reference field.

    Returns one row per N.  The exact (E, H) is the problem's reference
    field, by default the ``dipole_field`` of its medium (both circular
    polarizations when beta != 0), whose boundary values the solve matches.
    Errors are the maximum componentwise complex modulus of the field
    difference over the EVAL_GRID parametric grid on the surface scaled by
    EVAL_SCALE (5); the boundary error errB is measured the same way on an
    offset spiral denser than the collocation set, and ``residual`` is the
    relative residual of the dense solve.  The fields are evaluated once per
    N, on the grid and the spiral stacked: errE, errH and sc_leak read the
    grid's rows, errB the spiral's.
    """
    reference = problem.reference_fields()
    eval_pts = parametric_grid(problem.surface, *EVAL_GRID, scale=EVAL_SCALE)
    E_grid, H_grid = reference(eval_pts)  # the grid does not depend on N
    g = len(eval_pts)

    def max_error(approx, exact):
        return float(np.max(np.abs(approx - exact)))

    rows = []
    for n in n_values:
        prob_n = replace(problem, n_sources=int(n))
        t0 = time.perf_counter()
        sol = solve_problem(prob_n)
        wall_ms = 1e3 * (time.perf_counter() - t0)

        check = spiral_points(problem.surface, BOUNDARY_CHECK_FACTOR * prob_n.n_collocation() + 7)
        E_check, H_check = reference(check)
        E, H, leak = evaluate_fields(sol, np.concatenate([eval_pts, check]))
        err_e, err_h = max_error(E[:g], E_grid), max_error(H[:g], H_grid)
        err_b = max(max_error(E[g:], E_check), max_error(H[g:], H_check))

        rows.append(
            {
                "N": int(n),
                "errE": err_e,
                "errH": err_h,
                "errB": err_b,
                "residual": sol.residual,
                "cond": sol.cond,
                "sc_leak": float(np.max(leak[:g])),
                "wall_ms": wall_ms,
            }
        )
    return rows
