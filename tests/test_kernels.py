import numpy as np
import pytest

import oracles
from bqem import kernels
from bqem.algebra import Biquaternion
from bqem.errors import ChiralResonance, InadmissibleAlpha, OriginSingularity
from bqem.grids import Lattice, dirac, max_abs_interior
from bqem.kernels import (
    ChiralMedium,
    chiral_wavenumbers,
    dipole_field,
    fundamental_solution,
    helmholtz_kernel,
)

ALPHA = 1 + 0.3j


def fd_laplacian(fn, x, h):
    x = np.asarray(x, dtype=float)
    total = -6.0 * fn(x)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        total = total + fn(x + e) + fn(x - e)
    return total / (h * h)


def fd_grad(fn, x, h):
    return np.array(
        [(fn(x + np.eye(3)[k] * h) - fn(x - np.eye(3)[k] * h)) / (2 * h) for k in range(3)]
    )


def fd_rot(fn, x, h):
    def partial(i, j):
        e = np.zeros(3)
        e[i] = h
        return (fn(x + e)[j] - fn(x - e)[j]) / (2 * h)

    return np.array(
        [partial(1, 2) - partial(2, 1), partial(2, 0) - partial(0, 2), partial(0, 1) - partial(1, 0)]
    )


def fd_div(fn, x, h):
    return sum(
        (fn(x + np.eye(3)[k] * h)[k] - fn(x - np.eye(3)[k] * h)[k]) / (2 * h) for k in range(3)
    )


def test_helmholtz_point_values():
    assert helmholtz_kernel(0.0, [1.0, 0, 0]) == pytest.approx(-1 / (4 * np.pi))
    assert helmholtz_kernel(1.0, [1.0, 0, 0]) == pytest.approx(-np.exp(1j) / (4 * np.pi))


def test_helmholtz_guards():
    with pytest.raises(OriginSingularity):
        helmholtz_kernel(1.0, [0.0, 0.0, 0.0])
    # no length is absolute: |x| = 1e-100 is evaluated; at 1e-110 G ~ |x|^-3
    # overflows, and at 1e-170 |x|^2 underflows to 0, each among points that
    # are fine, with no RuntimeWarning on the way
    for alpha in (0.0, 1 + 0.3j):
        assert np.all(np.isfinite(fundamental_solution(alpha, [1e-100, 0.0, 0.0]).components))
        for tiny in (1e-110, 1e-170):
            with pytest.raises(OriginSingularity, match="overflows"):
                fundamental_solution(alpha, [[1.0, 0.0, 0.0], [tiny, 0.0, 0.0]])
    # |x|^2 overflows, or x is NaN: rejected, each with its own cause and
    # with no RuntimeWarning on the way
    cases = (([1e200, 0.0, 0.0], r"\|x\|\^2 overflows"), ([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]], "not finite"))
    for x, cause in cases:
        with pytest.raises(ValueError, match=cause):
            helmholtz_kernel(1.0, x)
        with pytest.raises(ValueError, match=cause):
            fundamental_solution(1.0, x)
    with pytest.raises(InadmissibleAlpha):
        helmholtz_kernel(1 - 0.1j, [1.0, 0, 0])
    with pytest.raises(InadmissibleAlpha):
        fundamental_solution(1 - 0.1j, [1.0, 0, 0])
    assert np.all(np.isfinite(fundamental_solution(1 + 0.3j, [1.0, 0, 0]).components))


def test_helmholtz_solves_pde():
    x0 = np.array([1.0, 1.0, 1.0])
    fn = lambda p: helmholtz_kernel(ALPHA, p)
    res = [abs(fd_laplacian(fn, x0, h) + ALPHA**2 * fn(x0)) for h in (1e-2, 5e-3)]
    assert res[1] < 1e-4
    assert 3.0 < res[0] / res[1] < 5.0


def test_gradient_closed_form():
    # grad theta_alpha is -Vec K_alpha
    assert np.allclose(-fundamental_solution(0.0, [1.0, 0, 0]).vector, [1 / (4 * np.pi), 0, 0])

    x0 = np.array([0.7, -0.4, 1.1])
    fd = fd_grad(lambda p: helmholtz_kernel(ALPHA, p), x0, 1e-5)
    assert np.max(np.abs(-fundamental_solution(ALPHA, x0).vector - fd)) < 1e-9


def test_fundamental_solution_parts():
    # scalar part alpha theta, vector part -grad theta = (x/|x|^2 - 1j alpha x/|x|) theta
    x0 = np.array([0.5, 0.2, -0.9])
    r = np.linalg.norm(x0)
    theta = helmholtz_kernel(ALPHA, x0)
    K = fundamental_solution(ALPHA, x0)
    assert K.scalar == pytest.approx(ALPHA * theta)
    assert np.allclose(K.vector, (x0 / r**2 - 1j * ALPHA * x0 / r) * theta)


def _offset_block():
    rng = np.random.default_rng(5)
    return rng.uniform(-3.0, 3.0, (7, 1, 3)) - rng.uniform(-0.5, 0.5, (1, 5, 3))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("alpha", [ALPHA, 2.5 + 0.01j, 0.0], ids=["alpha", "alpha_far", "alpha_zero"])
@pytest.mark.parametrize(
    "x",
    [
        np.array([0.5, 0.2, -0.9]),
        np.random.default_rng(4).uniform(-2.0, 2.0, (11, 3)),
        _offset_block(),
    ],
    ids=["position", "batch", "offset_block"],
)
def test_fundamental_solution_bit_for_bit(x, alpha, sign):
    # K(-alpha) is K(alpha) with its scalar part negated
    K = fundamental_solution(alpha, x).components.copy()
    K[..., 0] *= sign
    ref = oracles.fundamental_solution(alpha, x, sign)
    assert K.shape == ref.shape == x.shape[:-1] + (4,)
    assert np.array_equal(K, ref)


def test_fundamental_solution_alpha_zero():
    # vector part -grad theta_0 = -x/(4 pi |x|^3), the Coulomb-type field
    x0 = np.array([1.0, 0, 0])
    K = fundamental_solution(0.0, x0)
    assert abs(K.scalar) == 0.0
    assert np.allclose(K.vector, -x0 / (4 * np.pi))


def test_kernel_annihilated_by_shifted_dirac():
    # (D + alpha) K_alpha = 0 away from the origin, via the grid Dirac oracle
    def residual(n, margin):
        lat = Lattice.cube((2.0, 1.0, 0.0), 0.4, n)
        K = fundamental_solution(ALPHA, lat.points()).components
        return max_abs_interior(dirac(K, lat.spacing) + ALPHA * K, margin)

    r1, r2 = residual(11, 1), residual(21, 2)
    assert 3.2 <= r1 / r2 <= 4.8


def test_conjugate_kernel_identity():
    # K_{-alpha} = -(D + alpha) theta_alpha, finite differences as the oracle
    def residual(n, margin):
        lat = Lattice.cube((1.5, -0.5, 1.0), 0.4, n)
        theta = Biquaternion.from_scalar(helmholtz_kernel(ALPHA, lat.points())).components
        lhs = -(dirac(theta, lat.spacing) + ALPHA * theta)
        K = fundamental_solution(ALPHA, lat.points()).components.copy()
        K[..., 0] *= -1
        return max_abs_interior(lhs - K, margin)

    r1, r2 = residual(11, 1), residual(21, 2)
    assert 3.2 <= r1 / r2 <= 4.8


def test_radial_symmetry():
    vals = [helmholtz_kernel(ALPHA, p) for p in ([1.0, 2.0, -3.0], [2.0, -3.0, 1.0], [-3.0, 1.0, 2.0])]
    assert vals[0] == vals[1] == vals[2]


def test_chiral_wavenumbers():
    a1, a2 = chiral_wavenumbers(ALPHA, 0.0)
    assert a1 == a2 == ALPHA
    a1, a2 = chiral_wavenumbers(1.0, 0.1)
    assert a1 == pytest.approx(1 / 1.1)
    assert a2 == pytest.approx(1 / 0.9)
    with pytest.raises(ChiralResonance):
        chiral_wavenumbers(2.0, 0.5)


def test_chiral_medium():
    assert ChiralMedium(eps=2.0, mu=8.0).alpha == 4.0  # unit frequency: sqrt(eps mu)
    med = ChiralMedium(eps=2.0, mu=0.5, beta=0.0, alpha=3.0)
    assert med.alpha == 3.0
    assert med.alpha1 == med.alpha2 == med.alpha
    override = ChiralMedium(beta=0.1, alpha=ALPHA)
    assert override.alpha == ALPHA
    assert override.alpha1 == pytest.approx(ALPHA / (1 + ALPHA * 0.1))
    assert override.alpha2 == pytest.approx(ALPHA / (1 - ALPHA * 0.1))
    with pytest.raises(ValueError):
        ChiralMedium(eps=-1.0)


@pytest.mark.parametrize(
    "fields",
    [{"eps": np.nan}, {"eps": np.inf}, {"mu": np.nan}, {"mu": np.inf}, {"mu": 0.0}, {"eps": 1e300, "mu": 1e300},
     {"beta": np.nan}, {"beta": -np.inf}, {"alpha": np.nan}, {"alpha": complex(1.0, np.inf)}],
    ids=["eps_nan", "eps_inf", "mu_nan", "mu_inf", "mu_zero", "alpha_from_eps_mu_overflows", "beta_nan",
         "beta_inf", "alpha_nan", "alpha_inf_imag"],
)
def test_chiral_medium_rejects_non_finite_values(fields):
    # NaN passes a `<= 0` test, and reached the kernels as a ZeroDivisionError or a NaN pivot
    with pytest.raises(ValueError, match="must be"):
        ChiralMedium(**fields)


def test_chiral_medium_accepts_finite_values():
    med = ChiralMedium(eps=1e-3, mu=1e3, beta=-2.5, alpha=1 + 0.3j)
    assert (med.eps, med.mu, med.beta, med.alpha) == (1e-3, 1e3, -2.5, 1 + 0.3j)
    assert ChiralMedium(eps=4.0, mu=9.0).alpha == 6.0
    assert ChiralMedium(alpha=2.0).alpha.imag == 0.0  # Im(alpha) = 0 is admissible


def test_chiral_medium_rejects_inadmissible_alpha():
    # the kernels' own rule, applied when the medium is built: the field would grow at infinity
    with pytest.raises(InadmissibleAlpha, match=r"Im\(alpha\) >= 0"):
        ChiralMedium(alpha=1 - 0.3j)
    # a resonant alpha*beta = 1 is accepted: the Green function reads eps, mu and beta only
    assert ChiralMedium(beta=1.0, alpha=1.0).beta == 1.0


def test_dipole_zero_moment():
    E, H = dipole_field((0, 0, 0), ChiralMedium(alpha=ALPHA), [1.0, 2.0, 0.5])
    assert np.all(E == 0) and np.all(H == 0)


def test_dipole_at_beta_zero_is_curl_of_moment_times_theta():
    # against the textbook closed form of the dipole, with theta = -e/(4 pi r)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 3)) * [3.0, 1.0, 0.5]
    c = np.array([0.3, -1.0, 0.7])
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    xh = x / r
    theta = -np.exp(1j * ALPHA * r) / (4 * np.pi * r)
    xh_c = np.cross(xh, np.broadcast_to(c, x.shape))
    xh_xh_c = xh * np.sum(xh * c, axis=-1, keepdims=True)
    curl = theta * (1j * ALPHA - 1 / r) * xh_c
    curl_curl = theta * (ALPHA**2 * np.cross(xh_c, xh) + (3 * xh_xh_c - c) * (1 / r**2 - 1j * ALPHA / r))
    E, H = dipole_field(c, ChiralMedium(alpha=ALPHA), x)
    for got, want in ((E, curl), (H, -curl_curl / (1j * ALPHA))):
        assert np.max(np.abs(got - want) / np.max(np.abs(want), axis=-1, keepdims=True)) < 1e-15


@pytest.mark.parametrize("beta, calls", [(0.0, 1), (0.1, 2)], ids=["shared_wavenumber", "chiral"])
def test_one_theta_evaluation_per_wavenumber(monkeypatch, beta, calls):
    # curl and curl curl share one theta; at beta = 0 both polarizations share alpha
    alphas = []
    theta_and_radial = kernels._theta_and_radial
    monkeypatch.setattr(kernels, "_theta_and_radial", lambda a, x: alphas.append(a) or theta_and_radial(a, x))
    med = ChiralMedium(beta=beta, alpha=ALPHA)
    dipole_field([0.3, -1.0, 0.7], med, np.random.default_rng(1).normal(size=(50, 3)))
    assert alphas == [med.alpha1, med.alpha2][:calls]


def test_dipole_solves_maxwell():
    moment = np.array([0.3, -1.0, 0.7])
    x0 = np.array([0.9, -0.4, 1.2])
    E0, H0 = dipole_field(moment, ChiralMedium(alpha=ALPHA), x0)
    rotE = fd_rot(lambda p: dipole_field(moment, ChiralMedium(alpha=ALPHA), p)[0], x0, 1e-4)
    rotH = fd_rot(lambda p: dipole_field(moment, ChiralMedium(alpha=ALPHA), p)[1], x0, 1e-4)
    scale = max(np.max(np.abs(E0)), np.max(np.abs(H0)))
    # rot E = -1j alpha H and rot H = 1j alpha E (achiral system)
    assert np.max(np.abs(rotE + 1j * ALPHA * H0)) < 1e-6 * scale
    assert np.max(np.abs(rotH - 1j * ALPHA * E0)) < 1e-6 * scale
    divE = fd_div(lambda p: dipole_field(moment, ChiralMedium(alpha=ALPHA), p)[0], x0, 1e-4)
    assert abs(divE) < 1e-6 * scale


def test_dipole_silver_mueller_decay():
    moment = np.array([0.3, -1.0, 0.7])
    xhat = np.array([0.6, 0.64, 0.48])
    vals = []
    for r in (10.0, 100.0, 1000.0):
        E, H = dipole_field(moment, ChiralMedium(alpha=1.0), r * xhat)
        vals.append(r * np.max(np.abs(E - np.cross(xhat, H))))
    assert vals[0] > vals[1] > vals[2]


def test_batched_positions():
    pts = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 0, 3.0]])
    th = helmholtz_kernel(ALPHA, pts)
    assert th.shape == (3,)
    K = fundamental_solution(ALPHA, pts)
    assert K.shape == (3,)
    assert K.scalar[0] == pytest.approx(ALPHA * th[0])


def test_kernels_build_their_array_once(traced_peak):
    # the kernel array is filled in place: a second full-size copy of it
    # would push the peak above 3x the result
    x = np.random.default_rng(2).uniform(-2.0, 2.0, (300, 100, 3))
    out, peak = traced_peak(lambda: fundamental_solution(ALPHA, x))
    assert not out.components.flags.writeable
    assert peak <= 2.5 * out.components.nbytes

    # the constructors that build a fresh array own it: read-only, and
    # sharing no memory with what they were built from
    s = np.ones((3,), complex)
    v = np.ones((3, 3), complex)
    q = Biquaternion.from_parts(s, v)
    c = q.quat_conj()
    for out, inputs in ((q, (s, v)), (c, (q.components,))):
        assert not out.components.flags.writeable
        assert not any(np.shares_memory(out.components, a) for a in inputs)
