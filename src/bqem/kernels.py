"""Closed-form kernels: Helmholtz fundamental solution, the biquaternion
fundamental solution of the perturbed Dirac operator D + alpha, split
wavenumbers for chiral media, and the magnetic-dipole reference field of a
chiral or achiral medium.

Conventions.  theta_alpha(x) = -exp(1j*alpha*|x|) / (4*pi*|x|) solves
(Lap + alpha^2) theta = delta; admissibility requires Im(alpha) >= 0 so the
kernel decays (or stays bounded) at infinity.  The Dirac-operator kernels are

    K(+alpha) = ( alpha + x/|x|^2 - 1j*alpha*x/|x|) * theta_alpha(x)
    K(-alpha) = (-alpha + x/|x|^2 - 1j*alpha*x/|x|) * theta_alpha(x)

with scalar part +/- alpha*theta and common vector part -grad(theta): so
grad(theta) is -Vec K(alpha), and K(-alpha) is K(alpha) with its scalar part
negated, which ``scattering`` applies.

theta_alpha and its radial gradient factor G (grad theta = G(r) x) are
computed in one routine, ``_theta_and_radial``, which is also the only place
that rejects an inadmissible alpha or position.  Every public kernel is a
view of it; only the dipole's ``_curls`` adds the Hessian factor dG/dr.
|x| itself comes from ``_radius``, which the scattering coincidence guard
shares.

All evaluators are pure and broadcast over a trailing-(3,) position array,
which is what the scattering matrix assembly relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Biquaternion, _cross
from .errors import ChiralResonance, InadmissibleAlpha, OriginSingularity

FOUR_PI = 4.0 * np.pi

# Guards: |x| below this is treated as "at the singularity"; |1 +/- alpha*beta|
# below RESONANCE_TOL means the split wavenumbers are undefined.
ORIGIN_TOL = 1e-13
RESONANCE_TOL = 1e-12


def _radius(x: np.ndarray) -> np.ndarray:
    """|x| over the trailing length-3 axis of a float array.

    The squares are added as ``np.sum(x * x, axis=-1)`` adds them,
    (x0^2 + x1^2) + x2^2, so r has its bits, without the (..., 3) temporary
    and numpy's slow reduction over a length-3 axis.  An overflowing |x|^2
    gives r = inf, which the callers reject.  A single (3,) position gives
    a 0-d array, which ``out=`` accepts where a scalar would not.
    """
    r = np.empty(x.shape[:-1])
    sq = np.empty_like(r)
    with np.errstate(over="ignore"):
        np.multiply(x[..., 0], x[..., 0], out=r)
        np.multiply(x[..., 1], x[..., 1], out=sq)
        r += sq
        np.multiply(x[..., 2], x[..., 2], out=sq)
        r += sq
    return np.sqrt(r, out=r)


def _theta_and_radial(alpha: complex, x):
    """The one evaluation of theta_alpha and its radial gradient factor.

    Rejects Im(alpha) < 0, |x| = 0 (``OriginSingularity``), and |x| not
    finite or |x|^2 overflowing in double precision (``ValueError``), then
    returns (x, r, theta, G) with grad theta = G(r) * x.
    """
    alpha = complex(alpha)
    if alpha.imag < 0.0:
        raise InadmissibleAlpha(f"Im(alpha) = {alpha.imag} < 0")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise ValueError("positions must have trailing length 3")
    r = _radius(x)
    if np.any(r <= ORIGIN_TOL):
        raise OriginSingularity("kernel evaluated at |x| = 0")
    if not np.all(r < np.inf):  # NaN fails too
        cause = "|x|^2 overflows double precision" if np.all(np.isfinite(x)) else "|x| is not finite"
        raise ValueError(f"kernel evaluated at a position whose {cause}")
    iar = 1j * alpha * r
    theta = -np.exp(iar) / (FOUR_PI * r)
    G = theta * (iar - 1.0) / (r * r)
    return x, r, theta, G


def helmholtz_kernel(alpha: complex, x) -> np.ndarray:
    """theta_alpha(x) = -exp(1j*alpha*|x|) / (4*pi*|x|)."""
    return _theta_and_radial(alpha, x)[2]


def fundamental_solution(alpha: complex, x) -> Biquaternion:
    """Kernel of D + alpha: scalar part alpha*theta, vector -grad theta."""
    x, _, theta, G = _theta_and_radial(alpha, x)
    # filled in place, one component at a time: a complex copy of x times
    # -G[..., None] would make two more (..., 3) arrays; the products are
    # the same, (x_i + 0j) * -G
    out = np.empty(x.shape[:-1] + (4,), dtype=complex)
    out[..., 0] = complex(alpha) * theta
    minus_G = -G
    for i in range(3):
        np.multiply(x[..., i], minus_G, out=out[..., i + 1])
    return Biquaternion._own(out)


def chiral_wavenumbers(alpha: complex, beta: float) -> tuple[complex, complex]:
    """Split wavenumbers alpha/(1 + alpha*beta), alpha/(1 - alpha*beta).

    The two branches carry the opposing circular polarizations; they merge
    back into alpha when beta = 0.
    """
    alpha = complex(alpha)
    d1 = 1.0 + alpha * beta
    d2 = 1.0 - alpha * beta
    if abs(d1) < RESONANCE_TOL or abs(d2) < RESONANCE_TOL:
        raise ChiralResonance(f"1 +/- alpha*beta vanishes for alpha={alpha}, beta={beta}")
    return alpha / d1, alpha / d2


@dataclass(frozen=True)
class ChiralMedium:
    """Homogeneous chiral medium: permittivity, permeability, chirality, wavenumber.

    The wavenumber ``alpha`` defaults to sqrt(eps*mu), that of unit
    frequency (the benchmark configurations prescribe a complex alpha
    directly); Im(alpha) < 0 is rejected with ``InadmissibleAlpha``.
    ``alpha1``/``alpha2`` are the split chiral wavenumbers.  A resonant
    alpha*beta = +/-1 is accepted here, because the Green function of
    ``chiral_time`` reads eps, mu and beta only; ``MfsProblem`` rejects it.
    """

    eps: float = 1.0
    mu: float = 1.0
    beta: float = 0.0
    alpha: complex | None = None

    def __post_init__(self):
        # NaN fails each comparison
        if not (0.0 < self.eps < np.inf and 0.0 < self.mu < np.inf):
            raise ValueError(f"eps and mu must be positive and finite, got eps={self.eps}, mu={self.mu}")
        alpha = complex(np.sqrt(self.eps * self.mu) if self.alpha is None else self.alpha)
        if not (np.isfinite(self.beta) and np.isfinite(alpha)):
            raise ValueError(f"beta and alpha must be finite, got beta={self.beta}, alpha={alpha}")
        if alpha.imag < 0.0:
            raise InadmissibleAlpha(f"alpha must have Im(alpha) >= 0, got alpha={alpha}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def alpha1(self) -> complex:
        return chiral_wavenumbers(self.alpha, self.beta)[0]

    @property
    def alpha2(self) -> complex:
        return chiral_wavenumbers(self.alpha, self.beta)[1]


def _curls(alpha: complex, x, moment) -> tuple[np.ndarray, np.ndarray]:
    """curl(c theta_alpha) = grad theta_alpha x c and curl curl(c theta_alpha)
    = grad <c, grad theta> + alpha^2 c theta, for constant c, from one theta.

    The second holds away from the origin, where (Lap + alpha^2) theta = 0;
    the Hessian of theta acts on c in closed form, no nested differencing.
    """
    alpha = complex(alpha)
    x, r, theta, G = _theta_and_radial(alpha, x)
    c = np.asarray(moment, dtype=complex)
    cb = np.broadcast_to(c, x.shape)
    curl = _cross(G[..., None] * x, cb)
    # d/dr G = Gp(r), in closed form; only the Hessian needs it
    Gp = theta * (-(alpha * alpha) / r - 3j * alpha / (r * r) + 3.0 / (r * r * r))
    hess_c = (Gp / r * np.sum(x * c, axis=-1))[..., None] * x + G[..., None] * cb
    return curl, hess_c + (alpha * alpha * theta)[..., None] * cb


def dipole_field(moment, medium: ChiralMedium, x) -> tuple[np.ndarray, np.ndarray]:
    """Magnetic-dipole field of a homogeneous medium, singular at the origin.

    The point source excites both circular polarizations.  With
    C_i = curl(c theta_{alpha_i}) and X_i = curl curl(c theta_{alpha_i})/alpha_i,
    C_1 - X_1 and C_2 + X_2 are eigenfields of curl annihilated by D + alpha1
    and D - alpha2, and E = (C_1 + C_2)/2 - (X_1 - X_2)/2,
    H = ((C_1 - C_2) - (X_1 + X_2))/(2j) solve the chiral Maxwell system with
    the Silver-Mueller condition.  At beta = 0 the kernel is evaluated once:
    E = curl(c theta_alpha), H = -curl E/(1j alpha).  A source at y0 is
    ``dipole_field(moment, medium, x - y0)``; returns complex (..., 3) arrays.
    """
    if medium.alpha == 0.0:
        raise ValueError("dipole field needs alpha != 0")
    alpha1, alpha2 = chiral_wavenumbers(medium.alpha, medium.beta)
    curl1, curl_curl1 = _curls(alpha1, x, moment)
    if alpha2 == alpha1:
        return curl1, -curl_curl1 / (1j * alpha1)
    curl2, curl_curl2 = _curls(alpha2, x, moment)
    X1 = curl_curl1 / alpha1
    X2 = curl_curl2 / alpha2
    E = 0.5 * (curl1 + curl2) - 0.5 * (X1 - X2)
    H = ((curl1 - curl2) - (X1 + X2)) / 2j
    return E, H
