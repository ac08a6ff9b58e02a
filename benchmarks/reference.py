"""Closed forms written apart from bqem, used to check the outputs of its CLI.

Nothing here imports bqem: the magnetic-dipole field, the MFS field sum and
the causal Green function are written out again from the formulas of the
method, so a fault in bqem's kernels shows as a disagreement rather than
being copied into the reference.
"""

from __future__ import annotations

import numpy as np
import scipy.special


def _theta_derivatives(alpha: complex, r: np.ndarray):
    """theta = -exp(1j*alpha*r)/(4*pi*r) and its first two radial derivatives."""
    e = np.exp(1j * alpha * r) / (4.0 * np.pi)
    theta = -e / r
    d1 = -e * (1j * alpha * r - 1.0) / r**2
    d2 = -e * (-(alpha**2) * r**2 - 2j * alpha * r + 2.0) / r**3
    return theta, d1, d2


def dipole_field(moment, alpha: complex, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnetic dipole at the origin: E = curl(m theta), H = -curl(E)/(1j*alpha).

    curl(m theta) = theta'(r) xhat x m, and curl curl(m theta) is the Hessian
    of theta applied to m plus alpha^2 theta m, with the Hessian
    theta'' xhat xhat^T + (theta'/r)(I - xhat xhat^T).
    """
    m = np.asarray(moment, dtype=float)
    r = np.linalg.norm(x, axis=-1)
    xhat = x / r[..., None]
    theta, d1, d2 = _theta_derivatives(alpha, r)
    E = d1[..., None] * np.cross(xhat, m)
    xm = xhat @ m
    hess_m = (d2 - d1 / r)[..., None] * xm[..., None] * xhat + (d1 / r)[..., None] * m
    H = -(hess_m + (alpha**2 * theta)[..., None] * m) / (1j * alpha)
    return E, H


def mfs_fields(alpha: complex, sources: np.ndarray, coeffs_a: np.ndarray, coeffs_b: np.ndarray, x: np.ndarray):
    """E_N and H_N of an achiral MFS solution at points x.

    E_N = 1/2 Vec(sum K(+alpha) a_j + K(-alpha) b_j) and
    H_N = 1/(2j) Vec(sum K(+alpha) a_j - K(-alpha) b_j), where
    K(+-alpha)(d) = (+-alpha + d (1 - 1j*alpha*|d|)/|d|^2) theta_alpha(|d|).
    The vector part of (s + v)(q0 + q) is s q + q0 v + v x q.
    """
    d = x[:, None, :] - sources[None, :, :]
    r = np.linalg.norm(d, axis=-1)
    theta, _, _ = _theta_derivatives(alpha, r)
    v = d * (theta * (1.0 - 1j * alpha * r) / r**2)[..., None]
    s = alpha * theta

    def vec_products(sign, q):
        q0, qv = q[:, 0], q[:, 1:]
        return (sign * s)[..., None] * qv + q0[None, :, None] * v + np.cross(v, np.broadcast_to(qv, v.shape))

    plus = vec_products(1.0, coeffs_a).sum(axis=1)
    minus = vec_products(-1.0, coeffs_b).sum(axis=1)
    return 0.5 * (plus + minus), (plus - minus) / 2j


def ellipsoid_grid(semi_axes, n_eta: int, n_nu: int, scale: float) -> np.ndarray:
    """Points of the regular (eta, nu) grid, poles excluded, on the scaled ellipsoid."""
    a, b, c = (scale * s for s in semi_axes)
    eta = 2.0 * np.pi * np.arange(n_eta) / n_eta
    nu = np.pi * (np.arange(n_nu) + 0.5) / n_nu
    ee, nn = np.meshgrid(eta, nu, indexing="ij")
    ee, nn = ee.ravel(), nn.ravel()
    return np.stack([a * np.cos(ee) * np.sin(nn), b * np.sin(ee) * np.sin(nn), c * np.cos(nn)], axis=-1)


def green_function(t: float, x, eps: float, mu: float, beta: float) -> np.ndarray:
    """Causal Green function of the chiral Maxwell operator at one (t, x), as 4 components.

    f = H(t) exp(1j a t) E(x) (1j B(x) J0(2 sqrt(c t)) - A(x) sqrt(t/c) J1(2 sqrt(c t)))
    with a = 1/(beta sqrt(eps mu)), c = |x|/(beta^2 sqrt(eps mu)),
    E = exp(1j |x|/beta)/(4 pi |x|), A = 1j/(beta^3 eps mu) (1 - 1j xhat) and
    B = 1j/(beta sqrt(eps mu)) ((1 - 1j xhat)/beta + x/|x|^2).
    """
    x = np.asarray(x, dtype=float)
    if t < 0.0:
        return np.zeros(4, dtype=complex)
    r = float(np.linalg.norm(x))
    rt = np.sqrt(eps * mu)
    a = 1.0 / (beta * rt)
    c = r / (beta**2 * rt)
    E = np.exp(1j * r / beta) / (4.0 * np.pi * r)
    one_minus_ixhat = np.concatenate([[1.0], -1j * x / r])
    A = (1j / (beta**3 * eps * mu)) * one_minus_ixhat
    B = (1j / (beta * rt)) * (one_minus_ixhat / beta + np.concatenate([[0.0], x / r**2]))
    z = 2.0 * np.sqrt(c * t)
    return np.exp(1j * a * t) * E * (1j * B * scipy.special.j0(z) - A * np.sqrt(t / c) * scipy.special.j1(z))
