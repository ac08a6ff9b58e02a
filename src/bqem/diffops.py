"""Grid realizations of the Dirac operator D and the identities built on it.

D acts on quaternion fields as Df = -div(fv) + grad(f0) + rot(fv); here it
is discretized with second-order central differences only, so every
application adds one NaN face layer to each side of the lattice.  On top of D
this module verifies, on manufactured grids, the operator identities

    Lap + alpha^2            = -(D + alpha)(D - alpha)
    -Lap + nu                = (D + M^w)(D - M^w)         w = Df/f, nu = Lap f/f
    div p grad + q           = -sqrt(p) (D + M^w)(D - M^w) sqrt(p) .
                               with f = sqrt(p) u0

plus the first-order reduction F = f D(f^-1 g), its quadrature inverse, and
the quaternionic Vekua equation (D - (Df/f) C_H) W = 0 with its scalar- and
vector-part consequences.  Every residual routine returns the maximum
componentwise modulus over the valid interior, which is the quantity the
refinement-ratio checks watch; the interior is read from the NaN faces
(``grids.max_abs_interior``), and ``margin=`` only widens it.

M^p denotes right multiplication by p (pointwise, p is never differentiated)
and ^pM left multiplication; for purely vectorial p, q the exact identity
<p, q> = -(^pM + M^p) q / 2 holds nodewise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import Biquaternion, _mul_components
from .errors import BaseOutOfGrid, LatticeMismatch, VanishingF
from .grids import (
    Lattice,
    QuaternionGrid,
    ScalarGrid,
    _valid_box,
    dirac,
    div,
    grad,
    laplacian,
    max_abs_interior,
    rot,
)

# Division by f appears throughout; below this the slot is rejected.
VANISHING_F_TOL = 1e-8


def apply_D(field: QuaternionGrid) -> QuaternionGrid:
    """Central-difference Dirac operator; one more NaN face layer."""
    return field.with_values(dirac(field.values, field.lattice.spacing))


def apply_D_shifted(field: QuaternionGrid, alpha: complex) -> QuaternionGrid:
    """(D + alpha) f for a complex constant alpha."""
    shifted = apply_D(field)
    return shifted.with_values(shifted.values + alpha * field.values)


def _multiplier(p) -> tuple[np.ndarray, Lattice | None]:
    if isinstance(p, QuaternionGrid):
        return p.values, p.lattice
    if isinstance(p, Biquaternion):
        return p.components, None
    raise TypeError("multiplier must be a QuaternionGrid or a Biquaternion")


def right_mult(p) -> Callable[[QuaternionGrid], QuaternionGrid]:
    """The operator M^p: f -> f*p, pointwise right multiplication."""
    pv, plat = _multiplier(p)

    def apply(field: QuaternionGrid) -> QuaternionGrid:
        if plat is not None and plat != field.lattice:
            raise LatticeMismatch("multiplier grid lives on a different lattice")
        return field.with_values(_mul_components(field.values, pv))

    return apply


def left_mult(p) -> Callable[[QuaternionGrid], QuaternionGrid]:
    """The operator ^pM: f -> p*f, pointwise left multiplication."""
    pv, plat = _multiplier(p)

    def apply(field: QuaternionGrid) -> QuaternionGrid:
        if plat is not None and plat != field.lattice:
            raise LatticeMismatch("multiplier grid lives on a different lattice")
        return field.with_values(_mul_components(pv, field.values))

    return apply


@dataclass(frozen=True)
class PotentialSlot:
    """A nonvanishing particular solution f with its derived potential nu = Lap f / f.

    nu is computed on the grid, not analytically, so both sides of the
    factorization identities share the same discretization error.  For the
    conductivity form, p, q and u0 are kept and f = sqrt(p) * u0.
    """

    f: ScalarGrid
    nu: ScalarGrid
    p: ScalarGrid | None = None
    q: ScalarGrid | None = None
    u0: ScalarGrid | None = None

    @classmethod
    def from_particular_solution(cls, f: ScalarGrid) -> "PotentialSlot":
        _check_nonvanishing(f.values, "f")
        nu_vals = laplacian(f.values, f.lattice.spacing) / f.values
        return cls(f=f, nu=f.with_values(nu_vals))

    @classmethod
    def from_conductivity(cls, p: ScalarGrid, q: ScalarGrid, u0: ScalarGrid) -> "PotentialSlot":
        if p.lattice != q.lattice or p.lattice != u0.lattice:
            raise LatticeMismatch("p, q, u0 must share one lattice")
        _check_nonvanishing(p.values, "p")
        _check_nonvanishing(u0.values, "u0")
        f_vals = np.sqrt(p.values.astype(complex)) * u0.values
        f = ScalarGrid(p.lattice, f_vals)
        _check_nonvanishing(f.values, "f = sqrt(p)*u0")
        nu_vals = laplacian(f.values, f.lattice.spacing) / f.values
        return cls(f=f, nu=f.with_values(nu_vals), p=p, q=q, u0=u0)

    def df_over_f(self) -> QuaternionGrid:
        """Df/f as a purely vectorial quaternion grid, with one NaN face layer."""
        g = grad(self.f.values, self.f.lattice.spacing) / self.f.values[..., None]
        return QuaternionGrid.from_vector_values(self.f.lattice, g)


def _check_nonvanishing(values: np.ndarray, name: str) -> None:
    m = float(np.min(np.abs(values)))
    if m < VANISHING_F_TOL:
        raise VanishingF(f"min |{name}| = {m:.3e} below {VANISHING_F_TOL}")


def helmholtz_factorization_residual(alpha: complex, g: ScalarGrid, margin: int = 0) -> float:
    """Max interior norm of (Lap + alpha^2) g + (D + alpha)(D - alpha) g.

    ``margin`` may widen the excluded boundary band beyond the required
    minimum so refinement levels can be compared over one physical region.
    """
    h = g.lattice.spacing
    qg = QuaternionGrid.from_scalar_grid(g)
    composed = apply_D_shifted(apply_D_shifted(qg, -alpha), alpha)
    res = composed.values.copy()
    res[..., 0] += laplacian(g.values, h) + alpha * alpha * g.values
    return max_abs_interior(res, margin)


def schrodinger_factorization_residual(slot: PotentialSlot, g: ScalarGrid, margin: int = 0) -> float:
    """Max interior norm of (D + M^w)(D - M^w) g - (-Lap + nu) g, w = Df/f."""
    if g.lattice != slot.f.lattice:
        raise LatticeMismatch("g must live on the slot's lattice")
    h = g.lattice.spacing
    w = slot.df_over_f()
    mw = right_mult(w)
    qg = QuaternionGrid.from_scalar_grid(g)
    inner = apply_D(qg) - mw(qg)
    outer = apply_D(inner) + mw(inner)
    res = outer.values.copy()
    res[..., 0] -= -laplacian(g.values, h) + slot.nu.values * g.values
    return max_abs_interior(res, margin)


def conductivity_factorization_residual(slot: PotentialSlot, phi: ScalarGrid, margin: int = 0) -> float:
    """Max interior norm of (div p grad + q) phi + sqrt(p) (D + M^w)(D - M^w) sqrt(p) phi."""
    if slot.p is None or slot.q is None or slot.u0 is None:
        raise ValueError("slot was not built from conductivity data (p, q, u0)")
    if phi.lattice != slot.f.lattice:
        raise LatticeMismatch("phi must live on the slot's lattice")
    h = phi.lattice.spacing
    sp = np.sqrt(slot.p.values.astype(complex))
    lhs = div(slot.p.values[..., None] * grad(phi.values, h), h) + slot.q.values * phi.values

    w = slot.df_over_f()
    mw = right_mult(w)
    scaled = ScalarGrid(phi.lattice, sp * phi.values)
    qs = QuaternionGrid.from_scalar_grid(scaled)
    inner = apply_D(qs) - mw(qs)
    outer = apply_D(inner) + mw(inner)
    rhs = -sp[..., None] * outer.values

    res = -rhs
    res[..., 0] += lhs
    return max_abs_interior(res, margin)


def darboux_transform(slot: PotentialSlot, g: ScalarGrid) -> QuaternionGrid:
    """F = f D(f^-1 g); purely vectorial, solves (D + M^{Df/f}) F = 0 when g does."""
    if g.lattice != slot.f.lattice:
        raise LatticeMismatch("g must live on the slot's lattice")
    ratio = ScalarGrid(g.lattice, g.values / slot.f.values)
    return apply_D(QuaternionGrid.from_scalar_grid(ratio)).scale(slot.f.values)


def dirac_residual(slot: PotentialSlot, F: QuaternionGrid, margin: int = 0) -> float:
    """Max interior norm of (D + M^{Df/f}) F."""
    out = apply_D(F) + right_mult(slot.df_over_f())(F)
    return out.interior_max(margin)


def _cumulative_simpson_from(f: np.ndarray, base: int, h: float, axis: int = 0) -> np.ndarray:
    """Cumulative integral from node ``base`` along ``axis``.

    Composite Simpson for even offsets; odd offsets add one subinterval
    integrated with the local three-point parabola, keeping fourth-order
    accuracy everywhere (exact through quadratics).
    """
    f = np.moveaxis(np.asarray(f, dtype=complex), axis, 0)
    n = f.shape[0]
    out = np.empty_like(f)
    out[base] = 0.0
    for i in range(base + 1, n):
        if (i - base) % 2 == 0:
            out[i] = out[i - 2] + (h / 3.0) * (f[i - 2] + 4.0 * f[i - 1] + f[i])
        elif i + 1 < n:
            out[i] = out[i - 1] + (h / 12.0) * (5.0 * f[i - 1] + 8.0 * f[i] - f[i + 1])
        else:
            out[i] = out[i - 1] + (h / 12.0) * (-f[i - 2] + 8.0 * f[i - 1] + 5.0 * f[i])
    for i in range(base - 1, -1, -1):
        if (base - i) % 2 == 0:
            out[i] = out[i + 2] - (h / 3.0) * (f[i] + 4.0 * f[i + 1] + f[i + 2])
        elif i + 2 < n:
            out[i] = out[i + 1] - (h / 12.0) * (5.0 * f[i] + 8.0 * f[i + 1] - f[i + 2])
        else:
            out[i] = out[i + 1] - (h / 12.0) * (-f[i - 1] + 8.0 * f[i] + 5.0 * f[i + 1])
    return np.moveaxis(out, 0, axis)


def antiderivative(G: QuaternionGrid, base: tuple[int, int, int]) -> ScalarGrid:
    """Path antiderivative of a purely vectorial field.

    Integrates G1 along the x-leg from the base node, then G2 along y, then
    G3 along z (this leg order is fixed; the free constant is taken as 0):

        A[G](x,y,z) = int G1(xi,y0,z0) dxi + int G2(x,zeta,z0) dzeta
                      + int G3(x,y,eta) deta .

    On gradient fields this inverts grad up to the value at the base node.
    Composite-Simpson quadrature; output is defined on the valid interior
    of G, the box inside its NaN faces, and NaN outside it.
    """
    box = _valid_box(G.values)
    if not all(s.start <= b < s.stop for b, s in zip(base, box)):
        raise BaseOutOfGrid(f"base {base} outside the valid interior {box} of dims {G.lattice.dims}")

    vals = G.values[box]
    scale = max(1.0, float(np.max(np.abs(vals[..., 1:]))))
    if float(np.max(np.abs(vals[..., 0]))) > 1e-12 * scale:
        raise ValueError("antiderivative needs a purely vectorial field")
    h = G.lattice.spacing
    b = tuple(i - s.start for i, s in zip(base, box))

    leg_x = _cumulative_simpson_from(vals[:, b[1], b[2], 1], b[0], h)
    leg_y = _cumulative_simpson_from(vals[:, :, b[2], 2], b[1], h, axis=1)
    leg_z = _cumulative_simpson_from(vals[..., 3], b[2], h, axis=2)
    acc = leg_x[:, None, None] + leg_y[:, :, None] + leg_z

    out = np.full(G.lattice.dims, np.nan, dtype=complex)
    out[box] = acc
    return ScalarGrid(G.lattice, out)


def _vekua_image(slot: PotentialSlot, W: QuaternionGrid) -> QuaternionGrid:
    """D W - (Df/f) C_H(W), carrying the NaN faces of both terms."""
    return apply_D(W) - left_mult(slot.df_over_f())(W.with_values(W.bq().quat_conj().components))


def vekua_residual(slot: PotentialSlot, W: QuaternionGrid, margin: int = 0) -> float:
    """Max interior norm of D W - (Df/f) C_H(W)."""
    if W.lattice != slot.f.lattice:
        raise LatticeMismatch("W must live on the slot's lattice")
    return _vekua_image(slot, W).interior_max(margin)


def vekua_consequences(slot: PotentialSlot, W: QuaternionGrid, margin: int = 0) -> tuple[float, float, float]:
    """Residuals implied for a solution W = W0 + Wv of the Vekua equation.

    Returns the max interior norms of (-Lap + nu) W0,
    div(f^2 grad(W0/f)), and rot(f^-2 rot(f Wv)).
    """
    if W.lattice != slot.f.lattice:
        raise LatticeMismatch("W must live on the slot's lattice")
    h = W.lattice.spacing
    f = slot.f.values
    w0 = W.values[..., 0]
    wv = W.values[..., 1:]
    r_schr = max_abs_interior(-laplacian(w0, h) + slot.nu.values * w0, margin)
    r_sc = max_abs_interior(div((f * f)[..., None] * grad(w0 / f, h), h), margin)
    r_vec = max_abs_interior(rot((f ** -2.0)[..., None] * rot(f[..., None] * wv, h), h), margin)
    return r_schr, r_sc, r_vec


def generating_quartet(slot: PotentialSlot) -> list[QuaternionGrid]:
    """The four exact solutions f, i1/f, i2/f, i3/f of the Vekua equation."""
    lat = slot.f.lattice
    f = slot.f.values
    quartet = [QuaternionGrid.from_scalar_grid(slot.f)]
    for k in (1, 2, 3):
        vals = np.zeros(lat.dims + (4,), dtype=complex)
        vals[..., k] = 1.0 / f
        quartet.append(QuaternionGrid(lat, vals))
    return quartet


def coefficients_to_vekua(slot: PotentialSlot, w: QuaternionGrid) -> QuaternionGrid:
    """Expand a coefficient field w = phi0 + sum phi_k i_k over the quartet:
    W = phi0 f + sum phi_k i_k / f."""
    if w.lattice != slot.f.lattice:
        raise LatticeMismatch("w must live on the slot's lattice")
    f = slot.f.values
    vals = np.empty_like(w.values)
    vals[..., 0] = w.values[..., 0] * f
    vals[..., 1:] = w.values[..., 1:] / f[..., None]
    return QuaternionGrid(w.lattice, vals)


def vekua_coefficient_identity_residual(
    slot: PotentialSlot, w: QuaternionGrid, margin: int = 0
) -> float:
    """Residual of the coefficient form of the Vekua equation.

    Writing W = phi0 f + sum phi_k i_k / f with w = phi0 + sum phi_k i_k,
    the Vekua residual of W equals, nodewise,

        ((1 + f^2)/(2 f)) ( D w - ((1 - f^2)/(1 + f^2)) D C_H(w) ) ,

    so w solves D w = ((1 - f^2)/(1 + f^2)) D C_H(w) exactly when W solves
    the Vekua equation.  Established for real positive f only: a complex f
    can make 1 + f^2 vanish, which the transformation does not cover.
    Returns the max interior mismatch between the two sides.
    """
    if w.lattice != slot.f.lattice:
        raise LatticeMismatch("w must live on the slot's lattice")
    f = slot.f.values
    if np.max(np.abs(np.imag(f))) > 0.0 or np.min(np.real(f)) <= 0.0:
        raise ValueError("coefficient identity requires real positive f")
    fr = np.real(f)

    Dw = apply_D(w)
    Dwbar = apply_D(w.with_values(w.bq().quat_conj().components))
    ratio = ((1.0 - fr * fr) / (1.0 + fr * fr))[..., None]
    lhs = ((1.0 + fr * fr) / (2.0 * fr))[..., None] * (Dw.values - ratio * Dwbar.values)

    rhs = _vekua_image(slot, coefficients_to_vekua(slot, w))
    return max_abs_interior(lhs - rhs.values, margin)
