#!/usr/bin/env python3
# Grid verification of the operator factorizations: the Helmholtz operator
# through the shifted Dirac operators, the Schrodinger operator through
# D +/- M^{Df/f}, the conductivity operator, and the first-order reduction
# with its quadrature inverse.  Every residual refines at second order.

import numpy as np

from bqem import Lattice, PotentialSlot
from bqem import (
    antiderivative,
    conductivity_factorization_residual,
    darboux_transform,
    helmholtz_factorization_residual,
    schrodinger_factorization_residual,
    vekua_residual,
    generating_quartet,
)

alpha = 1 + 0.3j
k = np.array([0.36, 0.48, 0.8])  # unit vector

print("residual refinement (each h halving should divide residuals by ~4)\n")

print("Lap + alpha^2 = -(D + alpha)(D - alpha)   on g = exp(1j alpha x1):")
for n, m in ((11, 2), (21, 4)):
    lat = Lattice.cube((1, 1, 1), 0.5, n)
    g = np.exp(1j * alpha * lat.points()[..., 0])
    print(f"  h={lat.spacing:.3f}: {helmholtz_factorization_residual(alpha, g, lat, margin=m):.3e}")

print("\n-Lap + nu = (D + M^w)(D - M^w), w = Df/f   with f = exp(k.x):")
for n, m in ((11, 2), (21, 4)):
    lat = Lattice.cube((0.4, 0.5, 0.6), 0.5, n)
    pts = lat.points()
    slot = PotentialSlot(lat, np.exp(pts @ k))
    g = pts[..., 0] ** 2 * pts[..., 1]
    print(f"  h={lat.spacing:.3f}: {schrodinger_factorization_residual(slot, g, margin=m):.3e}")

print("\ndiv p grad + q   via f = sqrt(p) u0, manufactured u0 = exp(-x1):")
for n, m in ((11, 2), (21, 4)):
    lat = Lattice.cube((0.4, 0.5, 0.6), 0.5, n)
    x = lat.points()
    p = 1.0 + x[..., 0] ** 2
    q = -((1.0 - x[..., 0]) ** 2)
    u0 = np.exp(-x[..., 0])
    phi = np.sin(x[..., 0]) * x[..., 2]
    print(f"  h={lat.spacing:.3f}: {conductivity_factorization_residual(lat, p, q, u0, phi, margin=m):.3e}")

# Round trip: a Schrodinger solution g maps to a Dirac solution F = f D(f^-1 g)
# and the path antiderivative brings it back up to a multiple of f.
print("\nround trip g -> F -> g' (difference from g is a multiple of f):")
n = 21
lat = Lattice.cube((0.4, 0.5, 0.6), 0.5, n)
pts = lat.points()
slot = PotentialSlot(lat, np.exp(pts @ k))
g = np.exp(-(pts @ k))
F = darboux_transform(slot, g)
g_prime = antiderivative(F / slot.f[..., None], lat, (n // 2, n // 2, n // 2)) * slot.f
valid = np.isfinite(g_prime)  # g' is NaN on the faces of F
diffs = (g_prime - g)[valid]
fs = slot.f[valid]
lam = np.vdot(fs, diffs) / np.vdot(fs, fs)
print(f"  fitted multiple lambda = {lam:.6f}")
print(f"  max |g' - g - lambda f| = {np.max(np.abs(diffs - lam * fs)):.3e}")

# The quaternionic Vekua equation and its generating quartet f, i_k/f.
print("\nVekua equation residuals for the generating quartet:")
lat = Lattice.cube((0.4, 0.5, 0.6), 0.5, 21)
pts = lat.points()
slot = PotentialSlot(lat, 2.0 + np.sin(pts[..., 0]) * np.cos(pts[..., 1]) + 0.2 * pts[..., 2] ** 2)
for name, W in zip(("f", "i1/f", "i2/f", "i3/f"), generating_quartet(slot)):
    print(f"  {name:5s}: {vekua_residual(slot, W):.3e}")
