#!/usr/bin/env python3
# The closed-form kernels: the Helmholtz fundamental solution theta_alpha,
# the Dirac-operator kernels K(+/-alpha) built from it, and the magnetic
# dipole field of a medium, used as the scattering reference solution.

import numpy as np

from bqem import (
    ChiralMedium,
    chiral_wavenumbers,
    dipole_field,
    fundamental_solution,
    helmholtz_kernel,
    helmholtz_kernel_grad,
)

alpha = 1 + 0.3j
x = np.array([1.0, 1.0, 1.0])

print("theta_alpha(x)        =", helmholtz_kernel(alpha, x))
print("grad theta (vector)   =", helmholtz_kernel_grad(alpha, x).vector)

# K(+alpha) and K(-alpha) share theta_alpha; only the scalar part flips.
for sign in (+1, -1):
    K = fundamental_solution(alpha, x, sign=sign)
    print(f"K({'+-'[sign < 0]}alpha): Sc = {K.scalar:.6f}, Vec = {np.round(K.vector, 6)}")

# theta solves (Lap + alpha^2) theta = 0 away from the origin; check by
# central differences with two step sizes: the residual drops 4x.
def fd_laplacian(f, x0, h):
    total = -6.0 * f(x0)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        total += f(x0 + e) + f(x0 - e)
    return total / (h * h)

f = lambda p: helmholtz_kernel(alpha, p)
print("\nPDE residual (Lap + alpha^2) theta under h -> h/2:")
for h in (1e-2, 5e-3):
    print(f"  h={h:6.0e}: {abs(fd_laplacian(f, x, h) + alpha**2 * f(x)):.3e}")

# In a chiral medium the wavenumber splits over the circular polarizations.
print("\nchiral split of alpha for beta = 0.1:", chiral_wavenumbers(alpha, 0.1))

# The dipole field of a medium decays per the radiation condition:
# r |E - xhat x H| -> 0.  In a chiral medium it excites both circular
# polarizations, one at each split wavenumber.
moment = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
xhat = np.array([0.6, 0.64, 0.48])
print("\nSilver-Mueller decay along a ray (real alpha = 1):")
for r in (10.0, 100.0, 1000.0):
    E, H = dipole_field(moment, ChiralMedium(alpha=1.0), r * xhat)
    print(f"  r={r:6.0f}: r*|E - xhat x H| = {r * np.max(np.abs(E - np.cross(xhat, H))):.3e}")
