#!/usr/bin/env python3
# The causal Green function of the time-dependent chiral Maxwell operator
# M = beta sqrt(eps mu) dt D + sqrt(eps mu) dt - 1j D: closed-form values,
# causality, the t -> 0 limit, and a refinement table showing M annihilates
# it away from the source.

import numpy as np

from bqem import ChiralMedium, fundamental_solution, green_function, green_refinement

med = ChiralMedium(eps=1.0, mu=1.0, beta=1.0)
x = np.array([1.0, 0.5, -0.3])

print("value at t = 1.2:", np.round(green_function(1.2, x, med).components, 6))
print("value at t = -1 :", green_function(-1.0, x, med).components, "(causality)")

g0 = green_function(0.0, x, med)
K = fundamental_solution(1.0 / med.beta, x)
print(
    "t -> 0 limit matches K_{1/beta}/(beta sqrt(eps mu)):",
    np.max(np.abs(g0.components - K.components / (med.beta * np.sqrt(med.eps * med.mu)))),
)

# Waves of both circular polarizations radiate from the source; sample the
# scalar part along t at a fixed point to see the Bessel oscillation.
ts = np.linspace(0.0, 6.0, 7)
print("\nSc(f) along t at x =", x, ":")
for t in ts:
    print(f"  t={t:4.1f}: {green_function(t, x, med).components[0]:.6f}")

# M f = 0 away from (t, x) = 0; the finite-difference residual refines at
# second order in (h, ht) jointly.
print("\n|M f| residual under joint (h, ht) refinement:")
for h, ht, res in green_refinement(med, 3):
    print(f"  h={h:7.4f} ht={ht:7.4f}: {res:.4e}")
