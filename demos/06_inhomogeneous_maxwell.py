#!/usr/bin/env python3
# Maxwell's equations in a medium with variable eps(x), mu(x) collapse to a
# single quaternionic equation for V = sqrt(eps) E + 1j sqrt(mu) H.  A
# manufactured exact solution drives both the component system and the
# quaternionic form to second-order residuals; breaking any one Maxwell
# equation blows the quaternionic residual up.

from dataclasses import replace

import numpy as np
import sympy as sp

from bqem import medium_from_expressions, manufactured_solution, maxwell_residuals, quaternionic_residual
from bqem.grids import Lattice, SpaceTimeLattice
from bqem.inhomog import T, X1, X2, X3

EPS = 1 + sp.Rational(3, 10) * sp.exp(-(X1**2 + X2**2 + X3**2))
MU = 1 + sp.Rational(1, 10) * X1**2
POTENTIAL = (0, 0, sp.sin(X1) * sp.cos(T))  # vector potential; phi = 0


def build(n):
    lat = Lattice.cube((0, 0, 0), 1.0, n)
    med = medium_from_expressions(lat, EPS, MU)
    st = SpaceTimeLattice(lat, 0.0, 0.8 / (n - 1), n)
    return med, manufactured_solution(POTENTIAL, 0, med, st)


print("residuals on the manufactured solution (h halves between rows):")
print(f"{'n':>4} {'rot H eq':>11} {'rot E eq':>11} {'div eps E':>11} {'div mu H':>11} {'quaternionic':>13}")
for n, m in ((9, 1), (17, 2)):
    med, state = build(n)
    r = maxwell_residuals(state, med, margin=m)
    q = quaternionic_residual(state, med, margin=m)
    print(f"{n:4d} {r[0]:11.3e} {r[1]:11.3e} {r[2]:11.3e} {r[3]:11.3e} {q:13.3e}")

# Sabotage one equation at a time: the single quaternionic equation sees it.
med, state = build(9)
base = quaternionic_residual(state, med, margin=1)
pts = state.st.space.points()
bump = np.exp(-np.sum(pts * pts, axis=-1))
gradbump = -2.0 * pts * bump[..., None]

print(f"\nexact solution residual: {base:.3e}")
for name, bad in (
    ("gradient added to E (breaks div(eps E) = rho)", replace(state, E=state.E + 0.3 * gradbump[None])),
    ("gradient added to H (breaks div(mu H) = 0)  ", replace(state, H=state.H + 0.3 * gradbump[None])),
    ("rho replaced by zero                        ", replace(state, rho=np.zeros_like(state.rho))),
):
    r = quaternionic_residual(bad, med, margin=1)
    print(f"{name}: {r:.3e}  ({r / base:.0f}x)")
