#!/usr/bin/env python3
# Maxwell's equations in a medium with variable eps(x), mu(x) collapse to a
# single quaternionic equation for V = sqrt(eps) E + 1j sqrt(mu) H.  A
# manufactured exact solution drives both the component system and the
# quaternionic form to second-order residuals; breaking any one Maxwell
# equation blows the quaternionic residual up.

from dataclasses import replace

import numpy as np

from bqem import manufactured_state, maxwell_residuals, quaternionic_residual

# The manufactured state: eps = 1 + 0.3 exp(-|x|^2), mu = 1 + 0.1 x1^2 and the
# vector potential A = (0, 0, sin x1 cos t), phi = 0, on the unit cube with n
# nodes a side and n times on [0, 0.8].  E = -dt A, H = rot(A)/mu, and the
# sources rho = div(eps E), j = rot H - eps dt E are written in closed form.
# The state carries its medium, so each residual takes the state alone.

print("residuals on the manufactured solution (h halves between rows):")
print(f"{'n':>4} {'rot H eq':>11} {'rot E eq':>11} {'div eps E':>11} {'div mu H':>11} {'quaternionic':>13}")
for n, m in ((9, 1), (17, 2)):
    state = manufactured_state(n)
    r = maxwell_residuals(state, margin=m)
    q = quaternionic_residual(state, margin=m)
    print(f"{n:4d} {r[0]:11.3e} {r[1]:11.3e} {r[2]:11.3e} {r[3]:11.3e} {q:13.3e}")

# Sabotage one equation at a time: the single quaternionic equation sees it.
state = manufactured_state(9)
base = quaternionic_residual(state, margin=1)
pts = state.st.space.points()
bump = np.exp(-np.sum(pts * pts, axis=-1))
gradbump = -2.0 * pts * bump[..., None]

print(f"\nexact solution residual: {base:.3e}")
for name, bad in (
    ("gradient added to E (breaks div(eps E) = rho)", replace(state, E=state.E + 0.3 * gradbump[None])),
    ("gradient added to H (breaks div(mu H) = 0)  ", replace(state, H=state.H + 0.3 * gradbump[None])),
    ("rho replaced by zero                        ", replace(state, rho=np.zeros_like(state.rho))),
):
    r = quaternionic_residual(bad, margin=1)
    print(f"{name}: {r:.3e}  ({r / base:.0f}x)")
