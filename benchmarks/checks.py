"""Checks on the outputs of the timed passes, run outside the timed region.

Each check returns a list of failure messages; an empty list means the
output is right.  No check compares against a stored copy of an earlier
output: the scatter errors are recomputed from the captured MFS solution
with the closed forms in ``reference``, the refinement table must show
second order, the Green function must match its closed form, and every
``check`` row must lie in its window, with exit code 0.
"""

from __future__ import annotations

import math

import numpy as np

import reference
from workloads import ALPHA, ELLIPSOID

RATIO_WINDOW = (3.2, 4.8)
RESIDUAL_CEILING = 1e-10
# The CLI prints errors with 9 significant digits; the recomputed errors
# agree with them to about 1e-8 relative.
ERR_AGREEMENT = 1e-6
# Least-squares slope of log10(errE) against N over the default sweep,
# in decades per unit N; the reference sweep falls at about -0.13.
SWEEP_SLOPE_MAX = -0.06
GREEN_AGREEMENT = 1e-11


def parse_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def check_scatter(cmd: dict, text: str, solutions: list, residuals: list) -> list[str]:
    rows = parse_csv(text)
    if not rows or len(rows) != len(solutions):
        return [f"scatter: {len(rows)} rows for {len(solutions)} captured solves"]
    alpha = complex(*ALPHA)
    semi_axes = (ELLIPSOID["a"], ELLIPSOID["b"], ELLIPSOID["c"])
    pts = reference.ellipsoid_grid(semi_axes, 24, 12, 5.0)
    E_ref, H_ref = reference.dipole_field(cmd["moment"], alpha, pts)
    errors = []
    for row, sol in zip(rows, solutions):
        E, H = reference.mfs_fields(alpha, sol.sources, sol.coeffs_a.components, sol.coeffs_b.components, pts)
        for name, ours in (("errE", np.max(np.abs(E - E_ref))), ("errH", np.max(np.abs(H - H_ref)))):
            reported = float(row[name])
            if not abs(reported - ours) <= ERR_AGREEMENT * ours:
                errors.append(f"scatter N={row['N']}: reported {name} {reported:.3e}, closed form gives {ours:.3e}")
    err_e = [float(r["errE"]) for r in rows]
    if not err_e[-1] < cmd["err_ceiling"]:
        errors.append(f"scatter N={rows[-1]['N']}: errE {err_e[-1]:.3e} above {cmd['err_ceiling']:.0e}")
    if cmd["sweep"]:
        n = np.array([float(r["N"]) for r in rows])
        slope = np.polyfit(n, np.log10(err_e), 1)[0]
        if not (slope <= SWEEP_SLOPE_MAX and err_e[-1] < err_e[0]):
            errors.append(f"scatter sweep: errE does not fall geometrically (slope {slope:.3f} decades per N)")
    worst = max(residuals)
    if not worst < RESIDUAL_CEILING:
        errors.append(f"scatter: relative residual {worst:.3e} above {RESIDUAL_CEILING:.0e}")
    return errors


def check_green_refine(text: str) -> list[str]:
    rows = parse_csv(text)
    errors = []
    if len(rows) < 2:
        errors.append(f"green refine: {len(rows)} levels")
    for row in rows:
        res = float(row["residual"])
        if not (math.isfinite(res) and res > 0.0):
            errors.append(f"green refine level {row['level']}: residual {row['residual']}")
    for row in rows[1:]:
        ratio = float(row["ratio"])
        if not RATIO_WINDOW[0] <= ratio <= RATIO_WINDOW[1]:
            errors.append(f"green refine level {row['level']}: ratio {ratio:.3f} outside {RATIO_WINDOW}")
    return errors


def check_green_point(cmd: dict, text: str) -> list[str]:
    values = []
    for line in text.splitlines():
        _, re_part, im_part = line.split()
        values.append(complex(float(re_part[3:]), float(im_part[3:])))
    ref = reference.green_function(cmd["t"], cmd["x"], eps=1.0, mu=1.0, beta=1.0)
    if len(values) != 4:
        return [f"green-eval: {len(values)} components"]
    dev = float(np.max(np.abs(np.array(values) - ref)))
    if not dev <= GREEN_AGREEMENT * float(np.max(np.abs(ref))):
        return [f"green-eval t={cmd['t']} x={cmd['x']}: off the closed form by {dev:.3e}"]
    return []


def check_rows(rc: int, text: str) -> list[str]:
    rows = parse_csv(text)
    if not rows:
        return ["check: no rows"]
    errors = [
        f"check {r['suite']}.{r['check']}: {r['value']} outside [{r['lo']}, {r['hi']}]"
        for r in rows
        if not (float(r["lo"]) <= float(r["value"]) <= float(r["hi"]) and r["status"] == "pass")
    ]
    if rc != 0:
        errors.append(f"check: exit code {rc}")
    return errors


def completed(cmd: dict, rc: int, text: str) -> bool:
    """Whether an operation ran to its end, so that its output can be checked.

    ``bqem check`` prints its rows and then exits 1 when a row is out of its
    window: that is a wrong output, not a failed operation.  Any other
    non-zero exit (a usage or config error, a solver error, which print no
    rows) is a failed operation.
    """
    return rc == 0 or (cmd["check"] == "check" and rc == 1 and bool(text.strip()))


def check_output(cmd: dict, rc: int, text: str, solutions: list, residuals: list) -> list[str]:
    kind = cmd["check"]
    if kind == "scatter":
        return check_scatter(cmd, text, solutions, residuals)
    if kind == "green_refine":
        return check_green_refine(text)
    if kind == "green_point":
        return check_green_point(cmd, text)
    return check_rows(rc, text)
