"""Batch experiment runner.

Three subcommands, each driven by an optional JSON config (flags override
config fields):

* ``scatter``    -- the dipole scattering benchmark sweep; emits one row
                    per N with columns N, errE, errH, errB, residual, cond,
                    sc_leak, wall_ms.
* ``check``      -- runs a verification suite (algebra, kernels,
                    factorizations, green, inhomog, all); exit code 0 only
                    when every check passes.
* ``green-eval`` -- prints the chiral Green function at one (t, x), eight
                    reals with 15 significant digits (one ``sc re=.. im=..``
                    line per component; JSON rows component, re, im with
                    ``--format json``); ``--refine`` emits a residual
                    refinement table instead.

Output is CSV (default) or JSON.  CSV starts with ``# key=value`` metadata
lines; everything except the timestamp line is byte-deterministic for a
fixed config and seed.  Exit codes: 0 success, 1 check/solver failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__
from .chiral_time import MAX_REFINE_LEVELS, MAX_SLAB_BYTES, green_function, green_refinement
from .errors import AchiralUnsupported, BqemError, ChiralResonance, ConfigError, OriginSingularity
from .kernels import ChiralMedium, chiral_wavenumbers, dipole_field
from .scattering import DIPOLE_MOMENT, Ellipsoid, MfsProblem, run_benchmark
from .suites import SUITES, run_suites

_REQUIRED = object()


def _get(cfg: dict, path: str, default=_REQUIRED):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _REQUIRED:
                raise ConfigError(f"missing config field: {path}")
            return default
        node = node[part]
    return node


def _as_float(value, path: str) -> float:
    # json.load reads NaN, Infinity and integers beyond float range, and
    # float() reads nan and inf; each fails the comparison
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"config field {path} must be a finite number")
    return float(value)


def _as_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_float(value, path))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_float(value[0], path), _as_float(value[1], path))
    raise ConfigError(f"config field {path} must be a number or [re, im]")


def _construct(cls, **fields):
    """``cls(**fields)``, with the constructor's validation errors reported as config errors."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class Report:
    columns: list[str]
    rows: list[dict]
    meta: dict = field(default_factory=dict)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.8e}"
    return str(value)


def render_csv(report: Report) -> str:
    lines = [f"# {k}={v}" for k, v in report.meta.items()]
    lines.append(",".join(report.columns))
    for row in report.rows:
        lines.append(",".join(_fmt(row[c]) for c in report.columns))
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    def clean(v):
        if isinstance(v, (np.integer,)):
            return int(v)
        if isinstance(v, (np.floating,)):
            return float(v)
        return v

    rows = [{c: clean(row[c]) for c in report.columns} for row in report.rows]
    return json.dumps(rows, indent=2) + "\n"


def _emit(report: Report, fmt: str, out: str | None) -> None:
    _write(render_csv(report) if fmt == "csv" else render_json(report), out)


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _meta(command: str, cfg: dict, seed: int) -> dict:
    digest = hashlib.sha256(
        json.dumps({"config": cfg, "seed": seed}, sort_keys=True).encode()
    ).hexdigest()[:16]
    return {
        "command": command,
        "version": __version__,
        "config_hash": digest,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def cmd_scatter(cfg: dict, seed: int, fmt: str, out: str | None) -> int:
    surface = _construct(
        Ellipsoid,
        a=_as_float(_get(cfg, "ellipsoid.a"), "ellipsoid.a"),
        b=_as_float(_get(cfg, "ellipsoid.b"), "ellipsoid.b"),
        c=_as_float(_get(cfg, "ellipsoid.c"), "ellipsoid.c"),
    )
    alpha = _as_complex(_get(cfg, "alpha", [1.0, 0.3]), "alpha")
    if alpha.imag < 0.0:
        raise ConfigError(f"config field alpha must have Im(alpha) >= 0, got {alpha.imag}")
    beta = _as_float(_get(cfg, "beta", 0.0), "beta")
    try:
        chiral_wavenumbers(alpha, beta)
    except ChiralResonance as exc:
        raise ConfigError(str(exc)) from exc
    medium = ChiralMedium(beta=beta, alpha=alpha)
    source_scale = _as_float(_get(cfg, "source_scale", 0.15), "source_scale")
    if not 0.0 < source_scale < 1.0:
        raise ConfigError("config field source_scale must lie in (0, 1): scatter solves exterior problems")
    eval_scale = _as_float(_get(cfg, "eval_scale", 5.0), "eval_scale")
    if eval_scale <= 1.0:
        raise ConfigError("config field eval_scale must be > 1: errors are measured outside the scatterer")
    n_values = _get(cfg, "n_values", [10, 15, 20, 25, 30, 35])
    if not (isinstance(n_values, list) and n_values and all(type(n) is int and n > 0 for n in n_values)):
        raise ConfigError("config field n_values must be a non-empty list of positive integers")
    moment = _get(cfg, "moment", DIPOLE_MOMENT.tolist())
    if not isinstance(moment, list) or len(moment) != 3:
        raise ConfigError("config field moment must be a list of three numbers")
    moment = np.array([_as_float(m, "moment") for m in moment])
    if not np.any(moment):
        raise ConfigError("config field moment must not be zero: the reference field would vanish")
    impedance = _get(cfg, "impedance", None)
    if impedance is not None:
        impedance = _as_complex(impedance, "impedance")
    oversample = _as_float(_get(cfg, "oversample", 1.0), "oversample")

    problem = _construct(
        MfsProblem,
        surface=surface,
        medium=medium,
        n_sources=max(n_values),
        source_scale=source_scale,
        impedance=impedance,
        oversample=oversample,
    )
    rows = run_benchmark(problem, n_values, reference=partial(dipole_field, moment, medium), eval_scale=eval_scale)
    report = Report(
        columns=["N", "errE", "errH", "errB", "residual", "cond", "sc_leak", "wall_ms"],
        rows=rows,
        meta=_meta("scatter", cfg, seed),
    )
    _emit(report, fmt, out)
    return 0


def cmd_check(suite: str, cfg: dict, seed: int, fmt: str, out: str | None) -> int:
    names = list(SUITES) if suite == "all" else [suite]
    rows = run_suites(names, seed=seed)
    report = Report(
        columns=["suite", "check", "value", "lo", "hi", "status"],
        rows=[
            {
                "suite": r.suite,
                "check": r.name,
                "value": r.value,
                "lo": r.lo,
                "hi": r.hi,
                "status": "pass" if r.passed else "FAIL",
            }
            for r in rows
        ],
        meta=_meta("check", {"suite": suite, **cfg}, seed),
    )
    _emit(report, fmt, out)
    return 0 if all(r.passed for r in rows) else 1


def cmd_green_eval(args, cfg: dict, seed: int, fmt: str, out: str | None) -> int:
    t = _as_float(args.t if args.t is not None else _get(cfg, "t", 1.0), "t")
    if args.x is not None:
        try:
            x = [float(v) for v in args.x.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--x must be 'x1,x2,x3': {exc}") from exc
    else:
        x = _get(cfg, "x", [1.0, 0.0, 0.0])
    if not isinstance(x, list) or len(x) != 3:
        raise ConfigError("config field x must be a list of three numbers")
    x = [_as_float(v, "x") for v in x]
    medium = _construct(
        ChiralMedium,
        eps=_as_float(args.eps if args.eps is not None else _get(cfg, "eps", 1.0), "eps"),
        mu=_as_float(args.mu if args.mu is not None else _get(cfg, "mu", 1.0), "mu"),
        beta=_as_float(args.beta if args.beta is not None else _get(cfg, "beta", 1.0), "beta"),
    )

    if args.refine:
        levels = _get(cfg, "levels", 3)
        if isinstance(levels, bool) or not isinstance(levels, int) or not 1 <= levels <= MAX_REFINE_LEVELS:
            raise ConfigError(
                f"config field levels must be an integer in [1, {MAX_REFINE_LEVELS}]: the finest "
                f"level's time slabs may take at most {MAX_SLAB_BYTES / 2**20:g} MiB each"
            )
    try:
        result = green_refinement(medium, levels) if args.refine else green_function(t, x, medium)
    except (AchiralUnsupported, OriginSingularity, ValueError) as exc:
        # beta 0 to double precision, or x at the origin or with |x| not finite
        raise ConfigError(str(exc)) from exc

    if args.refine:
        rows = []
        prev = None
        for k, (h, ht, res) in enumerate(result):
            ratio = (prev / res) if prev is not None else float("nan")
            rows.append({"level": k, "h": h, "ht": ht, "residual": res, "ratio": ratio})
            prev = res
        # hashed from the inputs in effect, so a flag and its config field agree
        inputs = {"eps": medium.eps, "mu": medium.mu, "beta": medium.beta, "levels": levels}
        report = Report(
            columns=["level", "h", "ht", "residual", "ratio"],
            rows=rows,
            meta=_meta("green-eval", inputs, seed),
        )
        _emit(report, fmt, out)
        return 0

    rows = [
        {"component": name, "re": comp.real, "im": comp.imag}
        for name, comp in zip(("sc", "v1", "v2", "v3"), result.components.reshape(4))
    ]
    if fmt == "json":
        _write(render_json(Report(columns=["component", "re", "im"], rows=rows)), out)
    else:
        _write("".join(f"{r['component']} re={r['re']:.15g} im={r['im']:.15g}\n" for r in rows), out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bqem", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=0)

    p_scatter = sub.add_parser("scatter", help="dipole scattering benchmark sweep")
    common(p_scatter)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=tuple(SUITES) + ("all",))
    common(p_check)

    p_green = sub.add_parser("green-eval", help="evaluate the chiral Green function")
    common(p_green)
    p_green.add_argument("--t", type=float, default=None)
    p_green.add_argument("--x", type=str, default=None, help="'x1,x2,x3'")
    p_green.add_argument("--eps", type=float, default=None)
    p_green.add_argument("--mu", type=float, default=None)
    p_green.add_argument("--beta", type=float, default=None)
    p_green.add_argument("--refine", action="store_true", help="emit a residual refinement table")
    return parser


# numpy advises huge pages on arrays of 4 MiB or more, which glibc puts on the
# heap once a freed larger mapped block has raised its mmap threshold; reuse of
# those pages made the peak memory of `scatter` at N = 200 read 145 or 171 MB
# by heap layout.  Fixed mmap and trim thresholds of 4 MiB map each such array
# apart and keep the free heap top below it (a 128 KiB trim cost 10% a pass).
def _fix_mmap_threshold() -> None:
    if sys.platform.startswith("linux"):
        for param in (-3, -1):  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
            ctypes.CDLL(None).mallopt(param, 4 << 20)


def main(argv=None) -> int:
    _fix_mmap_threshold()
    args = build_parser().parse_args(argv)
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"config error: invalid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(cfg, dict):
            print("config error: top level must be a JSON object", file=sys.stderr)
            return 2

    try:
        if args.command == "scatter":
            return cmd_scatter(cfg, args.seed, args.format, args.out)
        if args.command == "check":
            return cmd_check(args.suite, cfg, args.seed, args.format, args.out)
        return cmd_green_eval(args, cfg, args.seed, args.format, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BqemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
