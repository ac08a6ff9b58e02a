"""Batch experiment runner.

Three subcommands; each value has one way in:

* ``scatter``    -- the dipole scattering benchmark sweep, read from a JSON
                    config (``--config``; an unknown field is an error);
                    emits one row per N with columns N, errE, errH, errB,
                    residual, cond, sc_leak, wall_ms.
* ``check``      -- runs a verification suite (algebra, kernels,
                    factorizations, green, inhomog, all) with ``--seed``;
                    exit code 0 only when every check passes.
* ``green-eval`` -- prints the chiral Green function at one (``--t``,
                    ``--x``), eight reals with 15 significant digits (one
                    ``sc re=.. im=..`` line per component; JSON rows
                    component, re, im with ``--format json``);
                    ``--refine`` emits a residual refinement table on
                    three nested lattices (``REFINE_LEVELS``) instead.

Output is CSV (default) or JSON, to stdout or ``--out``.  CSV starts with
``# key=value`` metadata lines; everything except the timestamp line is
byte-deterministic for fixed inputs.  JSON writes a non-finite number (an
infinite window bound, the first refinement ratio) as null.  Exit codes: 0
success, 1 check/solver failure, 2 configuration or usage error, and 141
(128 + SIGPIPE, as a shell reports it) when stdout closes before the output
is written; that run ends quietly.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__
from .chiral_time import green_function, green_refinement
from .errors import AchiralUnsupported, BqemError, ConfigError, OriginSingularity
from .kernels import ChiralMedium, dipole_field
from .scattering import DIPOLE_MOMENT, Ellipsoid, MfsProblem, run_benchmark
from .suites import SUITES, run_suites

_REQUIRED = object()
EXIT_STDOUT_CLOSED = 141


def _get(cfg: dict, path: str, default=_REQUIRED):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _REQUIRED:
                raise ConfigError(f"missing config field: {path}")
            return default
        node = node[part]
    return node


def _as_float(value, name: str) -> float:
    # json.load reads NaN, Infinity and integers beyond float range, and
    # float() reads nan and inf; each fails the comparison
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number")
    return float(value)


def _as_complex(value, name: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_float(value, name))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_float(value[0], name), _as_float(value[1], name))
    raise ConfigError(f"{name} must be a number or [re, im]")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top level must be a JSON object")
    return cfg


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
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.8e}"
    return str(value)


def render_csv(report: Report) -> str:
    lines = [f"# {k}={v}" for k, v in report.meta.items()]
    lines.append(",".join(report.columns))
    for row in report.rows:
        lines.append(",".join(_fmt(row[c]) for c in report.columns))
    return "\n".join(lines) + "\n"


def _json_number(value):
    """``value``, or None for a non-finite float: JSON has no NaN or Infinity."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def render_json(report: Report) -> str:
    # np.float64 is a float subclass, which json writes through float.__repr__
    rows = [{c: _json_number(row[c]) for c in report.columns} for row in report.rows]
    return json.dumps(rows, indent=2, allow_nan=False) + "\n"


def _emit(report: Report, fmt: str, out: str | None) -> None:
    _write(render_csv(report) if fmt == "csv" else render_json(report), out)


def _write(text: str, out: str | None, mode: str = "w") -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed stdout raises here, inside main, not at exit
    else:
        try:
            with open(out, mode, newline="\n") as fh:
                fh.write(text)
        except OSError as exc:  # a directory, a missing parent, no permission
            raise ConfigError(f"cannot write {out}: {exc}") from exc


def _meta(command: str, inputs: dict, **seed) -> dict:
    """Metadata lines; only ``check`` passes a ``seed``, which is hashed and written."""
    digest = hashlib.sha256(json.dumps({"config": inputs, **seed}, sort_keys=True).encode()).hexdigest()[:16]
    return {
        "command": command,
        "version": __version__,
        "config_hash": digest,
        **seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


_SCATTER_FIELDS = ("ellipsoid", "alpha", "beta", "source_scale", "n_values", "moment", "impedance", "oversample")

# Nested lattices of `green-eval --refine`: 9^3, 17^3 and 33^3 nodes a time slab.
REFINE_LEVELS = 3


def cmd_scatter(cfg: dict, fmt: str, out: str | None) -> int:
    axes = cfg.get("ellipsoid")
    unknown = [k for k in cfg if k not in _SCATTER_FIELDS]
    unknown += [f"ellipsoid.{k}" for k in (axes if isinstance(axes, dict) else ()) if k not in ("a", "b", "c")]
    if unknown:
        raise ConfigError(f"unknown config field(s) {', '.join(unknown)}; the fields are {', '.join(_SCATTER_FIELDS)}")
    surface = _construct(
        Ellipsoid,
        a=_as_float(_get(cfg, "ellipsoid.a"), "ellipsoid.a"),
        b=_as_float(_get(cfg, "ellipsoid.b"), "ellipsoid.b"),
        c=_as_float(_get(cfg, "ellipsoid.c"), "ellipsoid.c"),
    )
    alpha = _as_complex(_get(cfg, "alpha", [1.0, 0.3]), "alpha")
    beta = _as_float(_get(cfg, "beta", 0.0), "beta")
    medium = _construct(ChiralMedium, beta=beta, alpha=alpha)
    source_scale = _as_float(_get(cfg, "source_scale", 0.15), "source_scale")
    n_values = _get(cfg, "n_values", [10, 15, 20, 25, 30, 35])
    if not (isinstance(n_values, list) and n_values and all(type(n) is int and n > 0 for n in n_values)):
        raise ConfigError("config field n_values must be a non-empty list of positive integers")
    moment = _get(cfg, "moment", DIPOLE_MOMENT.tolist())
    if not isinstance(moment, list) or len(moment) != 3:
        raise ConfigError("config field moment must be a list of three numbers")
    moment = np.array([_as_float(m, "moment") for m in moment])
    if not np.any(moment):
        raise ConfigError("config field moment must not be zero: the reference field would vanish")
    xi = _get(cfg, "impedance", None)  # absent or null: a perfect conductor, xi = 0
    impedance = _as_complex(0 if xi is None else xi, "impedance")
    oversample = _as_float(_get(cfg, "oversample", 1.0), "oversample")

    problem = _construct(
        MfsProblem,
        surface=surface,
        medium=medium,
        n_sources=max(n_values),
        source_scale=source_scale,
        reference=partial(dipole_field, moment, medium),
        impedance=impedance,
        oversample=oversample,
    )
    rows = run_benchmark(problem, n_values)
    report = Report(
        columns=["N", "errE", "errH", "errB", "residual", "cond", "sc_leak", "wall_ms"],
        rows=rows,
        meta=_meta("scatter", cfg),
    )
    _emit(report, fmt, out)
    return 0


def cmd_check(suite: str, seed: int, fmt: str, out: str | None) -> int:
    if seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
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
        meta=_meta("check", {"suite": suite}, seed=seed),
    )
    _emit(report, fmt, out)
    return 0 if all(r.passed for r in rows) else 1


def cmd_green_eval(args) -> int:
    if args.refine and (args.t is not None or args.x is not None):
        raise ConfigError("--refine evaluates on its own lattices: drop --t and --x")
    t = _as_float(1.0 if args.t is None else args.t, "--t")
    try:
        x = [float(v) for v in ("1,0,0" if args.x is None else args.x).split(",")]
    except ValueError as exc:
        raise ConfigError(f"--x must be 'x1,x2,x3': {exc}") from exc
    if len(x) != 3:
        raise ConfigError("--x must be 'x1,x2,x3'")
    medium = _construct(ChiralMedium, eps=args.eps, mu=args.mu, beta=args.beta)
    try:
        # beta 0 to double precision, a factor that overflows or underflows, x
        # at the origin or with |x| not finite, or a t that overflows
        result = green_refinement(medium, REFINE_LEVELS) if args.refine else green_function(t, x, medium)
    except (AchiralUnsupported, OriginSingularity, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    if args.refine:
        rows = []
        prev = None
        for k, (h, ht, res) in enumerate(result):
            ratio = (prev / res) if prev is not None else float("nan")
            rows.append({"level": k, "h": h, "ht": ht, "residual": res, "ratio": ratio})
            prev = res
        # hashed from the values in effect, not from how the flags spell them
        inputs = {"eps": medium.eps, "mu": medium.mu, "beta": medium.beta, "levels": REFINE_LEVELS}
        report = Report(columns=["level", "h", "ht", "residual", "ratio"], rows=rows, meta=_meta("green-eval", inputs))
        _emit(report, args.format, args.out)
        return 0

    rows = [
        {"component": name, "re": comp.real, "im": comp.imag}
        for name, comp in zip(("sc", "v1", "v2", "v3"), result.components.reshape(4))
    ]
    if args.format == "json":
        _write(render_json(Report(columns=["component", "re", "im"], rows=rows)), args.out)
    else:
        _write("".join(f"{r['component']} re={r['re']:.15g} im={r['im']:.15g}\n" for r in rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bqem", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", help="output path (default stdout)")

    p_scatter = sub.add_parser("scatter", help="dipole scattering benchmark sweep")
    p_scatter.add_argument("--config", metavar="PATH", required=True, help="JSON config file")
    output(p_scatter)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=tuple(SUITES) + ("all",))
    p_check.add_argument("--seed", type=int, default=0)
    output(p_check)

    p_green = sub.add_parser("green-eval", help="evaluate the chiral Green function")
    p_green.add_argument("--t", type=float, help="time (default 1)")
    p_green.add_argument("--x", help="'x1,x2,x3' (default 1,0,0)")
    p_green.add_argument("--eps", type=float, default=1.0)
    p_green.add_argument("--mu", type=float, default=1.0)
    p_green.add_argument("--beta", type=float, default=1.0)
    p_green.add_argument("--refine", action="store_true", help="emit a residual refinement table")
    output(p_green)
    return parser


# numpy advises huge pages on arrays of 4 MiB or more, which glibc puts on the
# heap once a freed larger mapped block has raised its mmap threshold; reuse of
# those pages made the peak memory of `scatter` at N = 200 read 145 or 171 MB
# by heap layout.  Fixed mmap and trim thresholds of 4 MiB map each such array
# apart and keep the free heap top below it (a 128 KiB trim cost 10% a pass).
def _fix_mmap_threshold() -> None:
    try:  # only glibc has these parameters; unlike platform.libc_ver(), this reads no file
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or a libc (musl) that lacks the name
        return
    if libc.startswith("glibc"):
        for param in (-3, -1):  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
            ctypes.CDLL(None).mallopt(param, 4 << 20)


def main(argv=None) -> int:
    _fix_mmap_threshold()
    args = build_parser().parse_args(argv)
    try:
        # opened to append before any work: an unwritable --out fails now, and
        # an existing file keeps its bytes until the output replaces them
        _write("", args.out, "a")
        if args.command == "scatter":
            return cmd_scatter(_load_config(args.config), args.format, args.out)
        if args.command == "check":
            return cmd_check(args.suite, args.seed, args.format, args.out)
        return cmd_green_eval(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BqemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # nothing is left to write to; stdout goes to devnull, so that the
        # flush at exit finds nothing to report either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED


if __name__ == "__main__":
    raise SystemExit(main())
