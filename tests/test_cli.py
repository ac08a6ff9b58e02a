import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import types

import numpy as np
import pytest

from bqem import cli
from bqem.chiral_time import green_function
from bqem.cli import main
from bqem.kernels import ChiralMedium

TINY_SCATTER = {
    "ellipsoid": {"a": 5, "b": 3, "c": 2},
    "alpha": [1.0, 0.3],
    "n_values": [5, 8],
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def drop_wall_ms(text):
    """Drop the timestamp line and the wall-clock column before comparing."""
    lines = []
    for ln in text.splitlines():
        if ln.startswith("# timestamp="):
            continue
        if ln.startswith("#"):
            lines.append(ln)
        else:
            lines.append(",".join(ln.split(",")[:-1]))
    return "\n".join(lines)


def test_scatter_csv_shape(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_SCATTER)
    assert main(["scatter", "--config", cfg]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    header = [ln for ln in lines if ln.startswith("N,")]
    assert header == ["N,errE,errH,errB,residual,cond,sc_leak,wall_ms"]
    data = [ln for ln in lines if not ln.startswith(("#", "N,"))]
    assert len(data) == 2
    assert data[0].split(",")[0] == "5"
    assert data[1].split(",")[0] == "8"


def test_scatter_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_SCATTER)
    main(["scatter", "--config", cfg])
    first = capsys.readouterr().out
    main(["scatter", "--config", cfg])
    second = capsys.readouterr().out
    assert drop_wall_ms(first) == drop_wall_ms(second)
    # scatter draws nothing at random: its metadata has no seed
    assert not any(ln.startswith("# seed=") for ln in first.splitlines())


def test_scatter_json(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_SCATTER)
    assert main(["scatter", "--config", cfg, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert isinstance(rows, list) and len(rows) == 2
    assert set(rows[0]) == {"N", "errE", "errH", "errB", "residual", "cond", "sc_leak", "wall_ms"}
    assert rows[1]["errE"] < 1e-3


def test_scatter_default_sweep_has_six_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, {"ellipsoid": {"a": 5, "b": 3, "c": 2}})
    assert main(["scatter", "--config", cfg]) == 0
    out = capsys.readouterr().out
    data = [ln for ln in out.strip().splitlines() if not ln.startswith(("#", "N,"))]
    assert [ln.split(",")[0] for ln in data] == ["10", "15", "20", "25", "30", "35"]


def test_scatter_chiral_sweep_converges(tmp_path, capsys):
    # with beta != 0 the reference is the chiral dipole, which the MFS fields can match
    cfg = write_config(tmp_path, {"ellipsoid": {"a": 5, "b": 3, "c": 2}, "beta": 0.1})
    assert main(["scatter", "--config", cfg, "--format", "json"]) == 0
    err = {row["N"]: row["errE"] for row in json.loads(capsys.readouterr().out)}
    assert err[35] < 1e-7
    assert err[35] < err[10]


@pytest.mark.parametrize("beta", [0.0, 0.1], ids=["achiral", "chiral"])
def test_scatter_impedance_sweep_converges(tmp_path, capsys, beta):
    # the datum is the impedance functional of the reference field, the one
    # the rows impose, so the boundary error falls at every N
    cfg = {"ellipsoid": {"a": 5, "b": 3, "c": 2}, "beta": beta, "impedance": [0.5, 0.1], "n_values": [10, 20, 30, 40]}
    assert main(["scatter", "--config", write_config(tmp_path, cfg), "--format", "json"]) == 0
    err_b = [row["errB"] for row in json.loads(capsys.readouterr().out)]
    assert all(later < earlier for earlier, later in zip(err_b, err_b[1:]))
    assert err_b[-1] < 1e-5


def test_scatter_zero_impedance_is_the_conductor(tmp_path, capsys):
    # a perfect conductor is xi = 0, spelled as an absent field, null or 0
    def data_rows(cfg):
        assert main(["scatter", "--config", write_config(tmp_path, cfg)]) == 0
        return [ln for ln in drop_wall_ms(capsys.readouterr().out).splitlines() if not ln.startswith("#")]

    cfg = {"ellipsoid": {"a": 5, "b": 3, "c": 2}, "n_values": [10, 20]}
    assert data_rows(dict(cfg, impedance=0)) == data_rows(dict(cfg, impedance=None)) == data_rows(cfg)


def test_scatter_out_file(tmp_path):
    cfg = write_config(tmp_path, TINY_SCATTER)
    out = tmp_path / "report.csv"
    assert main(["scatter", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_bytes().decode()
    assert "\r" not in text  # LF endings
    assert text.endswith("\n")


def test_scatter_missing_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {"ellipsoid": {"a": 5, "b": 3}})
    assert main(["scatter", "--config", cfg]) == 2
    assert "ellipsoid.c" in capsys.readouterr().err


def test_scatter_bad_type(tmp_path, capsys):
    bad = dict(TINY_SCATTER, n_values=[5, "eight"])
    cfg = write_config(tmp_path, bad)
    assert main(["scatter", "--config", cfg]) == 2
    assert "n_values" in capsys.readouterr().err


@pytest.mark.parametrize("oversample", [1.0, 1.5], ids=["square", "oversampled"])
def test_scatter_ill_conditioned_plateau(tmp_path, capsys, oversample):
    cfg = write_config(tmp_path, dict(TINY_SCATTER, source_scale=0.15, n_values=[100], oversample=oversample))
    assert main(["scatter", "--config", cfg, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["errE"] <= 1e-12


@pytest.mark.parametrize(
    "override",
    [
        {"n_values": []},
        {"n_values": [True]},
        {"ellipsoid": {"a": 5, "b": 0, "c": 2}},
        {"ellipsoid": {"a": -5, "b": 3, "c": 2}},
        {"source_scale": 0.0},
        {"source_scale": 1.2},
        {"oversample": 0.5},
        {"alpha": [1.0, -0.3]},
        {"alpha": [float("nan"), 0.3]},
        {"alpha": float("nan")},
        {"ellipsoid": {"a": float("nan"), "b": 3, "c": 2}},
        {"oversample": 1e300},
        {"n_values": [5, 10**12]},
        {"oversample": 1e8, "n_values": [35]},
        {"beta": 1.0, "alpha": [1.0, 0.0]},
        {"moment": [0, 0, 0]},
        {"alpha": 0},
        {"ellipsoid": {"a": 1e200, "b": 3, "c": 2}},
    ],
    ids=["n_values_empty", "n_values_bool", "axis_zero", "axis_negative",
         "source_scale_zero", "source_scale_above_one", "oversample_below_one", "alpha_negative_imag",
         "alpha_nan_part", "alpha_nan", "axis_nan", "oversample_beyond_array_limit", "largest_n_beyond_array_limit",
         "oversample_beyond_ceiling", "chiral_resonance", "moment_zero", "alpha_zero", "axis_overflows"],
)
def test_scatter_bad_config_values(tmp_path, capsys, monkeypatch, override):
    # rejected while the config is read: no solve starts, so no array is built
    monkeypatch.setattr("bqem.cli.run_benchmark", lambda *args, **kw: pytest.fail("sweep started"))
    cfg = write_config(tmp_path, dict(TINY_SCATTER, **override))
    assert main(["scatter", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_scatter_residual_finite_at_huge_moment(tmp_path, capsys):
    # |b|^2 overflowed in the residual's norm at moment 1e200 and printed nan
    rows = {}
    for m in (1.0, 1e200):
        cfg = write_config(tmp_path, dict(TINY_SCATTER, moment=[m, 0, 0]))
        assert main(["scatter", "--config", cfg, "--format", "json"]) == 0
        rows[m] = json.loads(capsys.readouterr().out)
    for big, one in zip(rows[1e200], rows[1.0], strict=True):
        assert np.isfinite(big["residual"])
        assert one["residual"] / 10 <= big["residual"] <= 10 * one["residual"]


def test_scatter_unknown_fields_are_named(tmp_path, capsys, monkeypatch):
    # a misspelled field used to be ignored, and the default it shadows used silently
    monkeypatch.setattr("bqem.cli.run_benchmark", lambda *args, **kw: pytest.fail("sweep started"))
    cfg = {"ellipsoid": {"a": 5, "b": 3, "c": 2, "C": 2}, "n_value": [10], "sourc_scale": 0.5}
    assert main(["scatter", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: unknown config field(s) n_value, sourc_scale, ellipsoid.C" in err


def test_scatter_eval_scale_is_not_a_field(tmp_path, capsys, monkeypatch):
    # errors are measured on the 5x ellipsoid, scattering.EVAL_SCALE, which no config sets
    monkeypatch.setattr("bqem.cli.run_benchmark", lambda *args, **kw: pytest.fail("sweep started"))
    cfg = write_config(tmp_path, dict(TINY_SCATTER, eval_scale=5.0))
    assert main(["scatter", "--config", cfg]) == 2
    assert "config error: unknown config field(s) eval_scale;" in capsys.readouterr().err


# Every value a caller can set, per command; a new option or config field is a visible edit here.
SETTABLE = {
    "scatter": ["--config", "--format", "--out", "ellipsoid.a", "ellipsoid.b", "ellipsoid.c", "alpha", "beta",
                "source_scale", "n_values", "moment", "impedance", "oversample"],
    "check": ["suite", "--seed", "--format", "--out"],
    "green-eval": ["--t", "--x", "--eps", "--mu", "--beta", "--refine", "--format", "--out"],
}


def test_cli_surface_is_pinned():
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    settable = {
        name: [a.option_strings[0] if a.option_strings else a.dest for a in sub._actions if a.dest != "help"]
        for name, sub in commands.choices.items()
    }
    for name in cli._SCATTER_FIELDS:
        settable["scatter"] += [f"ellipsoid.{k}" for k in "abc"] if name == "ellipsoid" else [name]
    assert settable == SETTABLE
    assert {name: len(values) for name, values in settable.items()} == {"scatter": 13, "check": 4, "green-eval": 8}
    assert sum(map(len, settable.values())) == 25


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["scatter", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_non_utf8_config(tmp_path, capsys):
    # a UTF-16 byte-order mark is not UTF-8: its UnicodeDecodeError escaped as a traceback
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(TINY_SCATTER).encode("utf-16-le"))
    assert main(["scatter", "--config", str(path)]) == 2
    assert f"config error: cannot read {path}" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["directory", "missing_parent"])
def test_unwritable_out(tmp_path, capsys, target):
    # IsADirectoryError and FileNotFoundError escaped as tracebacks
    out = tmp_path if target == "directory" else tmp_path / "missing" / "x.csv"
    assert main(["check", "algebra", "--out", str(out)]) == 2
    assert f"config error: cannot write {out}" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["directory", "missing_parent"])
@pytest.mark.parametrize(
    "argv, work",
    [
        (["scatter"], "run_benchmark"),
        (["check", "all"], "run_suites"),
        (["green-eval", "--refine"], "green_refinement"),
    ],
    ids=["scatter", "check_all", "green_refine"],
)
def test_unwritable_out_fails_before_the_work(tmp_path, capsys, monkeypatch, argv, work, target):
    # each command ran its whole computation, about 0.5 s, before the write failed
    monkeypatch.setattr(cli, work, lambda *args, **kw: pytest.fail(f"{work} started"))
    if argv == ["scatter"]:
        argv = argv + ["--config", write_config(tmp_path, TINY_SCATTER)]
    out = tmp_path if target == "directory" else tmp_path / "missing" / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"config error: cannot write {out}" in capsys.readouterr().err


def test_failed_command_leaves_out_as_it_was(tmp_path, capsys):
    # the destination check truncates nothing; a new path is left empty, as
    # a shell redirection leaves it
    out = tmp_path / "report.csv"
    out.write_bytes(b"an earlier report\n")
    fresh = tmp_path / "fresh.csv"
    for path in (out, fresh):
        assert main(["green-eval", "--x", "0,0,0", "--out", str(path)]) == 2
    assert out.read_bytes() == b"an earlier report\n"
    assert fresh.read_bytes() == b""


def test_check_algebra_passes(capsys):
    assert main(["check", "algebra"]) == 0
    out = capsys.readouterr().out
    assert "suite,check,value,lo,hi,status" in out
    assert "FAIL" not in out


def test_check_metadata_hashes_suite_and_seed(capsys):
    assert main(["check", "algebra", "--seed", "3"]) == 0
    meta = dict(ln[2:].split("=", 1) for ln in capsys.readouterr().out.splitlines() if ln.startswith("# "))
    assert list(meta) == ["command", "version", "config_hash", "seed", "timestamp"]
    assert meta["seed"] == "3"
    digest = hashlib.sha256(json.dumps({"config": {"suite": "algebra"}, "seed": 3}, sort_keys=True).encode())
    assert meta["config_hash"] == digest.hexdigest()[:16]


@pytest.mark.parametrize("suite", ["all", "kernels"])
def test_check_negative_seed_is_a_usage_error(suite, capsys):
    # numpy's generators reject it, and a suite that draws nothing would
    # ignore it: either way it is refused before any suite runs
    assert main(["check", suite, "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert "--seed" in err and out == ""


def test_check_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "nosuch"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv", [["scatter", "--config", "x.json"], ["check", "algebra"], ["green-eval"]], ids=lambda a: a[0]
)
def test_threads_is_not_an_option(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["scatter", "--config", "x.json", "--seed", "1"], ["check", "all", "--config", "x.json"],
     ["green-eval", "--config", "x.json"], ["green-eval", "--seed", "1"], ["scatter"]],
    ids=["scatter_seed", "check_config", "green_eval_config", "green_eval_seed", "scatter_no_config"],
)
def test_options_each_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: bqem" in capsys.readouterr().err


def test_main_runs_on_a_libc_without_mallopt(monkeypatch, capsys):
    # musl has neither mallopt nor the confstr name glibc answers with its version
    def no_such_name(name):
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr("bqem.cli.os.confstr", no_such_name)
    monkeypatch.setattr("bqem.cli.ctypes.CDLL", lambda name: types.SimpleNamespace())
    assert main(["check", "algebra"]) == 0


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mmap threshold")
def test_main_maps_large_arrays_off_the_heap():
    # at glibc's defaults the freed 20 MiB block would raise the mmap threshold past 5 MiB
    probe = (
        "import numpy as np; from bqem.cli import main; main(['check', 'algebra']); np.empty(20 << 20, np.uint8)\n"
        "addr = np.ones(5 << 20, np.uint8).ctypes.data\n"
        "heap = [ln.split()[0].split('-') for ln in open('/proc/self/maps') if ln.rstrip().endswith('[heap]')]\n"
        "print(any(int(lo, 16) <= addr < int(hi, 16) for lo, hi in heap))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split()[-1] == "False"


def test_check_all_suites_pass(capsys):
    assert main(["check", "all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    suites = {ln.split(",")[0] for ln in out.splitlines() if "," in ln and not ln.startswith("#")}
    assert suites >= {"algebra", "kernels", "factorizations", "green", "inhomog"}


def test_check_green_is_independent_of_the_blas_thread_count():
    # the output is byte-deterministic for fixed inputs: no row may sum in an
    # order that follows OpenBLAS's thread count
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "bqem", "check", "green", "--seed", "3"],
                              env=env, capture_output=True, text=True, check=True)
        outputs.append([ln for ln in proc.stdout.splitlines() if not ln.startswith("# timestamp=")])
    assert outputs[0] == outputs[1]


def test_green_eval_matches_library(capsys):
    assert main(["green-eval", "--t", "0.8", "--x", "1,0.5,-0.3", "--beta", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4
    printed = []
    for line in out:
        parts = dict(tok.split("=") for tok in line.split()[1:])
        printed.append(complex(float(parts["re"]), float(parts["im"])))
    expected = green_function(0.8, np.array([1.0, 0.5, -0.3]), ChiralMedium(beta=1.0))
    assert np.allclose(printed, expected.components, rtol=1e-14)


def test_green_eval_json(capsys):
    argv = ["green-eval", "--t", "0.8", "--x", "1,0.5,-0.3", "--beta", "1"]
    assert main(argv + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["component"] for r in rows] == ["sc", "v1", "v2", "v3"]
    expected = green_function(0.8, np.array([1.0, 0.5, -0.3]), ChiralMedium(beta=1.0))
    # JSON floats round-trip: the values are the library's, bit for bit
    assert [complex(r["re"], r["im"]) for r in rows] == list(expected.components)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_green_eval_out_file(tmp_path, capsys, fmt):
    argv = ["green-eval", "--t", "0.8", "--x", "1,0.5,-0.3", "--beta", "1", "--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / f"g.{fmt}"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes().decode() == printed


def test_green_eval_causality(capsys):
    assert main(["green-eval", "--t", "-1", "--x", "1,0,0", "--beta", "1"]) == 0
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        parts = dict(tok.split("=") for tok in line.split()[1:])
        assert float(parts["re"]) == 0.0 and float(parts["im"]) == 0.0


def test_green_eval_refine_table(capsys):
    assert main(["green-eval", "--refine", "--beta", "1"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "level,h,ht,residual,ratio"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 3
    # the printed residuals, pinned to all 9 figures
    assert [r[3] for r in rows] == ["2.16783099e-03", "5.45389382e-04", "1.36562732e-04"]
    ratios = [float(r[4]) for r in rows[1:]]
    assert all(3.2 <= r <= 4.8 for r in ratios)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--refine", "--levels", "3"], "unrecognized arguments: --levels 3"),
        (["--x", "a,1,2"], "config error: --x must be 'x1,x2,x3'"),
        (["--eps", "-1"], "config error: eps and mu must be positive and finite"),
        (["--beta", "0"], "config error"),
        (["--beta", "0", "--refine"], "config error"),
        (["--x", "0,0,0"], "config error"),
        (["--x", "nan,0,0"], "config error"),
        (["--x", "1e200,0,0"], "config error: kernel evaluated at a position whose |x|^2 overflows"),
        (["--beta", "1e-300"], "config error: Green function requires beta^2 eps mu != 0"),
        (["--eps", "1e-300", "--mu", "1e-300"], "config error: Green function requires beta^2 eps mu != 0"),
        (["--beta", "1e-120"], "config error"),
        (["--beta", "inf"], "config error: beta and alpha must be finite"),
        (["--t", "nan"], "config error: --t must be a finite number"),
        (["--t", "1e308", "--x", "1,0,0", "--beta", "1e-3"], "config error: t = 1e+308 overflows"),
        (["--mu", "inf"], "config error: eps and mu must be positive and finite"),
        (["--refine", "--t", "2"], "config error: --refine evaluates on its own lattices"),
        (["--refine", "--x", "1,0,0"], "config error: --refine evaluates on its own lattices"),
        (["--x", "1,0"], "config error: --x must be 'x1,x2,x3'"),
    ],
    ids=["levels_is_not_an_option", "x_not_number", "eps_negative", "beta_zero", "beta_zero_refine", "x_origin",
         "x_nan", "x_norm_overflows", "beta_underflows", "eps_mu_underflow", "beta_factors_overflow", "beta_infinite",
         "t_nan", "t_overflows", "mu_infinite", "t_with_refine", "x_with_refine", "x_two_coordinates"],
)
def test_green_eval_bad_config_values(capsys, flags, message):
    if message.startswith("config error"):
        assert main(["green-eval"] + flags) == 2
    else:  # --refine always runs three levels: --levels is argparse's usage error
        with pytest.raises(SystemExit) as exc:
            main(["green-eval"] + flags)
        assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""  # no value printed, NaN or otherwise


def test_green_eval_config_hash_names_the_inputs(capsys):
    def config_hash(flags):
        assert main(["green-eval", "--refine"] + flags) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("# config_hash=")]
        return line

    beta_2 = config_hash(["--beta", "2"])
    assert config_hash(["--beta", "1"]) != beta_2
    # the values in effect are hashed, with the three levels --refine always runs
    inputs = {"eps": 1.0, "mu": 1.0, "beta": 2.0, "levels": 3}
    digest = hashlib.sha256(json.dumps({"config": inputs}, sort_keys=True).encode())
    assert beta_2 == f"# config_hash={digest.hexdigest()[:16]}"
