import json
import logging
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import vasso_opt
from vasso_opt import cli, harness, objectives
from vasso_opt.analysis import landscape_slice
from vasso_opt.cli import main
from vasso_opt.core import STREAM_DIRECTION, make_rng
from vasso_opt.harness import METRICS_HEADER, build_objective, fmt, init_x, \
    load_config, parse_config, run_seed
from vasso_opt.objectives import MlpObjective, NoisyQuadratic

DATA = pathlib.Path(__file__).parent / "data"


def _write_cfg(tmp_path, name="cfg.json", **over):
    raw = {
        "objective": {"kind": "quadratic", "diag": [2.0, 1.0], "sigma": 0.5},
        "optimizer": {"kind": "vasso", "rho": 0.1, "theta": 0.2,
                      "lr": {"kind": "constant", "base": 0.05}},
        "T": 50, "batch_size": 1, "seeds": [9],
    }
    raw.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def _fresh_python(*args, check=False):
    """``python *args`` in a fresh interpreter that imports this package."""
    src = str(pathlib.Path(vasso_opt.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], env=env, check=check,
                          capture_output=True, text=True)


def _fresh_cli_import_prints(expr):
    """Standard output of ``print(expr)`` after ``import vasso_opt.cli`` in a
    fresh interpreter."""
    code = f"import sys, vasso_opt.cli; print({expr})"
    return _fresh_python("-c", code, check=True).stdout


def test_the_cli_imports_neither_scipy_stats_nor_scipy_signal():
    # each costs about half a second of start-up for every run
    out = _fresh_cli_import_prints(
        "sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'stats'], ['scipy', 'signal']))")
    assert out == "[]\n"


def test_the_cli_imports_no_scipy():
    # scipy.linalg and scipy.special alone cost about 0.27 s of start-up;
    # numpy.random is loaded with the package so no command pays for it
    out = _fresh_cli_import_prints(
        "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        "'numpy.random' in sys.modules")
    assert out == "[] True\n"


def test_the_package_namespace_holds_only_its_modules():
    # each name is imported from its module, vasso_opt.<module>
    public = {k: v for k, v in vars(vasso_opt).items() if not k.startswith("_")}
    assert "cli" in public
    assert {k: getattr(v, "__name__", None) for k, v in public.items()} == \
        {k: f"vasso_opt.{k}" for k in public}


@pytest.mark.parametrize("module", ["core", "errors", "objectives", "optimizers",
                                    "analysis", "harness", "cli"])
def test_each_module_imports_on_its_own(module):
    # the package imports none of its modules, so a cycle would show here
    done = _fresh_python("-c", f"import vasso_opt.{module}")
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# help output, golden-file pinned (regenerate with UPDATE_GOLDENS=1)


_HELP_CASES = {"main": ["--help"]}
for _sub in ("train", "tradeoff", "compare", "stability", "mse", "delta",
             "snr", "spectrum", "slice", "sfw-check"):
    _HELP_CASES[_sub.replace("-", "_")] = [_sub, "--help"]


@pytest.mark.parametrize("name", sorted(_HELP_CASES))
def test_help_text_is_pinned(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_HELP_CASES[name])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    golden = DATA / f"help_{name}.txt"
    if os.environ.get("UPDATE_GOLDENS"):
        golden.write_text(out)
    assert out == golden.read_text()


def test_every_flag_appears_in_the_help_text():
    text = (DATA / "help_train.txt").read_text()
    for flag in ("--seed", "--config", "--out", "--T",
                 "--metrics-every", "--rho", "--theta", "--p",
                 "--record-wallclock"):
        assert flag in text


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize("argv", [
    [],
    ["train"],
    ["train", "--config", "c.json"],                      # missing --seed
    ["train", "--config", "c.json", "--seed", "a,b"],     # bad seed list
    ["train", "--config", "c.json", "--seed", ""],        # empty seed list
    ["train", "--config", "c.json", "--seed", "0", "--bogus"],
    ["mse", "--seed", "0", "--out", "x.csv", "--thetas", "zz"],
    ["compare", "--seed", "0", "--config-a", "a.json"],   # missing config-b
    ["no-such-command", "--seed", "0"],
])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err


@pytest.mark.parametrize("argv", [
    ["mse", "--dim", "0"],
    ["mse", "--steps", "0"],
    ["mse", "--steps", "1.5"],
    ["delta", "--dim", "-3"],
    ["delta", "--samples", "0"],
    ["snr", "--grad", "1", "--scales", "1", "--draws", "0"],
    ["spectrum", "--config", "c.json", "--k", "0"],
    ["spectrum", "--config", "c.json", "--iters", "0"],
    ["spectrum", "--config", "c.json", "--train-steps", "-1"],
    ["slice", "--config", "c.json", "--points", "0"],
    ["slice", "--config", "c.json", "--train-steps", "-1"],
    ["sfw-check", "--rho", "1", "--dim", "0"],
    ["sfw-check", "--rho", "1", "--dim", "2", "--trials", "0"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_a_count_out_of_range_is_a_usage_error_naming_its_flag(argv, tmp_path,
                                                               capsys):
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "0", "--out", str(out)])
    assert exc.value.code == 1
    assert f"error: argument {argv[-2]}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["mse", "--seed", "-1"],
    ["stability", "--config", "c.json", "--seed", "9223372036854775808"],
    ["mse", "--sigma", "nan"],
    ["mse", "--sigma", "-0.5"],
    ["mse", "--thetas", "0.2,0"],
    ["mse", "--thetas", "0.2,1.5"],
    ["mse", "--thetas", "nan"],
    ["delta", "--rho", "nan"],
    ["delta", "--rho", "-1"],
    ["delta", "--sigma", "inf"],
    ["delta", "--theta", "0"],
    ["delta", "--theta", "1.01"],
    ["snr", "--scales", "1", "--grad", "1,nan"],
    ["snr", "--scales", "1", "--grad", "-inf,1"],
    ["snr", "--scales", "1", "--grad", "0,-0"],
    ["snr", "--grad", "1", "--scales", "1,-2"],
    ["snr", "--grad", "1", "--scales", "inf"],
    ["spectrum", "--config", "c.json", "--seed", "-3"],
    ["slice", "--config", "c.json", "--radius", "nan"],
    ["slice", "--config", "c.json", "--radius", "-0.1"],
    ["sfw-check", "--dim", "2", "--rho", "inf"],
    ["sfw-check", "--dim", "2", "--rho", "-1"],
    ["sfw-check", "--dim", "2", "--rho", "0"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_a_diagnostics_value_out_of_range_is_a_usage_error_naming_its_flag(
        argv, tmp_path, capsys):
    out = tmp_path / "o.csv"
    seed = [] if "--seed" in argv else ["--seed", "0"]
    with pytest.raises(SystemExit) as exc:
        main(argv + seed + ["--out", str(out)])
    assert exc.value.code == 1
    err_lines = [line for line in capsys.readouterr().err.splitlines()
                 if "error:" in line]
    assert len(err_lines) == 1
    assert err_lines[0].startswith(f"vasso-opt {argv[0]}: error: argument {argv[-2]}: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["mse", "--seed", "9223372036854775807", "--sigma", "0", "--thetas", "1",
     "--dim", "1", "--steps", "3"],
    ["delta", "--seed", "0", "--rho", "0", "--theta", "1", "--sigma", "0",
     "--dim", "1", "--samples", "2"],
    ["snr", "--seed", "0", "--grad", "0,-1", "--scales", "0", "--draws", "2"],
], ids=lambda argv: argv[0])
def test_diagnostics_values_on_their_bounds_run(argv, tmp_path):
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.exists()


def test_an_open_lower_bound_reads_greater_than(capsys):
    with pytest.raises(SystemExit):
        main(["sfw-check", "--seed", "0", "--dim", "2", "--rho", "0"])
    assert "argument --rho: must be finite and > 0, got 0" in capsys.readouterr().err


_EMPTY_OUT_CASES = {
    "train": ["--config", "{cfg}"],
    "tradeoff": ["--config", "{cfg}", "--p-values", "0.5"],
    "compare": ["--config-a", "{cfg}", "--config-b", "{cfg}"],
    "stability": ["--config", "{cfg}"],
    "mse": ["--steps", "3"],
    "delta": ["--samples", "3"],
    "snr": ["--grad", "1,0", "--scales", "1", "--draws", "2"],
    "spectrum": ["--config", "{cfg}"],
    "slice": ["--config", "{cfg}", "--points", "3"],
    "sfw-check": ["--dim", "2", "--rho", "0.1", "--trials", "2"],
}


@pytest.mark.parametrize("cmd", sorted(_EMPTY_OUT_CASES))
def test_an_empty_out_path_is_a_usage_error_before_any_work(cmd, tmp_path,
                                                            monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = _write_cfg(tmp_path, T=5, output_path="m.csv")
    argv = [cmd] + [a.format(cfg=cfg) for a in _EMPTY_OUT_CASES[cmd]]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "0", "--out", ""])
    assert exc.value.code == 1
    assert f"vasso-opt {cmd}: error: argument --out: must be a non-empty path" \
        in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("where", ["in-no-directory", "a-directory"])
@pytest.mark.parametrize("cmd", sorted(_EMPTY_OUT_CASES))
def test_an_out_path_that_cannot_be_written_exits_2_before_any_work(
        cmd, where, tmp_path, monkeypatch, capsys):
    cfg = _write_cfg(tmp_path, T=5)
    out = tmp_path / "missing" / "o.csv" if where == "in-no-directory" else tmp_path
    why = f"no directory {out.parent}" if where == "in-no-directory" else "it is a directory"
    work = []   # every command reads a config or makes a random stream first
    monkeypatch.setattr(cli, "load_config", lambda *a: work.append(a))
    monkeypatch.setattr(cli, "make_rng", lambda *a: work.append(a))
    argv = [cmd] + [a.format(cfg=cfg) for a in _EMPTY_OUT_CASES[cmd]]
    assert main(argv + ["--seed", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"vasso-opt: error: cannot write {out}: {why}"]
    assert captured.out == "" and work == []
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_a_config_output_path_in_no_directory_exits_2_before_training(
        tmp_path, monkeypatch, capsys):
    out = tmp_path / "missing" / "m.csv"
    cfg = _write_cfg(tmp_path, T=5, output_path=str(out))
    runs = []
    monkeypatch.setattr(harness, "_lockstep", lambda *a: runs.append(a))
    assert main(["train", "--config", cfg, "--seed", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"vasso-opt: error: cannot write {out}: no directory {out.parent}"]
    assert runs == [] and [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_a_summary_path_that_is_a_directory_exits_2_before_training(
        tmp_path, monkeypatch, capsys):
    cfg = _write_cfg(tmp_path, T=5)
    out, summary = tmp_path / "m.csv", tmp_path / "m.csv.summary.json"
    summary.mkdir()
    steps = []
    monkeypatch.setattr(harness, "vasso_step",
                        lambda *a, real=harness.vasso_step, **k: steps.append(a) or real(*a, **k))
    assert main(["train", "--config", cfg, "--seed", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"vasso-opt: error: cannot write {summary}: it is a directory"]
    assert steps == [] and not out.exists()


def test_main_leaves_the_callers_logging_as_it_found_it(tmp_path, monkeypatch, capsys):
    host = logging.FileHandler(tmp_path / "host.log")
    logging.root.addHandler(host)
    package = logging.getLogger("vasso_opt")

    def state():
        return (logging.root.handlers[:], logging.root.level,
                package.handlers[:], package.level)

    def fail(*args, **kwargs):
        raise RuntimeError("boom")

    cfg = _write_cfg(tmp_path, T=5)
    stability = ["stability", "--seed", "0", "--out", str(tmp_path / "d.csv")]
    before = state()
    try:
        assert main(["train", "--config", cfg, "--seed", "0",
                     "--out", str(tmp_path / "m.csv")]) == 0
        assert state() == before
        assert main(stability + ["--config", str(tmp_path / "missing.json")]) == 2
        assert state() == before
        monkeypatch.setattr(cli, "run_seeds", fail)
        assert main(stability + ["--config", cfg]) == 2
        assert state() == before
        err = capsys.readouterr().err
        assert "seed=0 done" in err and "error: RuntimeError: boom" in err
        assert host.stream is not None and not host.stream.closed
    finally:
        logging.root.removeHandler(host)
        host.close()


@pytest.mark.parametrize("host", ["stderr", "file"])
def test_a_hosts_root_handler_leaves_each_info_line_on_stderr_once(host, tmp_path, capsys):
    # a host's own stderr handler prints the lines in place of main's, and
    # a host's file handler still receives them
    log_file = tmp_path / "host.log"
    handler = logging.StreamHandler(sys.stderr) if host == "stderr" \
        else logging.FileHandler(log_file)
    logging.root.addHandler(handler)
    try:
        assert main(["train", "--config", _write_cfg(tmp_path, T=5), "--seed", "0,1",
                     "--out", str(tmp_path / "m.csv")]) == 0
    finally:
        logging.root.removeHandler(handler)
        handler.close()
    err = capsys.readouterr().err
    assert err.count("seed=0 done") == 1 and err.count("seed=1 done") == 1
    if host == "file":
        assert log_file.read_text().count("seed=0 done") == 1


def test_python_dash_m_runs_the_cli():
    helped = _fresh_python("-m", "vasso_opt", "--help")
    assert helped.returncode == 0
    assert helped.stdout == (DATA / "help_main.txt").read_text()
    bare = _fresh_python("-m", "vasso_opt")
    assert bare.returncode == 1
    assert "usage: vasso-opt" in bare.stderr


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "nope.json"),
               "--seed", "0", "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("vasso-opt: error:")


def test_unknown_config_key_exits_2_and_names_the_field(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, bogus_key=1)
    rc = main(["train", "--config", cfg, "--seed", "0",
               "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert "config.bogus_key" in capsys.readouterr().err


def test_train_without_an_output_path_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    rc = main(["train", "--config", cfg, "--seed", "0"])
    assert rc == 2
    assert "output_path" in capsys.readouterr().err


def test_a_holdout_split_with_no_training_rows_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, objective={
        "kind": "blobs", "n_per_class": 8, "dim": 2, "separation": 2.0,
        "hidden": [4], "holdout_fraction": 1.0}, batch_size=4)
    rc = main(["train", "--config", cfg, "--seed", "0",
               "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("vasso-opt: error: objective.holdout_fraction:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["train", "--config", "@cfg", "--seed", "18446744073709551616"],
     "config.seeds: must be <= 9223372036854775807"),
])
def test_a_seed_outside_the_key_range_exits_2(argv, message, tmp_path, capsys):
    argv = [_write_cfg(tmp_path) if a == "@cfg" else a for a in argv]
    rc = main(argv + ["--out", str(tmp_path / "out.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("vasso-opt: error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("objective, path", [
    ({"kind": "quadratic", "matrix": [[1.0, 2.0], [0.0, 1.0]], "sigma": 0.5},
     "objective.matrix"),
    ({"kind": "dataset", "path": "@one-class", "hidden": [3], "label_noise": 0.5},
     "objective.label_noise"),
    ({"kind": "dataset", "path": 7, "hidden": [3]}, "objective.path"),
    ({"kind": "dataset", "path": "@one-class", "header": "yes", "hidden": [3]},
     "objective.header"),
])
def test_an_objective_error_names_its_field(objective, path, tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("0.0,1.0,0\n1.0,0.0,0\n2.0,2.0,0\n")
    objective = {k: str(data) if v == "@one-class" else v
                 for k, v in objective.items()}
    cfg = _write_cfg(tmp_path, objective=objective)
    rc = main(["train", "--config", cfg, "--seed", "0",
               "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"vasso-opt: error: {path}: ")
    assert err.count("\n") == 1


def test_an_unexpected_exception_exits_2_without_a_traceback(tmp_path, capsys,
                                                              monkeypatch):
    def broken(args):
        return 1 // 0

    monkeypatch.setattr(cli, "cmd_train", broken)
    rc = main(["train", "--config", _write_cfg(tmp_path), "--seed", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "vasso-opt: error: ZeroDivisionError: integer division or modulo by zero\n"


@pytest.mark.parametrize("argv, message", [
    (["train"], "every seed aborted on non-finite loss"),
    (["spectrum", "--train-steps", "60"],
     "training diverged before the evaluation point"),
])
def test_divergence_on_every_seed_exits_2(argv, message, tmp_path, capsys):
    cfg = _write_cfg(tmp_path,
                     objective={"kind": "quadratic", "diag": [5.0],
                                "sigma": 0.0},
                     optimizer={"kind": "sgd",
                                "lr": {"kind": "constant", "base": 1e3}},
                     T=100)
    rc = main(argv + ["--config", cfg, "--seed", "0",
                      "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    err = capsys.readouterr().err   # the progress lines come first
    assert err.count("vasso-opt: error: ") == 1
    assert err.splitlines()[-1].startswith("vasso-opt: error: ") and message in err


# a noise scale whose square overflows a float: a run on it diverges, while
# the noise-free diagnostics never read the noise
@pytest.mark.parametrize("argv, rc", [
    (["train"], 2), (["spectrum"], 0), (["slice"], 0),
])
def test_a_noise_scale_whose_square_overflows_is_no_crash(argv, rc, tmp_path, capsys):
    cfg = _write_cfg(tmp_path, objective={"kind": "quadratic", "diag": [2.0, 1.0],
                                          "sigma": 1e200})
    assert main(argv + ["--config", cfg, "--seed", "0",
                        "--out", str(tmp_path / "out.csv")]) == rc
    err = capsys.readouterr().err
    assert "OverflowError" not in err
    if rc:
        assert err.endswith("every seed aborted on non-finite loss; see "
                            f"{tmp_path / 'out.csv'}.summary.json\n")


@pytest.mark.parametrize("kind", ["sgd", "vasso", "evasso", "sam_db"])
def test_a_diverging_network_seed_prints_no_numpy_warning(kind, tmp_path, capsys):
    # seeds 5 and 6 overflow and leave the stack; seed 0 runs the 60 steps
    cfg = _write_cfg(tmp_path, objective={
        "kind": "blobs", "n_per_class": 10, "dim": 2, "separation": 2.0,
        "hidden": [5], "activation": "relu", "holdout_fraction": 0.25},
        optimizer={"kind": kind, "rho": 0.1, "theta": 0.3, "momentum": 0.5,
                   "lr": {"kind": "constant", "base": 1e4},
                   **({"p": 0.5} if kind == "evasso" else {})},
        T=60, batch_size=4)
    out = tmp_path / "m.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train", "--config", cfg, "--seed", "0,5,6", "--out", str(out)])
    assert rc == 0
    assert "Warning" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "m.csv.summary.json").read_text())
    assert [s["aborted"] for s in summary["per_seed"]] == [False, True, True]


# ---------------------------------------------------------------------------
# train


def test_train_writes_metrics_and_summary(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "m.csv"
    rc = main(["train", "--config", cfg, "--seed", "0,1", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert str(out) in captured.out
    lines = out.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 1 + 50 * 2
    # --seed overrides the config's seed list
    assert {line.split(",")[0] for line in lines[1:]} == {"0", "1"}
    summary = json.loads((tmp_path / "m.csv.summary.json").read_text())
    assert summary["aggregate"]["n_seeds"] == 2
    assert summary["config"]["seeds"] == [0, 1]


def test_train_reruns_are_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "m.csv"
    argv = ["train", "--config", cfg, "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_flag_overrides_change_the_run(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "m.csv"
    base = ["train", "--config", cfg, "--seed", "0", "--out", str(out)]
    main(base)
    plain = out.read_bytes()
    main(base + ["--rho", "0.3"])
    assert out.read_bytes() != plain
    main(base + ["--T", "10"])
    assert len(out.read_text().splitlines()) == 1 + 10


@pytest.mark.parametrize("kind, flag", [("vasso", ["--p", "0.25"]),
                                        ("sam", ["--theta", "0.5"]),
                                        ("sam_db", ["--theta", "0.5"]),
                                        ("sgd", ["--p", "1"])])
def test_a_flag_the_kind_fixes_otherwise_exits_2_and_writes_nothing(
        tmp_path, capsys, kind, flag):
    cfg = _write_cfg(tmp_path, optimizer={"kind": kind,
                                          "lr": {"kind": "constant", "base": 0.05}})
    out = tmp_path / "m.csv"
    rc = main(["train", "--config", cfg, "--seed", "0", "--out", str(out), *flag])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"vasso-opt: error: optimizer.{flag[0][2:]}: ")
    assert repr(kind) in err[0]
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_wallclock_column_is_opt_in(tmp_path):
    cfg = _write_cfg(tmp_path, T=5)
    out = tmp_path / "m.csv"
    base = ["train", "--config", cfg, "--seed", "0", "--out", str(out)]
    main(base)
    assert all(line.endswith(",") for line in out.read_text().splitlines()[1:])
    main(base + ["--record-wallclock"])
    cells = [line.split(",")[-1] for line in out.read_text().splitlines()[1:]]
    assert all(c != "" for c in cells)


def test_progress_goes_to_stderr_results_to_stdout(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, T=5)
    rc = main(["train", "--config", cfg, "--seed", "0",
               "--out", str(tmp_path / "m.csv")])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("wrote ")
    assert "seed=0 done" in captured.err
    assert "seed=0 done" not in captured.out


# finite final losses near the float64 maximum: seed 0's first loss
# overflows, and seeds 1-3 end at 1.0-1.2e308 each, whose sum overflows
HUGE_FINAL_LOSSES = dict(
    objective={"kind": "quadratic", "diag": [1.0, 1.0], "sigma": 0.0, "init_scale": 1.2e154},
    optimizer={"kind": "sgd", "lr": {"kind": "constant", "base": 1e-30}}, T=2)
# a radius so large that the chord between two noisy adversaries overflows:
# every drift cell, and so every mean_drift, is inf
INF_DRIFT = dict(
    objective={"kind": "quadratic", "diag": [1e-300, 1e-300], "sigma": 1.0},
    optimizer={"kind": "sam", "rho": 1e308, "lr": {"kind": "constant", "base": 0.05}}, T=5)


def _errors(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("vasso-opt: error:")]


def test_the_mean_of_finite_final_losses_whose_sum_overflows_is_finite(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, **HUGE_FINAL_LOSSES)
    rc = main(["train", "--config", cfg, "--seed", "0,1,2,3",
               "--out", str(tmp_path / "m.csv")])
    assert rc == 0 and _errors(capsys.readouterr().err) == []

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads((tmp_path / "m.csv.summary.json").read_text(),
                         parse_constant=reject)
    finals = [s["final_loss"] for s in summary["per_seed"][1:]]
    assert summary["aggregate"]["n_aborted"] == 1 and min(finals) > 1e308
    assert summary["aggregate"]["mean_final_loss"] == sum(f / 3 for f in finals)


def test_a_summary_value_json_cannot_hold_exits_2_naming_it_and_writes_nothing(
        tmp_path, capsys):
    cfg = _write_cfg(tmp_path, **INF_DRIFT)
    rc = main(["train", "--config", cfg, "--seed", "0,1", "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert _errors(capsys.readouterr().err) == [
        "vasso-opt: error: the summary's per_seed[0].mean_drift is inf, which JSON "
        "cannot hold; no file written"]
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


# a radius whose drifts are finite (at most 2e200) though their squares overflow
BIG_FINITE_DRIFT = dict(INF_DRIFT, T=20, optimizer=dict(INF_DRIFT["optimizer"], rho=1e200))


def test_a_finite_drift_whose_square_overflows_stays_finite(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, **BIG_FINITE_DRIFT)
    out = tmp_path / "drift.csv"
    assert main(["stability", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    drifts = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert len(drifts) == 19 and all(0.0 < d <= 2e200 for d in drifts)
    assert main(["train", "--config", cfg, "--seed", "0,1",
                 "--out", str(tmp_path / "m.csv")]) == 0
    summary = json.loads((tmp_path / "m.csv.summary.json").read_text())
    assert all(0.0 < s["mean_drift"] <= 2e200 for s in summary["per_seed"])
    assert _errors(capsys.readouterr().err) == []


# a radius whose drifts (about 1.6e-171 to 6.0e-171) are positive though
# their squares underflow
TINY_DRIFT = dict(
    objective={"kind": "quadratic", "diag": [1.0, 2.0], "sigma": 1.0},
    optimizer={"kind": "sam", "rho": 1e-170, "lr": {"kind": "constant", "base": 0.05}}, T=6)


def test_a_positive_drift_whose_square_underflows_stays_positive(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, **TINY_DRIFT)
    out = tmp_path / "drift.csv"
    assert main(["stability", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    drifts = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert len(drifts) == 5 and all(1e-171 < d <= 2e-170 for d in drifts)
    assert main(["train", "--config", cfg, "--seed", "0,1",
                 "--out", str(tmp_path / "m.csv")]) == 0
    summary = json.loads((tmp_path / "m.csv.summary.json").read_text())
    assert all(1e-171 < s["mean_drift"] <= 2e-170 for s in summary["per_seed"])
    assert _errors(capsys.readouterr().err) == []


# ---------------------------------------------------------------------------
# comparison and sweep commands


def test_compare_prints_the_sign_test_and_writes_pairs(tmp_path, capsys):
    cfg_a = _write_cfg(tmp_path, "a.json")
    cfg_b = _write_cfg(tmp_path, "b.json",
                       optimizer={"kind": "sam", "rho": 0.1,
                                  "lr": {"kind": "constant", "base": 0.05}})
    pairs = tmp_path / "pairs.csv"
    rc = main(["compare", "--config-a", cfg_a, "--config-b", cfg_b,
               "--seed", "0,1,2", "--out", str(pairs)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("metric=final_loss wins_a=")
    assert "p_value=" in out
    lines = pairs.read_text().splitlines()
    assert lines[0] == "seed,final_loss_a,final_loss_b,diff"
    assert len(lines) == 4


def test_compare_of_identical_configs_is_all_ties(tmp_path, capsys):
    cfg_a = _write_cfg(tmp_path, "a.json")
    cfg_b = _write_cfg(tmp_path, "b.json")
    rc = main(["compare", "--config-a", cfg_a, "--config-b", cfg_b,
               "--seed", "0,1"])
    assert rc == 0
    assert "ties=2 p_value=1.0" in capsys.readouterr().out


def test_compare_refuses_a_metric_that_is_not_finite(tmp_path, capsys):
    # two inf drifts differ by NaN, which is neither a win nor a tie
    cfg_a = _write_cfg(tmp_path, "a.json", **INF_DRIFT)
    cfg_b = _write_cfg(tmp_path, "b.json", **INF_DRIFT)
    pairs = tmp_path / "pairs.csv"
    rc = main(["compare", "--config-a", cfg_a, "--config-b", cfg_b, "--seed", "0,1",
               "--metric", "mean_drift", "--out", str(pairs)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _errors(captured.err) == [
        "vasso-opt: error: seed 0: mean_drift is inf under A and inf under B"]
    assert not pairs.exists()


def test_tradeoff_writes_the_sweep_table(tmp_path):
    cfg = _write_cfg(tmp_path, T=100,
                     optimizer={"kind": "evasso", "rho": 0.1, "theta": 0.2,
                                "lr": {"kind": "constant", "base": 0.05}})
    out = tmp_path / "sweep.csv"
    rc = main(["tradeoff", "--config", cfg, "--seed", "0,1",
               "--p-values", "0.5", "--no-esam", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "optimizer,p,mean_final_loss,mean_grad_evals,mean_wallclock_ms"
    arms = [line.split(",")[:2] for line in lines[1:]]
    assert arms == [["evasso", "0.5"], ["evasso", "1.0"], ["sam", ""]]
    evals = [float(line.split(",")[3]) for line in lines[1:]]
    assert evals[0] < evals[1] == evals[2] == 200.0


@pytest.mark.parametrize("flags, field", [
    (["--seed", "1,1"], "config.seeds"),
    (["--seed", "-1"], "config.seeds"),
    (["--seed", "0", "--p-values", "1.5"], "optimizer.p"),
    (["--seed", "0", "--p-values", "nan"], "optimizer.p"),
])
def test_tradeoff_rejects_a_bad_arm_before_running_any(flags, field, tmp_path,
                                                       capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(harness, "run_seeds", lambda *a, **k: runs.append(a))
    monkeypatch.setattr(harness, "run_arms", lambda *a, **k: runs.append(a))
    cfg = _write_cfg(tmp_path,
                     optimizer={"kind": "evasso", "rho": 0.1, "theta": 0.2,
                                "lr": {"kind": "constant", "base": 0.05}})
    out = tmp_path / "sweep.csv"
    rc = main(["tradeoff", "--config", cfg, "--out", str(out), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"vasso-opt: error: {field}: ") and err.count("\n") == 1
    assert runs == [] and not out.exists()


# ---------------------------------------------------------------------------
# diagnostics commands


def test_stability_traces_the_drift(tmp_path):
    cfg = _write_cfg(tmp_path, T=40)
    out = tmp_path / "drift.csv"
    rc = main(["stability", "--config", cfg, "--seed", "0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,drift"
    assert len(lines) == 40          # no drift at t=0
    drifts = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(0.0 <= d <= 2 * 0.1 + 1e-10 for d in drifts)


_BLOBS = {"kind": "blobs", "n_per_class": 64, "dim": 2, "separation": 3.0,
          "hidden": [8], "label_noise": 0.1}   # a [2, 8, 2] network over 128 rows
_VASSO = {"kind": "vasso", "rho": 0.1, "theta": 0.2, "lr": {"kind": "constant", "base": 0.1}}


def test_stability_takes_no_full_gradient(tmp_path, monkeypatch):
    calls = []
    for cls in (MlpObjective, NoisyQuadratic):
        monkeypatch.setattr(cls, "full_grad", lambda self, x, real=cls.full_grad:
                            calls.append(len(x)) or real(self, x))
    cfg = _write_cfg(tmp_path, objective=_BLOBS, optimizer=_VASSO, T=200, batch_size=16)
    out = tmp_path / "drift.csv"
    assert main(["stability", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    assert calls == [] and len(out.read_text().splitlines()) == 200


@pytest.mark.parametrize("over, seed", [
    ({"optimizer": {"kind": "evasso", "rho": 0.1, "theta": 0.2, "p": 0.5,
                    "lr": {"kind": "constant", "base": 0.05}}}, 0),
    ({"optimizer": {"kind": "sgd", "lr": {"kind": "constant", "base": 0.05}}}, 0),
    ({"objective": _BLOBS, "optimizer": {"kind": "sam_db", "rho": 0.1, "adv_batch_size": 4,
                                         "lr": {"kind": "constant", "base": 0.1}},
      "batch_size": 16}, 3),
    # seed 1 overflows at step 154
    ({"objective": {"kind": "quadratic", "diag": [-9.0, 1.0], "sigma": 0.5},
      "optimizer": dict(_VASSO, theta=0.3, lr={"kind": "constant", "base": 1.0}),
      "T": 155}, 1),
], ids=["gated-evasso", "sgd", "blobs-sam-db", "diverging"])
def test_stability_writes_the_drift_column_of_a_training_run(over, seed, tmp_path):
    cfg = _write_cfg(tmp_path, **over)
    out = tmp_path / "drift.csv"
    assert main(["stability", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
    columns, summary = run_seed(load_config(cfg).derive(seeds=[seed]), seed)
    cells = [fmt(d) for d in columns.eps_drift.tolist()]
    assert out.read_text() == "".join(f"{line}\n" for line in
                                      ["t,drift"] + [f"{t},{c}" for t, c in enumerate(cells, 1)])
    kind = over["optimizer"]["kind"]
    if kind == "sgd":   # no adversary: every cell +0.0
        assert set(cells) == {"0.0"}
    if kind == "evasso":   # two closed gates in a row leave a zero cell
        assert "0.0" in cells and set(cells) != {"0.0"}
    if seed == 1:   # only the steps before the abort are written
        assert summary["aborted_at"] == 154 and len(cells) == 153


def test_mse_reports_suppressed_error_per_theta(tmp_path):
    out = tmp_path / "mse.csv"
    rc = main(["mse", "--seed", "0", "--dim", "4", "--sigma", "0.5",
               "--thetas", "0.2,0.9", "--steps", "3000", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,mse_d,mse_g,ratio"
    rows = {line.split(",")[0]: [float(v) for v in line.split(",")[1:]]
            for line in lines[1:]}
    assert rows["0.2"][2] < rows["0.9"][2] < 1.0
    assert rows["0.2"][1] == pytest.approx(1.0, rel=0.2)


def test_mse_rows_are_pinned_byte_for_byte(tmp_path, capsys):
    # burn-ins of 2000, 25 and 10 steps: the longest chain crosses 1024-row
    # block boundaries while the others end inside it
    out = tmp_path / "mse.csv"
    rc = main(["mse", "--seed", "0", "--dim", "4", "--thetas", "0.005,0.4,1",
               "--steps", "3000", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_bytes() == (
        b"theta,mse_d,mse_g,ratio\n"
        b"0.005,0.009372948975897362,4.054241794914417,0.0023118870185923927\n"
        b"0.4,0.9805263187021211,3.9725867003247965,0.2468231388435031\n"
        b"1.0,4.028763652024107,4.028763652024107,1.0\n")


def test_delta_prints_the_stability_ratio(tmp_path, capsys):
    out = tmp_path / "delta.csv"
    rc = main(["delta", "--seed", "0", "--dim", "6", "--samples", "2000",
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert float(stdout.split("=")[1]) < 1.0
    # pinned byte for byte: the vasso row's EMA chain rounds as vasso_update does
    assert stdout == "delta_vasso/delta_sam=0.2688070416934933\n"
    assert out.read_bytes() == (b"slope,delta_hat\n"
                                b"sam,0.0506226480302993\n"
                                b"vasso,0.013607724259715698\n")


@pytest.mark.parametrize("argv, flag", [
    (["mse", "--steps", "100", "--sigma", "1e200"], "--sigma 1e+200"),
    (["delta", "--samples", "100", "--sigma", "1e200"], "--sigma 1e+200"),
    (["slice", "--config", "{cfg}", "--radius", "1e200"], "--radius 1e+200"),
    (["slice", "--config", "{cfg}", "--radius", "1e200", "--two-d"], "--radius 1e+200"),
    # the alpha grid's own step overflows
    (["slice", "--config", "{cfg}", "--radius", "1e308"], "--radius 1e+308"),
    (["sfw-check", "--dim", "50", "--rho", "1e308", "--trials", "3"], "--rho 1e+308"),
], ids=["mse", "delta", "slice", "slice-two-d", "slice-grid", "sfw-check"])
def test_a_diagnostic_that_overflows_exits_2_naming_its_flag(argv, flag, tmp_path):
    # in a fresh interpreter: in this one, the error::RuntimeWarning filter
    # would turn a numpy warning into an exit 2 of its own
    out, cfg = tmp_path / "out.csv", _write_cfg(tmp_path)
    run = _fresh_python("-m", "vasso_opt", *[a.format(cfg=cfg) for a in argv],
                        "--seed", "0", "--out", str(out))
    assert run.returncode == 2 and run.stdout == ""
    [line] = run.stderr.splitlines()   # no warning text beside the error
    assert line.startswith("vasso-opt: error: ") and flag in line
    assert not out.exists()


def test_delta_at_zero_radius_prints_an_undefined_ratio(tmp_path, capsys):
    out = tmp_path / "delta.csv"
    rc = main(["delta", "--seed", "0", "--dim", "3", "--samples", "50",
               "--rho", "0", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == "delta_vasso/delta_sam=undefined\n"
    assert out.read_text() == "slope,delta_hat\nsam,0.0\nvasso,0.0\n"


def test_snr_of_a_gradient_whose_square_overflows(tmp_path, capsys):
    # the direction of --grad 0,-1: every cosine at noise scale 0 is 1
    out, ref = tmp_path / "snr.csv", tmp_path / "ref.csv"
    argv = ["snr", "--seed", "0", "--scales", "0,1", "--draws", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--grad", "0,-1e300", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert main(argv + ["--grad", "0,-1", "--out", str(ref)]) == 0
    assert out.read_text().splitlines()[1] == ref.read_text().splitlines()[1] \
        == "0.0,1.0,0.0"


def test_snr_sweep_reproduces_the_alignment_regimes(tmp_path):
    out = tmp_path / "snr.csv"
    rc = main(["snr", "--seed", "0", "--grad", "0.2,-0.1,0.6",
               "--scales", "0.2,1,2,20", "--draws", "100", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "noise_scale,mean_cos,std_cos"
    cos = [float(line.split(",")[1]) for line in lines[1:]]
    std = [float(line.split(",")[2]) for line in lines[1:]]
    assert cos[0] > cos[1] > cos[2] > cos[3]
    assert cos[0] > 0.7 and abs(cos[3]) < 0.2
    assert std[0] < std[1]


def test_spectrum_recovers_the_top_of_a_known_diagonal(tmp_path):
    cfg = _write_cfg(tmp_path, objective={
        "kind": "quadratic",
        "diag": [10.0, 5.0, 4.0, 3.0, 2.0] + [1.0] * 45, "sigma": 0.0})
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--config", cfg, "--seed", "0", "--k", "3",
               "--iters", "30", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,ritz_value,residual"
    ritz = [float(line.split(",")[1]) for line in lines[1:]]
    assert ritz == sorted(ritz, reverse=True)
    assert ritz[0] == pytest.approx(10.0, abs=1e-6)
    assert ritz[1] == pytest.approx(5.0, abs=1e-6)


def _criterion_05_quadratic(tmp_path):
    return _write_cfg(tmp_path, objective={
        "kind": "quadratic", "diag": list(np.linspace(0.5, 5.0, 20)),
        "sigma": 2.0}, optimizer={"kind": "sam", "rho": 0.1,
                                  "lr": {"kind": "constant", "base": 0.05}})


def test_spectrum_defaults_run_on_an_objective_narrower_than_60(tmp_path):
    # the default --iters is min(60, dim), so a 20-dim quadratic needs no flag
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--config", _criterion_05_quadratic(tmp_path),
               "--seed", "0", "--train-steps", "0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    ritz = [float(line.split(",")[1]) for line in lines[1:]]
    assert ritz == pytest.approx(np.linspace(0.5, 5.0, 20)[::-1][:5], abs=1e-8)


def test_spectrum_defaults_run_on_a_two_dim_quadratic(tmp_path, capsys):
    # the default --k is min(5, dim), as --iters takes min(60, dim)
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--config", _write_cfg(tmp_path), "--seed", "0",
               "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    ritz = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert ritz == pytest.approx([2.0, 1.0], abs=1e-8)
    rc = main(["spectrum", "--config", _write_cfg(tmp_path), "--seed", "0",
               "--k", "3", "--out", str(out)])
    assert rc == 2
    assert "got k=3, iters=2, dim=2" in capsys.readouterr().err


def test_spectrum_with_explicit_iters_above_dim_exits_2(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--config", _criterion_05_quadratic(tmp_path),
               "--seed", "0", "--iters", "21", "--out", str(out)])
    assert rc == 2
    assert "iters=21, dim=20" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_after_a_short_training_run(tmp_path):
    cfg = _write_cfg(tmp_path, objective={
        "kind": "blobs", "n_per_class": 8, "dim": 2, "separation": 2.0,
        "hidden": [4]}, batch_size=4)
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--config", cfg, "--seed", "0", "--k", "2",
               "--iters", "12", "--train-steps", "20", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("iters", ["500", "12"])
def test_spectrum_checks_its_sizes_before_any_training_step(tmp_path, capsys,
                                                            monkeypatch, iters):
    cfg = _write_cfg(tmp_path, objective={
        "kind": "blobs", "n_per_class": 8, "dim": 2, "separation": 2.0,
        "hidden": [4]}, batch_size=4)
    steps, real = [], harness.vasso_step
    monkeypatch.setattr(harness, "vasso_step",
                        lambda *a, **k: steps.append(1) or real(*a, **k))
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--config", cfg, "--seed", "0", "--k", "2",
               "--iters", iters, "--train-steps", "30", "--out", str(out)])
    if iters == "500":   # the [2, 4, 2] net has 22 parameters
        assert rc == 2 and steps == [] and not out.exists()
        assert "got k=2, iters=500, dim=22" in capsys.readouterr().err
    else:
        assert rc == 0 and len(steps) == 30


def test_slice_center_row_is_the_exact_loss(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "slice.csv"
    rc = main(["slice", "--config", cfg, "--seed", "0", "--radius", "1",
               "--points", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,loss"
    assert len(lines) == 6
    center = {line.split(",")[0]: float(line.split(",")[1])
              for line in lines[1:]}["0.0"]
    cfg_obj = load_config(cfg)
    obj = build_objective(cfg_obj.objective, 0)
    assert center == obj.full_loss(init_x(obj, cfg_obj.objective, 0))


def test_a_slice_after_training_takes_no_discarded_gradient_norms(tmp_path,
                                                                  monkeypatch):
    cfg = _write_cfg(tmp_path, objective={
        "kind": "blobs", "n_per_class": 8, "dim": 2, "separation": 2.0,
        "hidden": [4]}, batch_size=4, metrics_every=1)
    raw = json.loads(pathlib.Path(cfg).read_text())
    _, summary = run_seed(parse_config({**raw, "T": 50, "seeds": [0]}), 0,
                          keep_final_x=True)
    calls = []
    full_grad = MlpObjective.full_grad
    monkeypatch.setattr(MlpObjective, "full_grad",
                        lambda self, x: calls.append(1) or full_grad(self, x))
    out = tmp_path / "slice.csv"
    rc = main(["slice", "--config", cfg, "--seed", "0", "--radius", "1",
               "--points", "3", "--train-steps", "50", "--out", str(out)])
    assert rc == 0
    assert len(calls) == 0   # the prefix keeps its summary alone
    # the evaluation point is the one a metrics_every=1 run ends at
    center = dict(line.split(",") for line in out.read_text().splitlines()[1:])["0.0"]
    obj = build_objective(load_config(cfg).objective, 0)
    assert float(center) == obj.full_loss(summary["final_x"])


def test_a_slice_after_training_reads_a_dataset_file_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    data = tmp_path / "toy.csv"
    data.write_text("".join(f"{float(a)!r},{float(b)!r},{i % 2}\n"
                            for i, (a, b) in enumerate(rng.normal(size=(24, 2)))))
    cfg = _write_cfg(tmp_path, objective={"kind": "dataset", "path": str(data),
                                          "hidden": [4]}, batch_size=4)
    calls, load = [], objectives.load_dataset_csv
    monkeypatch.setattr(objectives, "load_dataset_csv",
                        lambda *a, **k: calls.append(a) or load(*a, **k))
    out = tmp_path / "slice.csv"
    rc = main(["slice", "--config", cfg, "--seed", "0", "--points", "3",
               "--train-steps", "20", "--out", str(out)])
    assert rc == 0 and len(calls) == 1
    # the evaluation point is where a 20-step run of the config ends
    raw = json.loads(pathlib.Path(cfg).read_text())
    _, summary = run_seed(parse_config({**raw, "T": 20}), 0, keep_final_x=True)
    center = dict(line.split(",") for line in out.read_text().splitlines()[1:])["0.0"]
    obj = build_objective(load_config(cfg).objective, 0)
    assert float(center) == obj.full_loss(summary["final_x"])


def test_two_direction_slice_writes_the_full_grid(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "grid.csv"
    rc = main(["slice", "--config", cfg, "--seed", "0", "--radius", "0.5",
               "--points", "3", "--two-d", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,beta,loss"
    assert len(lines) == 1 + 9


@pytest.mark.parametrize("two_d", [False, True])
def test_slice_csvs_hold_fmt_of_each_computed_value(tmp_path, two_d):
    cfg = _write_cfg(tmp_path, objective={
        "kind": "blobs", "n_per_class": 8, "dim": 2, "separation": 2.0,
        "hidden": [4]}, batch_size=4)
    out = tmp_path / "slice.csv"
    rc = main(["slice", "--config", cfg, "--seed", "3", "--radius", "0.7",
               "--points", "6", "--train-steps", "10", "--out", str(out)]
              + ["--two-d"] * two_d)
    assert rc == 0
    loaded = load_config(cfg)
    obj = build_objective(loaded.objective, 3)
    x = harness.trained_point(loaded, 3, obj, 10)
    rng = make_rng(3, STREAM_DIRECTION)
    alphas = np.linspace(-0.7, 0.7, 6)
    if two_d:
        dirs = [rng.standard_normal(obj.dim), rng.standard_normal(obj.dim)]
        grid = landscape_slice(obj, x, dirs, alphas, betas=alphas)
        want = ["alpha,beta,loss"] + [f"{fmt(a)},{fmt(b)},{fmt(grid[i, j])}"
                                      for i, a in enumerate(alphas)
                                      for j, b in enumerate(alphas)]
    else:
        vals = landscape_slice(obj, x, [rng.standard_normal(obj.dim)], alphas)
        want = ["alpha,loss"] + [f"{fmt(a)},{fmt(v)}" for a, v in zip(alphas, vals)]
    assert out.read_bytes() == "".join(line + "\n" for line in want).encode()


def test_frank_wolfe_check_reports_zero_gaps(tmp_path, capsys):
    rc = main(["sfw-check", "--dim", "50", "--rho", "0.1", "--trials", "100",
               "--seed", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    comp, val = (float(part.split("=")[1]) for part in out.split())
    assert comp <= 1e-12 and val <= 1e-12
    per_trial = tmp_path / "trials.csv"
    rc = main(["sfw-check", "--dim", "3", "--rho", "0.5", "--trials", "10",
               "--seed", "1", "--out", str(per_trial)])
    assert rc == 0
    lines = per_trial.read_text().splitlines()
    assert lines[0] == "trial,component_gap,value_gap"
    assert len(lines) == 11


def test_diagnostics_are_reproducible_byte_for_byte(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["snr", "--seed", "5", "--grad", "1,2", "--scales", "0.5,2",
            "--draws", "50"]
    main(argv + ["--out", str(out_a)])
    main(argv + ["--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


# ---------------------------------------------------------------------------
# the INFO log on stderr, byte-pinned: one record per epoch of a stack joins
# its rows' lines, and the records print as the per-row lines once did

_LOG_BLOBS = {"kind": "blobs", "n_per_class": 10, "dim": 2, "separation": 2.0,
              "hidden": [5], "label_noise": 0.1, "holdout_fraction": 0.25}
_LOG_LR = {"kind": "constant", "base": 0.05}
_LOG_EVASSO = {"kind": "evasso", "rho": 0.1, "theta": 0.2, "p": 0.5, "lr": _LOG_LR}
_LOG_SAM_DB = {"kind": "sam_db", "rho": 0.1, "lr": _LOG_LR}


def _log_cfg(tmp_path, name, optimizer, T):
    # 15 training rows in batches of 4: epochs of 4 steps, the last batch short
    return _write_cfg(tmp_path, name, objective=_LOG_BLOBS, optimizer=optimizer,
                      T=T, batch_size=4, seeds=[0],
                      output_path=str(tmp_path / "m.csv"))


@pytest.mark.parametrize("name", ["train", "compare"])
def test_the_stderr_log_of_a_stacked_run_is_pinned(name, tmp_path, capsys):
    if name == "train":
        argv = ["train", "--config", _log_cfg(tmp_path, "a.json", _LOG_EVASSO, 20),
                "--seed", "3,0,7"]
    else:   # two arms, so every line carries its arm= tag
        argv = ["compare", "--config-a", _log_cfg(tmp_path, "a.json", _LOG_EVASSO, 16),
                "--config-b", _log_cfg(tmp_path, "b.json", _LOG_SAM_DB, 16),
                "--seed", "3,0"]
    assert main(argv) == 0
    assert capsys.readouterr().err == (DATA / f"stderr_{name}_blobs.txt").read_text()
