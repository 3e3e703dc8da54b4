"""Malformed configs fail as errors, never as crashes.

Each example starts from a valid config of one objective kind (T <= 5),
applies one to three mutations (delete a key, add an unknown key, or set a
key to a value from a fixed pool) and truncates the dataset file at a drawn
offset.  Through the library, ``parse_config`` either returns or raises a
``ConfigError`` that names its field, and ``run_seeds`` either returns or
raises ``VassoOptError``; the only ``OSError`` allowed is a dataset file that
does not exist.  Through ``cli.main(["train", ...])`` the exit
code is 0 or 2, and a 2 comes with exactly one ``vasso-opt: error:`` line.
"""

import contextlib
import copy
import io
import json
import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vasso_opt.cli import main
from vasso_opt.errors import ConfigError, VassoOptError
from vasso_opt.harness import parse_config, run_seeds

CSV = "0.5,1.0,0\n-0.5,2.0,1\n1.5,-1.0,0\n-1.5,0.5,1\n0.0,0.0,0\n2.0,1.0,1\n"
DATASET = "@dataset"   # stands for the dataset file's path until a run

_LR = {"kind": "constant", "base": 0.05}
BASES = [
    {"objective": {"kind": "quadratic", "diag": [2.0, 1.0], "sigma": 0.5},
     "optimizer": {"kind": "vasso", "rho": 0.1, "theta": 0.2, "lr": _LR},
     "T": 4, "batch_size": 1, "seeds": [0, 1]},
    {"objective": {"kind": "quadratic", "matrix": [[2.0, 0.3], [0.3, 1.0]],
                   "sigma": 0.5, "b": [0.1, -0.2], "init_scale": 2.0},
     "optimizer": {"kind": "evasso", "p": 0.5, "momentum": 0.5,
                   "lr": {"kind": "cosine", "base": 0.1}},
     "T": 5, "batch_size": 2, "seeds": [3], "metrics_every": 2},
    {"objective": {"kind": "quadratic", "diag": [1.0, 0.5, 3.0], "sigma": 1.0},
     "optimizer": {"kind": "sam_db", "adv_batch_size": 2, "weight_decay": 0.01,
                   "lr": _LR, "rho_schedule": {"kind": "theory", "base": 0.1}},
     "T": 3, "batch_size": 1, "seeds": [0, 2]},
    {"objective": {"kind": "blobs", "n_per_class": 4, "dim": 2, "separation": 2.0,
                   "hidden": [3], "label_noise": 0.1, "holdout_fraction": 0.25},
     "optimizer": {"kind": "sgd", "momentum": 0.9, "lr": _LR},
     "T": 5, "batch_size": 2, "seeds": [0, 1]},
    {"objective": {"kind": "dataset", "path": DATASET, "header": False,
                   "hidden": [3], "activation": "relu"},
     "optimizer": {"kind": "sam", "rho": 0.05,
                   "lr": {"kind": "inverse-sqrt", "base": 0.1}},
     "T": 4, "batch_size": 3, "seeds": [1]},
]
# every key the schema knows, per object, so a mutation may add an optional one
KEYS = {
    "config": ["objective", "optimizer", "T", "batch_size", "seeds",
               "metrics_every", "output_path"],
    "objective": ["kind", "diag", "matrix", "sigma", "b", "init_scale",
                  "n_per_class", "n_classes", "dim", "separation", "label_noise",
                  "hidden", "activation", "holdout_fraction", "path", "header"],
    "optimizer": ["kind", "rho", "theta", "p", "lr", "rho_schedule", "momentum",
                  "weight_decay", "adv_batch_size"],
    "schedule": ["kind", "base", "horizon"],
}
# no value here allocates more than a few bytes, whatever key it lands on
POOL = [None, True, False, 0, 1, -1, 0.5, 1.5, 1e200, -1e200,
        math.nan, math.inf, -math.inf, "", "x", "relu", "cosine", "sam_db",
        "quadratic", "blobs", [], [1], [0.5, 1.5], [[1.0]], ["x"], {}]


def _objects(raw):
    """The JSON objects of ``raw`` a mutation may edit, with their schema keys."""
    found = [(raw, KEYS["config"])]
    for key in ("objective", "optimizer"):
        if isinstance(raw.get(key), dict):
            found.append((raw[key], KEYS[key]))
    opt = raw.get("optimizer")
    if isinstance(opt, dict):
        found += [(opt[k], KEYS["schedule"]) for k in ("lr", "rho_schedule")
                  if isinstance(opt.get(k), dict)]
    return found


@st.composite
def mutated_configs(draw):
    raw = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        obj, keys = draw(st.sampled_from(_objects(raw)))
        op = draw(st.sampled_from(["delete", "add", "set"]))
        if op == "delete" and obj:
            del obj[draw(st.sampled_from(sorted(obj)))]
        elif op == "add":
            obj["unknown"] = copy.deepcopy(draw(st.sampled_from(POOL)))
        else:
            key = draw(st.sampled_from(sorted(set(obj) | set(keys))))
            obj[key] = copy.deepcopy(draw(st.sampled_from(POOL)))
    return raw, draw(st.integers(0, len(CSV)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _with_dataset(raw, cut, workdir):
    """``raw`` with the dataset placeholder pointing at the CSV cut at ``cut``."""
    data = workdir / "data.csv"
    data.write_text(CSV[:cut])
    obj = raw.get("objective")
    if isinstance(obj, dict) and obj.get("path") == DATASET:
        obj["path"] = str(data)
    return raw


def _missing_dataset(raw) -> bool:
    obj = raw.get("objective")
    path = obj.get("path") if isinstance(obj, dict) else None
    return isinstance(path, str) and not os.path.exists(path)


# a noise scale whose square overflows a float once raised OverflowError
_HUGE_SIGMA = (dict(BASES[0], objective=dict(BASES[0]["objective"], sigma=1e200)),
               len(CSV))


@given(case=mutated_configs())
@example(case=_HUGE_SIGMA)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_mutated_config_runs_or_raises_a_package_error(case, workdir):
    raw, cut = case
    raw = _with_dataset(raw, cut, workdir)
    try:
        cfg = parse_config(raw)
    except ConfigError as e:
        assert e.path, e
        return
    try:
        run_seeds(cfg, cfg.seeds)
    except VassoOptError:
        pass
    except OSError as e:
        assert isinstance(e, FileNotFoundError) and _missing_dataset(raw)


@given(case=mutated_configs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_mutated_config_trains_or_exits_2_with_one_error_line(case, workdir):
    raw, cut = case
    config = workdir / "cfg.json"
    config.write_text(json.dumps(_with_dataset(raw, cut, workdir)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["train", "--config", str(config), "--seed", "0,1",
                   "--out", str(workdir / "m.csv")])
    assert rc in (0, 2)
    if rc == 2:
        assert [line.startswith("vasso-opt: error:")
                for line in err.getvalue().splitlines()].count(True) == 1
