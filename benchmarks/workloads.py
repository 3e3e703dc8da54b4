"""The benchmark's three workloads, built from a workload seed.

A workload is a list of ``vasso-opt`` commands plus the configs they read.
Every experiment seed list is offset by ``SEED_STRIDE * seed``, so one
workload seed gives one fixed set of inputs and different workload seeds give
disjoint ones.  Each command carries the expectations its output checker needs
(see ``checks.py``); nothing here imports the package under test.

Only the stable flags (``--config``, ``--seed``, ``--out`` and the
subcommand-specific ones) are used, never ``--threads``.
"""

from __future__ import annotations

import json
import os

import numpy as np

SEED_STRIDE = 1000

# Criterion 05's noisy quadratic: 20 dims, diag linspace(.5, 5, 20), sigma 2.
QUADRATIC = {"kind": "quadratic",
             "diag": [float(v) for v in np.linspace(0.5, 5.0, 20)],
             "sigma": 2.0}
# Criterion 05's blobs MLP [2, 8, 2] on 128 samples, plus a held-out quarter.
BLOBS_SMALL = {"kind": "blobs", "n_per_class": 64, "dim": 2, "separation": 2.0,
               "hidden": [8], "label_noise": 0.1, "holdout_fraction": 0.25}
# The diagnostics' MLP [2, 32, 2] on 512 samples.
BLOBS_WIDE = {"kind": "blobs", "n_per_class": 256, "dim": 2, "separation": 2.0,
              "hidden": [32], "label_noise": 0.1}

QUAD_LR = {"kind": "constant", "base": 0.05}
MLP_LR = {"kind": "constant", "base": 0.1}

WORKLOADS = ("quad-seeds", "mlp-seeds", "diagnostics")

def _seeds(base: int, first: int, n: int) -> list[int]:
    return [base + first + i for i in range(n)]


def _config(objective: dict, optimizer: dict, T: int, batch_size: int,
            metrics_every: int) -> dict:
    return {"objective": objective, "optimizer": optimizer, "T": T,
            "batch_size": batch_size, "seeds": [0],
            "metrics_every": metrics_every}


def _seed_arg(seeds: list[int]) -> str:
    return ",".join(str(s) for s in seeds)


def _quad_seeds(base: int):
    T_train, T = 300, 1000
    configs = {
        "q-vasso": _config(QUADRATIC, {"kind": "vasso", "rho": 0.1, "theta": 0.2,
                                       "lr": QUAD_LR}, T_train, 1, 1),
        "q-sam": _config(QUADRATIC, {"kind": "sam", "rho": 0.1, "lr": QUAD_LR},
                         T, 1, 1),
        "q-samdb": _config(QUADRATIC, {"kind": "sam_db", "rho": 0.1, "lr": QUAD_LR},
                           T, 1, 1),
        "q-evasso": _config(QUADRATIC, {"kind": "evasso", "rho": 0.1, "theta": 0.2,
                                        "p": 0.5, "lr": QUAD_LR}, T, 1, 1),
    }
    train_seeds = _seeds(base, 0, 96)
    compare_seeds = _seeds(base, 200, 4)
    tradeoff_seeds = _seeds(base, 300, 3)
    commands = [
        {"id": "train", "check": "train",
         "argv": ["train", "--config", "@q-vasso", "--seed", _seed_arg(train_seeds),
                  "--out", "train.csv"],
         "expect": {"seeds": train_seeds, "T": T_train, "kind": "vasso",
                    "out": "train.csv"}},
        {"id": "compare", "check": "compare",
         "argv": ["compare", "--config-a", "@q-sam", "--config-b", "@q-samdb",
                  "--seed", _seed_arg(compare_seeds), "--out", "compare.csv"],
         "expect": {"seeds": compare_seeds, "T": T, "out": "compare.csv"}},
        {"id": "tradeoff", "check": "tradeoff",
         "argv": ["tradeoff", "--config", "@q-evasso", "--seed",
                  _seed_arg(tradeoff_seeds), "--p-values", "0,0.5", "--no-esam",
                  "--out", "tradeoff.csv"],
         "expect": {"seeds": tradeoff_seeds, "T": T, "p_values": [0.0, 0.5, 1.0],
                    "out": "tradeoff.csv"}},
    ]
    return configs, commands


def _mlp_seeds(base: int):
    T_train, T_compare = 100, 400
    configs = {
        "m-evasso": _config(BLOBS_SMALL, {"kind": "evasso", "rho": 0.05, "theta": 0.2,
                                          "p": 0.5, "lr": MLP_LR}, T_train, 16, 10),
        "m-vasso": _config(BLOBS_SMALL, {"kind": "vasso", "rho": 0.05, "theta": 0.2,
                                         "lr": MLP_LR}, T_compare, 16, 10),
        "m-samdb": _config(BLOBS_SMALL, {"kind": "sam_db", "rho": 0.05,
                                         "lr": MLP_LR}, T_compare, 16, 10),
    }
    train_seeds = _seeds(base, 0, 96)
    compare_seeds = _seeds(base, 200, 3)
    commands = [
        {"id": "train", "check": "train",
         "argv": ["train", "--config", "@m-evasso", "--seed", _seed_arg(train_seeds),
                  "--out", "train.csv"],
         "expect": {"seeds": train_seeds, "T": T_train, "kind": "evasso",
                    "out": "train.csv"}},
        {"id": "compare", "check": "compare",
         "argv": ["compare", "--config-a", "@m-vasso", "--config-b", "@m-samdb",
                  "--seed", _seed_arg(compare_seeds), "--out", "compare.csv"],
         "expect": {"seeds": compare_seeds, "T": T_compare, "out": "compare.csv"}},
    ]
    return configs, commands


def _diagnostics(base: int):
    train_steps = 300
    configs = {
        "d-wide": _config(BLOBS_WIDE, {"kind": "sgd", "lr": MLP_LR}, train_steps, 16, 1),
    }
    seed = str(base)
    thetas = [0.2, 0.4, 0.9]
    scales = [0.2, 1.0, 2.0, 20.0]
    commands = [
        {"id": "mse", "check": "mse",
         "argv": ["mse", "--seed", seed, "--dim", "10", "--thetas",
                  ",".join(map(str, thetas)), "--steps", "20000", "--out", "mse.csv"],
         "expect": {"thetas": thetas, "rel_tol": 0.05, "out": "mse.csv"}},
        {"id": "delta", "check": "delta",
         "argv": ["delta", "--seed", seed, "--out", "delta.csv"],
         "expect": {"out": "delta.csv"}},
        {"id": "snr", "check": "snr",
         "argv": ["snr", "--seed", seed, "--grad", "0.2,-0.1,0.6", "--scales",
                  ",".join(map(str, scales)), "--out", "snr.csv"],
         "expect": {"scales": scales, "out": "snr.csv"}},
        {"id": "sfw-check", "check": "sfw",
         "argv": ["sfw-check", "--seed", seed, "--dim", "50", "--rho", "0.1"],
         "expect": {}},
        {"id": "spectrum", "check": "spectrum",
         "argv": ["spectrum", "--config", "@d-wide", "--seed", seed, "--k", "5",
                  "--train-steps", str(train_steps), "--out", "spectrum.csv"],
         "expect": {"k": 5, "train_steps": train_steps, "max_residual": 1e-8,
                    "out": "spectrum.csv"}},
        {"id": "slice", "check": "slice",
         "argv": ["slice", "--config", "@d-wide", "--seed", seed, "--two-d",
                  "--points", "51", "--train-steps", str(train_steps),
                  "--out", "slice.csv"],
         "expect": {"points": 51, "seed": base, "config": "@d-wide",
                    "train_steps": train_steps, "out": "slice.csv"}},
    ]
    return configs, commands


_BUILDERS = {"quad-seeds": _quad_seeds, "mlp-seeds": _mlp_seeds,
             "diagnostics": _diagnostics}


def _resolve(value, paths: dict):
    if isinstance(value, str) and value.startswith("@"):
        return paths[value[1:]]
    if isinstance(value, list):
        return [_resolve(v, paths) for v in value]
    if isinstance(value, dict):
        return {k: _resolve(v, paths) for k, v in value.items()}
    return value


def build(workload: str, seed: int, config_dir: str) -> dict:
    """Write the workload's configs under ``config_dir``; return its commands.

    ``@name`` placeholders in the command specs become the config file paths.
    """
    configs, commands = _BUILDERS[workload](SEED_STRIDE * seed)
    os.makedirs(config_dir, exist_ok=True)
    paths = {}
    for name, cfg in configs.items():
        paths[name] = os.path.join(config_dir, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(cfg, fh, indent=2)
    return {"workload": workload, "seed": seed, "configs": paths,
            "commands": _resolve(commands, paths)}
