"""Isolated per-call timings (``micro.*``) and the per-step re-anchor figures.

Run in its own child process by the traced benchmark run, or by hand:

    PYTHONPATH=src python3 benchmarks/micro.py --seed 0 --out micro.json

(``benchmarks/`` itself is on the path when the script runs.)

Per-call probes report the median over ``REPEATS`` timed loops of the
per-call time.  The re-anchor probes time ``run_seed`` with metrics only at
t=0, as the ROADMAP's re-anchor figures were taken, and report µs per step.
A probe whose target no longer exists is listed under ``missing``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import statistics
import time

import numpy as np
from vasso_opt import harness, objectives, optimizers
from vasso_opt.core import Schedule, make_rng
from workloads import BLOBS_SMALL, MLP_LR, QUADRATIC, QUAD_LR

REPEATS = 7
REANCHOR_REPEATS = 5
REANCHOR_T = {"quad": 2000, "mlp": 1000}

# The ROADMAP's re-anchor configurations (README compares the figures).
REANCHOR = ("quad.sgd", "quad.sam", "quad.vasso",
            "mlp.sgd", "mlp.sam", "mlp.vasso", "mlp.evasso")


def _per_call_us(fn, n: int) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times) * 1e6


def _quad_probes(seed: int, rows_fh):
    quad = objectives.NoisyQuadratic(np.asarray(QUADRATIC["diag"]),
                                     sigma=QUADRATIC["sigma"])
    rng = make_rng(seed, 99)
    x = rng.standard_normal(quad.dim)
    zeta = quad.make_sampler(1, rng)()
    g = quad.grad(x, zeta)
    cfg = optimizers.OptimizerConfig(rho=0.1, theta=0.2, lr=Schedule("constant", 0.05))
    state, _ = optimizers.vasso_update(None, g, 0.2, 0.1)
    row = harness.MetricsRow(seed, 123, 0.4567891234, 1.234567, 0.0123456, 2468, None)
    return [("micro.quad.grad.us", lambda: quad.grad(x, zeta), 20000),
            ("micro.vasso_update.us",
             lambda: optimizers.vasso_update(state, g, 0.2, 0.1), 20000),
            ("micro.sam_adversary.us", lambda: optimizers.sam_adversary(g, 0.1), 20000),
            ("micro.base_update.us",
             lambda: optimizers.base_update(x, g, cfg, None, t=3), 20000),
            ("micro.csv_row.us", lambda: rows_fh.write(row.to_csv() + "\n"), 20000)]


def _mlp_probes(seed: int, rows_fh):
    # The ROADMAP measured the MLP on all 128 samples, so no held-out split here.
    spec = harness.parse_config({"objective": dict(BLOBS_SMALL, holdout_fraction=0.0),
                                 "optimizer": {"kind": "sgd", "lr": MLP_LR},
                                 "T": 1, "batch_size": 16, "seeds": [seed]}).objective
    obj = harness.build_objective(spec, seed)
    w = harness.init_x(obj, spec, seed)
    net = obj.mlp
    feats, labels = obj.dataset.features, obj.dataset.labels
    idx = obj.make_sampler(16, make_rng(seed, 99))()
    f16, l16 = feats[idx], labels[idx]
    return [("micro.mlp.loss_and_grad_b16.us", lambda: net.loss_and_grad(w, f16, l16), 2000),
            ("micro.mlp.loss_and_grad_full.us",
             lambda: net.loss_and_grad(w, feats, labels), 2000),
            ("micro.mlp.forward_full.us", lambda: net.forward(w, feats), 4000)]


def _reanchor(seed: int):
    """Yield (name, µs per step) of run_seed with metrics only at t=0."""
    families = {"quad": (QUADRATIC, 1, 0.1, QUAD_LR),
                "mlp": (dict(BLOBS_SMALL, holdout_fraction=0.0), 16, 0.05, MLP_LR)}
    for key in REANCHOR:
        family, kind = key.split(".")
        objective, bs, rho, lr = families[family]
        T = REANCHOR_T[family]
        opt = {"kind": kind, "rho": rho, "theta": 0.2, "lr": lr}
        if kind == "evasso":
            opt["p"] = 0.5
        cfg = harness.parse_config({"objective": objective, "optimizer": opt, "T": T,
                                    "batch_size": bs, "seeds": [seed],
                                    "metrics_every": T})
        times = []
        for _ in range(REANCHOR_REPEATS):
            t0 = time.perf_counter()
            harness.run_seed(cfg, seed)
            times.append((time.perf_counter() - t0) / T)
        yield f"micro.reanchor.{key}.us_per_step", statistics.median(times) * 1e6


def run(seed: int, workdir: str) -> dict:
    logging.disable(logging.INFO)
    metrics, missing = {}, []
    with open(os.path.join(workdir, "micro_rows.csv"), "w") as rows_fh:
        for group in (_quad_probes, _mlp_probes):
            try:
                probes = group(seed, rows_fh)
            except AttributeError as e:
                missing.append(f"{group.__name__}: {e}")
                continue
            for name, fn, n in probes:
                try:
                    metrics[name] = [_per_call_us(fn, n), "us"]
                except AttributeError as e:
                    missing.append(f"{name}: {e}")
    try:
        for name, value in _reanchor(seed):
            metrics[name] = [value, "us"]
    except AttributeError as e:
        missing.append(f"micro.reanchor: {e}")
    return {"metrics": metrics, "missing": missing}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="result JSON path")
    args = ap.parse_args(argv)
    result = run(args.seed, os.path.dirname(os.path.abspath(args.out)))
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
