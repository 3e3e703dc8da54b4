"""Release gate: one test per numbered acceptance criterion.

Each test prints a single ``PASS criterion-NN ...`` / ``FAIL criterion-NN ...``
line (run ``pytest tests/test_acceptance.py -v -s`` to see them as they
happen) and then asserts.  Every check is deterministic: all randomness is
drawn from fixed Philox seeds, so the observed values never move between
runs.  Each line, bar its elapsed-seconds field, is also pinned to the one
in ``data/acceptance_lines.json``, recorded with the numpy version and
machine named there; regenerate it with UPDATE_GOLDENS=1 only in a change
that declares which lines it changes and why.
"""

import json
import math
import os
import pathlib
import platform
import re
import time

import numpy as np

from vasso_opt.analysis import (delta_stability, ema_slope_sampler,
                                lanczos_spectrum, mse_suppression,
                                noise_scale_for_snr, noisy_grad_sampler,
                                snr_adversary_spread)
from vasso_opt.core import STREAM_BATCH, Schedule, make_rng, norm2
from vasso_opt.harness import (build_objective, init_x, paired_compare,
                               parse_config, run_seed, run_seeds)
from vasso_opt.objectives import (Mlp, NoisyQuadratic, m_sharpness_objective)
from vasso_opt.optimizers import (ArmKnobs, OptimizerConfig, sam_adversary,
                                  sam_step, sfw_solve, sgd_step, vasso_step)


LINES = pathlib.Path(__file__).parent / "data" / "acceptance_lines.json"
HOST = {"machine": platform.machine(), "numpy": np.__version__}
_ELAPSED = re.compile(r" \(\d+(\.\d+)?s < \d+s\)")   # e.g. " (2.3s < 30s)"


def _check(num: int, slug: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion-{num:02d} {slug}: {detail}"
    print(line)
    assert ok, line
    key, got = f"criterion-{num:02d}", _ELAPSED.sub("", line)
    recorded = json.loads(LINES.read_text()) if LINES.exists() else {}
    if os.environ.get("UPDATE_GOLDENS"):
        recorded[key] = {"line": got, "recorded_with": HOST}
        LINES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    want, was = recorded[key]["line"], recorded[key]["recorded_with"]
    assert got == want, (
        f"{key}: the line differs from the one recorded with numpy {was['numpy']} on "
        f"{was['machine']} (now numpy {HOST['numpy']} on {HOST['machine']})\n"
        f"recorded: {want}\nnow:      {got}")


def _cfg(objective, optimizer, T, batch_size=1, metrics_every=None, seeds=(0,)):
    return parse_config({
        "objective": objective, "optimizer": optimizer, "T": T,
        "batch_size": batch_size, "seeds": list(seeds),
        "metrics_every": metrics_every if metrics_every is not None else T,
    })


_LR = {"kind": "constant", "base": 0.05}


# ---------------------------------------------------------------------------


def test_criterion_01_one_step_frank_wolfe_equals_the_closed_form():
    t0 = time.perf_counter()
    rng = make_rng(20, 16)
    worst = 0.0
    for trial in range(100):
        dim = (3, 50, 1000)[trial % 3]
        g = rng.standard_normal(dim)
        rho = float(rng.uniform(0.01, 10.0))
        eps = sfw_solve(lambda bs, r: g, rho, 1, [1], [1.0], rng)
        worst = max(worst, float(np.max(np.abs(eps - sam_adversary(g, rho)))))
    elapsed = time.perf_counter() - t0
    _check(1, "sfw-equivalence", worst <= 1e-12 and elapsed < 1.0,
           f"max_componentwise_dev={worst:g} over 100 pairs "
           f"({elapsed:.2f}s < 1s)")


def test_criterion_02_limit_settings_collapse_bit_identically():
    t0 = time.perf_counter()
    quad = {"kind": "quadratic", "diag": [2.0, 1.0, 0.5], "sigma": 0.8}
    blobs = {"kind": "blobs", "n_per_class": 16, "dim": 2, "separation": 2.0,
             "hidden": [4]}

    def losses(objective, optimizer, bs):
        columns, _ = run_seed(_cfg(objective, optimizer, T=1000, batch_size=bs), 0)
        return columns.loss.tolist()

    def reference_losses(step, objective, optimizer, bs):
        # the independent sam_step / sgd_step over run_seed's objective,
        # initial point and minibatch stream
        cfg = _cfg(objective, optimizer, T=1000, batch_size=bs)
        obj = build_objective(cfg.objective, 0)
        x = init_x(obj, cfg.objective, 0)
        sampler = obj.make_sampler(bs, make_rng(0, STREAM_BATCH))
        ocfg = cfg.optimizer_config()
        buf = None
        out = []
        for t in range(cfg.T):
            x, rep, buf = step(obj, x, sampler(), ocfg, None, t=t,
                               momentum_buffer=buf)
            out.append(rep.loss)
        return out

    ok = True
    parts = []
    for name, objective, bs in (("quadratic", quad, 1), ("mlp", blobs, 8)):
        sam = reference_losses(sam_step, objective,
                               {"kind": "sam", "rho": 0.05, "lr": _LR}, bs)
        v_th1 = losses(objective, {"kind": "vasso", "rho": 0.05, "theta": 1.0,
                                   "lr": _LR}, bs)
        vasso = losses(objective, {"kind": "vasso", "rho": 0.05, "theta": 0.2,
                                   "lr": _LR}, bs)
        ev_p1 = losses(objective, {"kind": "evasso", "rho": 0.05, "theta": 0.2,
                                   "p": 1.0, "lr": _LR}, bs)
        sgd = reference_losses(sgd_step, objective, {"kind": "sgd", "lr": _LR}, bs)
        ev_p0 = losses(objective, {"kind": "evasso", "rho": 0.05, "theta": 0.2,
                                   "p": 0.0, "lr": _LR}, bs)
        same = (v_th1 == sam, ev_p1 == vasso, ev_p0 == sgd)
        ok = ok and all(same)
        parts.append(f"{name}:theta1==sam={same[0]},p1==vasso={same[1]},"
                     f"p0==sgd={same[2]}")
    elapsed = time.perf_counter() - t0
    _check(2, "collapse-identities", ok and elapsed < 10.0,
           " ".join(parts) + f" over T=1000 ({elapsed:.1f}s < 10s)")


def test_criterion_03_averaging_suppresses_slope_error_to_the_steady_state():
    t0 = time.perf_counter()
    obj = NoisyQuadratic(np.ones(4), sigma=0.5)   # total noise variance 1.0
    x = np.array([0.5, -0.5, 1.0, 0.0])
    thetas = (0.2, 0.4, 0.9)
    pairs = mse_suppression(obj, x, thetas, 100_000,
                            [make_rng(30 + i, 16) for i in range(len(thetas))])
    ok = True
    parts = []
    for theta, (mse_d, mse_g) in zip(thetas, pairs):
        target = theta / (2.0 - theta)
        good = (abs(mse_d - target) <= 0.10 * target and mse_d < theta
                and abs(mse_g - 1.0) <= 0.05)
        ok = ok and good
        parts.append(f"theta={theta}:mse_d={mse_d:.4f}(target {target:.4f}),"
                     f"mse_g={mse_g:.4f}")
    elapsed = time.perf_counter() - t0
    _check(3, "variance-suppression", ok and elapsed < 30.0,
           " ".join(parts) + f" ({elapsed:.1f}s < 30s)")


def test_criterion_04_linearized_sharpness_stability_bound_and_ordering():
    t0 = time.perf_counter()
    # per-sample bound |L(v) - L(grad f)| <= rho*||v - grad f||, 1e6 draws
    obj = NoisyQuadratic(np.ones(5), sigma=1.0)
    x = np.array([0.5, 1.0, -0.5, 0.0, 2.0])
    rho = 0.3
    gn = norm2(obj.full_grad(x))
    draws = obj.grad_draws(x, 1_000_000, make_rng(40, 16))
    lhs = np.abs(rho * np.linalg.norm(draws, axis=1) - rho * gn)
    rhs = rho * np.linalg.norm(draws - obj.full_grad(x), axis=1)
    violations = int(np.sum(lhs > rhs))
    # measured gap: EMA slope below raw slope in every 1e4-draw batch
    obj_b = NoisyQuadratic(np.ones(10), sigma=1.0)
    x_b = np.full(10, 0.3)
    batch_wins = 0
    for b in range(10):
        d_sam = delta_stability(obj_b, x_b, noisy_grad_sampler(obj_b, x_b),
                                0.05, 10_000, make_rng(50 + b, 16))
        d_vasso = delta_stability(obj_b, x_b, ema_slope_sampler(obj_b, x_b, 0.2),
                                  0.05, 10_000, make_rng(70 + b, 16))
        batch_wins += d_vasso < d_sam
    elapsed = time.perf_counter() - t0
    _check(4, "delta-stability", violations == 0 and batch_wins == 10
           and elapsed < 30.0,
           f"bound_violations={violations}/1e6 vasso<sam in "
           f"{batch_wins}/10 batches ({elapsed:.1f}s < 30s)")


def _drift_stats(cfg, seeds):
    return [(summary["mean_drift"], max(columns.eps_drift.tolist()))
            for columns, summary in run_seeds(cfg, seeds)]


def test_criterion_05_averaged_adversary_drifts_less_over_paired_seeds():
    t0 = time.perf_counter()
    arms = (
        ("quadratic",
         {"kind": "quadratic", "diag": list(np.linspace(0.5, 5.0, 20)),
          "sigma": 2.0}, 1, 0.1, 0.05),
        ("blobs-mlp",
         {"kind": "blobs", "n_per_class": 64, "dim": 2, "separation": 2.0,
          "hidden": [8], "label_noise": 0.1}, 16, 0.05, 0.1),
    )
    ok = True
    parts = []
    for name, objective, bs, rho, lr in arms:
        lrd = {"kind": "constant", "base": lr}
        vasso = _drift_stats(_cfg(objective, {"kind": "vasso", "rho": rho,
                                              "theta": 0.2, "lr": lrd},
                                  5000, bs), range(20))
        sam = _drift_stats(_cfg(objective, {"kind": "sam", "rho": rho,
                                            "lr": lrd}, 5000, bs), range(20))
        wins = sum(v[0] < s[0] for v, s in zip(vasso, sam))
        top = max(max(v[1] for v in vasso), max(s[1] for s in sam))
        good = wins >= 18 and top <= 2 * rho + 1e-10
        ok = ok and good
        parts.append(f"{name}:wins={wins}/20,max_drift={top:.4f}<=2rho={2*rho}")
    elapsed = time.perf_counter() - t0
    _check(5, "drift-ordering", ok and elapsed < 300.0,
           " ".join(parts) + f" ({elapsed:.0f}s < 300s)")


def test_criterion_06_gate_probability_sets_the_gradient_budget():
    t0 = time.perf_counter()
    quad = {"kind": "quadratic", "diag": [2.0, 1.0, 0.5], "sigma": 0.8}

    def total(p):
        opt = {"kind": "evasso", "rho": 0.05, "theta": 0.2, "p": p, "lr": _LR}
        _, summary = run_seed(_cfg(quad, opt, T=10_000), 0)
        return summary["total_grad_evals"]

    T, p = 10_000, 0.3
    band = 3 * math.sqrt(p * (1 - p) * T)
    at_p3 = total(p)
    in_band = abs(at_p3 - (1 + p) * T) <= band
    totals = [total(pv) for pv in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)]
    monotone = all(a < b for a, b in zip(totals, totals[1:]))
    elapsed = time.perf_counter() - t0
    _check(6, "computation-accounting", in_band and monotone and elapsed < 60.0,
           f"evals(p=0.3)={at_p3} in 13000+-{band:.0f}; sweep={totals} "
           f"monotone={monotone} ({elapsed:.1f}s < 60s)")


def test_criterion_07_decoupled_adversary_batches_degrade_the_final_loss():
    # The claim is about generalization, so the paired test runs where there is
    # held-out data: with holdout_fraction > 0, final_loss is the held-out loss.
    t0 = time.perf_counter()
    blobs = {"kind": "blobs", "n_per_class": 64, "dim": 2, "separation": 2.0,
             "hidden": [8], "label_noise": 0.1, "holdout_fraction": 0.5}
    mlp_opt = {"rho": 0.05, "lr": {"kind": "constant", "base": 0.1}}
    cfg_sam = _cfg(blobs, {"kind": "sam", **mlp_opt}, 3000, 16)
    cfg_db = _cfg(blobs, {"kind": "sam_db", **mlp_opt}, 3000, 16)
    res = paired_compare(cfg_sam, cfg_db, range(20))
    majority_worse = res.wins_a > 10 and res.p_value < 0.05
    # Reported, not asserted: SAM-db fits the training split better...
    db_train_wins = 0
    for sa, sb in zip(res.summaries_a, res.summaries_b):
        train = build_objective(cfg_sam.objective, sa["seed"]).full_loss
        db_train_wins += train(sb["final_x"]) < train(sa["final_x"])
    # ...and on the convex quadratic (no held-out split, final_loss is the
    # noise-free full loss) the shared batch raises the loss instead.
    noisy = {"kind": "quadratic", "diag": list(np.linspace(0.5, 5.0, 20)),
             "sigma": 3.0}
    opt = {"rho": 0.3, "lr": _LR}
    quad = paired_compare(_cfg(noisy, {"kind": "sam", **opt}, 3000),
                          _cfg(noisy, {"kind": "sam_db", **opt}, 3000),
                          range(20))

    obj = NoisyQuadratic(np.asarray(noisy["diag"]), sigma=3.0)
    ocfg = OptimizerConfig(rho=0.3, theta=1.0, lr=Schedule("constant", 0.05))
    knobs = ArmKnobs([OptimizerConfig(rho=0.3, theta=1.0, lr=Schedule("constant", 0.05),
                                      adv_batch=1)])
    xa = xb = make_rng(0, 0).standard_normal(20)
    state = None
    sampler_a = obj.make_sampler(1, make_rng(0, 1))
    sampler_b = obj.make_sampler(1, make_rng(0, 1))
    identical = True
    for t in range(1000):
        batch_a, batch_b = sampler_a(), sampler_b()
        xa, state, ra, _ = vasso_step(obj, xa, state, batch_a, knobs, None, t=t,
                                      adv_batch=batch_a)
        xb, rb, _ = sam_step(obj, xb, batch_b, ocfg, None, t=t)
        identical = identical and np.array_equal(xa, xb) and ra.loss == rb.loss
    elapsed = time.perf_counter() - t0
    _check(7, "decoupled-batch-degradation",
           majority_worse and identical and elapsed < 300.0,
           f"blobs-mlp heldout: sam_wins={res.wins_a}/20 db_wins={res.wins_b}/20 "
           f"p={res.p_value:.2g}; reported: blobs-mlp train db_wins="
           f"{db_train_wins}/20, quadratic sam_wins={quad.wins_a}/20 "
           f"db_wins={quad.wins_b}/20 p={quad.p_value:.2g}; "
           f"shared_batch_bit_identical={identical} ({elapsed:.0f}s < 300s)")


def test_criterion_08_adversary_alignment_tracks_the_noise_ratio():
    t0 = time.perf_counter()
    g = np.array([0.2, -0.1, 0.6])
    scales = [noise_scale_for_snr(g, s) for s in (5.0, 1.0, 0.1, 0.01)]
    stats = snr_adversary_spread(g, scales, 2000, make_rng(4, 16))
    cos = [s.mean_cos for s in stats]
    nonincreasing = all(a >= b for a, b in zip(cos, cos[1:]))
    elapsed = time.perf_counter() - t0
    _check(8, "snr-adversary-spread",
           cos[0] > 0.9 and abs(cos[-1]) <= 0.1 and nonincreasing
           and elapsed < 5.0,
           f"mean_cos={[round(c, 4) for c in cos]} across snr 5,1,0.1,0.01 "
           f"({elapsed:.1f}s < 5s)")


def test_criterion_09_lanczos_recovers_the_top_of_the_spectrum():
    t0 = time.perf_counter()
    diag = np.array([10.0, 5.0, 4.0, 3.0, 2.0] + [1.0] * 495)
    est = lanczos_spectrum(NoisyQuadratic(diag), np.zeros(500), 5, 60,
                           make_rng(21, 16))
    lam1, lam5 = est.top_eigenvalues[0], est.top_eigenvalues[4]
    ratio = lam1 / lam5
    elapsed = time.perf_counter() - t0
    _check(9, "lanczos-spectrum",
           abs(lam1 - 10.0) <= 0.01 * 10.0 and abs(ratio - 5.0) <= 0.02 * 5.0
           and elapsed < 10.0,
           f"lam1={lam1:.6f} lam1/lam5={ratio:.6f} ({elapsed:.1f}s < 10s)")


def test_criterion_10_longer_horizons_reach_smaller_gradients():
    t0 = time.perf_counter()
    quad = {"kind": "quadratic", "diag": list(np.linspace(0.5, 5.0, 10)),
            "sigma": 1.0}

    def mean_sq_grad(kind, T):
        opt = {"kind": kind, "lr": {"kind": "theory", "base": 1.0}}
        if kind != "sgd":
            opt.update(rho=0.0, rho_schedule={"kind": "theory", "base": 0.5},
                       theta=0.2)
        cfg = _cfg(quad, opt, T, metrics_every=1, seeds=range(10))
        acc = [np.mean([g ** 2 for g in columns.full_grad_norm.tolist()])
               for columns, _ in run_seeds(cfg, range(10))]
        return float(np.mean(acc))

    ok = True
    parts = []
    for kind in ("sgd", "sam", "vasso"):
        short, long_ = mean_sq_grad(kind, 256), mean_sq_grad(kind, 4096)
        ok = ok and long_ < short
        parts.append(f"{kind}:{short:.3f}->{long_:.3f}")
    elapsed = time.perf_counter() - t0
    _check(10, "horizon-convergence-trend", ok and elapsed < 120.0,
           " ".join(parts) + f" mean grad^2, T=256 vs 4096 over 10 seeds "
           f"({elapsed:.0f}s < 120s)")


def test_criterion_11_partitioning_changes_the_small_batch_sharpness_objective():
    t0 = time.perf_counter()
    by_a = m_sharpness_objective("by_a", 0.0, 0.5)
    by_b = m_sharpness_objective("by_b", 0.0, 0.5)
    gap = by_a - by_b
    elapsed = time.perf_counter() - t0
    _check(11, "partition-dependence", gap == 1.0 and elapsed < 1.0,
           f"objective gap at w=0, rho=0.5: {by_a} - {by_b} = {gap} "
           f"({elapsed:.2f}s < 1s)")


def test_criterion_12_network_gradients_match_central_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for arch, act in (([3, 5, 2], "tanh"), ([2, 4, 4, 3], "relu"),
                      ([5, 4, 2], "tanh")):
        rng = make_rng(60, 16)
        mlp = Mlp(arch, activation=act)
        feats = rng.standard_normal((12, arch[0]))
        labels = rng.integers(0, arch[-1], size=12)
        for _ in range(10):
            x = mlp.init_params(rng) + 0.05 * rng.standard_normal(mlp.dim)
            _, g = mlp.loss_and_grad(x, feats, labels)
            h = 1e-5
            fd = np.zeros(mlp.dim)
            for i in range(mlp.dim):
                e = np.zeros(mlp.dim)
                e[i] = h
                lp, _ = mlp.loss_and_grad(x + e, feats, labels)
                lm, _ = mlp.loss_and_grad(x - e, feats, labels)
                fd[i] = (lp - lm) / (2 * h)
            worst = max(worst, np.max(np.abs(g - fd)) /
                        max(np.max(np.abs(fd)), 1e-12))
    elapsed = time.perf_counter() - t0
    _check(12, "gradient-correctness", worst < 1e-5 and elapsed < 30.0,
           f"worst relative error {worst:.2e} over 10 points x 3 archs "
           f"({elapsed:.1f}s < 30s)")
