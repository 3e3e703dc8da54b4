"""Command-line front end.

Every subcommand requires --seed (there is no hidden nondeterminism) and
writes plot-ready CSV.  Exit codes: 0 success, 1 usage error, 2 runtime
failure.  An output path (``--out``, or ``train``'s config ``output_path``)
whose directory does not exist, or that names a directory, exits 2 before
any work.  Flags override config-file values, save that a flag may not set
a knob that the config's optimizer kind fixes at another value: ``train
--p 0.25`` on a ``vasso`` config exits 2 naming ``optimizer.p``.  The seeds
of a run step together in lockstep, in one process; outputs list them in
the order given.  A recorded ``wallclock_ms`` cell is therefore the elapsed
time of the whole stack of seeds at step t, and the per-seed INFO lines on
stderr may come out in a different order than the seeds.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import astuple
from functools import partial

import numpy as np

from .analysis import (check_spectrum_sizes, delta_stability, ema_slope_sampler,
                       landscape_slice, lanczos_spectrum, mse_suppression,
                       noisy_grad_sampler, snr_adversary_spread)
from .core import MAX_SEED, STREAM_DIRECTION, STREAM_INIT, STREAM_USER, make_rng
from .errors import VassoOptError
from .harness import (SUMMARY_SUFFIX, TRADEOFF_HEADER, Drift, build_objective, fmt,
                      load_config, paired_compare, run_experiment, run_seeds,
                      trained_point, tradeoff_sweep)
from .objectives import NoisyQuadratic
from .optimizers import sam_adversary, sfw_solve

_WIDTH = partial(argparse.HelpFormatter, width=78)
log = logging.getLogger("vasso_opt")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed_list(text: str) -> list[int]:
    try:
        seeds = [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError("empty seed list")
    return seeds


def _bounded(convert, lo=-math.inf, hi=math.inf, lo_open=False):
    """An argparse type for a finite ``convert(text)`` in [lo, hi], or (lo, hi]."""
    if hi < math.inf:
        want = f"in {'(' if lo_open else '['}{lo}, {hi}]"
    else:
        want = f"{'>' if lo_open else '>='} {lo}" if lo > -math.inf else ""
    if convert is float:
        want = f"finite and {want}" if want else "finite"

    def check(text: str):
        v = convert(text)   # argparse reports a ValueError as "invalid <name> value"
        if not ((lo < v if lo_open else lo <= v) and v <= hi and abs(v) != math.inf):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text}")
        return v
    check.__name__ = convert.__name__
    return check


_positive_int = _bounded(int, 1)
_non_negative_int = _bounded(int, 0)
_seed = _bounded(int, 0, MAX_SEED)
_finite = _bounded(float)
_finite_non_negative = _bounded(float, 0)
_finite_positive = _bounded(float, 0, lo_open=True)
_ema_weight = _bounded(float, 0, 1, lo_open=True)


def _number_list(item):
    """An argparse type for a comma-separated list of ``item`` values."""
    def numbers(text: str) -> list:
        try:
            vals = [item(v) for v in text.split(",") if v != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad number list {text!r}")
        if not vals:
            raise argparse.ArgumentTypeError("empty number list")
        return vals
    return numbers


def _non_zero_vector(text: str) -> list[float]:
    """An argparse type for a finite number list with a non-zero entry."""
    vals = _number_list(_finite)(text)
    if not any(vals):
        raise argparse.ArgumentTypeError(f"needs a non-zero entry, got {text}")
    return vals


def _out_path(text: str) -> str:
    """An argparse type for a non-empty output path."""
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return text


def _writable(path: str) -> None:
    """Fail, before any work, unless ``path`` names a file in a directory that exists."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise VassoOptError(f"cannot write {path}: no directory {folder}")
    if os.path.isdir(path):
        raise VassoOptError(f"cannot write {path}: it is a directory")


def _write_lines(path: str, header: str, lines) -> None:
    """Write ``header``, then each of ``lines``, each ended by a newline."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def _write_csv(path: str, header: str, rows) -> None:
    """Write ``header``, then a line per row of cells, each cell as ``fmt`` writes it."""
    _write_lines(path, header, (",".join(map(fmt, row)) for row in rows))


def _wrote(path: str, header: str, rows) -> int:
    """Write the CSV, say so on stdout, and return exit code 0."""
    _write_csv(path, header, rows)
    print(f"wrote {path}")
    return 0


def _given(**values) -> dict:
    """The values given on the command line; a flag left at None keeps the config's."""
    return {k: v for k, v in values.items() if v is not None}


def _no_overflow(compute, *args, flags: str):
    """``compute(*args)``, whose numbers must all be finite.

    An overflow is reported as one error naming ``flags``, not as numpy warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = compute(*args)
    if not np.isfinite(out).all():
        raise VassoOptError(f"the estimates overflow float64 at {flags}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vasso-opt", formatter_class=_WIDTH,
                     description="Sharpness-aware optimizer experiments: "
                                 "training runs, paired comparisons, and "
                                 "adversary diagnostics.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, run, help_, seeds="list"):
        p = sub.add_parser(name, help=help_, formatter_class=_WIDTH)
        p.set_defaults(run=run)
        if seeds == "list":
            p.add_argument("--seed", required=True, type=_seed_list,
                           help="comma-separated seed list; overrides the config")
        else:
            p.add_argument("--seed", required=True, type=_seed, help="RNG seed")
        return p

    p = add("train", cmd_train, "run a training experiment from a JSON config")
    p.add_argument("--config", required=True, help="experiment config path")
    p.add_argument("--out", type=_out_path,
                   help="metrics CSV path (overrides config output_path)")
    p.add_argument("--T", type=int, help="override horizon")
    p.add_argument("--metrics-every", type=int, help="override metrics cadence")
    p.add_argument("--rho", type=float, help="override perturbation radius")
    p.add_argument("--theta", type=float, help="override EMA weight")
    p.add_argument("--p", type=float, help="override gate probability")
    p.add_argument("--record-wallclock", action="store_true",
                   help="fill the wallclock_ms column (not reproducible)")

    p = add("tradeoff", cmd_tradeoff, "loss/computation sweep over gate probabilities")
    p.add_argument("--config", required=True)
    p.add_argument("--out", type=_out_path, required=True, help="table CSV path")
    p.add_argument("--p-values", type=_number_list(float),
                   default=[0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
                   help="comma-separated gate probabilities (default 0.2..0.8)")
    p.add_argument("--no-esam", action="store_true",
                   help="skip the gated-SAM analog rows")
    p.add_argument("--record-wallclock", action="store_true",
                   help="fill the wallclock column (not reproducible)")

    p = add("compare", cmd_compare, "paired-seed sign test between two optimizer configs")
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.add_argument("--metric", choices=["final_loss", "mean_drift"],
                   default="final_loss")
    p.add_argument("--out", type=_out_path, help="optional per-seed CSV path")

    p = add("stability", cmd_stability, "adversary drift trace for one run", seeds="one")
    p.add_argument("--config", required=True)
    p.add_argument("--out", type=_out_path, required=True,
                   help="drift CSV path (t,drift)")

    p = add("mse", cmd_mse,
            "EMA slope error vs raw gradient error at a fixed point", seeds="one")
    p.add_argument("--dim", type=_positive_int, default=10)
    p.add_argument("--sigma", type=_finite_non_negative, default=1.0,
                   help="per-coordinate gradient noise std")
    p.add_argument("--thetas", type=_number_list(_ema_weight),
                   default=[0.2, 0.4, 0.9], help="comma-separated EMA weights")
    p.add_argument("--steps", type=_positive_int, default=100000)
    p.add_argument("--out", type=_out_path, required=True)

    p = add("delta", cmd_delta,
            "linearized-sharpness stability of SAM vs EMA slopes", seeds="one")
    p.add_argument("--dim", type=_positive_int, default=10)
    p.add_argument("--sigma", type=_finite_non_negative, default=1.0)
    p.add_argument("--rho", type=_finite_non_negative, default=0.05)
    p.add_argument("--theta", type=_ema_weight, default=0.2)
    p.add_argument("--samples", type=_positive_int, default=10000)
    p.add_argument("--out", type=_out_path, required=True)

    p = add("snr", cmd_snr, "adversary spread vs gradient signal-to-noise", seeds="one")
    p.add_argument("--grad", required=True, type=_non_zero_vector,
                   help="true gradient, comma-separated")
    p.add_argument("--scales", required=True, type=_number_list(_finite_non_negative),
                   help="per-coordinate noise stds, comma-separated")
    p.add_argument("--draws", type=_positive_int, default=100)
    p.add_argument("--out", type=_out_path, required=True)

    p = add("spectrum", cmd_spectrum, "top Hessian eigenvalues via Lanczos", seeds="one")
    p.add_argument("--config", required=True, help="config supplying the objective")
    p.add_argument("--k", type=_positive_int)   # default min(5, dim)
    p.add_argument("--iters", type=_positive_int)   # default min(60, dim)
    p.add_argument("--train-steps", type=_non_negative_int, default=0,
                   help="train this many steps first (0: spectrum at init)")
    p.add_argument("--out", type=_out_path, required=True)

    p = add("slice", cmd_slice,
            "loss values on a slice through parameter space", seeds="one")
    p.add_argument("--config", required=True, help="config supplying the objective")
    p.add_argument("--radius", type=_finite_non_negative, default=1.0)
    p.add_argument("--points", type=_positive_int, default=41)
    p.add_argument("--two-d", action="store_true", help="use two directions")
    p.add_argument("--train-steps", type=_non_negative_int, default=0,
                   help="train this many steps first (0: slice at init)")
    p.add_argument("--out", type=_out_path, required=True)

    p = add("sfw-check", cmd_sfw_check,
            "one-step Frank-Wolfe vs the closed-form adversary", seeds="one")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--rho", type=_finite_positive, required=True)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--out", type=_out_path, help="optional per-trial CSV path")

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def cmd_train(args) -> int:
    fields = _given(T=args.T, metrics_every=args.metrics_every, output_path=args.out)
    cfg = load_config(args.config).derive(_given(rho=args.rho, theta=args.theta, p=args.p),
                                          seeds=args.seed, **fields)
    if cfg.output_path is None:
        raise VassoOptError("no metrics path: give --out or set output_path in the config")
    _writable(cfg.output_path)
    _writable(cfg.output_path + SUMMARY_SUFFIX)
    result = run_experiment(cfg, record_wallclock=args.record_wallclock)
    if result.aggregate["n_aborted"] == len(cfg.seeds):
        raise VassoOptError("every seed aborted on non-finite loss; see " +
                            str(result.summary_path))
    print(f"wrote {result.metrics_path} and {result.summary_path}")
    return 0


def cmd_tradeoff(args) -> int:
    cfg = load_config(args.config)
    rows = tradeoff_sweep(cfg, args.p_values, args.seed,
                          include_esam_analog=not args.no_esam,
                          record_wallclock=args.record_wallclock)
    return _wrote(args.out, TRADEOFF_HEADER, map(astuple, rows))


def cmd_compare(args) -> int:
    result = paired_compare(load_config(args.config_a), load_config(args.config_b),
                            args.seed, metric=args.metric)
    if args.out:
        _write_csv(args.out, f"seed,{args.metric}_a,{args.metric}_b,diff",
                   zip(result.seeds, result.values_a, result.values_b, result.diffs))
    print(f"metric={result.metric} wins_a={result.wins_a} wins_b={result.wins_b} "
          f"ties={result.ties} p_value={fmt(result.p_value)}")
    return 0


def cmd_stability(args) -> int:
    [(drift, _)] = run_seeds(load_config(args.config), [args.seed],
                             (partial(Drift, table=True),))
    return _wrote(args.out, "t,drift", enumerate(drift.tolist(), 1))


def cmd_mse(args) -> int:
    obj = NoisyQuadratic(np.ones(args.dim), sigma=args.sigma)
    x = obj.init_params(make_rng(args.seed, STREAM_INIT))
    rngs = [make_rng(args.seed, STREAM_USER + i) for i in range(len(args.thetas))]
    pairs = _no_overflow(mse_suppression, obj, x, args.thetas, args.steps, rngs,
                         flags=f"--sigma {args.sigma}")
    rows = [(theta, mse_d, mse_g, mse_d / mse_g if mse_g else float("nan"))
            for theta, (mse_d, mse_g) in zip(args.thetas, pairs)]
    return _wrote(args.out, "theta,mse_d,mse_g,ratio", rows)


def cmd_delta(args) -> int:
    obj = NoisyQuadratic(np.ones(args.dim), sigma=args.sigma)
    x = obj.init_params(make_rng(args.seed, STREAM_INIT))
    flags = f"--sigma {args.sigma} and --rho {args.rho}"
    d_sam = _no_overflow(delta_stability, obj, x, noisy_grad_sampler(obj, x),
                         args.rho, args.samples, make_rng(args.seed, STREAM_USER),
                         flags=flags)
    d_vasso = _no_overflow(delta_stability, obj, x, ema_slope_sampler(obj, x, args.theta),
                           args.rho, args.samples, make_rng(args.seed, STREAM_USER + 1),
                           flags=flags)
    _write_csv(args.out, "slope,delta_hat", [("sam", d_sam), ("vasso", d_vasso)])
    # with delta_sam = 0 (e.g. rho = 0) there is no gap to compare against
    ratio = fmt(d_vasso / d_sam) if d_sam else "undefined"
    print(f"delta_vasso/delta_sam={ratio}")
    return 0


def cmd_snr(args) -> int:
    grad = np.asarray(args.grad, dtype=np.float64)
    stats = snr_adversary_spread(grad, args.scales, args.draws,
                                 make_rng(args.seed, STREAM_USER))
    return _wrote(args.out, "noise_scale,mean_cos,std_cos", map(astuple, stats))


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    obj = build_objective(cfg.objective, args.seed)
    k = min(5, obj.dim) if args.k is None else args.k
    iters = min(60, obj.dim) if args.iters is None else args.iters
    check_spectrum_sizes(k, iters, obj.dim)   # before any training step
    x = trained_point(cfg, args.seed, obj, args.train_steps)
    est = lanczos_spectrum(obj, x, k, iters,
                           make_rng(args.seed, STREAM_DIRECTION))
    if est.breakdown:
        log.info("lanczos breakdown after %d iterations (subspace converged)",
                 est.lanczos_iters)
    rows = zip(range(len(est.top_eigenvalues)), est.top_eigenvalues, est.residuals)
    return _wrote(args.out, "index,ritz_value,residual", rows)


def cmd_slice(args) -> int:
    cfg = load_config(args.config)
    obj = build_objective(cfg.objective, args.seed)
    x = trained_point(cfg, args.seed, obj, args.train_steps)
    rng, flags = make_rng(args.seed, STREAM_DIRECTION), f"--radius {args.radius}"
    alphas = _no_overflow(np.linspace, -args.radius, args.radius, args.points, flags=flags)
    # each axis value is formatted once, not once per line it is on
    cells = list(map(fmt, alphas.tolist()))
    if args.two_d:
        dirs = [rng.standard_normal(obj.dim), rng.standard_normal(obj.dim)]
        grid = _no_overflow(landscape_slice, obj, x, dirs, alphas, alphas,
                            flags=flags).tolist()
        header = "alpha,beta,loss"
        lines = (f"{a},{b},{fmt(v)}" for a, row in zip(cells, grid) for b, v in zip(cells, row))
    else:
        vals = _no_overflow(landscape_slice, obj, x, [rng.standard_normal(obj.dim)], alphas,
                            flags=flags).tolist()
        header, lines = "alpha,loss", (f"{a},{fmt(v)}" for a, v in zip(cells, vals))
    _write_lines(args.out, header, lines)
    print(f"wrote {args.out}")
    return 0


def _sfw_gaps(rng, dim: int, rho: float, trials: int) -> np.ndarray:
    """Each trial's largest component gap and value gap between the one-step
    Frank-Wolfe adversary and the closed form, at a fresh gradient."""
    gaps = np.empty((trials, 2))
    for trial in range(trials):
        g = rng.standard_normal(dim)
        eps_sfw = sfw_solve(lambda bs, r: g, rho, 1, [1], [1.0], rng)
        eps_sam = sam_adversary(g, rho)
        gaps[trial] = np.max(np.abs(eps_sfw - eps_sam)), abs(g @ eps_sfw - g @ eps_sam)
    return gaps


def cmd_sfw_check(args) -> int:
    gaps = _no_overflow(_sfw_gaps, make_rng(args.seed, STREAM_USER), args.dim, args.rho,
                        args.trials, flags=f"--rho {args.rho}")
    if args.out:
        _write_csv(args.out, "trial,component_gap,value_gap",
                   ((trial, *row) for trial, row in enumerate(gaps.tolist())))
    max_comp, max_val = gaps.max(axis=0).tolist()
    print(f"max_component_gap={fmt(max_comp)} max_value_gap={fmt(max_val)}")
    return 0


def _reaches_stderr(logger: logging.Logger) -> bool:
    """Whether a handler that ``logger``'s INFO records propagate to already
    writes them to the current ``sys.stderr``."""
    while logger is not None:
        if any(isinstance(h, logging.StreamHandler) and h.stream is sys.stderr
               and h.level <= logging.INFO for h in logger.handlers):
            return True
        logger = logger.parent if logger.propagate else None
    return False


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # INFO lines reach stderr once, for this call only; the caller's logging
    # stays as it was, and its handlers still receive the records
    handler, level = logging.StreamHandler(sys.stderr), log.level
    if not _reaches_stderr(log):
        log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        if args.out is not None:   # every subcommand has --out
            _writable(args.out)
        return args.run(args)
    except (VassoOptError, OSError, ValueError) as e:
        print(f"vasso-opt: error: {e}", file=sys.stderr)
        return 2
    except Exception as e:   # any other failure is a runtime error too, not a traceback
        print(f"vasso-opt: error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    raise SystemExit(main())
