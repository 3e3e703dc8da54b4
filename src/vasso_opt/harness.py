"""Experiment orchestration: strict JSON configs, seeded runs, metrics files.

Determinism contract: a (config, seed) pair maps to byte-identical metrics
output on every run.  All randomness flows through named Philox streams keyed
by the seed (see core): parameter init, minibatch sampling, decoupled
adversary batches, and Bernoulli gates never share a stream.  Wallclock
timing is inherently nondeterministic, so its column is left empty unless
explicitly requested.

Config schema (JSON, unknown keys are errors)::

    {
      "objective": {"kind": "quadratic", "diag": [...] | "matrix": [[...]],
                    "sigma": 1.0, "b": [...]?, "init_scale": 1.0?}
                 | {"kind": "blobs", "n_per_class": 64, "n_classes": 2?,
                    "dim": 2, "separation": 3.0, "label_noise": 0.0?,
                    "hidden": [8], "activation": "tanh"?,
                    "holdout_fraction": 0.0?}
                 | {"kind": "dataset", "path": "d.csv", "header": false?,
                    "hidden": [8], "activation": "tanh"?, "label_noise": 0.0?,
                    "holdout_fraction": 0.0?},
      "optimizer": {"kind": "sgd|sam|vasso|evasso|sam_db", "rho": 0.05?,
                    "theta": 0.2?, "p": 1.0?, "lr": {"kind": "constant",
                    "base": 0.01, "horizon": null?}, "rho_schedule": {...}?,
                    "momentum": 0.0?, "weight_decay": 0.0?,
                    "adv_batch_size": null? (sam_db only)},
      "T": 1000, "batch_size": 8, "seeds": [0, 1],
      "metrics_every": 1?, "output_path": "metrics.csv"?
    }

The harness "final_loss" metric is the held-out loss when the objective has a
held-out split, and the full (noise-free) objective value otherwise.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.stats import binomtest

from .core import (STREAM_ADV_BATCH, STREAM_BATCH, STREAM_GATE, STREAM_INIT,
                   STREAM_DATA, Schedule, make_rng, norm2)
from .errors import ConfigError, NonFiniteError, VassoOptError
from .objectives import (inject_label_noise, load_dataset_csv,
                         make_blobs_dataset, mlp_objective, NoisyQuadratic)
from .optimizers import OptimizerConfig, vasso_step

log = logging.getLogger("vasso_opt")
log.addHandler(logging.NullHandler())

# Each optimizer kind is a setting of the one step, vasso_step: theta=1 makes
# the slope the raw gradient (SAM), p=0 skips the second gradient (SGD) and
# p=1 always takes it (VASSO).  Knobs not fixed here come from the config;
# sam_db also draws an independent adversary batch (see run_seed).
KIND_KNOBS = {"sgd": {"p": 0.0}, "sam": {"theta": 1.0, "p": 1.0},
              "vasso": {"p": 1.0}, "evasso": {},
              "sam_db": {"theta": 1.0, "p": 1.0}}
OPTIMIZER_KINDS = tuple(KIND_KNOBS)
OBJECTIVE_KINDS = ("quadratic", "blobs", "dataset")

METRICS_HEADER = "seed,t,loss,full_grad_norm,eps_drift,grad_evals_cum,wallclock_ms"


def fmt(v) -> str:
    """Shortest round-trip decimal for floats; empty string for missing cells."""
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# strict config parsing


class _Fields:
    """Tracks consumed keys of one JSON object and rejects leftovers."""

    def __init__(self, raw: dict, path: str):
        if not isinstance(raw, dict):
            raise ConfigError(path, f"expected an object, got {type(raw).__name__}")
        self.raw = raw
        self.path = path
        self.seen = set()

    def take(self, key, required=False, default=None):
        self.seen.add(key)
        if key not in self.raw:
            if required:
                raise ConfigError(f"{self.path}.{key}", "missing required field")
            return default
        return self.raw[key]

    def finish(self):
        unknown = set(self.raw) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(f"{self.path}.{key}", "unknown key")


def _as_number(v, path, lo=None, hi=None, integer=False):
    ok = isinstance(v, int) and not isinstance(v, bool) if integer else \
        isinstance(v, (int, float)) and not isinstance(v, bool)
    if not ok:
        raise ConfigError(path, f"expected {'an integer' if integer else 'a number'}, got {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(path, f"must be finite, got {v}")
    if lo is not None and v < lo:
        raise ConfigError(path, f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(path, f"must be <= {hi}, got {v}")
    return int(v) if integer else float(v)


def _parse_schedule(raw, path, default_horizon) -> Schedule:
    f = _Fields(raw, path)
    kind = f.take("kind", required=True)
    base = _as_number(f.take("base", required=True), f"{path}.base", lo=0.0)
    horizon = f.take("horizon")
    f.finish()
    if horizon is None and kind in ("cosine", "theory"):
        horizon = default_horizon
    elif horizon is not None:
        horizon = _as_number(horizon, f"{path}.horizon", lo=1, integer=True)
    try:
        return Schedule(kind, base, horizon)
    except VassoOptError as e:
        raise ConfigError(path, str(e)) from e


@dataclass
class ExperimentConfig:
    objective: dict
    optimizer: dict
    T: int
    batch_size: int
    seeds: list[int]
    metrics_every: int = 1
    output_path: str | None = None

    def to_dict(self) -> dict:
        d = {"objective": dict(self.objective), "optimizer": dict(self.optimizer),
             "T": self.T, "batch_size": self.batch_size, "seeds": list(self.seeds),
             "metrics_every": self.metrics_every}
        if self.output_path is not None:
            d["output_path"] = self.output_path
        return d

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def optimizer_config(self, seed: int) -> OptimizerConfig:
        o = self.optimizer
        lr = _parse_schedule(o["lr"], "optimizer.lr", self.T)
        rs = o.get("rho_schedule")
        rho_schedule = None if rs is None else \
            _parse_schedule(rs, "optimizer.rho_schedule", self.T)
        knobs = {"theta": o["theta"], "p": o["p"], **KIND_KNOBS[o["kind"]]}
        return OptimizerConfig(rho=o["rho"], lr=lr, rho_schedule=rho_schedule,
                               momentum=o["momentum"],
                               weight_decay=o["weight_decay"], seed=seed, **knobs)


def _parse_objective(raw) -> dict:
    f = _Fields(raw, "objective")
    kind = f.take("kind", required=True)
    if kind not in OBJECTIVE_KINDS:
        raise ConfigError("objective.kind", f"must be one of {OBJECTIVE_KINDS}, got {kind!r}")
    out = {"kind": kind}
    if kind == "quadratic":
        diag = f.take("diag")
        matrix = f.take("matrix")
        if (diag is None) == (matrix is None):
            raise ConfigError("objective", "give exactly one of 'diag' or 'matrix'")
        if diag is not None:
            out["diag"] = [_as_number(v, "objective.diag") for v in diag]
        else:
            out["matrix"] = [[_as_number(v, "objective.matrix") for v in row]
                             for row in matrix]
        out["sigma"] = _as_number(f.take("sigma", required=True), "objective.sigma", lo=0.0)
        b = f.take("b")
        if b is not None:
            out["b"] = [_as_number(v, "objective.b") for v in b]
        out["init_scale"] = _as_number(f.take("init_scale", default=1.0),
                                       "objective.init_scale")
    else:
        if kind == "blobs":
            out["n_per_class"] = _as_number(f.take("n_per_class", required=True),
                                            "objective.n_per_class", lo=1, integer=True)
            out["n_classes"] = _as_number(f.take("n_classes", default=2),
                                          "objective.n_classes", lo=2, integer=True)
            out["dim"] = _as_number(f.take("dim", required=True),
                                    "objective.dim", lo=1, integer=True)
            out["separation"] = _as_number(f.take("separation", required=True),
                                           "objective.separation")
        else:
            path = f.take("path", required=True)
            if not isinstance(path, str):
                raise ConfigError("objective.path", "expected a string")
            out["path"] = path
            header = f.take("header", default=False)
            if not isinstance(header, bool):
                raise ConfigError("objective.header", "expected a boolean")
            out["header"] = header
        hidden = f.take("hidden", required=True)
        if not isinstance(hidden, list):
            raise ConfigError("objective.hidden", "expected a list of layer widths")
        out["hidden"] = [_as_number(v, "objective.hidden", lo=1, integer=True)
                         for v in hidden]
        activation = f.take("activation", default="tanh")
        if activation not in ("relu", "tanh"):
            raise ConfigError("objective.activation", f"must be relu or tanh, got {activation!r}")
        out["activation"] = activation
        out["label_noise"] = _as_number(f.take("label_noise", default=0.0),
                                        "objective.label_noise", lo=0.0, hi=1.0)
        out["holdout_fraction"] = _as_number(f.take("holdout_fraction", default=0.0),
                                             "objective.holdout_fraction", lo=0.0, hi=1.0)
    f.finish()
    return out


def _parse_optimizer(raw, T: int) -> dict:
    f = _Fields(raw, "optimizer")
    kind = f.take("kind", required=True)
    if kind not in OPTIMIZER_KINDS:
        raise ConfigError("optimizer.kind", f"must be one of {OPTIMIZER_KINDS}, got {kind!r}")
    out = {"kind": kind}
    out["rho"] = _as_number(f.take("rho", default=0.05), "optimizer.rho", lo=0.0)
    theta = _as_number(f.take("theta", default=0.2), "optimizer.theta")
    if not 0.0 < theta <= 1.0:
        raise ConfigError("optimizer.theta", f"must be in (0,1], got {theta}")
    out["theta"] = theta
    out["p"] = _as_number(f.take("p", default=1.0), "optimizer.p", lo=0.0, hi=1.0)
    lr = f.take("lr", required=True)
    _parse_schedule(lr, "optimizer.lr", T)   # validate now, rebuild per-run
    out["lr"] = lr
    rs = f.take("rho_schedule")
    if rs is not None:
        _parse_schedule(rs, "optimizer.rho_schedule", T)
    out["rho_schedule"] = rs
    momentum = _as_number(f.take("momentum", default=0.0), "optimizer.momentum", lo=0.0)
    if momentum >= 1.0:
        raise ConfigError("optimizer.momentum", f"must be in [0,1), got {momentum}")
    out["momentum"] = momentum
    out["weight_decay"] = _as_number(f.take("weight_decay", default=0.0),
                                     "optimizer.weight_decay", lo=0.0)
    abs_ = f.take("adv_batch_size")
    if abs_ is not None and kind != "sam_db":
        raise ConfigError("optimizer.adv_batch_size",
                          f"applies only to kind 'sam_db', not {kind!r}")
    out["adv_batch_size"] = None if abs_ is None else \
        _as_number(abs_, "optimizer.adv_batch_size", lo=1, integer=True)
    f.finish()
    return out


def parse_config(raw: dict) -> ExperimentConfig:
    f = _Fields(raw, "config")
    objective = _parse_objective(f.take("objective", required=True))
    T = _as_number(f.take("T", required=True), "config.T", lo=1, integer=True)
    optimizer = _parse_optimizer(f.take("optimizer", required=True), T)
    batch_size = _as_number(f.take("batch_size", required=True),
                            "config.batch_size", lo=1, integer=True)
    seeds = f.take("seeds", required=True)
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("config.seeds", "expected a non-empty list")
    seeds = [_as_number(s, "config.seeds", lo=0, integer=True) for s in seeds]
    if len(set(seeds)) != len(seeds):
        raise ConfigError("config.seeds", "seeds must be distinct")
    metrics_every = _as_number(f.take("metrics_every", default=1),
                               "config.metrics_every", lo=1, integer=True)
    output_path = f.take("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("config.output_path", "expected a string")
    f.finish()
    return ExperimentConfig(objective, optimizer, T, batch_size, seeds,
                            metrics_every, output_path)


def parse_config_text(text: str) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"invalid JSON: {e}") from e
    return parse_config(raw)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())


# ---------------------------------------------------------------------------
# objective construction


def build_objective(obj_spec: dict, seed: int):
    kind = obj_spec["kind"]
    if kind == "quadratic":
        A = obj_spec.get("diag")
        if A is None:
            A = np.asarray(obj_spec["matrix"], dtype=np.float64)
        else:
            A = np.asarray(A, dtype=np.float64)
        return NoisyQuadratic(A, b=obj_spec.get("b"), sigma=obj_spec["sigma"])
    data_rng = make_rng(seed, STREAM_DATA)
    if kind == "blobs":
        dataset = make_blobs_dataset(obj_spec["n_per_class"], obj_spec["n_classes"],
                                     obj_spec["dim"], obj_spec["separation"], data_rng)
        in_dim, n_classes = obj_spec["dim"], obj_spec["n_classes"]
    else:
        dataset = load_dataset_csv(obj_spec["path"], header=obj_spec["header"])
        in_dim, n_classes = dataset.n_features, dataset.n_classes
    if obj_spec["label_noise"] > 0.0:
        dataset = inject_label_noise(dataset, obj_spec["label_noise"], data_rng)
    layers = [in_dim] + list(obj_spec["hidden"]) + [n_classes]
    obj = mlp_objective(layers, obj_spec["activation"], dataset,
                        holdout_fraction=obj_spec["holdout_fraction"], rng=data_rng)
    if obj.n_samples == 0:
        raise ConfigError("objective.holdout_fraction",
                          f"holds out all {dataset.n_samples} rows, leaving none to train on")
    return obj


def init_x(obj, obj_spec: dict, seed: int) -> np.ndarray:
    rng = make_rng(seed, STREAM_INIT)
    if hasattr(obj, "init_params"):
        return obj.init_params(rng)
    return obj_spec.get("init_scale", 1.0) * rng.standard_normal(obj.dim)


def final_loss_metric(obj, x) -> float:
    if getattr(obj, "has_holdout", lambda: False)():
        return obj.holdout_loss(x)
    return obj.full_loss(x)


# ---------------------------------------------------------------------------
# the training loop


@dataclass
class MetricsRow:
    seed: int
    t: int
    loss: float
    full_grad_norm: float | None
    eps_drift: float | None
    grad_evals_cum: int
    wallclock_ms: float | None

    def to_csv(self) -> str:
        return ",".join(fmt(v) for v in (self.seed, self.t, self.loss,
                                         self.full_grad_norm, self.eps_drift,
                                         self.grad_evals_cum, self.wallclock_ms))


def run_seed(cfg: ExperimentConfig, seed: int, record_wallclock: bool = False,
             keep_final_x: bool = False) -> tuple[list[MetricsRow], dict]:
    """Run the full loop for one seed; returns (metrics rows, summary dict).

    ``keep_final_x`` stashes the final iterate in the summary under
    ``final_x`` (not JSON-serializable; for in-process callers only).
    """
    obj = build_objective(cfg.objective, seed)
    x = init_x(obj, cfg.objective, seed)
    ocfg = cfg.optimizer_config(seed)
    sampler = obj.make_sampler(cfg.batch_size, make_rng(seed, STREAM_BATCH))
    adv_sampler = None
    if cfg.optimizer["kind"] == "sam_db":
        adv_bs = cfg.optimizer.get("adv_batch_size") or cfg.batch_size
        adv_sampler = obj.make_sampler(adv_bs, make_rng(seed, STREAM_ADV_BATCH))
    gate_rng = make_rng(seed, STREAM_GATE)

    state = None
    buf = None
    prev_eps = None
    grad_cum = 0
    drift_sum = 0.0
    drift_count = 0
    rows: list[MetricsRow] = []
    aborted_at = None
    t0 = time.perf_counter()
    last_epoch = getattr(sampler, "epoch", None)
    epoch_losses: list[float] = []

    for t in range(cfg.T):
        batch = sampler()
        if hasattr(sampler, "epoch") and sampler.epoch != last_epoch:
            if epoch_losses:
                log.info("seed=%d epoch=%d mean_batch_loss=%.6f",
                         seed, last_epoch, sum(epoch_losses) / len(epoch_losses))
            last_epoch = sampler.epoch
            epoch_losses = []
        fg_norm = norm2(obj.full_grad(x)) if t % cfg.metrics_every == 0 else None
        adv_batch = None if adv_sampler is None else adv_sampler()
        try:
            x, state, rep, buf = vasso_step(obj, x, state, batch, ocfg, gate_rng,
                                            t=t, momentum_buffer=buf,
                                            adv_batch=adv_batch)
        except NonFiniteError:
            aborted_at = t
            break
        grad_cum += rep.grad_evals
        if prev_eps is None:
            drift = None
        else:
            drift = norm2(rep.epsilon - prev_eps)
            drift_sum += drift
            drift_count += 1
        prev_eps = rep.epsilon
        epoch_losses.append(rep.loss)
        wallclock = (time.perf_counter() - t0) * 1e3 if record_wallclock else None
        rows.append(MetricsRow(seed, t, rep.loss, fg_norm, drift, grad_cum, wallclock))

    summary = {
        "seed": seed,
        "aborted": aborted_at is not None,
        "aborted_at": aborted_at,
        "total_grad_evals": grad_cum,
        "mean_drift": (drift_sum / drift_count) if drift_count else 0.0,
        "final_loss": None if aborted_at is not None else final_loss_metric(obj, x),
    }
    if keep_final_x:
        summary["final_x"] = x
    log.info("seed=%d done: steps=%d final_loss=%s grad_evals=%d",
             seed, len(rows), fmt(summary["final_loss"]), grad_cum)
    return rows, summary


@dataclass
class ExperimentResult:
    summaries: list[dict]
    aggregate: dict
    metrics_path: str | None
    summary_path: str | None


def _aggregate(summaries: list[dict]) -> dict:
    done = [s for s in summaries if not s["aborted"]]
    agg = {"n_seeds": len(summaries), "n_aborted": len(summaries) - len(done)}
    if done:
        finals = [s["final_loss"] for s in done]
        agg["mean_final_loss"] = sum(finals) / len(finals)
        agg["min_final_loss"] = min(finals)
        agg["max_final_loss"] = max(finals)
        agg["mean_total_grad_evals"] = sum(s["total_grad_evals"] for s in done) / len(done)
        agg["mean_drift"] = sum(s["mean_drift"] for s in done) / len(done)
    return agg


def run_experiment(cfg: ExperimentConfig,
                   record_wallclock: bool = False) -> ExperimentResult:
    """Run every seed, write the metrics CSV and a JSON summary.

    Output goes to cfg.output_path (the summary beside it with a
    ``.summary.json`` suffix); passing output_path=None skips file output.
    """
    results = [run_seed(cfg, s, record_wallclock) for s in cfg.seeds]
    summaries = [summary for _, summary in results]
    aggregate = _aggregate(summaries)
    metrics_path = summary_path = None
    if cfg.output_path is not None:
        metrics_path = cfg.output_path
        summary_path = cfg.output_path + ".summary.json"
        with open(metrics_path, "w") as fh:
            fh.write(METRICS_HEADER + "\n")
            for rows, _ in results:
                for row in rows:
                    fh.write(row.to_csv() + "\n")
        with open(summary_path, "w") as fh:
            json.dump({"config": cfg.to_dict(), "per_seed": summaries,
                       "aggregate": aggregate}, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return ExperimentResult(summaries, aggregate, metrics_path, summary_path)


# ---------------------------------------------------------------------------
# paired comparisons and the computation tradeoff sweep


@dataclass
class PairedCompareResult:
    metric: str
    seeds: list[int]
    values_a: list[float]
    values_b: list[float]
    diffs: list[float]
    wins_a: int
    wins_b: int
    ties: int
    p_value: float
    summaries_a: list[dict]   # each seed's run_seed summary, with final_x
    summaries_b: list[dict]


def _seed_summary(cfg: ExperimentConfig, seed: int) -> dict:
    _, summary = run_seed(cfg, seed, keep_final_x=True)
    if summary["aborted"]:
        raise NonFiniteError(f"seed {seed} aborted", t=summary["aborted_at"])
    return summary


def paired_compare(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig, seeds,
                   metric: str = "final_loss") -> PairedCompareResult:
    """Two-sided sign test of metric_a vs metric_b over paired seeds.

    The configs must agree on everything except the optimizer spec.  Lower is
    better for both metrics; a win for A on a seed means metric_a < metric_b.
    Ties are excluded from the test.  The result keeps every seed's summary,
    final iterate included, so callers can derive other metrics without
    rerunning.
    """
    if metric not in ("final_loss", "mean_drift"):
        raise ConfigError("metric", f"must be final_loss or mean_drift, got {metric!r}")
    da, db = cfg_a.to_dict(), cfg_b.to_dict()
    da.pop("optimizer"), db.pop("optimizer")
    da.pop("output_path", None), db.pop("output_path", None)
    if da != db:
        raise ConfigError("config", "paired configs may differ only in the optimizer spec")
    seeds = list(seeds)
    summaries_a, summaries_b = [], []
    for seed in seeds:
        summaries_a.append(_seed_summary(cfg_a, seed))
        summaries_b.append(_seed_summary(cfg_b, seed))
    values_a = [s[metric] for s in summaries_a]
    values_b = [s[metric] for s in summaries_b]
    diffs = [a - b for a, b in zip(values_a, values_b)]
    wins_a = sum(1 for d in diffs if d < 0)
    wins_b = sum(1 for d in diffs if d > 0)
    ties = len(diffs) - wins_a - wins_b
    n_eff = wins_a + wins_b
    p_value = binomtest(wins_a, n_eff, 0.5).pvalue if n_eff else 1.0
    return PairedCompareResult(metric, seeds, values_a, values_b, diffs,
                               wins_a, wins_b, ties, float(p_value),
                               summaries_a, summaries_b)


@dataclass
class TradeoffRow:
    optimizer: str        # evasso | esam | sam
    p: float | None       # gate probability; None for the SAM reference row
    mean_final_loss: float
    mean_grad_evals: float
    mean_wallclock_ms: float | None

    def to_csv(self) -> str:
        return ",".join(fmt(v) for v in (self.optimizer, self.p, self.mean_final_loss,
                                         self.mean_grad_evals, self.mean_wallclock_ms))


TRADEOFF_HEADER = "optimizer,p,mean_final_loss,mean_grad_evals,mean_wallclock_ms"


def _with_optimizer(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    opt = dict(cfg.optimizer)
    opt.update(overrides)
    return ExperimentConfig(cfg.objective, opt, cfg.T, cfg.batch_size,
                            list(cfg.seeds), cfg.metrics_every, None)


def tradeoff_sweep(base_cfg: ExperimentConfig, p_values, seeds,
                   include_esam_analog: bool = True,
                   record_wallclock: bool = False) -> list[TradeoffRow]:
    """Loss/computation table across gate probabilities.

    Rows cover eVASSO at each p (p=1 is VASSO), the eSAM analog (theta=1,
    same Bernoulli gating) when requested, and one ungated SAM reference row.
    Wallclock is measured only on request and is never deterministic.
    """
    ps = sorted(set(float(p) for p in p_values) | {1.0})
    seeds = list(seeds)
    rows = []

    def mean_row(name: str, cfg: ExperimentConfig, p: float | None) -> TradeoffRow:
        t0 = time.perf_counter()
        results = [run_seed(cfg, s) for s in seeds]
        wall = (time.perf_counter() - t0) * 1e3 / len(seeds) if record_wallclock else None
        finals = [s["final_loss"] for _, s in results]
        evals = [s["total_grad_evals"] for _, s in results]
        if any(v is None for v in finals):
            raise NonFiniteError(f"a {name} run aborted during the tradeoff sweep")
        return TradeoffRow(name, p, sum(finals) / len(finals),
                           sum(evals) / len(evals), wall)

    for p in ps:
        rows.append(mean_row("evasso", _with_optimizer(base_cfg, kind="evasso", p=p), p))
        if include_esam_analog:
            rows.append(mean_row("esam",
                                 _with_optimizer(base_cfg, kind="evasso", p=p, theta=1.0),
                                 p))
    rows.append(mean_row("sam", _with_optimizer(base_cfg, kind="sam"), None))
    return rows
