"""Experiment orchestration: strict JSON configs, seeded runs, metrics files.

Determinism contract: a (config, seed) pair maps to byte-identical metrics
output on every run, whichever other seeds run beside it.  All randomness
flows through named Philox streams keyed by the seed (see core): parameter
init, minibatch sampling, decoupled adversary batches, and Bernoulli gates
never share a stream.  ``run_seeds`` steps all seeds of a run in lockstep as
one (S, dim) stack.  Wallclock timing is inherently nondeterministic, so its
column is left empty unless explicitly requested.

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

from .core import (MAX_SEED, STREAM_ADV_BATCH, STREAM_BATCH, STREAM_GATE,
                   STREAM_INIT, STREAM_DATA, Schedule, make_rng, row_norms)
from .core import norm2  # noqa: F401  (benchmarks/test_checks.py reads harness.norm2)
from .errors import ConfigError, NonFiniteError, VassoOptError
from .objectives import (inject_label_noise, load_dataset_csv,
                         make_blobs_dataset, mlp_objective, MlpObjective,
                         NoisyQuadratic)
from .optimizers import OptimizerConfig, vasso_step

log = logging.getLogger("vasso_opt")
log.addHandler(logging.NullHandler())

# Each optimizer kind is a setting of the one step, vasso_step: theta=1 makes
# the slope the raw gradient (SAM), p=0 skips the second gradient (SGD) and
# p=1 always takes it (VASSO).  Knobs not fixed here come from the config;
# sam_db also draws an independent adversary batch (see run_seeds).
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


def _as_list(v, path) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(path, f"expected a non-empty list, got {v!r}")
    return v


def _number_list(v, path) -> list[float]:
    return [_as_number(x, path) for x in _as_list(v, path)]


def _parse_schedule(raw, path, T) -> Schedule:
    """A schedule over the T steps of a run; its horizon defaults to T."""
    f = _Fields(raw, path)
    kind = f.take("kind", required=True)
    base = _as_number(f.take("base", required=True), f"{path}.base", lo=0.0)
    horizon = f.take("horizon")
    f.finish()
    if horizon is None and kind in ("cosine", "theory"):
        horizon = T
    elif horizon is not None:
        horizon = _as_number(horizon, f"{path}.horizon", lo=1, integer=True)
        if horizon < T:   # a schedule has no value past its horizon
            raise ConfigError(f"{path}.horizon", f"must be >= T ({T}), got {horizon}")
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

    def derive(self, optimizer: dict | None = None, **fields) -> "ExperimentConfig":
        """A parsed copy with top-level ``fields`` and ``optimizer`` keys replaced."""
        d = self.to_dict()
        d.update(fields)
        d["optimizer"].update(optimizer or {})
        return parse_config(d)

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def optimizer_config(self) -> OptimizerConfig:
        o = self.optimizer
        lr = _parse_schedule(o["lr"], "optimizer.lr", self.T)
        rs = o.get("rho_schedule")
        rho_schedule = None if rs is None else \
            _parse_schedule(rs, "optimizer.rho_schedule", self.T)
        knobs = {"theta": o["theta"], "p": o["p"], **KIND_KNOBS[o["kind"]]}
        return OptimizerConfig(rho=o["rho"], lr=lr, rho_schedule=rho_schedule,
                               momentum=o["momentum"],
                               weight_decay=o["weight_decay"], **knobs)


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
            out["diag"] = _number_list(diag, "objective.diag")
        else:
            out["matrix"] = [_number_list(row, "objective.matrix")
                             for row in _as_list(matrix, "objective.matrix")]
            if any(len(row) != len(matrix) for row in matrix):
                raise ConfigError("objective.matrix", "must be square")
            A = np.array(out["matrix"])
            if not np.allclose(A, A.T, atol=1e-12):
                raise ConfigError("objective.matrix", "must be symmetric")
        dim = len(diag if diag is not None else matrix)
        out["sigma"] = _as_number(f.take("sigma", required=True), "objective.sigma", lo=0.0)
        b = f.take("b")
        if b is not None:
            out["b"] = _number_list(b, "objective.b")
            if len(b) != dim:
                raise ConfigError("objective.b", f"expected {dim} entries, got {len(b)}")
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
    seeds = [_as_number(s, "config.seeds", lo=0, hi=MAX_SEED, integer=True)
             for s in seeds]
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
    return build_objectives(obj_spec, [seed])[0]


def build_objectives(obj_spec: dict, seeds) -> list:
    """The objective of each seed, in order.

    A quadratic does not depend on the seed, so one instance serves them all;
    a ``dataset`` file is read once, and only its label noise and split are
    drawn per seed.
    """
    kind = obj_spec["kind"]
    if kind == "quadratic":
        A = obj_spec.get("diag")
        if A is None:
            A = np.asarray(obj_spec["matrix"], dtype=np.float64)
        else:
            A = np.asarray(A, dtype=np.float64)
        return [NoisyQuadratic(A, b=obj_spec.get("b"), sigma=obj_spec["sigma"])] * len(seeds)
    shared = None if kind == "blobs" else \
        load_dataset_csv(obj_spec["path"], header=obj_spec["header"])
    return [_network_objective(obj_spec, seed, shared) for seed in seeds]


def _network_objective(obj_spec: dict, seed: int, shared):
    """A blobs or ``dataset`` MLP objective; ``shared`` is the parsed file."""
    data_rng = make_rng(seed, STREAM_DATA)
    if shared is None:
        dataset = make_blobs_dataset(obj_spec["n_per_class"], obj_spec["n_classes"],
                                     obj_spec["dim"], obj_spec["separation"], data_rng)
        in_dim, n_classes = obj_spec["dim"], obj_spec["n_classes"]
    else:
        dataset = shared
        in_dim, n_classes = dataset.n_features, dataset.n_classes
    if obj_spec["label_noise"] > 0.0:
        if dataset.n_classes < 2:
            raise ConfigError("objective.label_noise",
                              f"needs at least 2 classes, the data has {dataset.n_classes}")
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


class _Gates:
    """The Bernoulli gate streams of a stack: ``random()`` draws once from each."""

    def __init__(self, rngs: list):
        self.rngs = rngs

    def random(self) -> np.ndarray:
        return np.array([rng.random() for rng in self.rngs])


# A diverging seed overflows before it is retired, and its row computes unread
# values until the run ends: an outcome the summary reports (aborted_at), not
# numpy warnings for the console.
@np.errstate(over="ignore", invalid="ignore")
def run_seeds(cfg: ExperimentConfig, seeds, record_wallclock: bool = False,
              keep_final_x: bool = False) -> list[tuple[list[MetricsRow], dict]]:
    """Run the seeds in lockstep; returns (metrics rows, summary) per seed.

    The seeds' parameters step together as one (S, dim) stack through
    ``vasso_step``.  Each seed keeps its own data, initial point and Philox
    streams, and its rows and summary equal those of a run of that seed
    alone, bit for bit.  A seed whose loss or gradient turns non-finite is
    retired at that step (``aborted_at``) and the others run on; its row
    stays in the stack until the run ends, but nothing it computes after
    that step is read.  ``keep_final_x`` stashes each final iterate in its
    summary under ``final_x`` (not JSON-serializable; for in-process callers
    only).  Recorded wallclock cells hold the elapsed time of the whole stack.
    """
    seeds = list(seeds)
    if not seeds:
        return []
    objs = build_objectives(cfg.objective, seeds)
    x = np.array([init_x(o, cfg.objective, s) for o, s in zip(objs, seeds)])
    ocfg = cfg.optimizer_config()
    samplers = [o.make_sampler(cfg.batch_size, make_rng(s, STREAM_BATCH))
                for o, s in zip(objs, seeds)]
    adv_samplers = None
    if cfg.optimizer["kind"] == "sam_db":
        adv_bs = cfg.optimizer.get("adv_batch_size") or cfg.batch_size
        adv_samplers = [o.make_sampler(adv_bs, make_rng(s, STREAM_ADV_BATCH))
                        for o, s in zip(objs, seeds)]
    gates = _Gates([make_rng(s, STREAM_GATE) for s in seeds])
    # a network's per-seed data is stacked; a quadratic serves every row
    obj = MlpObjective.stack(objs) if isinstance(objs[0], MlpObjective) else objs[0]

    n, T = len(seeds), cfg.T
    live = np.ones(n, dtype=bool)   # the seeds not yet retired
    # Each step writes one cell per seed straight into the (T, n) tables, the
    # rows of retired seeds included; a seed's rows read only the cells of its
    # first steps[i] steps.  Gradient norms are taken on the metrics cadence
    # and drift cells start at t=1; other cells stay blank.
    tables = {"loss": np.zeros((T, n)), "fg_norm": np.zeros((T, n)),
              "drift": np.zeros((T, n)), "evals": np.zeros((T, n), dtype=np.int64)}
    wallclock = [None] * T
    steps = [T] * n
    final_x = [None] * n

    def retire(rows, t: int) -> None:
        """The seeds in the mask ``rows`` stop at step t, at their current x."""
        for i in np.flatnonzero(rows):
            steps[i], final_x[i] = t, x[i]
        live[rows] = False

    state = buf = prev_eps = None
    epochs = hasattr(samplers[0], "epoch")   # every seed's sampler turns together
    last_epoch = samplers[0].epoch if epochs else None
    epoch_sum, epoch_len = np.zeros(n), 0
    t0 = time.perf_counter()

    for t in range(T):
        batch = np.array([sample() for sample in samplers])
        if epochs and samplers[0].epoch != last_epoch:
            if epoch_len:
                for i in np.flatnonzero(live):
                    log.info("seed=%d epoch=%d mean_batch_loss=%.6f",
                             seeds[i], last_epoch, epoch_sum[i] / epoch_len)
            last_epoch, epoch_sum, epoch_len = samplers[0].epoch, np.zeros(n), 0
        if t % cfg.metrics_every == 0:
            tables["fg_norm"][t] = row_norms(obj.full_grad(x))
        adv_batch = None if adv_samplers is None else \
            np.array([sample() for sample in adv_samplers])
        try:
            x_new, state, rep, buf = vasso_step(obj, x, state, batch, ocfg, gates,
                                                t=t, momentum_buffer=buf,
                                                adv_batch=adv_batch)
        except NonFiniteError:   # every row, so every live seed, failed at t
            retire(live, t)
            break
        tables["loss"][t] = rep.loss
        tables["evals"][t] = rep.grad_evals
        if prev_eps is not None:
            tables["drift"][t] = row_norms(rep.epsilon - prev_eps)
        prev_eps = rep.epsilon
        if epochs:
            epoch_sum += rep.loss
            epoch_len += 1
        if rep.failed is not None:   # a retired row may be flagged again
            retire(rep.failed & live, t)
        x = x_new
        if record_wallclock:
            wallclock[t] = (time.perf_counter() - t0) * 1e3

    finals = final_loss_metric(obj, x).tolist() if live.any() else None
    retire(live, T)
    results = []
    for i, seed in enumerate(seeds):
        k = steps[i]
        evals_cum = np.cumsum(tables["evals"][:k, i])   # ints, added in step order
        drifts = tables["drift"][:k, i]
        cells = zip(tables["loss"][:k, i].tolist(), tables["fg_norm"][:k, i].tolist(),
                    drifts.tolist(), evals_cum.tolist(), wallclock)
        rows = [MetricsRow(seed, t, loss, fg if t % cfg.metrics_every == 0 else None,
                           drift if t else None, evals, wall)
                for t, (loss, fg, drift, evals, wall) in enumerate(cells)]
        summary = {
            "seed": seed,
            "aborted": k < T,
            "aborted_at": k if k < T else None,
            "total_grad_evals": int(evals_cum[-1]) if k else 0,
            # left to right, as a running sum adds them
            "mean_drift": float(np.cumsum(drifts[1:])[-1]) / (k - 1) if k > 1 else 0.0,
            "final_loss": finals[i] if k == T else None,
        }
        if keep_final_x:
            summary["final_x"] = final_x[i]
        log.info("seed=%d done: steps=%d final_loss=%s grad_evals=%d",
                 seed, k, fmt(summary["final_loss"]), summary["total_grad_evals"])
        results.append((rows, summary))
    return results


def run_seed(cfg: ExperimentConfig, seed: int, record_wallclock: bool = False,
             keep_final_x: bool = False) -> tuple[list[MetricsRow], dict]:
    """Run one seed: ``run_seeds`` with a stack of one."""
    return run_seeds(cfg, [seed], record_wallclock, keep_final_x)[0]


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
    results = run_seeds(cfg, cfg.seeds, record_wallclock)
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
    summaries_a: list[dict]   # each seed's run_seeds summary, with final_x
    summaries_b: list[dict]


def sign_test_p_value(wins_a: int, wins_b: int) -> float:
    """Exact two-sided sign-test p-value of wins_a against wins_b at p=1/2.

    Twice the probability that n = wins_a + wins_b fair coin flips give
    min(wins_a, wins_b) or fewer heads, capped at 1.  The tail is summed in
    integers and divided once, so the result is the exact value correctly
    rounded to a float; n = 0 gives 1.0.
    """
    n = wins_a + wins_b
    tail = sum(math.comb(n, i) for i in range(min(wins_a, wins_b) + 1))
    return min(1.0, 2 * tail / 2 ** n)


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
    summaries_a = [s for _, s in run_seeds(cfg_a, seeds, keep_final_x=True)]
    summaries_b = [s for _, s in run_seeds(cfg_b, seeds, keep_final_x=True)]
    for summary in (s for pair in zip(summaries_a, summaries_b) for s in pair):
        if summary["aborted"]:
            raise NonFiniteError(f"seed {summary['seed']} aborted",
                                 t=summary["aborted_at"])
    values_a = [s[metric] for s in summaries_a]
    values_b = [s[metric] for s in summaries_b]
    diffs = [a - b for a, b in zip(values_a, values_b)]
    wins_a = sum(1 for d in diffs if d < 0)
    wins_b = sum(1 for d in diffs if d > 0)
    ties = len(diffs) - wins_a - wins_b
    return PairedCompareResult(metric, seeds, values_a, values_b, diffs,
                               wins_a, wins_b, ties, sign_test_p_value(wins_a, wins_b),
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


def tradeoff_sweep(base_cfg: ExperimentConfig, p_values, seeds,
                   include_esam_analog: bool = True,
                   record_wallclock: bool = False) -> list[TradeoffRow]:
    """Loss/computation table across gate probabilities.

    Rows cover eVASSO at each p (p=1 is VASSO), the eSAM analog (theta=1,
    same Bernoulli gating) when requested, and one ungated SAM reference row.
    Every arm is parsed before any runs, so a bad seed or p fails first.
    Wallclock is measured only on request and is never deterministic.
    """
    ps = sorted(set(float(p) for p in p_values) | {1.0})
    seeds = list(seeds)

    def mean_row(name: str, cfg: ExperimentConfig, p: float | None) -> TradeoffRow:
        t0 = time.perf_counter()
        results = run_seeds(cfg, seeds)
        wall = (time.perf_counter() - t0) * 1e3 / len(seeds) if record_wallclock else None
        agg = _aggregate([s for _, s in results])
        if agg["n_aborted"]:
            raise NonFiniteError(f"a {name} run aborted during the tradeoff sweep")
        return TradeoffRow(name, p, agg["mean_final_loss"],
                           agg["mean_total_grad_evals"], wall)

    def arm(**knobs) -> ExperimentConfig:
        # adv_batch_size applies to sam_db only, which no arm is
        return base_cfg.derive(dict(knobs, adv_batch_size=None), seeds=seeds,
                               output_path=None)

    arms = []
    for p in ps:
        arms.append(("evasso", arm(kind="evasso", p=p), p))
        if include_esam_analog:
            arms.append(("esam", arm(kind="evasso", p=p, theta=1.0), p))
    arms.append(("sam", arm(kind="sam"), None))
    return [mean_row(name, cfg, p) for name, cfg, p in arms]
