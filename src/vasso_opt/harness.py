"""Experiment orchestration: strict JSON configs, seeded runs, metrics files.

Determinism contract: a (config, seed) pair maps to byte-identical metrics
output on every run, whichever other seeds run beside it.  All randomness
flows through named Philox streams keyed by the seed (see core): parameter
init, minibatch sampling, decoupled adversary batches, and Bernoulli gates
never share a stream.  ``run_seeds`` steps all seeds of a run in lockstep as
one (S, dim) stack, and ``run_arms`` steps the seeds of several configs that
differ only in the optimizer spec (the arms) as rows of one (arms*S, dim)
stack; ``paired_compare`` and ``tradeoff_sweep`` run their arms that way.
Wallclock timing is inherently nondeterministic, so its column is left empty
unless explicitly requested; a recorded cell is the elapsed time of the
whole stack, and ``tradeoff_sweep`` then times each arm in a stack of its
own, so its ``mean_wallclock_ms`` stays per arm.

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

``OBJECTIVES`` maps each objective kind to its class, which answers the whole
surface the engine reads (``build``, ``stack``, ``init_params``,
``final_loss``, ...; see objectives).  The harness "final_loss" metric is the
objective's ``final_loss``: the held-out loss when it has a held-out split,
and the full (noise-free) objective value otherwise.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import time
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from .core import (MAX_SEED, STREAM_ADV_BATCH, STREAM_BATCH, STREAM_GATE,
                   STREAM_INIT, Schedule, block_steps, make_rng, row_norms)
from .core import norm2  # noqa: F401  (benchmarks/test_checks.py reads harness.norm2)
from .errors import ConfigError, NonFiniteError, VassoOptError
from .objectives import MlpObjective, NoisyQuadratic
from .optimizers import ArmKnobs, OptimizerConfig, vasso_step

log = logging.getLogger("vasso_opt")
log.addHandler(logging.NullHandler())

# Each optimizer kind is a setting of the one step, vasso_step: theta=1 makes
# the slope the raw gradient (SAM), p=0 skips the second gradient (SGD) and
# p=1 always takes it (VASSO).  Knobs not fixed here come from the config;
# sam_db also draws an independent adversary batch (see _lockstep).
KIND_KNOBS = {"sgd": {"p": 0.0}, "sam": {"theta": 1.0, "p": 1.0},
              "vasso": {"p": 1.0}, "evasso": {},
              "sam_db": {"theta": 1.0, "p": 1.0}}
OPTIMIZER_KINDS = tuple(KIND_KNOBS)
# The one map from an objective kind to code: the class that builds, stacks
# and initialises the kind's objectives (see objectives).
OBJECTIVES = {"quadratic": NoisyQuadratic, "blobs": MlpObjective, "dataset": MlpObjective}
OBJECTIVE_KINDS = tuple(OBJECTIVES)

METRICS_HEADER = "seed,t,loss,full_grad_norm,eps_drift,grad_evals_cum,wallclock_ms"


def fmt(v) -> str:
    """Shortest round-trip decimal for any float; empty string for missing cells."""
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


# ---------------------------------------------------------------------------
# strict config parsing


_REQUIRED = object()   # the default of a key that has none: it must be given


class _Fields:
    """Tracks consumed keys of one JSON object and rejects leftovers.

    Each key is named once: ``take`` returns its value (a key is required
    exactly when it has no default), and ``number`` and ``typed`` check it
    too, naming it by its dotted path, the object's path and the key.
    """

    def __init__(self, raw: dict, path: str):
        if not isinstance(raw, dict):
            raise ConfigError(path, f"expected an object, got {type(raw).__name__}")
        self.raw = raw
        self.path = path
        self.seen = set()

    def take(self, key, default=_REQUIRED):
        self.seen.add(key)
        if key in self.raw:
            return self.raw[key]
        if default is _REQUIRED:
            raise ConfigError(f"{self.path}.{key}", "missing required field")
        return default

    def number(self, key, default=_REQUIRED, **bounds):
        """A finite number within ``bounds`` (``_as_number``); null, if that is the default."""
        v = self.take(key, default)
        if v is None and default is None:
            return None
        return _as_number(v, f"{self.path}.{key}", **bounds)

    def typed(self, key, type_, what: str, default=_REQUIRED):
        """The key's value, which must be an instance of ``type_`` (``what``, in errors)."""
        v = self.take(key, default)
        if not isinstance(v, type_):
            raise ConfigError(f"{self.path}.{key}", f"expected {what}")
        return v

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
    kind = f.take("kind")
    base = f.number("base", lo=0.0)
    horizon = f.take("horizon", None)
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
        return asdict(self)

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
    kind = f.take("kind")
    if kind not in OBJECTIVE_KINDS:
        raise ConfigError("objective.kind", f"must be one of {OBJECTIVE_KINDS}, got {kind!r}")
    out = {"kind": kind}
    if kind == "quadratic":
        diag = f.take("diag", None)
        matrix = f.take("matrix", None)
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
        out["sigma"] = f.number("sigma", lo=0.0)
        b = f.take("b", None)
        if b is not None:
            out["b"] = _number_list(b, "objective.b")
            if len(b) != dim:
                raise ConfigError("objective.b", f"expected {dim} entries, got {len(b)}")
        out["init_scale"] = f.number("init_scale", 1.0)
    else:
        if kind == "blobs":
            out["n_per_class"] = f.number("n_per_class", lo=1, integer=True)
            out["n_classes"] = f.number("n_classes", 2, lo=2, integer=True)
            out["dim"] = f.number("dim", lo=1, integer=True)
            out["separation"] = f.number("separation")
        else:
            out["path"] = f.typed("path", str, "a string")
            out["header"] = f.typed("header", bool, "a boolean", False)
        out["hidden"] = [_as_number(v, "objective.hidden", lo=1, integer=True)
                         for v in f.typed("hidden", list, "a list of layer widths")]
        activation = f.take("activation", "tanh")
        if activation not in ("relu", "tanh"):
            raise ConfigError("objective.activation", f"must be relu or tanh, got {activation!r}")
        out["activation"] = activation
        out["label_noise"] = f.number("label_noise", 0.0, lo=0.0, hi=1.0)
        out["holdout_fraction"] = f.number("holdout_fraction", 0.0, lo=0.0, hi=1.0)
    f.finish()
    return out


def _parse_optimizer(raw, T: int) -> dict:
    f = _Fields(raw, "optimizer")
    kind = f.take("kind")
    if kind not in OPTIMIZER_KINDS:
        raise ConfigError("optimizer.kind", f"must be one of {OPTIMIZER_KINDS}, got {kind!r}")
    out = {"kind": kind}
    out["rho"] = f.number("rho", 0.05, lo=0.0)
    theta = f.number("theta", 0.2)
    if not 0.0 < theta <= 1.0:
        raise ConfigError("optimizer.theta", f"must be in (0,1], got {theta}")
    out["theta"] = theta
    out["p"] = f.number("p", 1.0, lo=0.0, hi=1.0)
    lr = f.take("lr")
    _parse_schedule(lr, "optimizer.lr", T)   # validate now, rebuild per-run
    out["lr"] = lr
    rs = f.take("rho_schedule", None)
    if rs is not None:
        _parse_schedule(rs, "optimizer.rho_schedule", T)
    out["rho_schedule"] = rs
    momentum = f.number("momentum", 0.0, lo=0.0)
    if momentum >= 1.0:
        raise ConfigError("optimizer.momentum", f"must be in [0,1), got {momentum}")
    out["momentum"] = momentum
    out["weight_decay"] = f.number("weight_decay", 0.0, lo=0.0)
    # the kind check comes first: a stray size is misplaced, whatever its type
    if kind != "sam_db" and f.take("adv_batch_size", None) is not None:
        raise ConfigError("optimizer.adv_batch_size",
                          f"applies only to kind 'sam_db', not {kind!r}")
    out["adv_batch_size"] = f.number("adv_batch_size", None, lo=1, integer=True)
    f.finish()
    return out


def parse_config(raw: dict) -> ExperimentConfig:
    f = _Fields(raw, "config")
    objective = _parse_objective(f.take("objective"))
    T = f.number("T", lo=1, integer=True)
    optimizer = _parse_optimizer(f.take("optimizer"), T)
    batch_size = f.number("batch_size", lo=1, integer=True)
    seeds = f.take("seeds")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("config.seeds", "expected a non-empty list")
    seeds = [_as_number(s, "config.seeds", lo=0, hi=MAX_SEED, integer=True)
             for s in seeds]
    if len(set(seeds)) != len(seeds):
        raise ConfigError("config.seeds", "seeds must be distinct")
    metrics_every = f.number("metrics_every", 1, lo=1, integer=True)
    output_path = f.typed("output_path", (str, type(None)), "a string", None)
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
    return OBJECTIVES[obj_spec["kind"]].build(obj_spec, [seed])[0]


def init_x(obj, obj_spec: dict, seed: int) -> np.ndarray:
    return obj.init_params(make_rng(seed, STREAM_INIT))


# ---------------------------------------------------------------------------
# the training loop


@dataclass
class MetricsRow:
    """One line of the metrics CSV, one cell per field (None is blank).

    The run path writes whole ``MetricsColumns`` instead; this row form is
    the reference its lines are checked against.
    """
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


@dataclass
class MetricsColumns:
    """One seed's metrics: a column per CSV field over its first k steps.

    The columns are views of the run's (T, S) tables and hold only the cells
    a run writes: ``loss`` and ``grad_evals_cum`` at every step,
    ``full_grad_norm`` at the steps of the metrics cadence (t = 0, every,
    2*every, ...), ``eps_drift`` from t=1, and ``wallclock_ms`` at every step
    when it was recorded (None otherwise).  The CSV leaves the other cells
    blank.
    """
    seed: int
    metrics_every: int
    loss: np.ndarray
    full_grad_norm: np.ndarray
    eps_drift: np.ndarray
    grad_evals_cum: np.ndarray
    wallclock_ms: np.ndarray | None

    def __len__(self) -> int:
        return len(self.loss)

    def to_csv(self) -> str:
        """The seed's CSV lines, newline-terminated, in the cell format of ``fmt``."""
        k = len(self)
        fg = [""] * k
        fg[::self.metrics_every] = map(repr, self.full_grad_norm.tolist())
        drift = [""] + list(map(repr, self.eps_drift.tolist())) if k else []
        wall = [""] * k if self.wallclock_ms is None else \
            map(repr, self.wallclock_ms.tolist())
        cells = zip(itertools.repeat(str(self.seed), k), map(str, range(k)),
                    map(repr, self.loss.tolist()), fg, drift,
                    map(str, self.grad_evals_cum.tolist()), wall)
        return "\n".join(map(",".join, cells)) + "\n" if k else ""


def _batch_stream(samplers, T: int, width: int, rows, *, epochs: bool = False):
    """The stack of batches of each of T steps: row r holds seed ``rows[r]``'s.

    ``rows`` indexes the seeds, and each seed's sampler draws once per step
    however many rows read it.  Block samplers, a quadratic's noise or a
    gate stream's ``random``, draw a block of steps per call, each block
    equal bit for bit to as many single draws, so a run of T steps takes
    exactly T draws from each; a block holds ``core.block_steps`` steps of
    ``width`` floats per row.  ``samplers`` is read at the first step's
    draw: samplers made lazily are made only if a step asks.  With
    ``epochs`` the samplers are epoch samplers, which share their sizes, and
    draw an epoch at a time: at the epoch's first step each draws its whole
    order (``next_epoch``), and the rows' orders form one (rows, n) table
    whose column slices are the epoch's batches, as the samplers' own calls
    would give them, the short last one included: epoch k is the
    ``batches_per_epoch`` steps from step k * ``batches_per_epoch``.

    Each block, and each epoch table, is one array allocated whole, a
    (k, rows[, width]) block or a (rows, n) table; each seed's draw is
    written straight into its rows, so building it holds it once beside
    one seed's draw.
    """
    samplers = list(samplers)
    at = [np.flatnonzero(rows == i) for i in range(len(samplers))]   # each seed's rows
    if epochs:
        n, size = samplers[0].n, samplers[0].batch_size
        for t in range(0, T, samplers[0].batches_per_epoch):
            table = np.empty((len(rows), n), dtype=np.intp)
            for sample, where in zip(samplers, at):
                table[where] = sample.next_epoch()
            for start in range(0, min(n, (T - t) * size), size):
                yield table[:, start:start + size]
        return
    block = block_steps(len(rows), width)
    for t in range(0, T, block):
        k = min(block, T - t)
        out = None
        for sample, where in zip(samplers, at):
            draw = sample(k)
            if out is None:   # a gate draws a float a step, a noise sampler a vector
                out = np.empty((k, len(rows)) + draw.shape[1:])
            out[:, where] = draw[:, np.newaxis]
        yield from out


def _adv_batch_size(cfg: ExperimentConfig) -> int:
    """The size of the batches that feed the slope: the update batch but for sam_db."""
    if cfg.optimizer["kind"] != "sam_db":
        return cfg.batch_size
    return cfg.optimizer.get("adv_batch_size") or cfg.batch_size


def run_arms(cfgs, seeds, record_wallclock: bool = False,
             keep_final_x: bool = False) -> list[list[tuple[MetricsColumns, dict]]]:
    """Run the seeds under each config, an arm; (columns, summary) per arm and seed.

    The arms may differ only in the optimizer spec.  They share each seed's
    objective, and step as rows of one lockstep stack (see ``_lockstep``),
    save that an arm whose adversary batches differ in size from its update
    batches steps in a stack with the arms of its size.  Every arm's metrics
    and summaries equal those of a run of that arm alone, bit for bit.
    """
    cfgs, seeds = list(cfgs), list(seeds)
    shared = [dict(c.to_dict(), optimizer=None, output_path=None) for c in cfgs]
    if any(d != shared[0] for d in shared):
        raise ConfigError("config", "paired configs may differ only in the optimizer spec")
    if not seeds:
        return [[] for _ in cfgs]
    spec = cfgs[0].objective
    objs = OBJECTIVES[spec["kind"]].build(spec, seeds)
    groups = {}
    for a, cfg in enumerate(cfgs):
        groups.setdefault(_adv_batch_size(cfg), []).append(a)
    out = [None] * len(cfgs)
    for arms in groups.values():
        stack = _lockstep([cfgs[a] for a in arms], seeds, objs, record_wallclock,
                          keep_final_x)
        for a, results in zip(arms, stack):
            out[a] = results
    return out


# A diverging seed overflows before it is retired, and its row computes unread
# values until the run ends: an outcome the summary reports (aborted_at), not
# numpy warnings for the console.
@np.errstate(over="ignore", invalid="ignore")
def _lockstep(cfgs: list, seeds: list, objs: list, record_wallclock: bool,
              keep_final_x: bool) -> list[list[tuple[MetricsColumns, dict]]]:
    """Step every pair of an arm and a seed as one row of a lockstep stack.

    Row a*S + i of the (A*S, dim) stack runs seed i (objective ``objs[i]``)
    under arm a, through ``vasso_step`` with the arms' knobs (``ArmKnobs``,
    whose knobs are scalars where every arm shares them).  Each row keeps its
    seed's data, initial point and Philox streams: the rows of one seed
    read the same batches, adversary batches and gate draws, each drawn
    once.  A row of an arm without adversary batches carries its own batch
    as one when another arm has them.  A row whose loss or gradient turns
    non-finite is retired at that step (``aborted_at``) and the others run
    on; it stays in the stack until the run ends, but nothing it computes
    after that step is read.  The run keeps one record of itself: the (T, n)
    tables, each row's step count (a row is live while it is T) and its
    final iterate.  ``keep_final_x`` stashes each final iterate
    in its summary under ``final_x`` (not JSON-serializable; for in-process
    callers only).  Recorded wallclock cells hold the elapsed time of the
    whole stack.

    At 0<p<1 only the rows whose gate opens take the second gradient, a
    retired row among them; on a network objective the other rows cost
    nothing (see ``vasso_step``).  The INFO log gets one record per epoch,
    the live rows' ``epoch=`` lines joined by newlines in row order, and
    one record of every row's ``done:`` line; neither is built while INFO
    is off.  An epoch's line goes out at the first step of the next epoch,
    so the last epoch of a run gets none; its mean is read from the
    epoch's rows of the loss table.
    """
    cfg, n_arms, n_seeds = cfgs[0], len(cfgs), len(seeds)
    n, T = n_arms * n_seeds, cfg.T
    seed_of = np.tile(np.arange(n_seeds), n_arms)   # the seed of each row
    # log lines name a row's arm when there are several
    tag = [f"arm={r // n_seeds} " if n_arms > 1 else "" for r in range(n)]
    x = np.array([init_x(o, cfg.objective, s) for o, s in zip(objs, seeds)])[seed_of]
    ocfg = ArmKnobs([c.optimizer_config() for c in cfgs],
                    np.repeat(np.arange(n_arms), n_seeds))
    samplers = [o.make_sampler(cfg.batch_size, make_rng(s, STREAM_BATCH))
                for o, s in zip(objs, seeds)]
    # the one place that asks: a dataset's batches come in epochs, every
    # seed's sampler turning together
    per_epoch = getattr(samplers[0], "batches_per_epoch", 0)
    epochs = per_epoch > 0
    batches = _batch_stream(samplers, T, x.shape[1], seed_of, epochs=epochs)
    adv_batches = itertools.repeat(None)
    decoupled = [c.optimizer["kind"] == "sam_db" for c in cfgs]
    if any(decoupled):
        adv_bs = _adv_batch_size(cfgs[decoupled.index(True)])
        adv_batches = _batch_stream(
            [o.make_sampler(adv_bs, make_rng(s, STREAM_ADV_BATCH))
             for o, s in zip(objs, seeds)], T, x.shape[1], seed_of, epochs=epochs)
    pairs = zip(batches, adv_batches)
    if any(decoupled) and not all(decoupled):
        own = ~np.repeat(decoupled, n_seeds)[:, np.newaxis]   # rows that reuse their batch
        pairs = ((b, np.where(own, b, a)) for b, a in pairs)
    # one uniform per seed and step, from streams made at the first draw
    gate_draws = _batch_stream((make_rng(s, STREAM_GATE).random for s in seeds),
                               T, 1, seed_of)
    gates = SimpleNamespace(random=gate_draws.__next__)
    obj = type(objs[0]).stack([objs[i] for i in seed_of])

    # Each step writes one cell per row straight into the (T, n) tables, the
    # retired rows included; a row's columns read only the cells of its
    # first steps[r] steps.  Gradient norms are taken on the metrics cadence
    # and drift cells start at t=1; other cells stay unwritten.
    tables = {"loss": np.zeros((T, n)), "fg_norm": np.zeros((T, n)),
              "drift": np.zeros((T, n)), "evals": np.zeros((T, n), dtype=np.int64)}
    wallclock = np.zeros(T) if record_wallclock else None
    steps = np.full(n, T)   # a row is live while steps[r] == T
    final_x = np.empty_like(x)

    def retire(mask, t: int) -> None:
        """The live rows in ``mask`` stop at step t, at their current x."""
        mask = mask & (steps == T)
        steps[mask], final_x[mask] = t, x[mask]

    state = buf = prev_eps = None
    t0 = time.perf_counter()

    for t, (batch, adv_batch) in zip(range(T), pairs):
        if epochs and t and t % per_epoch == 0 and (steps == T).any() \
                and log.isEnabledFor(logging.INFO):
            # the epoch that just ended: its rows of the loss table, added
            # left to right
            means = (np.cumsum(tables["loss"][t - per_epoch:t], axis=0)[-1]
                     / per_epoch).tolist()
            log.info("\n".join(
                "%sseed=%d epoch=%d mean_batch_loss=%.6f"
                % (tag[r], seeds[seed_of[r]], t // per_epoch - 1, means[r])
                for r in np.flatnonzero(steps == T)))
        if t % cfg.metrics_every == 0:
            tables["fg_norm"][t] = row_norms(obj.full_grad(x))
        try:
            x_new, state, rep, buf = vasso_step(obj, x, state, batch, ocfg, gates,
                                                t=t, momentum_buffer=buf,
                                                adv_batch=adv_batch)
        except NonFiniteError:   # every row, so every live row, failed at t
            retire(True, t)
            break
        tables["loss"][t] = rep.loss
        tables["evals"][t] = rep.grad_evals
        if prev_eps is not None:
            tables["drift"][t] = row_norms(rep.epsilon - prev_eps)
        prev_eps = rep.epsilon
        if rep.failed is not None:   # a retired row may be flagged again
            retire(rep.failed, t)
        x = x_new
        if record_wallclock:
            wallclock[t] = (time.perf_counter() - t0) * 1e3

    finals = obj.final_loss(x).tolist() if (steps == T).any() else None
    retire(True, T)
    # running totals, in place: ints, added in step order
    evals_cum = np.cumsum(tables["evals"], axis=0, out=tables["evals"])
    steps = steps.tolist()
    results = []
    for r in range(n):
        seed, k = seeds[seed_of[r]], steps[r]
        drifts = tables["drift"][1:k, r]
        columns = MetricsColumns(
            seed, cfg.metrics_every, tables["loss"][:k, r],
            tables["fg_norm"][:k:cfg.metrics_every, r], drifts, evals_cum[:k, r],
            None if wallclock is None else wallclock[:k])
        summary = {
            "seed": seed,
            "aborted": k < T,
            "aborted_at": k if k < T else None,
            "total_grad_evals": int(evals_cum[k - 1, r]) if k else 0,
            # left to right, as a running sum adds them
            "mean_drift": float(np.cumsum(drifts)[-1]) / (k - 1) if k > 1 else 0.0,
            "final_loss": finals[r] if k == T else None,
        }
        if keep_final_x:
            summary["final_x"] = final_x[r]
        results.append((columns, summary))
    if log.isEnabledFor(logging.INFO):
        log.info("\n".join(
            "%sseed=%d done: steps=%d final_loss=%s grad_evals=%d"
            % (tag[r], s["seed"], steps[r], fmt(s["final_loss"]), s["total_grad_evals"])
            for r, (_, s) in enumerate(results)))
    return [results[a * n_seeds:(a + 1) * n_seeds] for a in range(n_arms)]


def run_seeds(cfg: ExperimentConfig, seeds, record_wallclock: bool = False,
              keep_final_x: bool = False) -> list[tuple[MetricsColumns, dict]]:
    """Run the seeds in lockstep; returns (metrics columns, summary) per seed.

    The seeds' parameters step together as one (S, dim) stack through
    ``vasso_step``: ``run_arms`` with one arm.  Each seed's metrics and
    summary equal those of a run of that seed alone, bit for bit.
    """
    return run_arms([cfg], seeds, record_wallclock, keep_final_x)[0]


def run_seed(cfg: ExperimentConfig, seed: int, record_wallclock: bool = False,
             keep_final_x: bool = False) -> tuple[MetricsColumns, dict]:
    """Run one seed: ``run_seeds`` with a stack of one."""
    return run_seeds(cfg, [seed], record_wallclock, keep_final_x)[0]


def objective_point(cfg: ExperimentConfig, seed: int, train_steps: int):
    """The seed's objective and its point after ``train_steps`` steps of ``cfg``.

    Zero steps give the initial point.  The objective is built once, and
    the training run steps on it.
    """
    obj = build_objective(cfg.objective, seed)
    if train_steps == 0:
        return obj, init_x(obj, cfg.objective, seed)
    train_cfg = cfg.derive(seeds=[seed], T=train_steps,
                           metrics_every=train_steps,   # only final_x is kept
                           output_path=None)
    [[(_, summary)]] = _lockstep([train_cfg], [seed], [obj], False, True)
    if summary["aborted"]:
        raise VassoOptError("training diverged before the evaluation point")
    return obj, summary["final_x"]


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
            for columns, _ in results:
                fh.write(columns.to_csv())
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

    The configs must agree on everything except the optimizer spec and
    their ``seeds``, which are not read: both arms run ``seeds``, as rows of
    one stack (``run_arms``).  Lower is better for both metrics; a win for A
    on a seed means metric_a < metric_b.  Ties are excluded from the test.
    The result keeps every seed's summary, final iterate included, so
    callers can derive other metrics without rerunning.
    """
    if metric not in ("final_loss", "mean_drift"):
        raise ConfigError("metric", f"must be final_loss or mean_drift, got {metric!r}")
    seeds = list(seeds)
    # both arms step in one stack; the metrics cadence is never read here
    results_a, results_b = run_arms(
        [c.derive(seeds=seeds, metrics_every=c.T, output_path=None)
         for c in (cfg_a, cfg_b)],
        seeds, keep_final_x=True)
    summaries_a = [s for _, s in results_a]
    summaries_b = [s for _, s in results_b]
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


TRADEOFF_HEADER = "optimizer,p,mean_final_loss,mean_grad_evals,mean_wallclock_ms"


def tradeoff_sweep(base_cfg: ExperimentConfig, p_values, seeds,
                   include_esam_analog: bool = True,
                   record_wallclock: bool = False) -> list[TradeoffRow]:
    """Loss/computation table across gate probabilities.

    Rows cover eVASSO at each p (p=1 is VASSO), the eSAM analog (theta=1,
    same Bernoulli gating) when requested, and one ungated SAM reference row.
    Every arm is parsed before any runs, so a bad seed or p fails first.  All
    arms step as rows of one stack (``run_arms``).  Wallclock is measured
    only on request, and is never deterministic: then each arm runs in a
    stack of its own, and its cell is that run's time per seed.
    """
    ps = sorted(set(float(p) for p in p_values) | {1.0})
    seeds = list(seeds)

    def arm(**knobs) -> ExperimentConfig:
        # adv_batch_size applies to sam_db only, which no arm is; the metrics
        # cadence is never read here
        return base_cfg.derive(dict(knobs, adv_batch_size=None), seeds=seeds,
                               output_path=None, metrics_every=base_cfg.T)

    arms = []
    for p in ps:
        arms.append(("evasso", arm(kind="evasso", p=p), p))
        if include_esam_analog:
            arms.append(("esam", arm(kind="evasso", p=p, theta=1.0), p))
    arms.append(("sam", arm(kind="sam"), None))
    cfgs = [cfg for _, cfg, _ in arms]
    if record_wallclock:
        runs, walls = [], []
        for cfg in cfgs:
            t0 = time.perf_counter()
            runs.append(run_seeds(cfg, seeds))
            walls.append((time.perf_counter() - t0) * 1e3 / len(seeds))
    else:
        runs, walls = run_arms(cfgs, seeds), [None] * len(cfgs)
    rows = []
    for (name, _, p), results, wall in zip(arms, runs, walls):
        agg = _aggregate([s for _, s in results])
        if agg["n_aborted"]:
            raise NonFiniteError(f"a {name} run aborted during the tradeoff sweep")
        rows.append(TradeoffRow(name, p, agg["mean_final_loss"],
                                agg["mean_total_grad_evals"], wall))
    return rows
