"""Experiment orchestration: strict JSON configs, seeded runs, metrics files.

Determinism contract: a (config, seed) pair maps to byte-identical metrics
output on every run, whichever other seeds run beside it.  All randomness
flows through named Philox streams keyed by the seed (see core): parameter
init, minibatch sampling, decoupled adversary batches, and Bernoulli gates
never share a stream.  ``run_seeds`` steps all seeds of a run in lockstep as
one (S, dim) stack, and ``run_arms`` steps the seeds of several configs that
differ only in the optimizer spec (the arms) as rows of one (arms*S, dim)
stack; ``paired_compare`` and ``tradeoff_sweep`` run their arms that way.
An optimizer kind is a setting of the one step (``optimizers.KIND_KNOBS``);
a config builds its step once (``OptimizerConfig.from_spec``).  Wallclock
timing is inherently nondeterministic, so its column is left empty unless
explicitly requested; a recorded cell is the elapsed time of the whole stack,
and ``tradeoff_sweep`` then times each arm in a stack of its own, so its
``mean_wallclock_ms`` stays per arm.

Config schema (JSON, unknown keys are errors)::

    {
      "objective": {"kind": "quadratic|blobs|dataset", ...},
      "optimizer": {"kind": "sgd|sam|vasso|evasso|sam_db", ...},
      "T": 1000, "batch_size": 8, "seeds": [0, 1],
      "metrics_every": 1?, "output_path": "metrics.csv"?
    }

``OptimizerConfig`` names and parses the optimizer's keys.  ``OBJECTIVES``
maps each objective kind to its class, which parses the kind's keys (its
docstring names them) and answers the whole surface the engine reads
(``build``, ``stack``, ``init_params``, ``final_loss``, ...; see
objectives).  The harness "final_loss" metric is the objective's
``final_loss``: the held-out loss when it has a held-out split, and the full
(noise-free) objective value otherwise.
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
                   STREAM_INIT, _as_number, _Fields, block_steps, make_rng, row_norms)
from .core import norm2  # noqa: F401  (benchmarks/test_checks.py reads harness.norm2)
from .errors import ConfigError, NonFiniteError, VassoOptError
from .objectives import MlpObjective, NoisyQuadratic
from .optimizers import ArmKnobs, OptimizerConfig, vasso_step

log = logging.getLogger("vasso_opt")
log.addHandler(logging.NullHandler())

# The one map from an objective kind to code: the class that parses, builds,
# stacks and initialises the kind's objectives (see objectives).
OBJECTIVES = {"quadratic": NoisyQuadratic, "blobs": MlpObjective, "dataset": MlpObjective}

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


@dataclass
class ExperimentConfig:
    objective: dict
    optimizer: dict
    T: int
    batch_size: int
    seeds: list[int]
    metrics_every: int = 1
    output_path: str | None = None

    def __post_init__(self):
        self._step = OptimizerConfig.from_spec(self.optimizer, self.T, self.batch_size)

    def to_dict(self) -> dict:
        return asdict(self)

    def derive(self, optimizer: dict | None = None, **fields) -> "ExperimentConfig":
        """A parsed copy with top-level ``fields`` and ``optimizer`` keys replaced;
        an ``optimizer`` key that the kind fixes otherwise is a ConfigError."""
        d = self.to_dict()
        d.update(fields)
        d["optimizer"].update(optimizer or {})
        cfg = parse_config(d)
        OptimizerConfig.check_override(cfg.optimizer, optimizer or ())
        return cfg

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def optimizer_config(self) -> OptimizerConfig:
        """The step's knobs, built when the config was made."""
        return self._step


def _parse_objective(raw) -> dict:
    """The objective spec: its kind's class parses every key but ``kind``."""
    f = _Fields(raw, "objective")
    kind = f.take("kind")
    if not isinstance(kind, str) or kind not in OBJECTIVES:
        raise ConfigError("objective.kind", f"must be one of {tuple(OBJECTIVES)}, got {kind!r}")
    spec = OBJECTIVES[kind].parse(f, kind)
    f.finish()
    return spec


def parse_config(raw: dict) -> ExperimentConfig:
    f = _Fields(raw, "config")
    objective = _parse_objective(f.take("objective"))
    T = f.number("T", lo=1, integer=True)
    optimizer = OptimizerConfig.parse(_Fields(f.take("optimizer"), "optimizer"), T)
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

    The columns are views of the run's (T, S) tables, the gradient norms'
    holding one row per metrics step, and hold only the cells a run writes:
    ``loss`` and ``grad_evals_cum`` at every step, ``full_grad_norm`` at the
    steps of the metrics cadence (t = 0, every, 2*every, ...), ``eps_drift``
    from t=1, and ``wallclock_ms`` at every step when it was recorded (None
    otherwise).  The CSV leaves the other cells blank.
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

    def to_csv(self, ints: "_IntCells | None" = None) -> str:
        """The seed's CSV lines, newline-terminated, in the cell format of ``fmt``.

        The step and grad-eval cells come from ``ints``, which the writer of
        a file shares across its seeds, so that each step index, and each
        grad-eval total a seed repeats from the seed before, is formatted
        once per file; by default from a fresh one.
        """
        k, ints = len(self), _IntCells() if ints is None else ints
        fg = [""] * k
        fg[::self.metrics_every] = map(repr, self.full_grad_norm.tolist())
        drift = [""] + list(map(repr, self.eps_drift.tolist())) if k else []
        wall = [""] * k if self.wallclock_ms is None else \
            map(repr, self.wallclock_ms.tolist())
        cells = zip(itertools.repeat(str(self.seed), k), ints.steps(k),
                    map(repr, self.loss.tolist()), fg, drift,
                    ints.evals(self.grad_evals_cum), wall)
        return "\n".join(map(",".join, cells)) + "\n" if k else ""


class _IntCells:
    """The integer cells of one metrics file, as ``fmt`` writes them.

    ``steps(k)`` gives the step indices 0..k-1, each formatted once; and
    ``evals(column)`` a seed's grad-eval totals, reusing the previous
    seed's strings up to the first step at which the two seeds' totals
    differ.  It holds one seed's step cells and one seed's grad-eval cells
    at most, and lives for one write.
    """

    def __init__(self):
        self._steps = []
        self._evals, self._eval_cells = np.zeros(0, dtype=np.int64), []

    def steps(self, k: int) -> list[str]:
        if k > len(self._steps):
            self._steps += map(str, range(len(self._steps), k))
        return self._steps[:k]

    def evals(self, column: np.ndarray) -> list[str]:
        m = min(len(column), len(self._evals))
        differ = np.flatnonzero(column[:m] != self._evals[:m])
        same = differ[0] if len(differ) else m
        cells = self._eval_cells[:same] + list(map(str, column[same:].tolist()))
        self._evals, self._eval_cells = column, cells
        return cells


def _batch_stream(samplers, T: int, width: int, rows, *, epochs: bool = False):
    """The stack of batches of each of T steps: row r holds seed ``rows[r]``'s.

    ``rows`` indexes the seeds, and each seed's sampler draws once per step
    however many rows read it.  Block samplers, a quadratic's noise or a
    gate stream's ``random``, draw a block of steps per call, each block
    equal bit for bit to as many single draws, so a run of T steps takes
    exactly T draws from each.  A block holds ``core.block_steps(len(rows),
    width)`` steps, where ``width`` counts the floats a row draws per step
    across all the run's block streams: each stream passes the same width,
    so they draw the same steps per block and their blocks share one
    budget.  ``samplers`` is read at the first step's draw: samplers made
    lazily are made only if a step asks.  With ``epochs`` the samplers are
    epoch samplers, which share their sizes, and draw an epoch at a time: at
    the epoch's first step each draws its whole order (``next_epoch``), and
    the rows' orders form one (rows, n) table whose column slices are the
    epoch's batches, as the samplers' own calls would give them, the short
    last one included: epoch k is the ``batches_per_epoch`` steps from step
    k * ``batches_per_epoch``.  An epoch table does not count in ``width``.

    A block stream holds one resident (k, rows[, dim]) block, allocated at
    its first draw and refilled in place at every later block; each seed's
    draw goes into one (k, ...) array, made by the stream's first draw
    (``sample(k)``) and refilled by the others (``sample(k, out=draw)``),
    and is copied into the seed's rows.  A yielded batch is a view of the
    block, valid only until the stream draws its next block.  Each epoch
    table is a (rows, n) array of its own, written straight from each
    seed's order; its batches stay valid as long as they are held.
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
    steps = block_steps(len(rows), width)
    block = draw = None
    for t in range(0, T, steps):
        k = min(steps, T - t)
        for sample, where in zip(samplers, at):
            if draw is None:   # a gate draws a float a step, a noise sampler a vector
                draw = sample(k)
                block = np.empty((k, len(rows)) + draw.shape[1:])
            else:
                sample(k, out=draw[:k])
            block[:k, where] = draw[:k, np.newaxis]
        yield from block[:k]


def run_arms(cfgs, seeds, record_wallclock: bool = False, keep_final_x: bool = False,
             *, columns: bool = True, drift: bool = True) -> list[list]:
    """Run the seeds under each config, an arm; (columns, summary) per arm and seed.

    The arms may differ only in the optimizer spec.  They share each seed's
    objective, and step as rows of one lockstep stack (see ``_lockstep``),
    save that an arm whose adversary batches differ in size from its update
    batches steps in a stack with the arms of its size.  Every arm's metrics
    and summaries equal those of a run of that arm alone, bit for bit.
    With ``columns=False`` each arm's list holds its seeds' summaries alone:
    the run keeps no (T, rows) tables and takes no metrics-cadence gradient
    norms, so its working set does not grow with T.  With ``drift=False``
    too, for callers that read no drift, it takes no drift norms and each
    summary's ``mean_drift`` is None; a columns run always takes them.
    Each seed's objective is released once the last stack is built from it.
    """
    cfgs, seeds = list(cfgs), list(seeds)
    shared = [dict(c.to_dict(), optimizer=None, output_path=None) for c in cfgs]
    if any(d != shared[0] for d in shared):
        raise ConfigError("config", "paired configs may differ only in the optimizer spec")
    if not seeds:
        return [[] for _ in cfgs]
    spec = cfgs[0].objective
    objs = OBJECTIVES[spec["kind"]].build(spec, seeds)
    groups = {}   # by the size of the batches that feed the slope
    for a, cfg in enumerate(cfgs):
        groups.setdefault(cfg.optimizer_config().adv_batch or cfg.batch_size, []).append(a)
    out, groups = [None] * len(cfgs), list(groups.values())
    for g, arms in enumerate(groups):
        # _lockstep empties the list it is given: the last stack takes objs
        # itself, so no reference to a seed's objective outlives its build
        stack = _lockstep([cfgs[a] for a in arms], seeds,
                          objs if g == len(groups) - 1 else list(objs),
                          record_wallclock, keep_final_x, columns, drift)
        for a, results in zip(arms, stack):
            out[a] = results
    return out


# A diverging seed overflows before it is retired, and its row computes unread
# values until the run ends: an outcome the summary reports (aborted_at), not
# numpy warnings for the console.
@np.errstate(over="ignore", invalid="ignore")
def _lockstep(cfgs: list, seeds: list, objs: list, record_wallclock: bool = False,
              keep_final_x: bool = False, columns: bool = True,
              drift: bool = True) -> list[list]:
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
    after that step is read.

    Every summary comes from running values, one per row: the grad-eval
    total and the drift sum, each added in step order and frozen with the
    row's final iterate when the row is retired, and each row's step count
    (a row is live while it is T).  ``keep_final_x`` stashes each final
    iterate in its summary under ``final_x`` (not JSON-serializable; for
    in-process callers only).  With ``columns`` the run also writes its
    (T, n) tables, whose views are the rows' ``MetricsColumns``, and takes
    the gradient norms of the metrics cadence; recorded wallclock cells
    hold the elapsed time of the whole stack.  Without it the run returns
    the summaries alone, and holds nothing that grows with T.  The run's
    block streams (noise, adversary noise, gates) draw the same steps per
    block, their blocks within one ``core.BLOCK_BYTES`` budget; a batch is
    read only during its own step, as ``_batch_stream`` requires.  A stack
    whose gate never opens has a zero adversary at every step, so its drift
    cells stay +0.0 and no drift norm is taken.  A summaries-only run with
    ``drift=False`` takes none either, keeps no previous adversary, and
    reports ``mean_drift`` as None.  Once the stack's objective is built,
    ``objs`` is emptied: each seed's objective is then released unless the
    caller holds it.

    At 0<p<1 only the rows whose gate opens take the second gradient, a
    retired row among them; on a network objective the other rows cost
    nothing (see ``vasso_step``).  The INFO log gets one record per epoch,
    the live rows' ``epoch=`` lines joined by newlines in row order, and
    one record of every row's ``done:`` line; neither is built while INFO
    is off.  An epoch's line goes out at the first step of the next epoch,
    so the last epoch of a run gets none; its mean is the epoch's running
    loss sum, added in step order, over its steps.
    """
    cfg, n_arms, n_seeds = cfgs[0], len(cfgs), len(seeds)
    n, T, every = n_arms * n_seeds, cfg.T, cfg.metrics_every
    seed_of = np.tile(np.arange(n_seeds), n_arms)   # the seed of each row
    # log lines name a row's arm when there are several
    tag = [f"arm={r // n_seeds} " if n_arms > 1 else "" for r in range(n)]
    x = np.array([init_x(o, cfg.objective, s) for o, s in zip(objs, seeds)])[seed_of]
    arm_cfgs = [c.optimizer_config() for c in cfgs]
    ocfg = ArmKnobs(arm_cfgs, np.repeat(np.arange(n_arms), n_seeds))
    samplers = [o.make_sampler(cfg.batch_size, make_rng(s, STREAM_BATCH))
                for o, s in zip(objs, seeds)]
    # the one place that asks: a dataset's batches come in epochs, every
    # seed's sampler turning together
    per_epoch = getattr(samplers[0], "batches_per_epoch", 0)
    epochs = per_epoch > 0
    # the fresh arms' adversary batch size, which run_arms makes one per stack
    adv_bs = max(c.adv_batch for c in arm_cfgs)
    # the floats a row draws per step across the block streams, which share
    # one budget: a noise stream's dim each, and a float of the gate stream
    width = (0 if epochs else x.shape[1] * (1 + bool(adv_bs))) + int(ocfg.gated)
    batches = _batch_stream(samplers, T, width, seed_of, epochs=epochs)
    adv_batches = itertools.repeat(None)
    if adv_bs:
        adv_batches = _batch_stream(
            [o.make_sampler(adv_bs, make_rng(s, STREAM_ADV_BATCH))
             for o, s in zip(objs, seeds)], T, width, seed_of, epochs=epochs)
    pairs = zip(batches, adv_batches)
    if isinstance(ocfg.fresh, np.ndarray):   # the other rows' adversary batch is their own
        own = ~ocfg.fresh[:, np.newaxis]
        pairs = ((b, np.where(own, b, a)) for b, a in pairs)
    # one uniform per seed and step, from streams made at the first draw
    gate_draws = _batch_stream((make_rng(s, STREAM_GATE).random for s in seeds),
                               T, width, seed_of)
    gates = SimpleNamespace(random=gate_draws.__next__)
    obj = type(objs[0]).stack([objs[i] for i in seed_of])
    objs.clear()   # the stack holds all it reads of them
    drift = drift or columns   # a columns run writes drift cells

    # With columns, each step writes one cell per row straight into the
    # tables, the retired rows included; a row's columns read only the
    # cells of its first steps[r] steps.  Gradient norms are taken on the
    # metrics cadence, one table row each, and drift cells start at t=1.
    if columns:
        loss_tab, drift_tab = np.zeros((T, n)), np.zeros((T, n))
        fg_tab = np.zeros((-(-T // every), n))
        evals_tab = np.zeros((T, n), dtype=np.int64)   # running totals
    wallclock = np.zeros(T) if columns and record_wallclock else None
    steps = np.full(n, T)   # a row is live while steps[r] == T
    evals, drift_sum = np.zeros(n, dtype=np.int64), np.zeros(n)   # running, every row
    final_x, final_evals, final_drift = np.empty_like(x), np.empty_like(evals), \
        np.empty_like(drift_sum)

    def retire(mask, t: int) -> None:
        """The live rows in ``mask`` stop at step t, at their current x and totals."""
        mask = mask & (steps == T)
        steps[mask], final_x[mask] = t, x[mask]
        final_evals[mask], final_drift[mask] = evals[mask], drift_sum[mask]

    state = buf = prev_eps = epoch_loss = None
    log_epochs = epochs and log.isEnabledFor(logging.INFO)
    t0 = time.perf_counter()

    for t, (batch, adv_batch) in zip(range(T), pairs):
        if log_epochs and t and t % per_epoch == 0 and (steps == T).any():
            means = (epoch_loss / per_epoch).tolist()
            log.info("\n".join(
                "%sseed=%d epoch=%d mean_batch_loss=%.6f"
                % (tag[r], seeds[seed_of[r]], t // per_epoch - 1, means[r])
                for r in np.flatnonzero(steps == T)))
        if columns and t % every == 0:
            fg_tab[t // every] = row_norms(obj.full_grad(x))
        try:
            x_new, state, rep, buf = vasso_step(obj, x, state, batch, ocfg, gates,
                                                t=t, momentum_buffer=buf,
                                                adv_batch=adv_batch)
        except NonFiniteError:   # every row, so every live row, failed at t
            retire(True, t)
            break
        if rep.failed is not None:   # a retired row may be flagged again
            retire(rep.failed, t)
        # the totals take step t after its failed rows froze theirs
        evals += rep.grad_evals
        if prev_eps is not None:
            d = row_norms(rep.epsilon - prev_eps)
            drift_sum += d
            if columns:
                drift_tab[t] = d
        if drift and not ocfg.never_opens:
            prev_eps = rep.epsilon
        if log_epochs:   # the epoch's losses, added left to right
            epoch_loss = rep.loss.copy() if t % per_epoch == 0 else epoch_loss + rep.loss
        if columns:
            loss_tab[t], evals_tab[t] = rep.loss, evals
            if record_wallclock:
                wallclock[t] = (time.perf_counter() - t0) * 1e3
        x = x_new

    finals = obj.final_loss(x).tolist() if (steps == T).any() else None
    retire(True, T)
    steps, final_evals, final_drift = steps.tolist(), final_evals.tolist(), \
        final_drift.tolist()
    results = []
    for r in range(n):
        k = steps[r]
        results.append({
            "seed": seeds[seed_of[r]],
            "aborted": k < T,
            "aborted_at": k if k < T else None,
            "total_grad_evals": final_evals[r],
            "mean_drift": (final_drift[r] / (k - 1) if k > 1 else 0.0) if drift else None,
            "final_loss": finals[r] if k == T else None,
        })
        if keep_final_x:
            results[r]["final_x"] = final_x[r]
    if log.isEnabledFor(logging.INFO):
        log.info("\n".join(
            "%sseed=%d done: steps=%d final_loss=%s grad_evals=%d"
            % (tag[r], s["seed"], steps[r], fmt(s["final_loss"]), s["total_grad_evals"])
            for r, s in enumerate(results)))
    if columns:
        results = [(MetricsColumns(s["seed"], every, loss_tab[:k, r],
                                   fg_tab[:-(-k // every), r], drift_tab[1:k, r],
                                   evals_tab[:k, r],
                                   None if wallclock is None else wallclock[:k]), s)
                   for r, (s, k) in enumerate(zip(results, steps))]
    return [results[a * n_seeds:(a + 1) * n_seeds] for a in range(n_arms)]


def run_seeds(cfg: ExperimentConfig, seeds, record_wallclock: bool = False,
              keep_final_x: bool = False, *, columns: bool = True) -> list:
    """Run the seeds in lockstep; returns (metrics columns, summary) per seed.

    The seeds' parameters step together as one (S, dim) stack through
    ``vasso_step``: ``run_arms`` with one arm, whose ``columns=False``
    returns the summaries alone.  Each seed's metrics and summary equal
    those of a run of that seed alone, bit for bit.
    """
    return run_arms([cfg], seeds, record_wallclock, keep_final_x, columns=columns)[0]


def run_seed(cfg: ExperimentConfig, seed: int, record_wallclock: bool = False,
             keep_final_x: bool = False) -> tuple[MetricsColumns, dict]:
    """Run one seed: ``run_seeds`` with a stack of one."""
    return run_seeds(cfg, [seed], record_wallclock, keep_final_x)[0]


def trained_point(cfg: ExperimentConfig, seed: int, obj, train_steps: int) -> np.ndarray:
    """The point after ``train_steps`` steps of ``cfg`` on ``obj``, the seed's objective.

    Zero steps give the initial point.  The training run steps on ``obj``,
    keeping its summary alone and taking no drift norm.
    """
    if train_steps == 0:
        return init_x(obj, cfg.objective, seed)
    train_cfg = cfg.derive(seeds=[seed], T=train_steps, output_path=None)
    [[summary]] = _lockstep([train_cfg], [seed], [obj], keep_final_x=True, columns=False,
                            drift=False)
    if summary["aborted"]:
        raise VassoOptError("training diverged before the evaluation point")
    return summary["final_x"]


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
        if done[0]["mean_drift"] is not None:   # a run without drift reports none
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
            ints = _IntCells()   # the file's integer cells, shared by its seeds
            for columns, _ in results:
                fh.write(columns.to_csv(ints))
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
    # both arms step in one stack, keeping their summaries alone; the
    # metrics cadence is never read here
    summaries_a, summaries_b = run_arms(
        [c.derive(seeds=seeds, metrics_every=c.T, output_path=None)
         for c in (cfg_a, cfg_b)],
        seeds, keep_final_x=True, columns=False)
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
    arms step as rows of one stack (``run_arms``), which keeps their
    summaries alone and, as no row of the table reads drift, takes no drift
    norm.  Wallclock is measured only on request, and is never
    deterministic: then each arm runs in a stack of its own, and its cell is
    that run's time per seed.
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
            runs.append(run_arms([cfg], seeds, columns=False, drift=False)[0])
            walls.append((time.perf_counter() - t0) * 1e3 / len(seeds))
    else:
        runs = run_arms(cfgs, seeds, columns=False, drift=False)
        walls = [None] * len(cfgs)
    rows = []
    for (name, _, p), summaries, wall in zip(arms, runs, walls):
        agg = _aggregate(summaries)
        if agg["n_aborted"]:
            raise NonFiniteError(f"a {name} run aborted during the tradeoff sweep")
        rows.append(TradeoffRow(name, p, agg["mean_final_loss"],
                                agg["mean_total_grad_evals"], wall))
    return rows
