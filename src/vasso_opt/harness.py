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
a config builds its step once (``OptimizerConfig.from_spec``).  The stepping
loop (``_lockstep``) keeps the summaries; each other output is a recorder
that the loop feeds (``Recorder``), named by its caller: the metrics
columns (``Columns``, the default), drift (``Drift``) and final iterates
(``FinalX``).  Wallclock timing is inherently nondeterministic, so its
column is left empty unless explicitly requested; a recorded cell is the
elapsed time of the whole stack, and ``tradeoff_sweep`` then times each arm
in a stack of its own, so its ``mean_wallclock_ms`` stays per arm.

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
from functools import partial
from types import SimpleNamespace

import numpy as np

from .core import (MAX_SEED, STREAM_ADV_BATCH, STREAM_BATCH, STREAM_GATE,
                   STREAM_INIT, _as_number, _Fields, _scale_safe, block_steps, make_rng,
                   row_norms)
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
    budget.  With ``epochs`` the samplers are epoch samplers, which share
    their sizes, and draw a block of epochs at a time: each draws the
    block's orders in one call (``next_epochs``), and the rows' orders form
    one (k, rows, n) table whose column slices are the epochs' batches, as
    the samplers' own calls would give them, the short last one included:
    epoch e is the ``batches_per_epoch`` steps from step e *
    ``batches_per_epoch``.  Each sampler counts an epoch (``epoch``) as the
    epoch's first batch is yielded, and the last block holds only the
    epochs that the T steps begin, so a stream read to its end leaves each
    sampler where its own calls would.  An epoch stream's ``width`` counts
    the run's epoch streams, which share a budget of their own: a block
    holds ``core.block_steps(len(rows) + 1, n * width)`` epochs, n ints per
    epoch for each row of its table and for the one seed's draw beside it.

    A block stream holds one resident (k, rows[, dim]) block, allocated at
    its first draw and refilled in place at every later block; each seed's
    draw goes into one (k, ...) array, made by the stream's first draw
    (``sample(k)``) and refilled by the others (``sample(k, out=draw)``),
    and is copied into the seed's rows.  An epoch stream holds its table and
    its one (k, n) draw alike, each seed's orders drawn into the draw and
    copied into the seed's rows in one assignment.  A yielded batch is a
    view of the block or table, valid only until the stream draws its next
    block.
    """
    samplers = list(samplers)
    at = [np.flatnonzero(rows == i) for i in range(len(samplers))]   # each seed's rows
    if epochs:
        n, size, per = samplers[0].n, samplers[0].batch_size, samplers[0].batches_per_epoch
        begun = -(-T // per)   # the epochs the T steps begin
        per_block = min(block_steps(len(rows) + 1, n * width), begun)
        table = np.empty((per_block, len(rows), n), dtype=np.intp)
        draw = np.empty((per_block, n), dtype=np.intp)
        for e0 in range(0, begun, per_block):
            k = min(per_block, begun - e0)
            for sample, where in zip(samplers, at):
                table[:k, where] = sample.next_epochs(k, out=draw[:k])[:, np.newaxis]
            for e in range(e0, e0 + k):
                for sample in samplers:
                    sample.epoch += 1
                for start in range(0, min(n, (T - e * per) * size), size):
                    yield table[e - e0, :, start:start + size]
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


class Recorder:
    """An output of a ``_lockstep`` run, which the run makes and its loop feeds
    (see there) through two hooks, ``step`` and ``result``.  The loop alone
    retires rows: a recorder reads its live mask and frozen state, and keeps
    no copy of a retired row.  This base records nothing."""

    def step(self, t: int, x: np.ndarray, rep) -> None:
        pass

    def result(self, r: int, k: int, summary: dict, out):
        return out


class Drift(Recorder):
    """Each row's adversary drift ||eps_t - eps_{t-1}||, from t=1.

    Its running sum, added in step order over the row's live steps, gives
    the summary's ``mean_drift`` over the row's k-1 drift steps (0.0 under
    two).  With ``table`` the norms also fill a (T, rows) table, and a row's
    result pairs its drift cells (t = 1..k-1) with its summary.  A finite
    drift whose square overflows, or underflows to 0 on a row that moved, is
    redone, on its row alone, by ``core._scale_safe``.
    """

    def __init__(self, run, table: bool = False):
        self.run, self.sum, self.prev = run, np.zeros(run.n), None
        self.table = np.zeros((run.T, run.n)) if table else None

    def step(self, t, x, rep):
        if self.prev is not None:
            d = row_norms(diff := rep.epsilon - self.prev)
            total = np.add.reduce(d, None)
            if not (math.isfinite(total) and d.all()):
                zero = d == 0.0
                # a zero drift whose difference is zero, as a closed gate's
                # twice, is exact: only one whose square underflowed is redone
                if not math.isfinite(total) or np.count_nonzero(diff[zero]):
                    redo = np.isinf(d)   # a failed row's NaN is kept
                    redo[zero] = diff[zero].any(axis=1)
                    if redo.any():
                        d[redo] = _scale_safe(d[redo], diff[redo])
            np.add(self.sum, d, out=self.sum, where=self.run.live)   # a retired row's stays
            if self.table is not None:
                self.table[t] = d
        self.prev = rep.epsilon

    def result(self, r, k, summary, out):
        summary["mean_drift"] = float(self.sum[r]) / (k - 1) if k > 1 else 0.0
        return out if self.table is None else (self.table[1:k, r], summary)


class Columns(Drift):
    """The (T, rows) tables whose views, cut to a row's k steps, are its
    ``MetricsColumns``, paired with its summary.  Every step writes a cell
    per row, retired rows included; with ``wallclock``, each step's cell is
    the elapsed time of the whole stack."""

    def __init__(self, run, wallclock: bool = False):
        super().__init__(run, table=True)
        self.run, T, n = run, run.T, run.n
        self.loss, self.evals = np.zeros((T, n)), np.zeros((T, n), dtype=np.int64)
        self.fg = np.zeros((-(-T // run.every), n))   # a row per metrics step
        self.fg[0] = row_norms(run.obj.full_grad(run.x))
        self.wall = np.zeros(T) if wallclock else None
        self.t0 = time.perf_counter()

    def step(self, t, x, rep):
        super().step(t, x, rep)
        self.loss[t], self.evals[t] = rep.loss, self.run.evals
        if self.wall is not None:
            self.wall[t] = (time.perf_counter() - self.t0) * 1e3
        every = self.run.every   # the next metrics step's norm, at the point it starts from
        if (t + 1) % every == 0 and t + 1 < self.run.T:
            self.fg[(t + 1) // every] = row_norms(self.run.obj.full_grad(x))

    def result(self, r, k, summary, out):
        drift, summary = super().result(r, k, summary, out)
        every = self.run.every
        return MetricsColumns(summary["seed"], every, self.loss[:k, r],
                              self.fg[:-(-k // every), r], drift, self.evals[:k, r],
                              None if self.wall is None else self.wall[:k]), summary


class FinalX(Recorder):
    """Each row's last iterate, as ``final_x`` in its summary (for in-process
    callers): the loop's frozen iterate, where a finished row ended, or where
    a retired row's failing step began."""

    def __init__(self, run):
        self.run = run

    def result(self, r, k, summary, out):
        summary["final_x"] = self.run.final_x[r]
        return out


class _EpochLog(Recorder):
    """The INFO log's record of each epoch but the run's last: the live rows'
    ``epoch=`` lines, in row order, each row's mean its running loss sum over
    the epoch's steps, added in step order."""

    def __init__(self, run):
        self.run, self.loss = run, None

    def step(self, t, x, rep):
        run, per = self.run, self.run.per_epoch
        self.loss = rep.loss.copy() if t % per == 0 else self.loss + rep.loss
        if (t + 1) % per == 0 and t + 1 < run.T and run.live.any():
            means = (self.loss / per).tolist()
            log.info("\n".join("%s epoch=%d mean_batch_loss=%.6f"
                               % (run.names[r], t // per, means[r])
                               for r in np.flatnonzero(run.live)))


def run_arms(cfgs, seeds, record=(Columns,)) -> list[list]:
    """Run the seeds under each config, an arm; a result per arm and seed.

    The arms may differ only in the optimizer spec.  They share each seed's
    objective, and step as rows of one lockstep stack (see ``_lockstep``,
    which ``record`` goes to), save that an arm whose adversary batches
    differ in size from its update batches steps in a stack with the arms of
    its size.  Every arm's results equal those of a run of that arm alone,
    bit for bit.  Each seed's objective is released once the last stack is
    built from it.
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
                          objs if g == len(groups) - 1 else list(objs), record)
        for a, results in zip(arms, stack):
            out[a] = results
    return out


# The run's one floating-point policy: a diverging seed overflows before it is
# retired, and its row computes unread values until the run ends, an outcome
# the summary reports (aborted_at), not numpy warnings for the console.
@np.errstate(over="ignore", invalid="ignore")
def _lockstep(cfgs: list, seeds: list, objs: list, record=(Columns,)) -> list[list]:
    """Step every pair of an arm and a seed as one row of a lockstep stack.

    Row a*S + i of the (A*S, dim) stack runs seed i (objective ``objs[i]``)
    under arm a, through ``vasso_step`` with the arms' knobs (``ArmKnobs``,
    whose knobs are scalars where every arm shares them).  Each row keeps its
    seed's data, initial point and Philox streams: the rows of one seed
    read the same batches, adversary batches and gate uniforms, each drawn
    once and zipped into the step; a stream that no row reads (adversary
    batches with no fresh arm, uniforms with no random gate) gives None.  A
    row flagged in ``rep.failed`` is retired at that step (``aborted_at``)
    and the others run on, to T or until none is live; the row stays in the
    stack, but nothing it computes after that step is read.

    The loop steps the stack and alone retires rows: it keeps the live mask
    (``run.live``) and freezes a retired row's step count, its grad-eval
    total, added in step order, and its iterate (``run.final_x``); with the
    final loss these make the row's summary.  Each other output is a
    ``Recorder``, made by a factory in ``record`` (a class, or a partial of
    one) as ``make(run)`` from the run's facts (``run.x`` the initial point).
    After step t's failed rows are retired and the totals take t, the loop
    calls each recorder's ``step(t, x, rep)``, x the point step t reached;
    and ``result(r, k, summary, out)`` adds its part to row r's summary (k
    steps run) and returns the row's result: ``out``, the result so far, or
    the row's cells paired with its summary.  The default, ``Columns``, makes
    each result a (MetricsColumns, summary) pair; with no recorder the run
    holds nothing that grows with T.  If INFO is on, every row's ``done:``
    line goes out in one record, and where batches come in epochs the run
    records its epoch lines (``_EpochLog``).  The block streams (noise,
    adversary noise, gates) draw the same steps per block, their blocks
    within one ``core.BLOCK_BYTES`` budget, and the epoch streams (batches,
    adversary batches) the same epochs per block, their tables within
    another; a batch is read only during its own step, as ``_batch_stream``
    requires.  Once the stack's objective is built, ``objs`` is emptied:
    each seed's objective is then released unless the caller holds it.

    At 0<p<1 only the rows whose gate opens take the second gradient, a
    retired row among them; on a network objective the other rows cost
    nothing (see ``vasso_step``).
    """
    cfg, n_arms, n_seeds = cfgs[0], len(cfgs), len(seeds)
    n, T = n_arms * n_seeds, cfg.T
    seed_of = np.tile(np.arange(n_seeds), n_arms)   # the seed of each row
    # log lines name a row's arm when there are several
    names = ["%sseed=%d" % (f"arm={r // n_seeds} " if n_arms > 1 else "",
                            seeds[seed_of[r]]) for r in range(n)]
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
    # one budget: a noise stream's dim each, and a float of the gate stream;
    # the epoch streams share a budget of their own, counted in streams
    streams = 1 + bool(adv_bs)   # batches, and adversary batches if fresh
    width = (0 if epochs else x.shape[1] * streams) + int(ocfg.gated)
    batch_width = streams if epochs else width
    batches = _batch_stream(samplers, T, batch_width, seed_of, epochs=epochs)
    adv_batches = itertools.repeat(None)
    if adv_bs:
        adv_batches = _batch_stream(
            [o.make_sampler(adv_bs, make_rng(s, STREAM_ADV_BATCH))
             for o, s in zip(objs, seeds)], T, batch_width, seed_of, epochs=epochs)
    gates = itertools.repeat(None)   # a forced gate reads no uniform
    if ocfg.gated:   # one uniform per seed and step, which the seed's rows read
        gates = _batch_stream([make_rng(s, STREAM_GATE).random for s in seeds],
                              T, width, seed_of)
    obj = type(objs[0]).stack([objs[i] for i in seed_of])
    objs.clear()   # the stack holds all it reads of them

    live, steps = np.ones(n, dtype=bool), np.full(n, T)
    evals = np.zeros(n, dtype=np.int64)   # running totals
    final_evals, final_x = np.empty_like(evals), np.empty_like(x)
    run = SimpleNamespace(n=n, T=T, every=cfg.metrics_every, obj=obj, evals=evals,
                          live=live, x=x, final_x=final_x, per_epoch=per_epoch, names=names)
    recorders = [make(run) for make in record]
    if epochs and log.isEnabledFor(logging.INFO):
        recorders.append(_EpochLog(run))

    def retire(mask, t: int) -> None:
        """The live rows in ``mask`` stop at step t, at their current x and totals."""
        mask = mask & live
        steps[mask], final_evals[mask], final_x[mask] = t, evals[mask], x[mask]
        live[mask] = False

    state = buf = None
    for t, batch, adv_batch, u in zip(range(T), batches, adv_batches, gates):
        x_new, state, rep, buf = vasso_step(obj, x, state, batch, ocfg, u, t=t,
                                            momentum_buffer=buf, adv_batch=adv_batch)
        if rep.failed is not None:   # a retired row may be flagged again
            retire(rep.failed, t)
            if not live.any():
                break
        evals += rep.grad_evals   # after step t's failed rows froze theirs
        x = x_new
        for rec in recorders:
            rec.step(t, x, rep)

    finals = obj.final_loss(x) if live.any() else np.full(n, np.nan)
    done = (live & np.isfinite(finals)).tolist()   # a non-finite final loss did not finish
    retire(True, T)
    steps, final_evals, finals = steps.tolist(), final_evals.tolist(), finals.tolist()
    summaries, results = [], []
    for r, k in enumerate(steps):
        summary = out = {"seed": seeds[seed_of[r]], "aborted": not done[r],
                         "aborted_at": None if done[r] else k,
                         "total_grad_evals": final_evals[r], "mean_drift": None,
                         "final_loss": finals[r] if done[r] else None}
        for rec in recorders:
            out = rec.result(r, k, summary, out)
        summaries.append(summary)
        results.append(out)
    if log.isEnabledFor(logging.INFO):
        log.info("\n".join("%s done: steps=%d final_loss=%s grad_evals=%d"
                           % (names[r], k, fmt(s["final_loss"]), s["total_grad_evals"])
                           for r, (s, k) in enumerate(zip(summaries, steps))))
    return [results[a * n_seeds:(a + 1) * n_seeds] for a in range(n_arms)]


def run_seeds(cfg: ExperimentConfig, seeds, record=(Columns,)) -> list:
    """Run the seeds in lockstep, one (S, dim) stack: ``run_arms`` with one arm.
    Each seed's result equals that of a run of that seed alone, bit for bit."""
    return run_arms([cfg], seeds, record)[0]


def run_seed(cfg: ExperimentConfig, seed: int,
             keep_final_x: bool = False) -> tuple[MetricsColumns, dict]:
    """One seed's ``run_seeds`` columns, and with ``keep_final_x`` its final
    iterate.  Nothing in the package calls it: it is kept for the benchmark
    scripts (``benchmarks/``)."""
    return run_seeds(cfg, [seed], (Columns, FinalX) if keep_final_x else (Columns,))[0]


def trained_point(cfg: ExperimentConfig, seed: int, obj, train_steps: int) -> np.ndarray:
    """The point after ``train_steps`` steps of ``cfg`` on ``obj``, the seed's objective.

    Zero steps give the initial point.  The training run steps on ``obj``,
    recording its final iterate alone.
    """
    if train_steps == 0:
        return init_x(obj, cfg.objective, seed)
    train_cfg = cfg.derive(seeds=[seed], T=train_steps, output_path=None)
    [[summary]] = _lockstep([train_cfg], [seed], [obj], (FinalX,))
    if summary["aborted"]:
        raise VassoOptError("training diverged before the evaluation point")
    return summary["final_x"]


@dataclass
class ExperimentResult:
    summaries: list[dict]
    aggregate: dict
    metrics_path: str | None
    summary_path: str | None


def _mean(values: list) -> float:
    """The sum over the count; where the sum overflows, the sum of each value over it."""
    total, n = sum(values), len(values)
    return sum(v / n for v in values) if math.isinf(total) else total / n


def _aggregate(summaries: list[dict]) -> dict:
    done = [s for s in summaries if not s["aborted"]]
    agg = {"n_seeds": len(summaries), "n_aborted": len(summaries) - len(done)}
    if done:
        finals = [s["final_loss"] for s in done]
        agg["mean_final_loss"] = _mean(finals)
        agg["min_final_loss"] = min(finals)
        agg["max_final_loss"] = max(finals)
        agg["mean_total_grad_evals"] = _mean([s["total_grad_evals"] for s in done])
        if done[0]["mean_drift"] is not None:   # a run without drift reports none
            agg["mean_drift"] = _mean([s["mean_drift"] for s in done])
    return agg


SUMMARY_SUFFIX = ".summary.json"   # a run's summary path is its metrics path plus this


def run_experiment(cfg: ExperimentConfig,
                   record_wallclock: bool = False) -> ExperimentResult:
    """Run every seed, write the metrics CSV and a JSON summary.

    Output goes to cfg.output_path (the summary beside it with the
    ``SUMMARY_SUFFIX``); passing output_path=None skips file output.
    The summary is strict JSON: a value it cannot hold (inf or NaN) raises
    NonFiniteError, naming its field, before either file is opened.
    """
    results = run_seeds(cfg, cfg.seeds, (partial(Columns, wallclock=record_wallclock),))
    summaries = [summary for _, summary in results]
    aggregate = _aggregate(summaries)
    metrics_path = summary_path = None
    if cfg.output_path is not None:
        bad = [(f"per_seed[{i}].{k}", v) for i, s in enumerate(summaries) for k, v in s.items()
               if isinstance(v, float) and not math.isfinite(v)]
        if bad:   # the config's numbers were parsed finite; the aggregate's are if these are
            raise NonFiniteError("the summary's %s is %s, which JSON cannot hold; no file "
                                 "written" % bad[0])
        text = json.dumps({"config": cfg.to_dict(), "per_seed": summaries,
                           "aggregate": aggregate}, sort_keys=True, indent=2, allow_nan=False)
        metrics_path = cfg.output_path
        summary_path = cfg.output_path + SUMMARY_SUFFIX
        with open(metrics_path, "w") as fh:
            fh.write(METRICS_HEADER + "\n")
            ints = _IntCells()   # the file's integer cells, shared by its seeds
            for columns, _ in results:
                fh.write(columns.to_csv(ints))
        with open(summary_path, "w") as fh:
            fh.write(text + "\n")
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
    summaries_a: list[dict]   # each seed's run_seeds summary, with final_x, and
    summaries_b: list[dict]   # mean_drift None unless it is the metric


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
    The run records ``FinalX``, and ``Drift`` only for the drift metric: a
    final-loss compare takes no drift norm, and its summaries carry
    ``mean_drift: None``.  The result keeps every seed's summary, final
    iterate included, so callers can derive metrics of the final iterates
    without rerunning.
    """
    if metric not in ("final_loss", "mean_drift"):
        raise ConfigError("metric", f"must be final_loss or mean_drift, got {metric!r}")
    seeds = list(seeds)
    # both arms step in one stack; the metrics cadence is never read here
    summaries_a, summaries_b = run_arms(
        [c.derive(seeds=seeds, metrics_every=c.T, output_path=None)
         for c in (cfg_a, cfg_b)], seeds,
        (Drift, FinalX) if metric == "mean_drift" else (FinalX,))
    for summary in (s for pair in zip(summaries_a, summaries_b) for s in pair):
        if summary["aborted"]:
            raise NonFiniteError(f"seed {summary['seed']} aborted",
                                 t=summary["aborted_at"])
    values_a = [s[metric] for s in summaries_a]
    values_b = [s[metric] for s in summaries_b]
    for seed, a, b in zip(seeds, values_a, values_b):   # a NaN difference is no tie
        if not (math.isfinite(a) and math.isfinite(b)):
            raise NonFiniteError(f"seed {seed}: {metric} is {a} under A and {b} under B")
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
    arms step as rows of one stack (``run_arms``) that records nothing but
    their summaries.  Wallclock is measured only on request, and is never
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
            runs.append(run_arms([cfg], seeds, ())[0])
            walls.append((time.perf_counter() - t0) * 1e3 / len(seeds))
    else:
        runs = run_arms(cfgs, seeds, ())
        walls = [None] * len(cfgs)
    rows = []
    for (name, _, p), summaries, wall in zip(arms, runs, walls):
        agg = _aggregate(summaries)
        if agg["n_aborted"]:
            raise NonFiniteError(f"a {name} run aborted during the tradeoff sweep")
        rows.append(TradeoffRow(name, p, agg["mean_final_loss"],
                                agg["mean_total_grad_evals"], wall))
    return rows
