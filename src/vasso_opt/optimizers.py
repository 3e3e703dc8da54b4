"""The optimizer family: one sharpness-aware step, and stochastic Frank-Wolfe.

All steps are pure functions over the objective interface.  State (the EMA
adversary slope, the momentum buffer) is threaded explicitly: each step
returns its updated state alongside the new iterate, so a training loop is
just a fold.  Iteration index ``t`` drives the learning-rate and radius
schedules and is passed keyword-only.

``vasso_step`` is the one step the harness runs.  Its adversary follows an
exponential moving average of the gradient with weight theta, and a
Bernoulli(p) gate decides whether the second gradient is taken; on skipped
steps the unperturbed gradient is reused.  The gate's uniforms are an input
of the step, as its batches are: this module draws nothing.  theta=1 gives
SAM, p=0 gives SGD, p=1 gives VASSO, 0<p<1 gives eVASSO, and theta=1 with
the slope fed fresh adversary rows (``adv_batch`` > 0) gives SAM-db.  Every
kind turns its slope into an adversary through ``sam_adversary``, and
VASSO's state is the slope array itself.  ``sgd_step`` and ``sam_step`` are
independent reference implementations of the two limits.  ``sfw_solve``
runs the Frank-Wolfe recursion over the sphere that the one-step adversary
is a special case of.

``vasso_step``, ``vasso_update``, ``sam_adversary`` and ``base_update`` also
take a stack of S seeds: x, batches, the slope and the momentum buffer carry
a leading seed axis, and every row is computed exactly as the one-vector
call on that row would compute it.  ``OptimizerConfig`` holds one validated
setting, and ``vasso_step`` reads its knobs from an ``ArmKnobs`` only: the
settings of a stack's rows, the arms, of which one config is a stack of one.
``ArmKnobs`` settles once per run what stays fixed over it (1 - theta, the
lr and rho of schedules that do not depend on t, the forced gate outcome),
so a step pays only for the arithmetic its knobs need: a momentum or weight
decay that is zero on every row is never computed, and a stack that is all
finite passes each finiteness check with one sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (DEGENERATE_NORM_TOL, Schedule, normalize_to_sphere, row_norms,
                   schedule_value)
from .errors import ConfigError, InvalidParameterError, NonFiniteError

# Each optimizer kind is a setting of the one step, vasso_step: theta=1 makes
# the slope the raw gradient (SAM), p=0 skips the second gradient (SGD) and
# p=1 always takes it (VASSO).  Knobs not fixed here come from the config;
# fresh_adv sets the adv_batch knob, which the engine reads: the slope is fed
# adv_batch_size fresh rows (a batch's worth by default).
KIND_KNOBS = {"sgd": {"p": 0.0}, "sam": {"theta": 1.0, "p": 1.0},
              "vasso": {"p": 1.0}, "evasso": {},
              "sam_db": {"theta": 1.0, "p": 1.0, "fresh_adv": True}}


@dataclass(frozen=True)
class OptimizerConfig:
    """One validated setting of the step's knobs, from a config's ``optimizer`` object::

        {"kind": "sgd|sam|vasso|evasso|sam_db", "rho": 0.05?, "theta": 0.2?,
         "p": 1.0?, "lr": schedule, "rho_schedule": schedule?,
         "momentum": 0.0?, "weight_decay": 0.0?, "adv_batch_size": null?}

    ``parse`` checks it into the spec a config keeps (a schedule is a
    ``Schedule.parse`` object), and ``from_spec`` builds the step under the
    kind's fixed knobs (``KIND_KNOBS``), ignoring the spec's values for them.
    """

    rho: float = 0.05            # perturbation radius
    theta: float = 0.2           # EMA weight; 1 collapses VASSO to SAM
    p: float = 1.0               # gate probability; 1 collapses eVASSO to VASSO
    lr: Schedule = field(default_factory=lambda: Schedule("constant", 0.01))
    rho_schedule: Schedule | None = None
    momentum: float = 0.0
    weight_decay: float = 0.0
    adv_batch: int = 0           # fresh adversary rows that feed the slope; 0: the update batch

    def __post_init__(self):
        if self.rho < 0:
            raise InvalidParameterError(f"rho must be >= 0, got {self.rho}")
        if not 0.0 < self.theta <= 1.0:
            raise InvalidParameterError(f"theta must be in (0,1], got {self.theta}")
        if not 0.0 <= self.p <= 1.0:
            raise InvalidParameterError(f"p must be in [0,1], got {self.p}")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidParameterError(f"momentum must be in [0,1), got {self.momentum}")
        if self.weight_decay < 0:
            raise InvalidParameterError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.adv_batch < 0:
            raise InvalidParameterError(f"adv_batch must be >= 0, got {self.adv_batch}")
        if self.adv_batch and self.p != 1.0:   # a fresh row never reads its gradient at x
            raise InvalidParameterError(f"a fresh adversary batch needs p = 1, got {self.p}")

    @classmethod
    def parse(cls, fields, T: int) -> dict:
        """The ``optimizer`` spec of a run of T steps, read from every one of ``fields``."""
        kind, kinds = fields.take("kind"), tuple(KIND_KNOBS)
        if kind not in kinds:
            raise ConfigError("optimizer.kind", f"must be one of {kinds}, got {kind!r}")
        out = {"kind": kind, "rho": fields.number("rho", 0.05, lo=0.0)}
        out["theta"] = theta = fields.number("theta", 0.2)
        if not 0.0 < theta <= 1.0:
            raise ConfigError("optimizer.theta", f"must be in (0,1], got {theta}")
        out["p"] = fields.number("p", 1.0, lo=0.0, hi=1.0)
        out["lr"] = fields.take("lr")
        out["rho_schedule"] = fields.take("rho_schedule", None)
        cls._schedules(out, T)   # checked here, built by from_spec
        out["momentum"] = momentum = fields.number("momentum", 0.0, lo=0.0)
        if momentum >= 1.0:
            raise ConfigError("optimizer.momentum", f"must be in [0,1), got {momentum}")
        out["weight_decay"] = fields.number("weight_decay", 0.0, lo=0.0)
        # the kind check comes first: a stray size is misplaced, whatever its type
        if not KIND_KNOBS[kind].get("fresh_adv") and \
                fields.take("adv_batch_size", None) is not None:
            raise ConfigError("optimizer.adv_batch_size",
                              f"applies only to kind 'sam_db', not {kind!r}")
        out["adv_batch_size"] = fields.number("adv_batch_size", None, lo=1, integer=True)
        fields.finish()
        return out

    @staticmethod
    def _schedules(spec: dict, T: int) -> tuple[Schedule, Schedule | None]:
        """The spec's lr and rho schedules, the latter None if it has none."""
        rs = spec["rho_schedule"]
        return (Schedule.parse(spec["lr"], "optimizer.lr", T),
                None if rs is None else Schedule.parse(rs, "optimizer.rho_schedule", T))

    @classmethod
    def from_spec(cls, spec: dict, T: int, batch_size: int) -> "OptimizerConfig":
        """The step a spec sets over T steps; a fresh adversary batch defaults to batch_size."""
        lr, rho_schedule = cls._schedules(spec, T)
        knobs = {"theta": spec["theta"], "p": spec["p"], **KIND_KNOBS[spec["kind"]]}
        if knobs.pop("fresh_adv", False):
            knobs["adv_batch"] = spec["adv_batch_size"] or batch_size
        return cls(rho=spec["rho"], lr=lr, rho_schedule=rho_schedule,
                   momentum=spec["momentum"], weight_decay=spec["weight_decay"], **knobs)

    @staticmethod
    def check_override(spec: dict, keys) -> None:
        """Reject a key of ``keys`` whose value in ``spec`` the kind fixes otherwise."""
        fixed = KIND_KNOBS[spec["kind"]]
        for key in keys:
            if key in fixed and spec[key] != fixed[key]:
                raise ConfigError(f"optimizer.{key}", f"kind {spec['kind']!r} fixes "
                                  f"{key} at {fixed[key]}, got {spec[key]}")

    def rho_at(self, t: int) -> float:
        if self.rho_schedule is None:
            return self.rho
        return schedule_value(self.rho_schedule, t)

    def lr_at(self, t: int) -> float:
        return schedule_value(self.lr, t)


def _shared(values) -> bool:
    """Whether the floats are all one value, the sign of a zero included."""
    return len({float(v).hex() for v in values}) == 1


class ArmKnobs:
    """The knobs of a stack whose rows step under one or more configs, the arms.

    Row i steps under ``configs[arm_of_row[i]]``, which one config need not
    give.  A knob that every arm shares stays a scalar.  Otherwise theta,
    momentum, weight decay and ``lr_at(t)`` are (S, 1) columns, which scale
    each row by its own value, and p, ``rho_at(t)`` and ``fresh`` (whether
    the slope reads fresh adversary rows) hold one value per row.  An
    elementwise product with a column equals the product with the row's
    scalar, so every row steps bit for bit as a stack of its arm alone
    would.  ``gated``: some row has 0 < p < 1, so the step reads gate uniforms.

    What does not change over a run is settled here, once: the EMA's
    ``keep`` = 1 - theta, the lr and rho of schedules that do not depend on
    t (returned for every t their horizons allow) and the forced gate
    outcome, which a fresh row's p = 1 always gives.  A momentum or weight
    decay that is zero on every row stays the scalar 0, and ``base_update``
    then never computes its term.
    """

    def __init__(self, configs, arm_of_row=(0,)):
        configs, self._arm = list(configs), np.asarray(arm_of_row)
        self.theta = self._knob([c.theta for c in configs], column=True)
        self.keep = 1.0 - self.theta   # the EMA's weight on the old slope
        self.momentum = self._knob([c.momentum for c in configs], column=True)
        self.weight_decay = self._knob([c.weight_decay for c in configs], column=True)
        self.p = self._knob([c.p for c in configs], column=False)
        self.always_opens = bool(np.all(self.p == 1.0))
        self.never_opens = not np.any(self.p)
        self.gated = bool(np.any((self.p > 0.0) & (self.p < 1.0)))
        self._forced = self.p == 1.0
        fresh = [bool(c.adv_batch) for c in configs]
        self.fresh = fresh[0] if len(set(fresh)) == 1 else np.array(fresh)[self._arm]
        # a schedule that every arm shares is evaluated once per step, and
        # one that does not depend on t once per run
        self._lr = configs[:1] if len({c.lr for c in configs}) == 1 else configs
        self._rho = configs[:1] if \
            len({(c.rho, c.rho_schedule) for c in configs}) == 1 else configs
        schedules = [c.lr for c in self._lr] + \
            [c.rho_schedule for c in self._rho if c.rho_schedule is not None]
        self._t_end = min((s.horizon for s in schedules if s.horizon is not None),
                          default=math.inf)
        self._lr_value = self._rho_value = None
        if all(c.lr.constant_in_t for c in self._lr):
            self._lr_value = self.lr_at(0)
        if all(c.rho_schedule is None or c.rho_schedule.constant_in_t for c in self._rho):
            self._rho_value = self.rho_at(0)

    def _knob(self, values, column: bool):
        if len(values) == 1 or _shared(values):
            return values[0]
        per_row = np.array(values, dtype=np.float64)[self._arm]
        per_row.flags.writeable = False   # settled values are shared by every step
        return per_row[:, np.newaxis] if column else per_row

    def lr_at(self, t: int):
        if self._lr_value is not None and 0 <= t < self._t_end:
            return self._lr_value
        return self._knob([c.lr_at(t) for c in self._lr], column=True)

    def rho_at(self, t: int):
        if self._rho_value is not None and 0 <= t < self._t_end:
            return self._rho_value
        return self._knob([c.rho_at(t) for c in self._rho], column=False)


@dataclass
class StepReport:
    """What a step did; for a stack every field but ``epsilon`` may be per row."""

    loss: float | np.ndarray
    grad_evals: int | np.ndarray
    epsilon: np.ndarray
    failed: np.ndarray | None = None   # rows with a non-finite value (stacks only)


def sam_adversary(g: np.ndarray, rho) -> np.ndarray:
    """The adversary rho * g/||g|| of slope g, or of each row of a stack.

    Every kind's step forms its adversary here.  ``rho`` is one radius, or
    one per row, and a negative one raises.  The adversary is zero where
    rho == 0 and on every row whose norm is degenerate.
    """
    per_row = isinstance(rho, np.ndarray)   # only an array is reduced
    if np.less(rho, 0.0).any() if per_row else rho < 0:
        raise InvalidParameterError(f"rho must be >= 0, got {rho}")
    if not per_row and rho == 0.0:
        return np.zeros(g.shape)
    norm = row_norms(g)
    # NaN compares false: a failed row never moves the others off this path
    zero = np.less_equal(norm, DEGENERATE_NORM_TOL)
    if per_row:
        zero |= rho == 0.0
    if not np.count_nonzero(zero):
        return np.divide(rho, norm)[..., np.newaxis] * g
    eps = np.divide(rho, np.where(zero, 1.0, norm))[..., np.newaxis] * g
    eps[zero] = 0.0
    return eps


def vasso_update(d: np.ndarray | None, g: np.ndarray, theta, rho
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One EMA update d <- (1-theta) d + theta g of the slope, and its adversary.

    The adversary is ``sam_adversary(d, rho)``; ``d=None`` is the warm start
    d_{-1} := g, so the first one is SAM's whatever theta.  For a stack,
    theta may be an (S, 1) column and rho one radius per row.  ``theta`` may
    also be the ``ArmKnobs`` that hold it, which validated theta and settled
    1 - theta once per run; a number or column is checked on every call.
    """
    if isinstance(theta, ArmKnobs):
        theta, keep = theta.theta, theta.keep
    else:
        ok = ((0.0 < theta) & (theta <= 1.0)).all() if isinstance(theta, np.ndarray) \
            else 0.0 < theta <= 1.0
        if not ok:
            raise InvalidParameterError(f"theta must be in (0,1], got {theta}")
        keep = 1.0 - theta
    new = keep * (g if d is None else d)
    new += theta * g
    return new, sam_adversary(new, rho)


def _is_zero(knob) -> bool:
    """Whether a knob is one zero, not a column of per-row values."""
    return not isinstance(knob, np.ndarray) and knob == 0.0


def base_update(x: np.ndarray, g_update: np.ndarray, cfg: OptimizerConfig | ArmKnobs,
                momentum_buffer: np.ndarray | None = None, *, t: int = 0
                ) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-ball update with decoupled-at-x weight decay.

    v <- momentum*v + g + wd*x ;  x <- x - eta_t*v.  Weight decay is taken at
    the unperturbed point x_t even when g came from a perturbed point.  A
    momentum or weight decay that is one zero (``ArmKnobs`` keeps a knob
    that is zero on every row a scalar) is never computed.  Dropping
    ``0*x`` or ``0*v`` changes v at most in the sign of a zero entry, and
    ``x - eta*(+-0)`` is x for every finite x but -0, which no run's
    iterate holds (a -0 entry only arises from a -0 start).  So the new x is
    the full formula's bit for bit; a row whose x or v is not finite has
    already failed its gradient check.
    """
    eta = cfg.lr_at(t)
    wd, momentum = cfg.weight_decay, cfg.momentum
    v = g_update if _is_zero(wd) else g_update + wd * x
    if momentum_buffer is not None and not _is_zero(momentum):
        v = momentum * momentum_buffer + v
    return x - eta * v, v


def sgd_step(obj, x, batch, cfg: OptimizerConfig, rng, *, t: int = 0,
             momentum_buffer=None):
    """Plain base update with g_t(x_t); one gradient evaluation."""
    loss, g = obj.loss_and_grad(x, batch)
    _fail(None, np.isfinite(loss) & _finite_rows(g), "non-finite loss or gradient", t)
    x_new, buf = base_update(x, g, cfg, momentum_buffer, t=t)
    return x_new, StepReport(loss, 1, np.zeros_like(x)), buf


def sam_step(obj, x, batch, cfg: OptimizerConfig, rng, *, t: int = 0,
             momentum_buffer=None):
    """Ascend to x + rho*g/||g||, update with the gradient there (same batch)."""
    loss, g = obj.loss_and_grad(x, batch)
    _fail(None, np.isfinite(loss) & _finite_rows(g), "non-finite loss or gradient", t)
    eps = sam_adversary(g, cfg.rho_at(t))
    g_upd = obj.grad(x + eps, batch)
    _fail(None, _finite_rows(g_upd), "non-finite gradient at perturbed point", t)
    x_new, buf = base_update(x, g_upd, cfg, momentum_buffer, t=t)
    return x_new, StepReport(loss, 2, eps), buf


def _finite_rows(g: np.ndarray):
    return np.isfinite(g).all(axis=-1)


def _all_finite(a, b=None) -> bool:
    """True if the sum of every entry of ``a`` and ``b`` is finite.

    An inf or NaN entry makes the sum inf or NaN, so True proves every
    entry finite.  False may also come from finite entries whose sum
    overflows: the caller then checks row by row.  A sum costs less than a
    row check; a dot product would cost the same but raises the peak RSS
    of a run that takes no other dot product.
    """
    total = np.add.reduce(a, None) if b is None else \
        np.add.reduce(a, None) + np.add.reduce(b, None)
    return math.isfinite(total)


def _fail(failed, ok, message: str, t: int):
    """Add a stack's rows that are not ``ok`` to ``failed``; one vector raises instead."""
    if ok.all():
        return failed
    if ok.ndim == 0:
        raise NonFiniteError(message, t=t)
    return ~ok if failed is None else failed | ~ok


def vasso_step(obj, x, state: np.ndarray | None, batch, cfg: ArmKnobs, u, *,
               t: int = 0, momentum_buffer=None, adv_batch=None):
    """One sharpness-aware step with knobs theta, p, rho and ``fresh`` from ``cfg``.

    ``state`` is the EMA slope d, an array (None at the warm start), fed the
    gradient on ``adv_batch`` on the fresh rows (SAM-db) and on ``batch``
    otherwise.  ``adv_batch`` is given exactly when some row is fresh; the
    other rows' entries there are never read.  For p > 0 the slope is
    updated on every step, whether or not the gate opens.  A row's gate
    opens when its uniform in ``u`` is below p.  ``u`` holds one per row (a
    float for one vector) when some 0 < p < 1 (``cfg.gated``), else it is
    not read and may be None; a wrong count raises InvalidParameterError.
    p=0 returns right after the base update: one gradient evaluation and no
    slope work, exactly SGD, its adversary zero.

    The step makes one objective call at x, which gives every row's loss on
    ``batch`` and its slope's gradient: ``loss_and_grad`` on ``batch``, or,
    with an adversary batch, ``loss_and_slope``, whose gradient a fresh row
    takes on ``adv_batch`` and every other row on ``batch``.  A fresh row's
    gate always opens (its p is 1), so no row reads any other gradient at x.
    When some gates of a stack stay closed, the second gradient is taken on
    the opened rows (``obj.grad``'s ``rows`` hint), and a closed row keeps
    its gradient at x: a row of p=0 takes SGD's step and one evaluation.
    A stack never raises: each row whose loss or gradient is not finite, if
    need be every row, is marked in ``report.failed`` (None while all are
    finite), and its outputs are meaningless.  A single vector raises
    NonFiniteError at its first non-finite value, its loss before its
    gradient.  The step sets no floating-point policy: numpy's warnings on
    an overflowing row are the caller's to silence, as the training loop
    does for a whole run.
    """
    if (adv_batch is None) != (cfg.fresh is False):
        raise InvalidParameterError("adv_batch is given exactly when some row is fresh")
    if cfg.gated and (u is None or np.shape(u) != x.shape[:-1]):
        raise InvalidParameterError("a random gate reads one uniform per row")
    failed = None
    if adv_batch is None:
        loss, g = obj.loss_and_grad(x, batch)
        at_g = "non-finite loss or gradient"
    else:
        loss, g = obj.loss_and_slope(x, batch, adv_batch, cfg.fresh)
        at_g = "non-finite gradient on the adversary batch"
    if not _all_finite(loss, g):
        failed = _fail(None, np.isfinite(loss), "non-finite loss or gradient", t)
        failed = _fail(failed, _finite_rows(g), at_g, t)
    if cfg.never_opens:
        x_new, buf = base_update(x, g, cfg, momentum_buffer, t=t)
        return x_new, state, StepReport(loss, 1, np.zeros(x.shape), failed), buf
    state, eps = vasso_update(state, g, cfg, cfg.rho_at(t))
    opened = u < cfg.p if cfg.gated else cfg._forced   # one outcome per row
    n_closed = 0 if cfg.always_opens else np.count_nonzero(np.logical_not(opened))
    if not n_closed:
        g_upd = obj.grad(x + eps, batch)
        if not _all_finite(g_upd):
            failed = _fail(failed, _finite_rows(g_upd),
                           "non-finite gradient at perturbed point", t)
    elif n_closed < np.size(opened):   # some rows of a stack keep their gradient at x
        g_pert = obj.grad(x + eps, batch, rows=opened)
        if not _all_finite(g_pert):
            failed = _fail(failed, _finite_rows(g_pert) | ~opened,
                           "non-finite gradient at perturbed point", t)
        g_upd = np.where(opened[:, np.newaxis], g_pert, g)
        eps = np.where(opened[:, np.newaxis], eps, 0.0)
    else:
        g_upd, eps = g, np.zeros(x.shape)
    x_new, buf = base_update(x, g_upd, cfg, momentum_buffer, t=t)
    return x_new, state, StepReport(loss, 1 + opened, eps, failed), buf


def sfw_solve(linear_obj_grad_sampler, constraint_radius: float, T: int,
              batch_sizes, gammas, rng) -> np.ndarray:
    """Stochastic Frank-Wolfe over the sphere S_rho(0).

    ``linear_obj_grad_sampler(batch_size, rng)`` returns a stochastic
    gradient of the (linear) inner objective.  The linear maximization over
    the sphere has the closed form rho * ghat/||ghat||; the iterate is the
    convex combination x <- (1-gamma) x + gamma v starting from x_0 = 0.
    One step with gamma_0 = 1 therefore reproduces the closed-form adversary.
    """
    if T < 1:
        raise InvalidParameterError(f"T must be >= 1, got {T}")
    if len(batch_sizes) != T or len(gammas) != T:
        raise InvalidParameterError("batch_sizes and gammas must have length T")
    if not constraint_radius > 0:
        raise InvalidParameterError(f"rho must be positive, got {constraint_radius}")
    x = 0.0
    for batch_size, gamma in zip(batch_sizes, gammas):
        ghat = np.asarray(linear_obj_grad_sampler(batch_size, rng), dtype=np.float64)
        x = (1.0 - gamma) * x + gamma * normalize_to_sphere(ghat, constraint_radius)
    return x
