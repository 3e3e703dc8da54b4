"""The optimizer family: one sharpness-aware step, and stochastic Frank-Wolfe.

All steps are pure functions over the objective interface.  State (the EMA
adversary slope, the momentum buffer) is threaded explicitly: each step
returns its updated state alongside the new iterate, so a training loop is
just a fold.  Iteration index ``t`` drives the learning-rate and radius
schedules and is passed keyword-only.

``vasso_step`` is the one step the harness runs.  Its adversary follows an
exponential moving average of the gradient with weight theta, and a
Bernoulli(p) gate decides whether the second gradient is taken; on skipped
steps the unperturbed gradient is reused.  theta=1 gives SAM, p=0 gives SGD,
p=1 gives VASSO, 0<p<1 gives eVASSO, and an independently sampled adversary
batch gives SAM-db.  ``sgd_step`` and ``sam_step`` are independent reference
implementations of the two limits.  ``sfw_solve`` runs the Frank-Wolfe
recursion over the sphere that the one-step adversary is a special case of.

``vasso_step``, ``vasso_update``, ``base_update`` and ``AdversaryState`` also
take a stack of S seeds: x, batches, the slope and the momentum buffer carry
a leading seed axis, and every row is computed exactly as the one-vector
call on that row would compute it.  The rows of a stack may step under
different configs (``ArmKnobs``): then the knobs are given per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (DEGENERATE_NORM_TOL, Schedule, normalize_to_sphere, row_norms,
                   schedule_value)
from .errors import InvalidParameterError, NonFiniteError


@dataclass(frozen=True)
class OptimizerConfig:
    rho: float = 0.05            # perturbation radius
    theta: float = 0.2           # EMA weight; 1 collapses VASSO to SAM
    p: float = 1.0               # gate probability; 1 collapses eVASSO to VASSO
    lr: Schedule = field(default_factory=lambda: Schedule("constant", 0.01))
    rho_schedule: Schedule | None = None
    momentum: float = 0.0
    weight_decay: float = 0.0

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

    def rho_at(self, t: int) -> float:
        if self.rho_schedule is None:
            return self.rho
        return schedule_value(self.rho_schedule, t)

    def lr_at(self, t: int) -> float:
        return schedule_value(self.lr, t)

    @property
    def always_opens(self) -> bool:
        return self.p == 1.0

    @property
    def never_opens(self) -> bool:
        return self.p == 0.0

    def gate(self, rng):
        """The Bernoulli(p) outcome, one per row of a stack; draws only if 0<p<1."""
        return rng.random() < self.p if 0.0 < self.p < 1.0 else self.p == 1.0


def _shared(values) -> bool:
    """Whether the floats are all one value, the sign of a zero included."""
    return len({float(v).hex() for v in values}) == 1


class ArmKnobs:
    """The knobs of a stack whose rows step under several configs, the arms.

    Row i steps under ``configs[arm_of_row[i]]``.  A knob that every arm
    shares stays a scalar.  Otherwise theta, momentum, weight decay and
    ``lr_at(t)`` are (S, 1) columns, which scale each row by its own value,
    and p and ``rho_at(t)`` hold one value per row.  An elementwise product
    with a column equals the product with the row's scalar, so every row
    steps bit for bit as a stack of its arm alone would.  ``gate`` draws
    only when some row has 0 < p < 1; rows of p 0 and 1 read the outcome
    their p forces.
    """

    def __init__(self, configs, arm_of_row):
        configs, self._arm = list(configs), np.asarray(arm_of_row)
        self.theta = self._knob([c.theta for c in configs], column=True)
        self.momentum = self._knob([c.momentum for c in configs], column=True)
        self.weight_decay = self._knob([c.weight_decay for c in configs], column=True)
        self.p = self._knob([c.p for c in configs], column=False)
        ps = np.array([c.p for c in configs])
        self.always_opens = bool(np.all(ps == 1.0))
        self.never_opens = not np.any(ps)
        self._gated = bool(np.any((ps > 0.0) & (ps < 1.0)))
        # a schedule that every arm shares is evaluated once per step
        self._lr = configs[:1] if len({c.lr for c in configs}) == 1 else configs
        self._rho = configs[:1] if \
            len({(c.rho, c.rho_schedule) for c in configs}) == 1 else configs

    def _knob(self, values, column: bool):
        if len(values) == 1 or _shared(values):
            return values[0]
        per_row = np.array(values, dtype=np.float64)[self._arm]
        return per_row[:, np.newaxis] if column else per_row

    def lr_at(self, t: int):
        return self._knob([c.lr_at(t) for c in self._lr], column=True)

    def rho_at(self, t: int):
        return self._knob([c.rho_at(t) for c in self._rho], column=False)

    def gate(self, rng):
        return rng.random() < self.p if self._gated else self.p == 1.0


@dataclass
class AdversaryState:
    """EMA slope d_t plus its cached norm (the memory-efficient form).

    For a stack, ``d`` is (S, dim) and ``d_norm`` holds one norm per row.
    """

    d: np.ndarray
    d_norm: float | np.ndarray

    def epsilon(self, rho) -> np.ndarray:
        """Reconstruct the adversary rho * d/||d|| on demand.

        ``rho`` is one radius, or one per row of a stack.  The adversary is
        zero where rho == 0, and on every row whose slope is degenerate.
        """
        # NaN compares false: a failed row never moves the others off this path
        if isinstance(rho, np.ndarray):
            zero = (self.d_norm <= DEGENERATE_NORM_TOL) | (rho == 0.0)
        elif rho == 0.0:
            return np.zeros(self.d.shape)
        else:
            zero = np.asarray(self.d_norm) <= DEGENERATE_NORM_TOL
        if not zero.any():
            return np.divide(rho, self.d_norm)[..., np.newaxis] * self.d
        eps = np.divide(rho, np.where(zero, 1.0, self.d_norm))[..., np.newaxis] * self.d
        eps[zero] = 0.0
        return eps


@dataclass
class StepReport:
    """What a step did; for a stack every field but ``epsilon`` may be per row."""

    loss: float | np.ndarray
    grad_evals: int | np.ndarray
    epsilon: np.ndarray
    failed: np.ndarray | None = None   # rows with a non-finite value (stacks only)


def sam_adversary(g: np.ndarray, rho: float) -> np.ndarray:
    """epsilon = rho * g/||g||, or zero when rho == 0 or g is degenerate."""
    if rho < 0:
        raise InvalidParameterError(f"rho must be >= 0, got {rho}")
    if rho == 0.0:
        return np.zeros_like(g)
    return normalize_to_sphere(g, rho)


def vasso_update(state: AdversaryState | None, g: np.ndarray, theta, rho
                 ) -> tuple[AdversaryState, np.ndarray]:
    """One EMA update d <- (1-theta) d + theta g, plus the resulting adversary.

    ``state=None`` means the warm start d_{-1} := g, so the first adversary
    coincides with SAM's regardless of theta.  For a stack, theta may be an
    (S, 1) column and rho one radius per row.
    """
    ok = ((0.0 < theta) & (theta <= 1.0)).all() if isinstance(theta, np.ndarray) \
        else 0.0 < theta <= 1.0
    if not ok:
        raise InvalidParameterError(f"theta must be in (0,1], got {theta}")
    prev = g if state is None else state.d
    d = (1.0 - theta) * prev + theta * g
    new_state = AdversaryState(d=d, d_norm=row_norms(d))
    return new_state, new_state.epsilon(rho)


def base_update(x: np.ndarray, g_update: np.ndarray, cfg: OptimizerConfig | ArmKnobs,
                momentum_buffer: np.ndarray | None = None, *, t: int = 0
                ) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-ball update with decoupled-at-x weight decay.

    v <- momentum*v + g + wd*x ;  x <- x - eta_t*v.  Weight decay is taken at
    the unperturbed point x_t even when g came from a perturbed point.
    """
    eta = cfg.lr_at(t)
    step_dir = g_update + cfg.weight_decay * x
    if momentum_buffer is None:
        v = step_dir
    else:
        v = cfg.momentum * momentum_buffer + step_dir
    return x - eta * v, v


def _checked_loss_grad(obj, x, batch, t):
    loss, g = obj.loss_and_grad(x, batch)
    if not np.isfinite(loss) or not np.all(np.isfinite(g)):
        raise NonFiniteError("non-finite loss or gradient", t=t)
    return loss, g


def _checked_grad(obj, x, batch, t):
    g = obj.grad(x, batch)
    if not np.all(np.isfinite(g)):
        raise NonFiniteError("non-finite gradient at perturbed point", t=t)
    return g


def sgd_step(obj, x, batch, cfg: OptimizerConfig, rng, *, t: int = 0,
             momentum_buffer=None):
    """Plain base update with g_t(x_t); one gradient evaluation."""
    loss, g = _checked_loss_grad(obj, x, batch, t)
    x_new, buf = base_update(x, g, cfg, momentum_buffer, t=t)
    return x_new, StepReport(loss, 1, np.zeros_like(x)), buf


def sam_step(obj, x, batch, cfg: OptimizerConfig, rng, *, t: int = 0,
             momentum_buffer=None):
    """Ascend to x + rho*g/||g||, update with the gradient there (same batch)."""
    loss, g = _checked_loss_grad(obj, x, batch, t)
    eps = sam_adversary(g, cfg.rho_at(t))
    g_upd = _checked_grad(obj, x + eps, batch, t)
    x_new, buf = base_update(x, g_upd, cfg, momentum_buffer, t=t)
    return x_new, StepReport(loss, 2, eps), buf


def _finite_rows(g: np.ndarray):
    return np.isfinite(g).all(axis=-1)


def _fail(failed, ok, message: str, t: int):
    """Add the rows that are not ``ok`` to ``failed``; raise once all have failed."""
    if ok.all():
        return failed
    failed = ~ok if failed is None else failed | ~ok
    if failed.all():
        raise NonFiniteError(message, t=t)
    return failed


def vasso_step(obj, x, state: AdversaryState | None, batch,
               cfg: OptimizerConfig | ArmKnobs, rng, *, t: int = 0,
               momentum_buffer=None, adv_batch=None):
    """One sharpness-aware step with knobs theta, p and rho from ``cfg``.

    The EMA slope is fed the gradient on ``adv_batch`` when one is given
    (SAM-db) and on ``batch`` otherwise; for p > 0 it is updated on every
    step, whether or not the gate opens.  ``rng.random()`` draws the
    Bernoulli(p) gate only when 0 < p < 1; a forced outcome consumes no draw.
    p=0 returns right after the base update: one gradient evaluation and no
    slope work, exactly SGD.  With an adversary batch and p=1 the gradient at
    x on ``batch`` is never used, so only its loss is computed.

    For a stack of seeds, ``rng.random()`` returns one draw per row, and the
    second gradient is taken on the rows whose gate opens: when some gates
    stay closed, ``obj.grad`` gets the opened rows as its ``rows`` hint, and
    a closed row keeps its gradient at x whatever the objective computed
    there.  A row whose loss or gradient is not finite is marked in
    ``report.failed`` (None while every row is finite) and its outputs are
    meaningless.  NonFiniteError is raised once every row has failed, which
    for a single vector is its first non-finite value.

    With ``ArmKnobs`` each row steps under its own arm's knobs.  A row of
    p=0 then takes the closed-gate path: its one gradient, a zero adversary
    and one evaluation, as SGD does.  ``adv_batch`` then holds an adversary
    batch on every row, a row of an arm without one carrying its own batch.
    """
    if adv_batch is not None and cfg.always_opens:
        loss, g = obj.loss(x, batch), None
        ok = np.isfinite(loss)
    else:
        loss, g = obj.loss_and_grad(x, batch)
        ok = _finite_rows(g)
        if adv_batch is not None:   # a row whose gate always opens never uses g
            ok = ok | (cfg.p == 1.0)
        ok = np.isfinite(loss) & ok
    failed = _fail(None, ok, "non-finite loss or gradient", t)
    if cfg.never_opens:
        x_new, buf = base_update(x, g, cfg, momentum_buffer, t=t)
        return x_new, state, StepReport(loss, 1, np.zeros(x.shape), failed), buf
    if adv_batch is None:
        g_adv = g
    else:
        g_adv = obj.grad(x, adv_batch)
        failed = _fail(failed, _finite_rows(g_adv),
                       "non-finite gradient on the adversary batch", t)
    state, eps = vasso_update(state, g_adv, cfg.theta, cfg.rho_at(t))
    opened = cfg.gate(rng)   # one outcome per row of a stack
    n_closed = np.count_nonzero(np.logical_not(opened))
    if not n_closed:
        g_upd = obj.grad(x + eps, batch)
        failed = _fail(failed, _finite_rows(g_upd),
                       "non-finite gradient at perturbed point", t)
    elif n_closed < np.size(opened):   # some rows of a stack keep their gradient at x
        g_pert = obj.grad(x + eps, batch, rows=opened)
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
