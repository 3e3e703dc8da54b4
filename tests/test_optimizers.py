import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vasso_opt import optimizers
from vasso_opt.core import Schedule, make_rng, norm2, schedule_value
from vasso_opt.errors import InvalidParameterError, NonFiniteError
from vasso_opt.harness import Columns, FinalX, parse_config, run_seeds
from vasso_opt.objectives import (MlpObjective, NoisyQuadratic, make_blobs_dataset,
                                  mlp_objective)
from vasso_opt.optimizers import (ArmKnobs, OptimizerConfig, base_update,
                                  sam_adversary, sam_step, sfw_solve, sgd_step,
                                  vasso_step, vasso_update)


def _cfg(**kw):
    kw.setdefault("lr", Schedule("constant", 0.5))
    return OptimizerConfig(**kw)


def _knobs(**kw):
    """The knobs of ``_cfg(**kw)``, a stack of one arm, as ``vasso_step`` takes them."""
    return ArmKnobs([_cfg(**kw)])


# ---------------------------------------------------------------------------
# config validation


def test_an_adversary_batch_is_given_exactly_when_a_row_reads_fresh_rows():
    obj, x, batch = _quad(sigma=0.5), np.ones(2), np.zeros(2)
    with pytest.raises(InvalidParameterError, match="adv_batch is given exactly"):
        vasso_step(obj, x, None, batch, _knobs(rho=0.1), None, adv_batch=batch)
    with pytest.raises(InvalidParameterError, match="adv_batch is given exactly"):
        vasso_step(obj, x, None, batch, _knobs(rho=0.1, adv_batch=1), None)


def test_a_fresh_adversary_batch_needs_a_gate_that_always_opens():
    # a fresh row reads no gradient at x on its update batch, so none can close
    for p in (0.0, 0.5):
        with pytest.raises(InvalidParameterError, match="fresh adversary batch needs p = 1"):
            _cfg(p=p, adv_batch=2)
    assert _cfg(p=1.0, adv_batch=2).adv_batch == 2


def test_optimizer_config_rejects_bad_values():
    for bad in (dict(rho=-0.1), dict(theta=0.0), dict(theta=1.5),
                dict(p=-0.2), dict(p=1.2), dict(momentum=1.0),
                dict(weight_decay=-1.0), dict(adv_batch=-1)):
        with pytest.raises(InvalidParameterError):
            _cfg(**bad)


def test_radius_schedule_overrides_constant_rho():
    cfg = _cfg(rho=0.5, rho_schedule=Schedule("inverse-sqrt", 1.0))
    assert cfg.rho_at(0) == 1.0
    assert cfg.rho_at(3) == 0.5
    assert _cfg(rho=0.5).rho_at(99) == 0.5


# ---------------------------------------------------------------------------
# the closed-form adversary


def test_adversary_examples():
    assert np.allclose(sam_adversary(np.array([3.0, 4.0]), 0.5), [0.3, 0.4],
                       rtol=1e-15)
    assert np.array_equal(sam_adversary(np.zeros(3), 1.0), np.zeros(3))
    assert np.array_equal(sam_adversary(np.array([5.0, 1.0]), 0.0), np.zeros(2))
    with pytest.raises(InvalidParameterError):
        sam_adversary(np.ones(2), -0.5)


def test_adversary_maximizes_linear_form_over_gridded_sphere():
    g = np.array([1.0, 2.0])
    rho = 0.1
    eps = sam_adversary(g, rho)
    angles = np.linspace(0.0, 2.0 * math.pi, 1_000_000, endpoint=False)
    grid = rho * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    best = float(np.max(grid @ g))
    assert float(g @ eps) >= best - 1e-9
    assert float(g @ eps) <= rho * norm2(g) + 1e-12


_vecs = st.lists(st.floats(min_value=-100.0, max_value=100.0,
                           allow_nan=False),
                 min_size=1, max_size=12).map(np.asarray)


@given(g=_vecs, rho=st.floats(min_value=1e-3, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_adversary_is_feasible_and_aligned(g, rho):
    eps = sam_adversary(g, rho)
    n = norm2(eps)
    if norm2(g) <= 1e-12:
        assert n == 0.0
    else:
        assert abs(n - rho) <= 1e-12 * rho
        assert float(g @ eps) == pytest.approx(rho * norm2(g), rel=1e-10)


def test_a_stack_adversary_equals_each_rows_own():
    rng = make_rng(4, 16)
    g = rng.standard_normal((6, 5)) * np.array([[1.0], [1e3], [1e-3], [1.0], [1.0], [1.0]])
    g[3] = [1e-13, 0.0, 0.0, 0.0, 0.0]   # degenerate
    g[4, 2] = np.nan
    rhos = np.array([0.1, 0.0, 2.5, 0.3, 0.7, 1.0])   # one radius of 0
    eps = sam_adversary(g, rhos)
    for row, rho, e in zip(g, rhos, eps):
        assert sam_adversary(row, float(rho)).tobytes() == e.tobytes()
    assert not eps[1].any() and not eps[3].any() and np.isnan(eps[4]).all()
    # one shared radius equals one radius per row that holds it
    assert sam_adversary(g, 0.7).tobytes() == sam_adversary(g, np.full(6, 0.7)).tobytes()
    for bad in (-0.5, np.where(rhos == 2.5, -2.5, rhos)):   # a float, and inside an array
        with pytest.raises(InvalidParameterError, match="rho must be >= 0"):
            sam_adversary(g, bad)


# ---------------------------------------------------------------------------
# the averaged slope


def test_slope_update_hand_example():
    d, eps = vasso_update(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5, math.sqrt(2.0))
    assert np.array_equal(d, [0.5, 0.5])
    assert np.allclose(eps, [1.0, 1.0], rtol=1e-15)


def test_slope_update_theta_one_reduces_to_raw_gradient():
    d, eps = vasso_update(np.array([9.0, 9.0]), np.array([3.0, 4.0]), 1.0, 0.5)
    assert np.array_equal(d, [3.0, 4.0])
    assert np.allclose(eps, [0.3, 0.4], rtol=1e-15)


def test_slope_warm_start_matches_plain_adversary():
    g = np.array([0.3, -1.2, 0.4])
    d, eps = vasso_update(None, g, 0.2, 0.7)
    assert np.allclose(d, g, rtol=1e-15)
    assert np.allclose(eps, sam_adversary(g, 0.7), rtol=1e-14, atol=1e-16)


def test_slope_state_invariants():
    rng = make_rng(0, 16)
    d = None
    for _ in range(50):
        g = rng.standard_normal(5)
        d, eps = vasso_update(d, g, 0.3, 0.9)
        # adversary and slope share a direction
        assert float(eps @ d) == pytest.approx(0.9 * norm2(d), rel=1e-10)
        # the adversary is the slope's plain adversary
        assert np.array_equal(sam_adversary(d, 0.9), eps)


def test_slope_update_rejects_bad_theta():
    with pytest.raises(InvalidParameterError):
        vasso_update(None, np.ones(2), 0.0, 0.1)


# ---------------------------------------------------------------------------
# base update rule


def test_base_update_plain_step():
    x, v = base_update(np.array([1.0, 2.0]), np.array([0.5, 0.5]), _cfg())
    assert np.array_equal(x, [0.75, 1.75])
    assert np.array_equal(v, [0.5, 0.5])


def test_base_update_pure_weight_decay():
    cfg = _cfg(weight_decay=0.1, lr=Schedule("constant", 1.0))
    x, _ = base_update(np.array([1.0]), np.array([0.0]), cfg)
    assert np.allclose(x, [0.9], rtol=1e-15)


def test_base_update_momentum_two_step_unroll():
    cfg = _cfg(momentum=0.9, lr=Schedule("constant", 0.1))
    g = np.array([1.0])
    x, v = base_update(np.array([0.0]), g, cfg, None)
    assert np.array_equal(v, [1.0]) and np.allclose(x, [-0.1])
    x, v = base_update(x, g, cfg, v)
    assert np.allclose(v, [1.9], rtol=1e-15)
    assert np.allclose(x, [-0.29], rtol=1e-14)


def test_base_update_uses_schedule_at_t():
    cfg = _cfg(lr=Schedule("inverse-sqrt", 1.0))
    x, _ = base_update(np.array([0.0]), np.array([1.0]), cfg, t=3)
    assert np.array_equal(x, [-0.5])


def _full_base_update(x, g_update, cfg, momentum_buffer=None, *, t=0):
    """The heavy-ball formula with every term computed, zero knobs included."""
    v = g_update + cfg.weight_decay * x
    if momentum_buffer is not None:
        v = cfg.momentum * momentum_buffer + v
    return x - cfg.lr_at(t) * v, v


@pytest.mark.parametrize("knobs", [dict(), dict(momentum=0.9), dict(weight_decay=0.1)])
def test_a_zero_momentum_or_weight_decay_term_keeps_the_bits(knobs):
    # -0.0 gradient entries against +0.0, negative and positive x entries:
    # g + 0*x flips the sign of a zero entry of v, and x - eta*v does not see it
    cfg = ArmKnobs([_cfg(lr=Schedule("constant", 0.25), **knobs)])
    x = np.array([[0.0, -1.5, 2.0, 0.0], [3.0, 0.0, 1e-300, -2.0]])
    grads = [np.array([[-0.0, -0.0, 0.0, 1.0], [-0.0, 0.5, -0.0, 0.0]]),
             np.array([[-0.0, 1.0, -0.0, -0.0], [2.0, -0.0, -0.0, -0.0]]),
             np.array([[0.0, -0.0, -0.0, -0.0], [-0.0, -0.0, 1.0, -0.0]])]
    xa = xb = x
    va = vb = None
    for t, g in enumerate(grads):
        xa, va = base_update(xa, g, cfg, va, t=t)
        xb, vb = _full_base_update(xb, g, cfg, vb, t=t)
        assert xa.tobytes() == xb.tobytes()
        assert np.array_equal(va, vb)   # equal up to the sign of a zero
    if not knobs:   # neither term is computed: the step direction is g itself
        g = grads[0]
        assert base_update(x, g, cfg, np.ones_like(x))[1] is g


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("kind", ["sgd", "vasso", "evasso", "sam_db"])
def test_a_diverging_row_aborts_as_under_the_full_formula(kind, monkeypatch):
    # negative curvature: seed 1's row overflows at step 154, seeds 0 and 4
    # run on, seed 0 to a final loss of -inf; every row steps with zero
    # momentum and weight decay
    cfg = parse_config({
        "objective": {"kind": "quadratic", "diag": [-9.0, 1.0], "sigma": 0.5},
        "optimizer": {"kind": kind, "rho": 0.1, "theta": 0.3,
                      "lr": {"kind": "constant", "base": 1.0},
                      **({"p": 0.5} if kind == "evasso" else {})},
        "T": 155, "batch_size": 1, "seeds": [0, 1, 4]})
    got = run_seeds(cfg, [0, 1, 4], (Columns, FinalX))
    monkeypatch.setattr(optimizers, "base_update", _full_base_update)
    want = run_seeds(cfg, [0, 1, 4], (Columns, FinalX))
    assert [s["aborted_at"] for _, s in got] == [155, 154, None]
    for (rows, summary), (ref_rows, ref) in zip(got, want):
        assert rows.to_csv() == ref_rows.to_csv()
        assert summary.pop("final_x").tobytes() == ref.pop("final_x").tobytes()
        assert summary == ref


_SCHEDULES = [Schedule("constant", 0.3), Schedule("constant", 0.2, horizon=12),
              Schedule("cosine", 0.4, horizon=12), Schedule("inverse-sqrt", 0.5),
              Schedule("theory", 0.6, horizon=12)]


def test_lr_and_rho_settled_per_run_equal_the_schedules_at_every_step(monkeypatch):
    cfgs = [_cfg(lr=lr, rho=0.1, rho_schedule=rho)
            for lr in _SCHEDULES for rho in [None] + _SCHEDULES]
    arm_sets = [[c] for c in cfgs] + [cfgs[:2], [cfgs[0], cfgs[4]], cfgs[::5], cfgs]
    for arms in arm_sets:
        arm_of_row = np.repeat(np.arange(len(arms)), 2)
        knobs = ArmKnobs(arms, arm_of_row)
        for t in range(12):
            lr = [schedule_value(arms[a].lr, t) for a in arm_of_row]
            rho = [arms[a].rho_at(t) for a in arm_of_row]
            got_lr, got_rho = knobs.lr_at(t), knobs.rho_at(t)
            # one value stays a scalar, else a column (lr) or one per row (rho)
            assert np.ndim(got_lr) == (0 if len(set(lr)) == 1 else 2)
            assert np.ndim(got_rho) == (0 if len(set(rho)) == 1 else 1)
            assert np.broadcast_to(got_lr, (len(lr), 1)).tobytes() == \
                np.array(lr)[:, None].tobytes()
            assert np.broadcast_to(got_rho, len(rho)).tobytes() == np.array(rho).tobytes()
        # past a horizon, or before t=0, the schedule raises as it would
        bounded = any(c.lr.horizon or (c.rho_schedule and c.rho_schedule.horizon)
                      for c in arms)
        for t in (-1, 12) if bounded else (-1,):
            with pytest.raises(InvalidParameterError):
                knobs.lr_at(t), knobs.rho_at(t)
    # a schedule that does not depend on t is evaluated once per run
    calls = []
    real = optimizers.schedule_value
    monkeypatch.setattr(optimizers, "schedule_value",
                        lambda s, t: calls.append(t) or real(s, t))
    cfg = parse_config({"objective": {"kind": "quadratic", "diag": [1.0, 2.0], "sigma": 0.1},
                        "optimizer": {"kind": "vasso", "rho": 0.1, "lr": {
                            "kind": "constant", "base": 0.1}, "rho_schedule": {
                            "kind": "theory", "base": 0.1}},
                        "T": 20, "batch_size": 1, "seeds": [0, 1]})
    run_seeds(cfg, [0, 1])
    assert calls == [0, 0]


# ---------------------------------------------------------------------------
# single steps, hand-checked


def _quad(sigma=0.0, dim=2):
    return NoisyQuadratic(np.ones(dim), sigma=sigma)


def test_sgd_step_hand_example():
    obj = NoisyQuadratic(np.ones(1))
    x, rep, buf = sgd_step(obj, np.array([2.0]), np.zeros(1), _cfg(), None)
    assert np.array_equal(x, [1.0])
    assert rep.grad_evals == 1
    assert np.array_equal(rep.epsilon, [0.0])


def test_sgd_step_zero_lr_is_identity():
    cfg = _cfg(lr=Schedule("inverse-sqrt", 1e-300))
    x0 = np.array([1.0, -2.0])
    x, _, _ = sgd_step(_quad(), x0, np.zeros(2), cfg, None)
    assert np.allclose(x, x0, atol=1e-299)


def test_sam_step_hand_example():
    obj = _quad()
    x, rep, _ = sam_step(obj, np.array([1.0, 0.0]), np.zeros(2),
                         _cfg(rho=0.1), None)
    assert np.allclose(x, [0.45, 0.0], rtol=1e-15)
    assert np.allclose(rep.epsilon, [0.1, 0.0], rtol=1e-15)
    assert rep.loss == 0.5
    assert rep.grad_evals == 2


def test_sam_step_zero_radius_collapses_to_sgd():
    obj = _quad(sigma=0.7)
    cfg_sam = _cfg(rho=0.0)
    cfg_sgd = _cfg()
    xa = xb = np.array([1.0, -1.0])
    sampler_a = obj.make_sampler(1, make_rng(3, 1))
    sampler_b = obj.make_sampler(1, make_rng(3, 1))
    for t in range(50):
        xa, ra, _ = sam_step(obj, xa, sampler_a(), cfg_sam, None, t=t)
        xb, rb, _ = sgd_step(obj, xb, sampler_b(), cfg_sgd, None, t=t)
        assert np.array_equal(xa, xb)
        assert ra.loss == rb.loss


def test_first_slope_step_equals_plain_adversary():
    obj = _quad(sigma=1.0)
    x0 = np.array([2.0, 1.0])
    batch = obj.make_sampler(1, make_rng(5, 1))()
    g0 = obj.grad(x0, batch)
    _, _, rep, _ = vasso_step(obj, x0, None, batch, _knobs(rho=0.3), None)
    assert np.allclose(rep.epsilon, sam_adversary(g0, 0.3), rtol=1e-14)


def test_theta_one_trajectory_identical_to_sam():
    obj = _quad(sigma=0.5)
    cfg_v = _knobs(rho=0.2, theta=1.0)
    cfg_s = _cfg(rho=0.2)
    xa = xb = np.array([1.0, 2.0])
    state = None
    sa = obj.make_sampler(1, make_rng(7, 1))
    sb = obj.make_sampler(1, make_rng(7, 1))
    for t in range(50):
        xa, state, ra, _ = vasso_step(obj, xa, state, sa(), cfg_v, None, t=t)
        xb, rb, _ = sam_step(obj, xb, sb(), cfg_s, None, t=t)
        assert np.array_equal(xa, xb)
        assert np.array_equal(ra.epsilon, rb.epsilon)


def test_gate_probability_one_identical_to_ungated():
    obj = _quad(sigma=0.5)
    cfg = _knobs(rho=0.2, theta=0.3, p=1.0)
    xa = xb = np.array([0.5, -0.5])
    st_a = st_b = None
    sa = obj.make_sampler(1, make_rng(2, 1))
    sb = obj.make_sampler(1, make_rng(2, 1))
    gate = make_rng(2, 3)
    for t in range(50):
        xa, st_a, ra, _ = vasso_step(obj, xa, st_a, sa(), cfg, gate, t=t)
        xb, st_b, rb, _ = vasso_step(obj, xb, st_b, sb(), cfg, None, t=t)
        assert np.array_equal(xa, xb)
        assert ra.grad_evals == 2


def test_gate_probability_zero_reuses_unperturbed_gradient():
    obj = _quad(sigma=0.5)
    cfg = _knobs(rho=0.2, theta=0.3, p=0.0)
    cfg_sgd = _cfg()
    xa = xb = np.array([0.5, -0.5])
    state = None
    sa = obj.make_sampler(1, make_rng(2, 1))
    sb = obj.make_sampler(1, make_rng(2, 1))
    gate = make_rng(2, 3)
    for t in range(50):
        xa, state, ra, _ = vasso_step(obj, xa, state, sa(), cfg, gate, t=t)
        xb, rb, _ = sgd_step(obj, xb, sb(), cfg_sgd, None, t=t)
        assert np.array_equal(xa, xb)
        assert ra.grad_evals == 1
        assert np.array_equal(ra.epsilon, np.zeros(2))


def test_a_stacks_row_opens_exactly_when_its_uniform_is_below_its_p():
    obj = _quad(sigma=0.2)
    p = np.repeat([0.3, 0.7], 4)   # two arms, four rows each
    knobs = ArmKnobs([_cfg(rho=0.1, p=0.3), _cfg(rho=0.1, p=0.7)], [0] * 4 + [1] * 4)
    rng = make_rng(0, 3)
    x, state = np.ones((8, 2)), None
    for t in range(8):
        u = rng.random(8)
        x, state, rep, _ = vasso_step(obj, x, state, np.zeros((8, 2)), knobs, u, t=t)
        assert np.array_equal(rep.grad_evals, 1 + (u < p))


@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize("x", [np.ones(2), np.ones((3, 2))], ids=["vector", "stack"])
def test_a_forced_gate_steps_on_no_uniform(p, x):
    # u=None: a forced outcome reads no uniform
    _, _, rep, _ = vasso_step(_quad(sigma=0.2), x, None, np.zeros(x.shape),
                              _knobs(rho=0.1, p=p), None)
    assert np.all(rep.grad_evals == 1 + (p == 1.0)) and rep.epsilon.shape == x.shape


@pytest.mark.parametrize("x, u", [
    (np.ones(2), None), (np.ones(2), np.full(1, 0.5)),
    (np.ones((3, 2)), None), (np.ones((3, 2)), 0.5), (np.ones((3, 2)), np.full(2, 0.5)),
    (np.ones((3, 2)), np.full((3, 1), 0.5))],
    ids=["vector-none", "vector-array", "stack-none", "stack-float", "stack-short",
         "stack-column"])
def test_a_random_gate_given_other_than_one_uniform_per_row_raises(x, u):
    obj, knobs = _quad(sigma=0.2), _knobs(rho=0.1, p=0.5)
    with pytest.raises(InvalidParameterError, match="one uniform per row"):
        vasso_step(obj, x, None, np.zeros(x.shape), knobs, u)


def test_gate_rate_concentrates_around_p():
    obj = _quad(sigma=0.2)
    cfg = _knobs(rho=0.1, p=0.3, lr=Schedule("constant", 1e-3))
    gate = make_rng(1, 3)
    sampler = obj.make_sampler(1, make_rng(1, 1))
    x, state = np.ones(2), None
    hits = 0
    for t in range(2000):
        x, state, rep, _ = vasso_step(obj, x, state, sampler(), cfg, gate.random(), t=t)
        hits += rep.grad_evals - 1
    assert 0.25 <= hits / 2000 <= 0.35


def test_decoupled_batch_equals_same_batch_when_shared():
    obj = _quad(sigma=0.8)
    cfg = _cfg(rho=0.2, theta=1.0)
    knobs = _knobs(rho=0.2, theta=1.0, adv_batch=1)
    xa = xb = np.array([1.5, -0.5])
    state = None
    sa = obj.make_sampler(1, make_rng(4, 1))
    sb = obj.make_sampler(1, make_rng(4, 1))
    for t in range(50):
        batch_a, batch_b = sa(), sb()
        xa, state, ra, _ = vasso_step(obj, xa, state, batch_a, knobs, None, t=t,
                                      adv_batch=batch_a)
        xb, rb, _ = sam_step(obj, xb, batch_b, cfg, None, t=t)
        assert np.array_equal(xa, xb)
        assert ra.loss == rb.loss and ra.grad_evals == 2


def test_decoupled_batch_equals_sam_without_noise():
    obj = _quad(sigma=0.0)
    cfg = _cfg(rho=0.2, theta=1.0)
    knobs = _knobs(rho=0.2, theta=1.0, adv_batch=1)
    xa = xb = np.array([1.5, -0.5])
    state = None
    for t in range(20):
        # distinct zero batches: no stochasticity to decouple
        xa, state, _, _ = vasso_step(obj, xa, state, np.zeros(2), knobs, None, t=t,
                                     adv_batch=np.zeros(2))
        xb, _, _ = sam_step(obj, xb, np.zeros(2), cfg, None, t=t)
        assert np.array_equal(xa, xb)


@pytest.mark.filterwarnings("ignore:overflow")
def test_steps_abort_on_non_finite_values():
    obj = NoisyQuadratic(np.array([5.0]))
    cfg = _cfg(lr=Schedule("constant", 1e3))
    x = np.array([1.0])
    with pytest.raises(NonFiniteError) as err:
        for t in range(200):
            x, _, _ = sgd_step(obj, x, np.zeros(1), cfg, None, t=t)
    assert err.value.t is not None


def test_perturbed_second_moment_bound():
    # E||g(x+eps)||^2 <= 2 L^2 rho^2 + 2 ||grad f||^2 + 2 sigma^2, allowing
    # three standard errors of Monte-Carlo slack
    obj = NoisyQuadratic(np.linspace(0.5, 5.0, 6), sigma=0.8)
    rho, n = 0.3, 2000
    L = obj.lambda_max()
    rng = make_rng(6, 16)
    for _ in range(20):
        x = rng.standard_normal(6)
        gf = obj.full_grad(x)
        draws = obj.grad_draws(x, n, rng)
        sq = np.empty(n)
        for i in range(n):
            eps = sam_adversary(draws[i], rho)
            gp = obj.grad(x + eps, draws[i] - gf)
            sq[i] = norm2(gp) ** 2
        bound = 2 * L ** 2 * rho ** 2 + 2 * norm2(gf) ** 2 + 2 * obj.sigma2
        slack = 3 * float(np.std(sq)) / math.sqrt(n)
        assert float(np.mean(sq)) <= bound + slack


# ---------------------------------------------------------------------------
# non-finite values at x, with an adversary batch


def _poisoned_network(rows):
    """A network whose training row 0 has a NaN feature, as one seed's
    objective (rows None) or a stack of ``rows`` rows on that seed's data."""
    ds = make_blobs_dataset(6, 2, 2, 2.0, make_rng(0, 4))
    ds.features[0, 0] = np.nan
    obj = mlp_objective([2, 4, 2], "tanh", ds)
    return obj if rows is None else MlpObjective.stack([obj] * rows)


_ARMS = {"sam_db": [dict(theta=1.0, adv_batch=4)],
         "vasso+sam_db": [dict(theta=0.3), dict(theta=1.0, adv_batch=4)],
         "evasso+sam_db": [dict(theta=0.3, p=0.5), dict(theta=1.0, adv_batch=4)]}


@pytest.mark.parametrize("arms", sorted(_ARMS))
@pytest.mark.parametrize("poisoned", ["update", "adversary"])
def test_a_non_finite_value_at_x_fails_the_rows_the_separate_calls_fail(arms, poisoned):
    # row 0 of the data sits in the poisoned batch of rows 1 and 2 only: in
    # the update batch it makes a SAM-db row's forward-only loss NaN, and in
    # the adversary batch its slope's gradient
    configs = _ARMS[arms]
    arm_of_row = np.repeat(np.arange(len(configs)), 4 // len(configs))
    knobs = ArmKnobs([_cfg(rho=0.1, **c) for c in configs], arm_of_row)
    obj = _poisoned_network(4)
    rng = make_rng(3, 7)
    x = np.stack([obj.mlp.init_params(rng) for _ in range(4)])
    clean = np.stack([1 + rng.permutation(obj.n_samples - 1)[:4] for _ in range(2 * 4)])
    batch, adv = clean[:4], clean[4:]
    (batch if poisoned == "update" else adv)[[1, 2], 0] = 0
    fresh = np.broadcast_to(knobs.fresh, 4)
    u = np.full(4, 0.25) if knobs.gated else None
    with np.errstate(invalid="ignore"):
        _, _, rep, _ = vasso_step(obj, x, None, batch, knobs, u, t=3, adv_batch=adv)
        # the separate calls: the loss on the update batch, the slope's gradient
        bad = ~np.isfinite(obj.loss(x, batch)) | ~np.isfinite(
            obj.loss_and_grad(x, np.where(fresh[:, np.newaxis], adv, batch))[1]).all(axis=1)
    # a poisoned update batch fails every row it feeds; a poisoned adversary
    # batch only the fresh rows
    want = np.array([False, True, True, False]) & (fresh | (poisoned == "update"))
    assert bad.tolist() == want.tolist() and rep.failed.tolist() == want.tolist()


@pytest.mark.parametrize("poisoned, message", [
    ("update", "non-finite loss or gradient (iteration t=3)"),
    ("adversary", "non-finite gradient on the adversary batch (iteration t=3)")])
def test_one_vector_raises_at_its_first_non_finite_value_at_x(poisoned, message):
    obj = _poisoned_network(None)
    x = obj.init_params(make_rng(3, 7))
    batch, adv = np.array([1, 2, 3, 4]), np.array([5, 6, 7, 8])
    (batch if poisoned == "update" else adv)[0] = 0
    knobs = _knobs(rho=0.1, theta=1.0, adv_batch=4)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as err:
        vasso_step(obj, x, None, batch, knobs, None, t=3, adv_batch=adv)
    assert str(err.value) == message and err.value.t == 3


# ---------------------------------------------------------------------------
# a landscape where the perturbed update picks the flatter well
#
# Piecewise-quadratic double well (gradient is piecewise linear): a narrow
# well of curvature 22 at w=-1 and a very flat well of curvature 0.06 at
# w=+3, joined by a gentle downhill shelf past the ridge at w=-0.55.  With
# eta*curvature close to 2, the perturbed update's oscillation in the narrow
# well grows until it is thrown over the ridge, after which the shelf's
# asymmetry carries it to the flat well; plain descent contracts and stays.

_DW_W = np.array([-1.80, -1.40, -1.00, -0.65, -0.55, -0.20, -0.10, 0.80,
                  2.00, 3.00, 4.00])
_DW_G = np.array([-26.4, -8.80, 0.00, 7.70, 0.00, -0.30, -3.00, -3.00,
                  -0.06, 0.00, 2.00])


class _DoubleWell:
    dim = 1

    def _fprime(self, w):
        if w <= _DW_W[0]:
            return _DW_G[0] + 44.0 * (w - _DW_W[0])
        if w >= _DW_W[-1]:
            return _DW_G[-1] + 2.0 * (w - _DW_W[-1])
        return float(np.interp(w, _DW_W, _DW_G))

    def loss(self, x, batch):
        # integral of the piecewise-linear gradient from the left end
        w = float(x[0])
        total, prev = 0.0, _DW_W[0]
        for wk, wk1, gk, gk1 in zip(_DW_W[:-1], _DW_W[1:], _DW_G[:-1],
                                    _DW_G[1:]):
            hi = min(w, wk1)
            if hi <= wk:
                break
            ga = np.interp(wk, _DW_W, _DW_G)
            gb = np.interp(hi, _DW_W, _DW_G)
            total += 0.5 * (ga + gb) * (hi - wk)
            prev = hi
        return total

    def grad(self, x, batch):
        return np.array([self._fprime(float(x[0]))])

    def loss_and_grad(self, x, batch):
        return self.loss(x, batch), self.grad(x, batch)


def _descend(step_fn, cfg, w0, T=2500):
    obj = _DoubleWell()
    x, buf = np.array([w0]), None
    for t in range(T):
        x, _, buf = step_fn(obj, x, None, cfg, None, t=t, momentum_buffer=buf)
    return float(x[0])


def test_perturbed_descent_settles_in_the_flat_well():
    cfg_sgd = _cfg(lr=Schedule("constant", 0.08))
    cfg_sam = _cfg(rho=0.1, lr=Schedule("constant", 0.08))
    # even count keeps the exact critical point w=-1 (zero gradient, hence
    # zero perturbation) out of the sweep
    for w0 in np.linspace(-1.29, -0.71, 24):
        assert abs(_descend(sgd_step, cfg_sgd, w0) + 1.0) < 0.05
        assert abs(_descend(sam_step, cfg_sam, w0) - 3.0) < 0.1


# ---------------------------------------------------------------------------
# Frank-Wolfe over the sphere


def test_one_step_frank_wolfe_equals_closed_form():
    rng = make_rng(0, 16)
    for _ in range(50):
        g = rng.standard_normal(8)
        rho = float(rng.uniform(0.01, 5.0))
        out = sfw_solve(lambda bs, r: g, rho, 1, [1], [1.0], rng)
        assert np.array_equal(out, sam_adversary(g, rho))
    zero = sfw_solve(lambda bs, r: np.zeros(4), 1.0, 1, [1], [1.0], rng)
    assert np.array_equal(zero, np.zeros(4))


def test_frank_wolfe_fixed_point_under_constant_gradient():
    c = np.array([2.0, -1.0, 0.5])
    rng = make_rng(1, 16)
    out = sfw_solve(lambda bs, r: c, 0.7, 5, [1] * 5, [1.0, 0.5, 0.5, 0.5, 0.5],
                    rng)
    v = sam_adversary(c, 0.7)
    assert np.array_equal(out, v)
    assert float(c @ out) == pytest.approx(0.7 * norm2(c), rel=1e-12)


def test_frank_wolfe_averaging_gap_shrinks_with_iterations():
    c = np.array([1.0, 3.0, -2.0, 0.5])
    rho = 1.0
    best = rho * norm2(c)

    def noisy(bs, rng):
        return c + rng.standard_normal(c.shape[0]) / math.sqrt(bs)

    def mean_gap(T):
        gaps = []
        for trial in range(30):
            rng = make_rng(trial, 16)
            x = sfw_solve(noisy, rho, T, [4 * (t + 1) for t in range(T)],
                          [2.0 / (t + 2) for t in range(T)], rng)
            gaps.append(best - float(c @ x))
        return float(np.mean(gaps))

    assert mean_gap(20) < mean_gap(1)


def test_frank_wolfe_validates_inputs():
    with pytest.raises(InvalidParameterError):
        sfw_solve(lambda bs, r: np.ones(2), 1.0, 0, [], [], make_rng(0, 16))
    with pytest.raises(InvalidParameterError):
        sfw_solve(lambda bs, r: np.ones(2), 1.0, 2, [1], [1.0], make_rng(0, 16))
    for grad in (np.zeros(3), np.ones(3)):   # the radius is checked whatever the slope
        with pytest.raises(InvalidParameterError, match="rho must be positive"):
            sfw_solve(lambda bs, r: grad, 0.0, 1, [1], [1.0], None)


# ---------------------------------------------------------------------------
# direction of the decoupled-batch comparison


def test_decoupled_batch_beats_shared_on_noisy_quadratic():
    """Decoupled adversary batches beat shared ones on the convex quadratic.

    Sharing the batch correlates the perturbation with the update noise: with
    eps ~ rho*zeta/||zeta|| the update noise gains a positive cross term
    2*rho*zeta'A zeta/||zeta|| that a decoupled eps does not have, so the
    steady-state loss is higher.
    """
    obj = NoisyQuadratic(np.linspace(0.5, 5.0, 20), sigma=3.0)
    cfg = _cfg(rho=0.3, lr=Schedule("constant", 0.05))
    cfg_db = _knobs(rho=0.3, theta=1.0, lr=Schedule("constant", 0.05), adv_batch=1)
    wins_decoupled = 0
    for seed in range(20):
        finals = {}
        for kind in ("sam", "sam_db"):
            rng_b = make_rng(seed, 1)
            rng_a = make_rng(seed, 2)
            sampler = obj.make_sampler(1, rng_b)
            adv_sampler = obj.make_sampler(1, rng_a)
            x, state = make_rng(seed, 0).standard_normal(20), None
            for t in range(3000):
                if kind == "sam":
                    x, _, _ = sam_step(obj, x, sampler(), cfg, None, t=t)
                else:
                    x, state, _, _ = vasso_step(obj, x, state, sampler(), cfg_db,
                                                None, t=t, adv_batch=adv_sampler())
            finals[kind] = obj.full_loss(x)
        wins_decoupled += finals["sam_db"] < finals["sam"]
    assert wins_decoupled >= 15


# ---------------------------------------------------------------------------
# the documented single-config call


def test_the_readme_library_example_runs_as_written(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    example = readme.split("## Library example", 1)[1]
    block = example.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))
