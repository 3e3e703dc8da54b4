"""Arms as rows of one lockstep stack, against each arm run on its own.

``run_arms`` steps the seeds of several configs (the arms) as the rows of
one stack.  Every arm's metrics, summaries and final iterates must equal
those of ``run_seeds`` on that arm alone, bit for bit, and so must the
``compare`` and ``tradeoff`` outputs built from them.
"""

import json
import logging
import weakref
from dataclasses import astuple

import numpy as np
import pytest

from vasso_opt import harness
from vasso_opt.cli import main
from vasso_opt.core import STREAM_GATE, make_rng, row_norms
from vasso_opt.errors import NonFiniteError
from vasso_opt.harness import (Columns, Drift, FinalX, paired_compare, parse_config,
                               run_arms, run_seeds, tradeoff_sweep)
from vasso_opt.objectives import Mlp, MlpObjective
from vasso_opt.optimizers import ArmKnobs, vasso_step


_run_arms = harness.run_arms   # the engine, before any test patches the name


def per_arm(cfgs, seeds, *args, **kwargs):
    """The reference: every arm through its own ``run_seeds``, a stack of its own."""
    return [_run_arms([cfg], seeds, *args, **kwargs)[0] for cfg in cfgs]


OBJECTIVES = {
    "quadratic-diag": {"kind": "quadratic", "diag": [0.5, 1.0, 2.0, 4.0, 3.0],
                       "sigma": 0.7},
    "quadratic-matrix": {"kind": "quadratic",
                         "matrix": [[2.0, 0.3, 0.1], [0.3, 1.0, -0.2],
                                    [0.1, -0.2, 0.5]],
                         "sigma": 0.5, "b": [0.1, -0.2, 0.3]},
    "blobs-holdout": {"kind": "blobs", "n_per_class": 10, "dim": 2,
                      "separation": 2.0, "hidden": [5], "label_noise": 0.1,
                      "holdout_fraction": 0.25},
}
_LR = {"kind": "constant", "base": 0.05}
# the arms differ in theta, p in {0, 0.5, 1}, rho, the lr schedule, the
# radius schedule, momentum and weight decay
MIXED = [
    {"kind": "evasso", "rho": 0.1, "theta": 0.3, "p": 0.5, "lr": _LR},
    {"kind": "sgd", "lr": {"kind": "cosine", "base": 0.1}, "momentum": 0.9},
    {"kind": "vasso", "rho": 0.2, "theta": 0.2, "lr": _LR, "weight_decay": 0.01,
     "rho_schedule": {"kind": "inverse-sqrt", "base": 0.2}},
    {"kind": "evasso", "rho": 0.1, "theta": 0.3, "p": 0.0, "lr": _LR},
    {"kind": "evasso", "rho": 0.05, "theta": 1.0, "p": 1.0,
     "lr": {"kind": "inverse-sqrt", "base": 0.1}, "momentum": 0.5},
    {"kind": "vasso", "rho": 0.0, "theta": 0.4, "lr": _LR},
    {"kind": "sam", "rho": 0.1, "lr": _LR},
]
ARM_SETS = {
    "mixed": MIXED,
    "mixed-with-sam-db": MIXED + [{"kind": "sam_db", "rho": 0.1, "lr": _LR}],
    # every gate opens: the update batch's gradient at x is never taken
    "sam-vasso-sam-db": [{"kind": "sam", "rho": 0.1, "lr": _LR},
                         {"kind": "vasso", "rho": 0.1, "theta": 0.3, "lr": _LR},
                         {"kind": "sam_db", "rho": 0.1, "lr": _LR}],
    "sam-db-own-adv-size": [{"kind": "sam", "rho": 0.1, "lr": _LR},
                            {"kind": "sam_db", "rho": 0.1, "lr": _LR},
                            {"kind": "sam_db", "rho": 0.1, "lr": _LR,
                             "adv_batch_size": 4}],
    # every gate stays shut, and only the lr differs
    "sgd-lrs": [{"kind": "sgd", "lr": _LR},
                {"kind": "sgd", "lr": {"kind": "cosine", "base": 0.1}}],
    "gates-forced-only": [{"kind": "evasso", "rho": 0.1, "p": 0.0, "lr": _LR},
                          {"kind": "evasso", "rho": 0.1, "p": 1.0, "lr": _LR}],
    # only momentum, or only weight decay, differs: alone, the zero arm never
    # computes that term, and in the stack its row scales it by a column's 0
    "momentum-only": [{"kind": "vasso", "rho": 0.1, "theta": 0.3, "lr": _LR},
                      {"kind": "vasso", "rho": 0.1, "theta": 0.3, "lr": _LR,
                       "momentum": 0.9}],
    "weight-decay-only": [{"kind": "evasso", "rho": 0.1, "theta": 0.3, "p": 0.5,
                           "lr": _LR, "weight_decay": 0.01},
                          {"kind": "evasso", "rho": 0.1, "theta": 0.3, "p": 0.5,
                           "lr": _LR}],
}


def _arms(objective, arm_set, T=16, metrics_every=3, seeds=(3, 0, 7)):
    return [parse_config({"objective": OBJECTIVES[objective], "optimizer": opt,
                          "T": T, "batch_size": 3, "seeds": list(seeds),
                          "metrics_every": metrics_every})
            for opt in ARM_SETS[arm_set]]


def _same_runs(got, want):
    assert len(got) == len(want)
    for arm_got, arm_want in zip(got, want):
        assert [c.to_csv() for c, _ in arm_got] == [c.to_csv() for c, _ in arm_want]
        for (_, s_got), (_, s_want) in zip(arm_got, arm_want):
            s_got, s_want = dict(s_got), dict(s_want)
            x_got, x_want = s_got.pop("final_x"), s_want.pop("final_x")
            assert json.dumps(s_got, sort_keys=True) == json.dumps(s_want, sort_keys=True)
            assert x_got.tobytes() == x_want.tobytes()


@pytest.mark.parametrize("arm_set", sorted(ARM_SETS))
@pytest.mark.parametrize("objective", sorted(OBJECTIVES))
def test_arms_in_one_stack_equal_each_arm_alone(objective, arm_set):
    cfgs = _arms(objective, arm_set)
    seeds = [3, 0, 7]
    _same_runs(run_arms(cfgs, seeds, (Columns, FinalX)),
               per_arm(cfgs, seeds, (Columns, FinalX)))


def test_only_sam_db_rows_take_a_gradient_on_the_adversary_batch(monkeypatch):
    # an eVASSO row's adversary batch is its own batch: its gradient at x is
    # taken once, on the update batch, though some gates are random
    cfgs = [parse_config({"objective": OBJECTIVES["blobs-holdout"], "optimizer": opt,
                          "T": 16, "batch_size": 3, "seeds": [3, 0, 7],
                          "metrics_every": 16})
            for opt in ({"kind": "evasso", "rho": 0.1, "theta": 0.3, "p": 0.5, "lr": _LR},
                        {"kind": "sam_db", "rho": 0.1, "lr": _LR})]
    steps, real_grad = [], Mlp.loss_and_grad   # per step: its x, and each call's x

    def step(obj, x, *args, **kwargs):
        steps.append((x, []))
        return vasso_step(obj, x, *args, **kwargs)

    def loss_and_grad(self, x, feats, labels, **kwargs):
        if steps:
            steps[-1][1].append((x.copy(), kwargs.get("forward_only", 0)))
        return real_grad(self, x, feats, labels, **kwargs)

    monkeypatch.setattr(harness, "vasso_step", step)
    monkeypatch.setattr(Mlp, "loss_and_grad", loss_and_grad)
    got = run_arms(cfgs, [3, 0, 7], (Columns, FinalX))
    monkeypatch.undo()
    assert len(steps) == 16
    for x, calls in steps:
        at_x = [(c, k) for c, k in calls if all((x == row).all(axis=1).any() for row in c)]
        # one call: every row on its slope batch, backward too, then SAM-db's
        # rows again on the update batch, forward only
        assert [(len(c), len(c) - k) for c, k in at_x] == [(9, 6)]
        assert np.array_equal(at_x[0][0][6:], x[3:])
    _same_runs(got, per_arm(cfgs, [3, 0, 7], (Columns, FinalX)))


# per step on three seeds: the forward and backward rows of the one network
# call at x, and the rows that take the perturbed gradient whatever the gates
_SAM_DB = {"kind": "sam_db", "rho": 0.1, "lr": _LR}
_EVASSO = {"kind": "evasso", "rho": 0.1, "theta": 0.3, "p": 0.5, "lr": _LR}
PASS_BUDGET = {
    "sgd": ([{"kind": "sgd", "lr": _LR}], (3, 3), 0),
    "sam": ([{"kind": "sam", "rho": 0.1, "lr": _LR}], (3, 3), 3),
    "vasso": ([{"kind": "vasso", "rho": 0.1, "theta": 0.3, "lr": _LR}], (3, 3), 3),
    "evasso": ([_EVASSO], (3, 3), 0),
    # SAM-db's rows again on the update batch, forward only
    "sam_db": ([_SAM_DB], (6, 3), 3),
    "vasso+sam_db": ([{"kind": "vasso", "rho": 0.1, "theta": 0.3, "lr": _LR}, _SAM_DB],
                     (9, 6), 6),
    "evasso+sam_db": ([_EVASSO, _SAM_DB], (9, 6), 3),
}


@pytest.mark.parametrize("arms", list(PASS_BUDGET))
def test_a_step_makes_the_network_passes_its_budget_allows(arms, monkeypatch):
    # one call at x, then one at the perturbed point over the rows that open:
    # the rows of a random gate add k, the opened ones, to the fixed rows
    specs, (at_x_forward, at_x_backward), fixed = PASS_BUDGET[arms]
    cfgs = [parse_config({"objective": OBJECTIVES["blobs-holdout"], "optimizer": opt,
                          "T": 12, "batch_size": 3, "seeds": [3, 0, 7],
                          "metrics_every": 12}) for opt in specs]
    steps = []   # per step: (calls, forward rows, backward rows), and the opened rows
    real_step, real_pass, real_loss = harness.vasso_step, Mlp.loss_and_grad, Mlp.loss

    def step(obj, x, *args, **kwargs):
        steps.append([0, 0, 0])
        out = real_step(obj, x, *args, **kwargs)
        steps[-1] = (tuple(steps[-1]), int(np.sum(np.broadcast_to(out[2].grad_evals,
                                                                  len(x)) - 1)))
        return out

    def count(x, forward_only):
        if steps and isinstance(steps[-1], list):   # inside a step
            rows = 1 if x.ndim == 1 else len(x)
            steps[-1][0] += 1
            steps[-1][1] += rows
            steps[-1][2] += rows - forward_only

    def loss_and_grad(self, x, feats, labels, **kwargs):
        count(x, kwargs.get("forward_only", 0))
        return real_pass(self, x, feats, labels, **kwargs)

    def loss(self, x, feats, labels):
        count(x, 1 if x.ndim == 1 else len(x))
        return real_loss(self, x, feats, labels)

    monkeypatch.setattr(harness, "vasso_step", step)
    monkeypatch.setattr(Mlp, "loss_and_grad", loss_and_grad)
    monkeypatch.setattr(Mlp, "loss", loss)
    run_arms(cfgs, [3, 0, 7], ())
    assert len(steps) == 12
    for counts, opened in steps:
        k = opened - fixed   # the opened rows of a random gate
        assert 0 <= k <= (3 if _EVASSO in specs else 0)
        want = (1 + bool(opened), at_x_forward + opened, at_x_backward + opened)
        assert counts == want, (counts, want)


def test_one_arm_steps_on_scalar_knobs_and_several_on_columns(monkeypatch):
    knobs = []

    def spy(obj, x, state, batch, cfg, *args, t=0, **kwargs):
        knobs.append([np.ndim(k) for k in (cfg.theta, cfg.momentum, cfg.weight_decay,
                                           cfg.p, cfg.lr_at(t), cfg.rho_at(t))])
        return vasso_step(obj, x, state, batch, cfg, *args, t=t, **kwargs)

    monkeypatch.setattr(harness, "vasso_step", spy)
    cfgs = _arms("quadratic-diag", "mixed", T=4)
    run_seeds(cfgs[0], [3, 0])
    assert knobs == [[0] * 6] * 4
    knobs.clear()
    run_arms(cfgs, [3, 0])
    assert knobs == [[2, 2, 2, 1, 2, 1]] * 4


def test_a_knob_every_arm_shares_stays_a_scalar():
    cfgs = [cfg.optimizer_config() for cfg in _arms("quadratic-diag", "mixed")]
    knobs = ArmKnobs(cfgs[:1] * 2, [0, 0, 1, 1])
    assert knobs.theta == cfgs[0].theta and knobs.lr_at(5) == cfgs[0].lr_at(5)
    knobs = ArmKnobs(cfgs[:3], [0, 0, 1, 1, 2, 2])
    assert knobs.theta.shape == knobs.lr_at(5).shape == (6, 1)
    assert knobs.p.shape == knobs.rho_at(5).shape == (6,)
    assert knobs.p.tolist() == [0.5, 0.5, 0.0, 0.0, 1.0, 1.0]
    assert knobs.lr_at(5)[:, 0].tolist() == [c.lr_at(5) for c in cfgs[:3] for _ in "ab"]
    assert knobs.rho_at(5).tolist() == [c.rho_at(5) for c in cfgs[:3] for _ in "ab"]


@pytest.mark.parametrize("arm_set, knob", [("momentum-only", "momentum"),
                                            ("weight-decay-only", "weight_decay")])
def test_a_zero_knob_is_a_scalar_alone_and_a_column_beside_another_value(arm_set, knob):
    # alone the zero arm skips the term; beside the other arm its rows scale by 0
    cfgs = [cfg.optimizer_config() for cfg in _arms("quadratic-diag", arm_set)]
    zero = next(c for c in cfgs if getattr(c, knob) == 0.0)
    assert np.ndim(getattr(ArmKnobs([zero], [0, 0]), knob)) == 0
    column = getattr(ArmKnobs(cfgs, [0, 0, 1, 1]), knob)
    assert column.shape == (4, 1) and np.count_nonzero(column) == 2


def test_arms_of_another_adversary_batch_size_keep_their_own_stack(monkeypatch):
    stacks, lockstep = [], harness._lockstep

    def spy(cfgs, *args):
        stacks.append([c.optimizer.get("adv_batch_size") for c in cfgs])
        return lockstep(cfgs, *args)

    monkeypatch.setattr(harness, "_lockstep", spy)
    run_arms(_arms("blobs-holdout", "sam-db-own-adv-size"), [3, 0])
    assert stacks == [[None, None], [4]]


def test_arms_may_differ_only_in_the_optimizer_spec():
    cfgs = _arms("quadratic-diag", "sgd-lrs")
    with pytest.raises(harness.ConfigError, match="optimizer spec"):
        run_arms([cfgs[0], cfgs[1].derive(batch_size=4)], [0])


def test_no_seeds_give_each_arm_no_runs():
    cfgs = _arms("quadratic-diag", "mixed")
    assert run_arms(cfgs[:1], []) == [[]]
    assert run_arms(cfgs, []) == [[] for _ in cfgs]


def _log_lines(caplog):
    # a record holds the lines of one epoch, or every done: line, of a stack
    return [line for r in caplog.records for line in r.getMessage().split("\n")]


def test_the_log_lines_of_several_arms_name_their_arm(caplog):
    cfgs = _arms("blobs-holdout", "mixed", T=16)[:2]
    with caplog.at_level(logging.INFO, logger="vasso_opt"):
        run_seeds(cfgs[0], [3, 0])
    alone = _log_lines(caplog)
    assert any("epoch=" in m for m in alone) and all(m.startswith("seed=") for m in alone)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="vasso_opt"):
        run_arms(cfgs, [3, 0])
    tagged = _log_lines(caplog)
    assert {m[:6] for m in tagged} == {"arm=0 ", "arm=1 "}
    assert sorted(m for m in tagged if m.startswith("arm=0 ")) == \
        sorted("arm=0 " + m for m in alone)


# ---------------------------------------------------------------------------
# gate draws: one stream per seed, shared by the arms


def _gate_streams(monkeypatch):
    made = []

    def make(seed, stream):
        rng = make_rng(seed, stream)
        if stream == STREAM_GATE:
            made.append((seed, rng))
        return rng

    monkeypatch.setattr(harness, "make_rng", make)
    return made


def _draws_taken(rng, seed):
    """How many uniforms ``rng`` has handed out since it was made (up to 100)."""
    nxt = rng.random()
    ref = make_rng(seed, STREAM_GATE)
    for k in range(100):
        if ref.random() == nxt:
            return k
    raise AssertionError("gate stream is not the seed's own")


@pytest.mark.parametrize("arm_set, draws", [("gates-forced-only", 0),
                                            ("sgd-lrs", 0), ("mixed", 16)])
def test_each_seed_draws_its_gate_once_per_step_only_for_a_random_arm(
        arm_set, draws, monkeypatch):
    # p=0 and p=1 rows draw nothing, so no gate stream is even made; the
    # rows of 0<p<1 arms read T draws
    made = _gate_streams(monkeypatch)
    run_arms(_arms("quadratic-diag", arm_set), [3, 0, 7])
    assert [seed for seed, _ in made] == ([3, 0, 7] if draws else [])
    assert [_draws_taken(rng, seed) for seed, rng in made] == [draws] * len(made)


# ---------------------------------------------------------------------------
# compare and tradeoff outputs against per-arm runs


def _cli_outputs(argv, tmp_path, capsys, monkeypatch, reference):
    out = tmp_path / "out.csv"
    with monkeypatch.context() as m:
        if reference:
            m.setattr(harness, "run_arms", per_arm)
        rc = main(argv + ["--out", str(out)])
    return rc, capsys.readouterr().out, out.read_bytes()


def _write(tmp_path, name, objective, optimizer, T):
    path = tmp_path / name
    path.write_text(json.dumps({"objective": OBJECTIVES[objective],
                                "optimizer": optimizer, "T": T,
                                "batch_size": 3, "seeds": [0]}))
    return str(path)


@pytest.mark.parametrize("pair", [("sam", "sam_db"), ("vasso", "sam_db"),
                                  ("evasso", "sgd"), ("sam", "sam_db_adv4")])
@pytest.mark.parametrize("objective", ["quadratic-diag", "blobs-holdout"])
def test_compare_writes_the_bytes_of_per_arm_runs(objective, pair, tmp_path,
                                                  capsys, monkeypatch):
    specs = {"sam": {"kind": "sam", "rho": 0.1, "lr": _LR},
             "sam_db": {"kind": "sam_db", "rho": 0.1, "lr": _LR},
             "sam_db_adv4": {"kind": "sam_db", "rho": 0.1, "lr": _LR,
                             "adv_batch_size": 4},
             "vasso": {"kind": "vasso", "rho": 0.1, "theta": 0.2, "lr": _LR,
                       "momentum": 0.5},
             "evasso": {"kind": "evasso", "rho": 0.2, "theta": 0.3, "p": 0.5,
                        "lr": {"kind": "cosine", "base": 0.1}},
             "sgd": {"kind": "sgd", "lr": _LR, "weight_decay": 0.01}}
    argv = ["compare", "--config-a", _write(tmp_path, "a.json", objective,
                                            specs[pair[0]], 40),
            "--config-b", _write(tmp_path, "b.json", objective, specs[pair[1]], 40),
            "--seed", "4,1,9,2"]
    got = _cli_outputs(argv, tmp_path, capsys, monkeypatch, reference=False)
    want = _cli_outputs(argv, tmp_path, capsys, monkeypatch, reference=True)
    assert got == want and got[0] == 0


@pytest.mark.parametrize("esam", [[], ["--no-esam"]])
@pytest.mark.parametrize("objective", ["quadratic-matrix", "blobs-holdout"])
def test_tradeoff_writes_the_bytes_of_per_arm_runs(objective, esam, tmp_path,
                                                   capsys, monkeypatch):
    cfg = _write(tmp_path, "cfg.json", objective,
                 {"kind": "evasso", "rho": 0.1, "theta": 0.2, "momentum": 0.3,
                  "lr": {"kind": "cosine", "base": 0.1},
                  "rho_schedule": {"kind": "inverse-sqrt", "base": 0.2}}, 40)
    argv = ["tradeoff", "--config", cfg, "--seed", "5,2,8",
            "--p-values", "0,0.3,0.5", *esam]
    got = _cli_outputs(argv, tmp_path, capsys, monkeypatch, reference=False)
    want = _cli_outputs(argv, tmp_path, capsys, monkeypatch, reference=True)
    assert got == want and got[0] == 0


def test_the_sweeps_take_no_metrics_gradient(monkeypatch):
    # the sweeps read summaries alone, so not even t=0's norm is taken
    calls = []
    full_grad = MlpObjective.full_grad
    monkeypatch.setattr(MlpObjective, "full_grad",
                        lambda self, x: calls.append(len(x)) or full_grad(self, x))
    base = _arms("blobs-holdout", "mixed", T=16, metrics_every=1)[0]
    tradeoff_sweep(base, [0.5], [3, 0])
    paired_compare(base, base.derive({"kind": "sam"}), [3, 0])
    assert calls == []


def _drifting(cfgs, seeds, record):
    """``run_arms`` taking drift whatever its caller asks."""
    return _run_arms(cfgs, seeds, (*record, Drift))


@pytest.mark.parametrize("record_wallclock", [False, True],
                         ids=["one-stack", "a-stack-per-arm"])
def test_the_sweep_and_a_training_prefix_take_no_drift_norm(record_wallclock,
                                                             monkeypatch):
    # neither reads drift: the rows and the final iterate are those of runs
    # that take it, counted as the never-opening stack's norms are counted
    base = _arms("blobs-holdout", "mixed", T=16)[0]   # eVASSO, p=0.5

    def outputs():
        rows = tradeoff_sweep(base, [0.0, 0.5], [3, 0],
                              record_wallclock=record_wallclock)
        x = harness.trained_point(base, 7, harness.build_objective(base.objective, 7), 16)
        return [astuple(r)[:-1] for r in rows], x.tobytes()

    with monkeypatch.context() as m:
        m.setattr(harness, "run_arms", _drifting)
        want = outputs()
    want_x = run_seeds(base.derive(seeds=[7]), [7], (Drift, FinalX))[0]["final_x"]
    norms = []
    monkeypatch.setattr(harness, "row_norms", lambda a: norms.append(1) or row_norms(a))
    assert outputs() == want and want[1] == want_x.tobytes()
    assert norms == []
    # a columns run and the compare still take them
    paired_compare(base, base.derive({"kind": "sam"}), [3, 0], metric="mean_drift")
    assert norms


@pytest.mark.parametrize("objective", ["quadratic-diag", "blobs-holdout"])
def test_a_final_loss_compare_takes_no_drift_norm(objective, monkeypatch):
    # the default metric reads no drift: the values, wins, p-value and final
    # iterates are those of a compare whose run takes it, and each summary
    # carries no mean_drift, as the sweep's do
    base = _arms(objective, "mixed", T=16)[0]   # eVASSO, p=0.5
    other = base.derive({"kind": "sam"})
    with monkeypatch.context() as m:
        m.setattr(harness, "run_arms", _drifting)
        want = paired_compare(base, other, [3, 0, 5, 1])
    norms = []
    monkeypatch.setattr(harness, "row_norms", lambda a: norms.append(1) or row_norms(a))
    got = paired_compare(base, other, [3, 0, 5, 1])
    assert norms == []
    for name in ("values_a", "values_b", "diffs"):
        assert np.array(getattr(got, name)).tobytes() == np.array(getattr(want, name)).tobytes()
    assert (got.wins_a, got.wins_b, got.ties) == (want.wins_a, want.wins_b, want.ties)
    assert np.float64(got.p_value).tobytes() == np.float64(want.p_value).tobytes()
    for g, w in zip(got.summaries_a + got.summaries_b, want.summaries_a + want.summaries_b):
        assert g.pop("final_x").tobytes() == w.pop("final_x").tobytes()
        assert w["mean_drift"] is not None
        assert json.dumps(g) == json.dumps(dict(w, mean_drift=None))


@pytest.mark.parametrize("arm_set, stacks", [("mixed", 1), ("sam-db-own-adv-size", 2)])
def test_each_seeds_objective_is_released_once_its_last_stack_is_built(
        arm_set, stacks, monkeypatch):
    refs, build = [], MlpObjective.build

    def spy_build(cls, spec, seeds):
        objs = build(spec, seeds)
        refs.extend(map(weakref.ref, objs))
        return objs

    alive, step = [], harness.vasso_step

    def spy_step(*args, **kwargs):
        alive.append(sum(r() is not None for r in refs))
        return step(*args, **kwargs)

    monkeypatch.setattr(MlpObjective, "build", classmethod(spy_build))
    monkeypatch.setattr(harness, "vasso_step", spy_step)
    run_arms(_arms("blobs-holdout", arm_set, T=16), [3, 0, 7])
    # an earlier stack steps while the last one still needs the objectives
    assert len(refs) == 3 and alive == [3] * 16 * (stacks - 1) + [0] * 16


# ---------------------------------------------------------------------------
# a diverging arm


def _diverging(T, lrs, kind="vasso"):
    # negative curvature: |x| grows by 1 + 9*lr per step until it overflows
    return [parse_config({
        "objective": {"kind": "quadratic", "diag": [-9.0, 1.0], "sigma": 0.5},
        "optimizer": {"kind": kind, "rho": 0.1, "theta": 0.3, "p": 0.5,
                      "lr": {"kind": "constant", "base": lr}},
        "T": T, "batch_size": 1, "seeds": [0, 1, 4]}) for lr in lrs]


def test_a_diverging_arm_leaves_the_other_arms_alone():
    cfgs = _diverging(155, [0.001, 1.0])
    got = run_arms(cfgs, [0, 1, 4], (Columns, FinalX))
    # seed 0 runs every step, but its final loss is -inf
    assert [s["aborted_at"] for _, s in got[1]] == [155, 154, None]
    assert not any(s["aborted"] for _, s in got[0])
    _same_runs(got, per_arm(cfgs, [0, 1, 4], (Columns, FinalX)))


def _raised(fn, monkeypatch, reference):
    with monkeypatch.context() as m:
        if reference:
            m.setattr(harness, "run_arms", per_arm)
        with pytest.raises(NonFiniteError) as err:
            fn()
    return str(err.value), err.value.t


def test_a_diverging_arm_fails_the_compare_and_the_sweep_as_before(monkeypatch):
    # every RuntimeWarning is an error in this suite: none may escape
    slow, fast = _diverging(160, [0.001, 1.0])
    for fn in (lambda: paired_compare(slow, fast, [0, 1, 4]),
               lambda: paired_compare(fast, slow, [0, 1, 4]),
               lambda: tradeoff_sweep(fast.derive({"kind": "evasso"}), [0.0, 0.5],
                                      [0, 1, 4])):
        got = _raised(fn, monkeypatch, reference=False)
        assert got == _raised(fn, monkeypatch, reference=True)
    assert got[0] == "a evasso run aborted during the tradeoff sweep"


# ---------------------------------------------------------------------------
# recorded wallclock: one stack per arm


@pytest.mark.parametrize("flag", [[], ["--record-wallclock"]])
def test_tradeoff_times_each_arm_in_its_own_stack_only_on_request(
        flag, tmp_path, capsys, monkeypatch):
    stacks, lockstep = [], harness._lockstep

    def spy(cfgs, *args):
        stacks.append(len(cfgs))
        return lockstep(cfgs, *args)

    monkeypatch.setattr(harness, "_lockstep", spy)
    cfg = _write(tmp_path, "cfg.json", "quadratic-diag",
                 {"kind": "evasso", "rho": 0.1, "p": 0.5, "lr": _LR}, 20)
    out = tmp_path / "sweep.csv"
    assert main(["tradeoff", "--config", cfg, "--seed", "0,1", "--p-values",
                 "0.5", "--out", str(out), *flag]) == 0
    cells = [line.split(",")[-1] for line in out.read_text().splitlines()[1:]]
    assert len(cells) == 5
    if flag:
        assert stacks == [1] * 5 and all(float(c) > 0.0 for c in cells)
    else:
        assert stacks == [5] and cells == [""] * 5
