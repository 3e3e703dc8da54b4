"""The lockstep engine against the per-seed loop it replaced.

``reference_run`` is the per-seed training loop as it stood before seeds were
stacked: one seed, 1-D parameters, one ``vasso_step`` per iteration.  The
engine must reproduce its metrics rows and summaries bit for bit, for every
seed of a stack, whatever the other seeds of the stack do.
"""

import json
import warnings
from functools import partial

import numpy as np
import pytest

from vasso_opt import core, harness
from vasso_opt.core import (STREAM_ADV_BATCH, STREAM_BATCH, STREAM_GATE,
                            Schedule, make_rng, norm2, row_norms)
from vasso_opt.cli import main
from vasso_opt.errors import NonFiniteError
from vasso_opt.harness import (METRICS_HEADER, Columns, Drift, FinalX, MetricsColumns,
                               MetricsRow, build_objective, init_x,
                               parse_config, run_experiment, run_seed, run_seeds)
from vasso_opt.objectives import EpochSampler, Mlp, MlpObjective, NoisyQuadratic
from vasso_opt.optimizers import AdversaryState, ArmKnobs, OptimizerConfig, vasso_step


def reference_run(cfg, seed):
    """The per-seed loop: (metrics rows, summary) of one seed."""
    obj = build_objective(cfg.objective, seed)
    x = init_x(obj, cfg.objective, seed)
    ocfg = ArmKnobs([cfg.optimizer_config()])
    sampler = obj.make_sampler(cfg.batch_size, make_rng(seed, STREAM_BATCH))
    adv_sampler = None
    if cfg.optimizer["kind"] == "sam_db":
        adv_bs = cfg.optimizer.get("adv_batch_size") or cfg.batch_size
        adv_sampler = obj.make_sampler(adv_bs, make_rng(seed, STREAM_ADV_BATCH))
    gate_rng = make_rng(seed, STREAM_GATE)

    state = buf = prev_eps = aborted_at = None
    grad_cum, drift_sum, drift_count = 0, 0.0, 0
    rows = []
    for t in range(cfg.T):
        batch = sampler()
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
        rows.append(MetricsRow(seed, t, rep.loss, fg_norm, drift, grad_cum, None))
    final_loss = None if aborted_at is not None else obj.final_loss(x)
    if final_loss is not None and not np.isfinite(final_loss):   # it did not finish
        aborted_at, final_loss = cfg.T, None
    summary = {
        "seed": seed,
        "aborted": aborted_at is not None,
        "aborted_at": aborted_at,
        "total_grad_evals": grad_cum,
        "mean_drift": (drift_sum / drift_count) if drift_count else 0.0,
        "final_loss": final_loss,
    }
    return rows, summary


def _csv(rows):
    """CSV lines of reference rows, or of a run's ``MetricsColumns``."""
    if isinstance(rows, MetricsColumns):
        return rows.to_csv()
    return "".join(row.to_csv() + "\n" for row in rows)


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
KINDS = {"sgd": {}, "sam": {"rho": 0.1}, "vasso": {"rho": 0.1, "theta": 0.3},
         "evasso": {"rho": 0.1, "theta": 0.3, "p": 0.4}, "sam_db": {"rho": 0.1}}
OPTIONS = {
    "plain": ({}, {}),
    "momentum-wd": ({"momentum": 0.9, "weight_decay": 0.01}, {}),
    "rho-schedule-cosine": ({"lr": {"kind": "cosine", "base": 0.1},
                             "rho_schedule": {"kind": "inverse-sqrt", "base": 0.2}}, {}),
    "metrics-every-3": ({}, {"metrics_every": 3}),
}
CASES = [(o, k, opt) for o in OBJECTIVES for k in KINDS for opt in OPTIONS] + \
    [(o, "sam_db", "adv-batch-4") for o in OBJECTIVES]


def _case_cfg(objective, kind, option, seeds, output_path=None):
    opt_over, cfg_over = OPTIONS.get(option, ({"adv_batch_size": 4}, {}))
    optimizer = {"kind": kind, "lr": {"kind": "constant", "base": 0.05},
                 **KINDS[kind], **opt_over}
    raw = {"objective": OBJECTIVES[objective], "optimizer": optimizer, "T": 16,
           "batch_size": 3, "seeds": seeds, **cfg_over}
    if output_path is not None:
        raw["output_path"] = output_path
    return parse_config(raw)


@pytest.mark.parametrize("seeds", [[4], [3, 0, 7]], ids=["S1", "S3"])
@pytest.mark.parametrize("objective, kind, option", CASES)
def test_engine_reproduces_the_per_seed_loop(objective, kind, option, seeds,
                                             tmp_path):
    out = tmp_path / "m.csv"
    cfg = _case_cfg(objective, kind, option, seeds, str(out))
    result = run_experiment(cfg)
    expected = [reference_run(cfg, s) for s in seeds]
    assert out.read_text() == METRICS_HEADER + "\n" + \
        "".join(_csv(rows) for rows, _ in expected)
    assert [json.dumps(s, sort_keys=True) for s in result.summaries] == \
        [json.dumps(s, sort_keys=True) for _, s in expected]
    written = json.loads((tmp_path / "m.csv.summary.json").read_text())
    assert written["per_seed"] == [s for _, s in expected]


def test_one_seed_run_is_a_stack_of_one():
    cfg = _case_cfg("blobs-holdout", "evasso", "plain", [0, 1, 2])
    stacked = run_seeds(cfg, [0, 1, 2], (Columns, FinalX))
    for seed, (rows, summary) in zip([0, 1, 2], stacked):
        alone_rows, alone = run_seed(cfg, seed, keep_final_x=True)
        assert _csv(alone_rows) == _csv(rows)
        assert np.array_equal(alone.pop("final_x"), summary.pop("final_x"))
        assert alone == summary


def test_one_seed_steps_as_a_stack_of_one(monkeypatch):
    shapes = []

    def spy(obj, x, *args, **kwargs):
        shapes.append(x.shape)
        return vasso_step(obj, x, *args, **kwargs)

    monkeypatch.setattr(harness, "vasso_step", spy)
    cfg = _case_cfg("quadratic-diag", "evasso", "plain", [4])
    run_seed(cfg, 4)
    assert shapes == [(1, 5)] * cfg.T


# ---------------------------------------------------------------------------
# a seed that diverges is retired; the others run on untouched


def _diverging_cfg(kind, T):
    # negative curvature: |x| grows tenfold per step until the loss overflows,
    # which happens a step or two apart for different initial points
    return parse_config({
        "objective": {"kind": "quadratic", "diag": [-9.0, 1.0], "sigma": 0.5},
        "optimizer": {"kind": kind, "rho": 0.1, "theta": 0.3,
                      "lr": {"kind": "constant", "base": 1.0},
                      **({"p": 0.5} if kind == "evasso" else {})},
        "T": T, "batch_size": 1, "seeds": [0, 1, 4]})


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("kind", ["sgd", "vasso", "evasso", "sam_db"])
def test_only_the_diverging_seed_leaves_the_stack(kind):
    cfg = _diverging_cfg(kind, T=155)
    stacked = run_seeds(cfg, [0, 1, 4], (Columns, FinalX))
    expected = [reference_run(cfg, s) for s in [0, 1, 4]]
    # seed 0 runs every step, but its final loss is -inf
    assert [s["aborted_at"] for _, s in stacked] == [155, 154, None]
    for seed, (rows, summary), (ref_rows, ref) in zip([0, 1, 4], stacked, expected):
        assert _csv(rows) == _csv(ref_rows)
        final_x = summary.pop("final_x")
        assert summary == ref
        # the untouched seeds equal their runs alone, final iterate included
        alone_rows, alone = run_seed(cfg, seed, keep_final_x=True)
        assert _csv(alone_rows) == _csv(rows)
        assert np.array_equal(alone.pop("final_x"), final_x)


@pytest.mark.filterwarnings("ignore:overflow")
def test_seeds_leave_the_stack_one_by_one_until_none_is_left():
    # at T=156 seed 4 runs every step, but its final loss is not finite
    for T, aborted in ((156, [155, 154, 156]), (160, [155, 154, 156])):
        cfg = _diverging_cfg("evasso", T)
        stacked = run_seeds(cfg, [0, 1, 4])
        assert [s["aborted_at"] for _, s in stacked] == aborted
        for (rows, summary), (ref_rows, ref) in zip(
                stacked, [reference_run(cfg, s) for s in [0, 1, 4]]):
            assert _csv(rows) == _csv(ref_rows) and summary == ref


@pytest.mark.filterwarnings("ignore:overflow")
def test_a_row_failing_at_its_perturbed_point_leaves_the_others_alone():
    # row a's gradient is finite at x but overflows at x + eps; row b's is not
    obj = NoisyQuadratic(np.array([1e150, 0.0]), b=[0.0, 1.0])
    cfg = ArmKnobs([OptimizerConfig(rho=1e160, theta=1.0, lr=Schedule("constant", 0.1))])
    x_a, x_b, zero = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2)
    with pytest.raises(NonFiniteError, match="perturbed point"):
        vasso_step(obj, x_a, None, zero, cfg, None)
    xb_new, _, rep_b, _ = vasso_step(obj, x_b, None, zero, cfg, None)
    x_new, state, rep, _ = vasso_step(obj, np.stack([x_a, x_b]), None,
                                      np.zeros((2, 2)), cfg, None)
    assert rep.failed.tolist() == [True, False]
    assert np.array_equal(x_new[1], xb_new) and rep.loss[1] == rep_b.loss
    # a stack never raises, though every row fails
    _, _, rep, _ = vasso_step(obj, np.stack([x_a, x_a]), None, np.zeros((2, 2)), cfg, None)
    assert rep.failed.tolist() == [True, True]


def test_a_non_finite_slope_on_the_adversary_batch_names_that_batch():
    obj = NoisyQuadratic(np.array([1.0, 2.0]))
    cfg = ArmKnobs([OptimizerConfig(rho=0.1, theta=0.2, lr=Schedule("constant", 0.1),
                                    adv_batch=1)])
    with pytest.raises(NonFiniteError, match="non-finite gradient on the adversary batch"):
        vasso_step(obj, np.ones(2), None, np.zeros(2), cfg, None,
                   adv_batch=np.full(2, np.inf))


# a finite row whose slope is zero or below DEGENERATE_NORM_TOL
BESIDE_A_NAN_ROW = pytest.mark.parametrize(
    "slope", [[0.0, 0.0, 0.0], [1e-13, 0.0, 0.0]], ids=["zero", "degenerate"])


@BESIDE_A_NAN_ROW
def test_a_nan_slope_row_leaves_the_adversary_of_the_others_alone(slope):
    d = np.array([[np.nan, 0.0, 0.0], slope])
    eps = AdversaryState(d, row_norms(d)).epsilon(0.1)
    alone = AdversaryState(d[1:], row_norms(d[1:])).epsilon(0.1)
    assert eps[1].tolist() == alone[0].tolist() == [0.0, 0.0, 0.0]


@BESIDE_A_NAN_ROW
def test_a_nan_gradient_row_leaves_the_step_of_the_others_alone(slope):
    # identity quadratic at the origin: each row's gradient is its batch row
    obj = NoisyQuadratic(np.ones(3))
    cfg = ArmKnobs([OptimizerConfig(rho=0.1, theta=0.3, lr=Schedule("constant", 0.1))])
    x, batch = np.zeros((2, 3)), np.array([[np.nan, 0.0, 0.0], slope])
    x_new, state, rep, _ = vasso_step(obj, x, None, batch, cfg, None)
    x_one, state_one, rep_one, _ = vasso_step(obj, x[1:], None, batch[1:], cfg, None)
    assert rep.failed.tolist() == [True, False]
    for stack, one in ((x_new, x_one), (rep.epsilon, rep_one.epsilon),
                       (rep.loss, rep_one.loss), (state.d, state_one.d),
                       (state.d_norm, state_one.d_norm)):
        assert np.array_equal(stack[1], one[0])


# ---------------------------------------------------------------------------
# the gate stream of each seed


def _capture_gates(monkeypatch):
    made = {}

    def make(seed, stream):
        rng = make_rng(seed, stream)
        made[seed, stream] = rng
        return rng

    monkeypatch.setattr(harness, "make_rng", make)
    return made


def _draws_taken(rng, seed):
    """How many uniforms ``rng`` has handed out since it was made (up to 400)."""
    nxt = rng.random()
    ref = make_rng(seed, STREAM_GATE)
    for k in range(400):
        if ref.random() == nxt:
            return k
    raise AssertionError("gate stream is not the seed's own")


@pytest.mark.parametrize("p, draws", [(0.0, 0), (0.5, 40), (1.0, 0)])
def test_each_seed_draws_its_gate_once_per_step_only_when_random(p, draws,
                                                                 monkeypatch):
    made = _capture_gates(monkeypatch)
    run_seeds(parse_config({
        "objective": OBJECTIVES["quadratic-diag"],
        "optimizer": {"kind": "evasso", "rho": 0.1, "p": p,
                      "lr": {"kind": "constant", "base": 0.05}},
        "T": 40, "batch_size": 1, "seeds": [2, 5, 8]}), [2, 5, 8])
    for seed in (2, 5, 8):
        if draws:
            assert _draws_taken(made[seed, STREAM_GATE], seed) == draws
        else:   # a gate stream is made on its first draw
            assert (seed, STREAM_GATE) not in made


@pytest.mark.filterwarnings("ignore:overflow")
def test_a_retired_seed_keeps_its_row_until_the_run_ends(monkeypatch):
    shapes, real_step = [], vasso_step

    def spy(obj, x, *args, **kwargs):
        shapes.append(x.shape)
        return real_step(obj, x, *args, **kwargs)

    made = _capture_gates(monkeypatch)
    monkeypatch.setattr(harness, "vasso_step", spy)
    cfg = _diverging_cfg("evasso", T=156)
    stacked = run_seeds(cfg, [0, 1, 4])
    # seeds 0 and 1 are retired at steps 155 and 154, but every row of the
    # stack steps, and draws its gate, at all 156 steps; seed 4's final loss
    # is not finite
    assert shapes == [(3, 2)] * 156
    assert [_draws_taken(made[s, STREAM_GATE], s) for s in (0, 1, 4)] == \
        [156, 156, 156]
    assert [s["aborted_at"] for _, s in stacked] == [155, 154, 156]
    for seed, (rows, summary) in zip([0, 1, 4], stacked):
        ref_rows, ref = reference_run(cfg, seed)
        assert _csv(rows) == _csv(ref_rows) and summary == ref


@pytest.mark.parametrize("T", [1, 6, 7, 20])
def test_gate_blocks_equal_one_draw_per_step(T, monkeypatch):
    seeds = [3, 1, 4]
    monkeypatch.setattr(core, "BLOCK_BYTES", 8 * len(seeds) * 7)
    assert core.block_steps(len(seeds), 1) == 7
    rngs = [make_rng(s, STREAM_GATE) for s in seeds]
    stream = harness._batch_stream((rng.random for rng in rngs), T, 1,
                                   np.arange(len(seeds)))
    refs = [make_rng(s, STREAM_GATE) for s in seeds]
    # a batch is valid until the stream's next block: each row is copied
    got = np.array([batch.copy() for batch in stream])
    want = np.array([[ref.random() for ref in refs] for _ in range(T)])
    assert got.tobytes() == want.tobytes()
    # exactly T draws each: the streams stand where the per-step ones do
    assert [rng.random() for rng in rngs] == [ref.random() for ref in refs]


@pytest.mark.parametrize("kind", ["evasso", "sam_db"])
@pytest.mark.parametrize("block", [1, 5])
def test_runs_drawn_in_short_blocks_reproduce_the_per_seed_loop(kind, block,
                                                                monkeypatch):
    # three seeds of a 5-dim quadratic: block steps of noise per block, and a
    # short last block at T=16 when block is 5
    monkeypatch.setattr(core, "BLOCK_BYTES", 8 * 3 * 5 * block)
    assert core.block_steps(3, 5) == block
    cfg = _case_cfg("quadratic-diag", kind, "plain", [3, 0, 7])
    for (columns, summary), seed in zip(run_seeds(cfg, [3, 0, 7]), [3, 0, 7]):
        ref_rows, ref = reference_run(cfg, seed)
        assert _csv(columns) == _csv(ref_rows) and summary == ref


# blobs-holdout is a [2,5,2] net on 15 training and 5 held-out rows: a seed's
# widest activation holds 75 floats in a training pass and 25 in a held-out
# one, so these budgets split five seeds' passes into chunks of 1 and 2, 2, 1,
# or of 2, 2, 1 and one chunk
@pytest.mark.parametrize("budget", [8 * 25 * 2, 8 * 75 * 2], ids=["1-seed", "2-seed"])
@pytest.mark.parametrize("kind", ["vasso", "evasso"])
def test_runs_with_full_passes_in_seed_chunks_reproduce_the_per_seed_loop(
        kind, budget, monkeypatch, tmp_path):
    seeds = [3, 0, 7, 1, 4]
    out = tmp_path / "m.csv"
    cfg = _case_cfg("blobs-holdout", kind, "metrics-every-3", seeds, str(out))
    expected = [reference_run(cfg, s) for s in seeds]
    monkeypatch.setattr(core, "PASS_BYTES", budget)
    assert core.chunk_seeds(75) < len(seeds)
    result = run_experiment(cfg)
    assert out.read_text() == METRICS_HEADER + "\n" + \
        "".join(_csv(rows) for rows, _ in expected)
    assert result.summaries == [s for _, s in expected]


@pytest.mark.parametrize("n_seeds", [8, 64])
def test_a_stacked_full_gradient_peaks_under_one_bound_at_any_stack_size(n_seeds,
                                                                        traced_peak):
    # the diagnostics network, [2,32,2] on 512 blob rows: one seed's hidden
    # activation is 128 KiB, so a whole-stack pass would hold several of
    # those per seed, about 4.4 MB traced at 8 seeds and 35 MB at 64
    spec = {"n_per_class": 256, "n_classes": 2, "dim": 2, "separation": 3.0,
            "label_noise": 0.0, "hidden": [32], "activation": "tanh",
            "holdout_fraction": 0.0}
    parts = MlpObjective.build(spec, range(n_seeds))
    obj = MlpObjective.stack(parts)
    x = np.stack([o.init_params(make_rng(s, 0)) for s, o in enumerate(parts)])
    obj.full_grad(x)   # gathers the training rows, which the objective keeps
    assert traced_peak(obj.full_grad, x) < 1_000_000


@pytest.mark.parametrize("rows", [np.arange(16), np.tile(np.arange(16), 2)],
                         ids=["one-arm", "two-arms"])
def test_a_noise_block_is_built_in_one_allocation(rows, traced_peak):
    # 16 seeds of 8-dim noise: a block is about BLOCK_BYTES, and building it
    # holds it once beside one seed's draw
    quad = NoisyQuadratic(np.ones(8), sigma=0.5)
    samplers = [quad.make_sampler(1, make_rng(s, STREAM_BATCH)) for s in range(16)]
    k = core.block_steps(len(rows), 8)
    stream = harness._batch_stream(samplers, 2 * k, 8, rows)
    assert traced_peak(next, stream) <= 1.25 * (k * len(rows) * 8 * 8)


def test_an_epoch_table_is_built_in_one_allocation(traced_peak):
    # 16 seeds of 512 rows over two arms: the (32, 512) table is allocated
    # once beside the 16 orders the seeds' samplers draw and keep, half its size
    spec = _case_cfg("blobs-holdout", "sgd", "plain", [0]).objective
    spec = dict(spec, n_per_class=256, holdout_fraction=0.0, label_noise=0.0)
    objs = harness.OBJECTIVES["blobs"].build(spec, range(16))
    samplers = [o.make_sampler(64, make_rng(s, STREAM_BATCH)) for s, o in enumerate(objs)]
    stream = harness._batch_stream(samplers, 4, 1, np.tile(np.arange(16), 2), epochs=True)
    table_bytes = 32 * 512 * 8
    assert traced_peak(next, stream) <= 1.75 * table_bytes


# ---------------------------------------------------------------------------
# the working set of a run: one resident block per stream, one budget per
# run, and nothing that grows with T when the summaries are all it keeps


@pytest.mark.parametrize("rows", [np.arange(16), np.tile(np.arange(16), 2)],
                         ids=["one-arm", "two-arms"])
@pytest.mark.parametrize("stream", ["noise", "gates"])
def test_a_block_boundary_holds_one_block_per_stream(stream, rows, traced_peak):
    # three blocks of 16 seeds' draws, read as the engine reads them: the
    # loop holds each batch while the stream draws the next
    if stream == "noise":
        quad = NoisyQuadratic(np.ones(8), sigma=0.5)
        samplers, width = [quad.make_sampler(1, make_rng(s, STREAM_BATCH))
                           for s in range(16)], 8
    else:
        samplers, width = [make_rng(s, STREAM_GATE).random for s in range(16)], 1
    k = core.block_steps(len(rows), width)
    batches = harness._batch_stream(samplers, 3 * k, width, rows)

    def read_all():
        for _ in batches:
            pass

    assert traced_peak(read_all) <= 1.25 * (k * len(rows) * width * 8)


def _quad_stack_cfg(kind, dim, T, seeds):
    return parse_config({
        "objective": {"kind": "quadratic", "sigma": 0.5,
                      "diag": np.linspace(0.5, 2.0, dim).tolist()},
        "optimizer": {"kind": kind, "lr": {"kind": "constant", "base": 0.05},
                      **KINDS[kind]},
        "T": T, "batch_size": 1, "seeds": seeds, "metrics_every": T})


@pytest.mark.parametrize("kind, width", [("sam_db", 8), ("evasso", 5)],
                         ids=["two-noise-streams", "noise-and-gates"])
def test_the_block_streams_of_a_run_share_one_budget(kind, width, traced_peak):
    # 16 seeds of a 4-dim quadratic over two blocks and a few steps: each
    # stream alone would fill BLOCK_BYTES, so a run holding more than one
    # budget of blocks peaks near twice that
    seeds = list(range(16))
    cfg = _quad_stack_cfg(kind, 4, 2 * core.block_steps(16, width) + 5, seeds)
    assert traced_peak(run_seeds, cfg, seeds, (Drift,)) <= 1.25 * core.BLOCK_BYTES


def test_a_summary_only_run_peaks_alike_at_any_horizon(monkeypatch, traced_peak):
    # three arms, one gated, over four seeds of a 20-dim quadratic; blocks of
    # 50 steps, shorter than either run, leave T as the only difference
    seeds = [0, 1, 2, 3]
    monkeypatch.setattr(core, "BLOCK_BYTES", 8 * 12 * 21 * 50)

    def peak(T):
        cfgs = [_quad_stack_cfg(kind, 20, T, seeds) for kind in ("sam", "vasso", "evasso")]
        return traced_peak(harness.run_arms, cfgs, seeds, (Drift,))

    assert abs(peak(2000) - peak(200)) <= 64 * 1024


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("kind, T", [("sgd", 155), ("vasso", 155), ("sam_db", 155),
                                     ("evasso", 155), ("evasso", 160)],
                         ids=["sgd", "vasso", "sam_db", "evasso", "evasso-all-diverge"])
def test_running_totals_of_aborted_rows_equal_the_columns_run(kind, T):
    # at T=155 seed 1 diverges at step 154, seed 0 ends on a -inf final loss
    # (aborted at 155) and seed 4 finishes; at T=160 every seed diverges, and
    # the run ends at step 156, where the last of them fails
    cfg, seeds = _diverging_cfg(kind, T), [0, 1, 4]
    kept = run_seeds(cfg, seeds, (Columns, FinalX))
    alone = run_seeds(cfg, seeds, (Drift, FinalX))
    assert any(s["aborted"] for _, s in kept)
    assert all(s["aborted"] for _, s in kept) == (T == 160)
    for (columns, want), got in zip(kept, alone):
        assert got["final_x"].tobytes() == want.pop("final_x").tobytes()
        got.pop("final_x")
        assert json.dumps(got) == json.dumps(want)
        # and the totals are those the columns add up
        k = len(columns)
        assert want["total_grad_evals"] == (columns.grad_evals_cum[-1] if k else 0)
        assert want["mean_drift"] == \
            (float(np.cumsum(columns.eps_drift)[-1]) / (k - 1) if k > 1 else 0.0)


def test_a_stack_whose_gate_never_opens_drifts_by_plus_zero():
    cfg = _case_cfg("quadratic-diag", "sgd", "plain", [3, 0, 7])
    summaries = run_seeds(cfg, [3, 0, 7], (Drift,))
    drifts = np.array([s["mean_drift"] for s in summaries])
    assert drifts.tolist() == [0.0] * 3 and not np.signbit(drifts).any()
    [(cells, _)] = run_seeds(cfg, [3], (partial(Drift, table=True),))
    assert len(cells) == cfg.T - 1 and not cells.any() and not np.signbit(cells).any()
    # its adversary is +0.0 at every step
    knobs, x = ArmKnobs([cfg.optimizer_config()]), np.ones((3, 5))
    obj = NoisyQuadratic(np.ones(5))
    for t in range(2):
        eps = vasso_step(obj, x, None, np.zeros((3, 5)), knobs, None, t=t)[2].epsilon
        assert eps.shape == x.shape and not eps.any() and not np.signbit(eps).any()


# ---------------------------------------------------------------------------
# the epoch table: one order per seed and epoch, its column slices the batches


@pytest.mark.parametrize("stream, size", [(STREAM_BATCH, 3), (STREAM_ADV_BATCH, 4)],
                         ids=["update-batches", "sam-db-adversary-batches"])
@pytest.mark.parametrize("T", [1, 4, 5, 13])
def test_the_epoch_table_yields_the_batches_of_the_per_seed_samplers(
        stream, size, T, monkeypatch):
    # 15 training rows: batches of 3 divide them, batches of 4 end each epoch
    # on a batch of 3; the rows are those of two arms over three seeds
    seeds, rows = [3, 0, 7], np.array([0, 1, 2, 0, 1, 2])

    def samplers():
        spec = _case_cfg("blobs-holdout", "sgd", "plain", seeds).objective
        objs = harness.OBJECTIVES[spec["kind"]].build(spec, seeds)
        return [o.make_sampler(size, make_rng(s, stream)) for o, s in zip(objs, seeds)]

    refs, table = samplers(), samplers()
    want = [(np.array([ref() for ref in refs])[rows], [ref.epoch for ref in refs])
            for _ in range(T)]
    monkeypatch.setattr(EpochSampler, "__call__",
                        lambda self: pytest.fail("a single batch was drawn"))
    got = [(batch, [s.epoch for s in table])
           for batch in harness._batch_stream(table, T, 1, rows, epochs=True)]
    assert len(got) == T
    for (batch, epochs), (ref_batch, ref_epochs) in zip(got, want):
        assert batch.shape == ref_batch.shape
        assert batch.tobytes() == ref_batch.tobytes() and epochs == ref_epochs
    # one permutation per seed and epoch begun: the streams stand together
    assert [s.rng.random() for s in table] == [ref.rng.random() for ref in refs]


def test_an_evasso_stack_takes_the_perturbed_gradient_on_opened_rows_only(
        monkeypatch):
    # p=0.5 over 8 seeds: most steps open some gates and not others
    T, seeds = 30, list(range(8))
    cfg = parse_config({
        "objective": OBJECTIVES["blobs-holdout"],
        "optimizer": {"kind": "evasso", "rho": 0.1, "theta": 0.3, "p": 0.5,
                      "lr": {"kind": "constant", "base": 0.05}},
        "T": T, "batch_size": 5, "seeds": seeds, "metrics_every": T})
    batch_passes, real = [], Mlp.loss_and_grad

    def counting(self, x, feats, labels):
        if feats.shape[-2] == 5:   # not the full 15-row training set
            batch_passes.append(x.shape[0])
        return real(self, x, feats, labels)

    monkeypatch.setattr(Mlp, "loss_and_grad", counting)
    runs = run_seeds(cfg, seeds)
    opened = sum(s["total_grad_evals"] for _, s in runs) - T * len(seeds)
    assert 0 < opened < T * len(seeds)
    assert sum(batch_passes) - T * len(seeds) == opened
    assert any(0 < k < len(seeds) for k in batch_passes)
    for seed, (columns, summary) in zip(seeds, runs):
        ref_rows, ref = reference_run(cfg, seed)
        assert _csv(columns) == _csv(ref_rows) and summary == ref


@pytest.mark.parametrize("objective", ["quadratic-diag", "blobs-holdout"])
def test_a_run_builds_no_metrics_row(objective, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a run built a MetricsRow")

    monkeypatch.setattr(harness, "MetricsRow", refuse)
    cfg = _case_cfg(objective, "evasso", "metrics-every-3", [3, 0],
                    str(tmp_path / "m.csv"))
    run_seeds(cfg, [3, 0], (partial(Columns, wallclock=True),))
    run_experiment(cfg)
    assert len((tmp_path / "m.csv").read_text().splitlines()) == 1 + 2 * cfg.T


def _reference_with_final_x(cfg, seed, monkeypatch):
    """``reference_run`` plus its last iterate: where a finished seed ended,
    or the point an aborted seed's failing step started from."""
    last, real_step = {}, vasso_step

    def step(obj, x, *args, **kwargs):
        last["x"] = x
        out = real_step(obj, x, *args, **kwargs)
        last["x"] = out[0]
        return out

    with monkeypatch.context() as m:
        m.setitem(globals(), "vasso_step", step)
        rows, summary = reference_run(cfg, seed)
    return rows, summary, last["x"]


def _epoch_lines(caplog, seed):
    # a record holds the lines of one epoch of the stack, one line per row
    return [line for r in caplog.records for line in r.getMessage().split("\n")
            if line.startswith(f"seed={seed} epoch=")]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("kind", ["sgd", "vasso", "evasso", "sam_db"])
def test_a_diverging_network_seed_leaves_the_stack(kind, monkeypatch, caplog):
    """A blobs MLP stack in which seeds 5 and 6 overflow and seed 0 runs on.

    ReLU layers with lr 1e4 and momentum 0.5 on a held-out split: each step
    scales the weights up until the logits overflow, at a step that depends
    on the seed (47 and 52 or 53 here; seed 0 lasts the 60 steps).  The
    samplers turn an epoch every 4 steps, so the per-epoch loss sums that go
    to the INFO log run across each drop.
    """
    seeds = [0, 5, 6]
    cfg = parse_config({
        "objective": {"kind": "blobs", "n_per_class": 10, "dim": 2,
                      "separation": 2.0, "hidden": [5], "activation": "relu",
                      "holdout_fraction": 0.25},
        "optimizer": {"kind": kind, "rho": 0.1, "theta": 0.3, "momentum": 0.5,
                      "lr": {"kind": "constant", "base": 1e4},
                      **({"p": 0.5} if kind == "evasso" else {})},
        "T": 60, "batch_size": 4, "seeds": seeds})
    caplog.set_level("INFO", logger="vasso_opt")
    stacked = run_seeds(cfg, seeds, (Columns, FinalX))
    stacked_epochs = {s: _epoch_lines(caplog, s) for s in seeds}
    aborted = [s["aborted_at"] for _, s in stacked]
    assert aborted[0] is None and None not in aborted[1:]
    for seed, (rows, summary) in zip(seeds, stacked):
        ref_rows, ref, ref_x = _reference_with_final_x(cfg, seed, monkeypatch)
        assert _csv(rows) == _csv(ref_rows)
        final_x = summary.pop("final_x")
        assert summary == ref
        assert np.array_equal(final_x, ref_x) and np.all(np.isfinite(final_x))
        caplog.clear()
        run_seed(cfg, seed)
        assert stacked_epochs[seed] == _epoch_lines(caplog, seed)
        assert len(stacked_epochs[seed]) >= 11


@pytest.mark.filterwarnings("ignore:overflow")
def test_the_files_of_a_run_with_aborted_seeds_match_the_per_seed_loop(tmp_path):
    out = tmp_path / "m.csv"
    cfg = _diverging_cfg("evasso", T=156)
    cfg.output_path = str(out)
    result = run_experiment(cfg)
    expected = [reference_run(cfg, s) for s in cfg.seeds]
    summaries = [s for _, s in expected]
    assert [s["aborted_at"] for s in summaries] == [155, 154, 156]
    assert out.read_text() == METRICS_HEADER + "\n" + \
        "".join(_csv(rows) for rows, _ in expected)
    summary_text = json.dumps({"config": cfg.to_dict(), "per_seed": summaries,
                               "aggregate": result.aggregate},
                              sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "m.csv.summary.json").read_text() == summary_text
    assert result.aggregate == {"n_seeds": 3, "n_aborted": 3}


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")   # reference_run
@pytest.mark.parametrize("kind", ["sgd", "evasso"])
def test_a_long_dead_tail_leaves_the_other_seed_and_the_console_alone(kind, tmp_path,
                                                                      capsys):
    """Seed 5 overflows at step 47 and its row runs dead for 352 more steps.

    The blobs MLP of ``test_a_diverging_network_seed_leaves_the_stack``, run
    through the CLI with every warning an error: the dead row's NaNs must
    neither warn nor reach seed 1, which runs all 400 steps.
    """
    cfg = parse_config({
        "objective": {"kind": "blobs", "n_per_class": 10, "dim": 2,
                      "separation": 2.0, "hidden": [5], "activation": "relu",
                      "holdout_fraction": 0.25},
        "optimizer": {"kind": kind, "rho": 0.1, "theta": 0.3, "momentum": 0.5,
                      "lr": {"kind": "constant", "base": 1e4},
                      **({"p": 0.5} if kind == "evasso" else {})},
        "T": 400, "batch_size": 4, "seeds": [1, 5]})
    path, out = tmp_path / "cfg.json", tmp_path / "m.csv"
    path.write_text(cfg.serialize())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train", "--config", str(path), "--seed", "1,5", "--out", str(out)])
    assert rc == 0
    assert "Warning" not in capsys.readouterr().err
    expected = [reference_run(cfg, s) for s in [1, 5]]
    assert [s["aborted_at"] for _, s in expected] == [None, 47]
    assert out.read_text() == METRICS_HEADER + "\n" + \
        "".join(_csv(rows) for rows, _ in expected)
    written = json.loads((tmp_path / "m.csv.summary.json").read_text())
    assert written["per_seed"] == [s for _, s in expected]


# ---------------------------------------------------------------------------
# the column writer against the row writer


@pytest.mark.parametrize("every", [1, 3])
def test_a_metrics_file_formats_each_integer_once_in_the_row_writers_bytes(
        every, tmp_path, monkeypatch):
    # gated eVASSO runs, whose seeds' grad-eval totals differ, around an
    # ungated one, at three horizons in one process
    seeds, strs = [3, 0, 7, 5], []
    for kind, T in [("evasso", 40), ("vasso", 25), ("evasso", 13)]:
        out = tmp_path / f"{kind}-{T}.csv"
        cfg = parse_config({
            "objective": OBJECTIVES["quadratic-diag"],
            "optimizer": {"kind": kind, "lr": {"kind": "constant", "base": 0.05},
                          **KINDS[kind]},
            "T": T, "batch_size": 1, "seeds": seeds, "metrics_every": every,
            "output_path": str(out)})
        with monkeypatch.context() as m:
            m.setattr(harness, "str", lambda v: strs.append(v) or str(v), raising=False)
            run_experiment(cfg)
        results = run_seeds(cfg, seeds)
        assert out.read_text() == METRICS_HEADER + "\n" + "".join(_csv([
            MetricsRow(c.seed, t, float(c.loss[t]),
                       float(c.full_grad_norm[t // every]) if t % every == 0 else None,
                       float(c.eps_drift[t - 1]) if t else None,
                       int(c.grad_evals_cum[t]), None)
            for t in range(T)]) for c, _ in results)
        totals = [c.grad_evals_cum.tolist() for c, _ in results]
        assert (len(set(map(tuple, totals))) == 1) == (kind == "vasso")
        # a seed cell per seed and each step index once; a seed's grad-eval
        # totals from the first step where they differ from the seed before
        same = [next((t for t in range(T) if a[t] != b[t]), T)
                for a, b in zip(totals, totals[1:])]
        assert len(strs) == len(seeds) + T + T + sum(T - k for k in same)
        strs.clear()


def _tables(T):
    """Cells of every kind a run writes: tiny, huge, integral, signed zero,
    non-finite and ordinary floats, and growing evaluation counts."""
    rng = np.random.default_rng(11)
    floats = rng.standard_normal(T) * 10.0 ** rng.integers(-300, 300, T)
    floats[:6] = [1.0, -0.0, np.nan, np.inf, 5e-324, 0.1]
    return (np.roll(floats, 1), np.abs(np.roll(floats, 2)), np.abs(np.roll(floats, 3)),
            np.cumsum(rng.integers(1, 3, T)), np.sort(rng.random(T)) * 1e3)


@pytest.mark.parametrize("every", [1, 3, 10])
@pytest.mark.parametrize("k", [0, 1, 10], ids=["aborted-at-0", "aborted-at-1",
                                               "finished"])
@pytest.mark.parametrize("wallclock", [False, True])
def test_the_column_writer_writes_the_bytes_of_the_row_writer(every, k,
                                                              wallclock):
    T = 10
    loss, fg, drift, evals, wall = _tables(T)
    wall = wall if wallclock else None
    columns = MetricsColumns(7, every, loss[:k], fg[:k:every], drift[1:k],
                             evals[:k], None if wall is None else wall[:k])
    rows = [MetricsRow(7, t, float(loss[t]),
                       float(fg[t]) if t % every == 0 else None,
                       float(drift[t]) if t else None, int(evals[t]),
                       None if wall is None else float(wall[t]))
            for t in range(k)]
    assert len(columns) == k
    assert columns.to_csv() == _csv(rows)
