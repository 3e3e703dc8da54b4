import ast
import copy
import json
import logging
import pathlib
import re
from dataclasses import astuple
from fractions import Fraction
from functools import partial
from math import comb

import numpy as np
import pytest

from vasso_opt import core, harness, objectives, optimizers
from vasso_opt.core import (STREAM_ADV_BATCH, STREAM_BATCH, STREAM_INIT, make_rng,
                            schedule_value)
from vasso_opt.errors import ConfigError
from vasso_opt.harness import (METRICS_HEADER, TRADEOFF_HEADER,
                               Columns, ExperimentConfig, build_objective, fmt, init_x,
                               load_config, paired_compare, parse_config,
                               parse_config_text, run_experiment, run_seed,
                               run_seeds, sign_test_p_value, tradeoff_sweep)
from vasso_opt.objectives import Mlp
from vasso_opt.optimizers import ArmKnobs, vasso_step


def _raw(**over):
    raw = {
        "objective": {"kind": "quadratic", "diag": [2.0, 1.0], "sigma": 0.5},
        "optimizer": {"kind": "vasso", "rho": 0.1, "theta": 0.2,
                      "lr": {"kind": "constant", "base": 0.05}},
        "T": 60, "batch_size": 1, "seeds": [0, 1], "metrics_every": 7,
    }
    raw.update(over)
    return raw


def _cfg(**over):
    return parse_config(_raw(**over))


# ---------------------------------------------------------------------------
# cell formatting


def test_fmt_round_trips_floats_and_blanks_missing_cells():
    assert fmt(None) == ""
    assert fmt(3) == "3"
    assert fmt(0.1) == "0.1"
    assert fmt(np.float64(0.1)) == "0.1"
    assert fmt(0.1 + 0.2) == "0.30000000000000004"
    assert float(fmt(1.0 / 3.0)) == 1.0 / 3.0


# ---------------------------------------------------------------------------
# strict parsing


@pytest.mark.parametrize("mutate, path", [
    (lambda r: r.update(extra=1), "config.extra"),
    (lambda r: r.pop("T"), "config.T"),
    (lambda r: r.update(T=0), "config.T"),
    (lambda r: r.update(seeds=[]), "config.seeds"),
    (lambda r: r.update(seeds=[1, 1]), "config.seeds"),
    (lambda r: r.update(seeds=[-1]), "config.seeds"),
    (lambda r: r.update(seeds=[2**63]), "config.seeds"),
    (lambda r: r.update(seeds=[0.5]), "config.seeds"),
    (lambda r: r.update(output_path=7), "config.output_path"),
    (lambda r: r.update(metrics_every=0), "config.metrics_every"),
    (lambda r: r["optimizer"].update(rho="hi"), "optimizer.rho"),
    (lambda r: r["optimizer"].update(theta=0.0), "optimizer.theta"),
    (lambda r: r["optimizer"].update(p=1.5), "optimizer.p"),
    (lambda r: r["optimizer"].update(momentum=1.0), "optimizer.momentum"),
    (lambda r: r["optimizer"].update(kind="adam"), "optimizer.kind"),
    (lambda r: r["optimizer"].pop("lr"), "optimizer.lr"),
    (lambda r: r["optimizer"].update(lr=5), "optimizer.lr"),
    (lambda r: r["optimizer"]["lr"].update(kind="bogus"), "optimizer.lr"),
    (lambda r: r["optimizer"]["lr"].update(base=0), "optimizer.lr"),
    (lambda r: r["optimizer"]["lr"].pop("base"), "optimizer.lr.base"),
    (lambda r: r["optimizer"]["lr"].update(typo=1), "optimizer.lr.typo"),
    (lambda r: r["objective"].update(kind="rosenbrock"), "objective.kind"),
    (lambda r: r["objective"].update(matrix=[[1.0]]), "objective"),
    (lambda r: r["objective"].pop("sigma"), "objective.sigma"),
    (lambda r: r["objective"].update(sigma=-1.0), "objective.sigma"),
])
def test_malformed_configs_name_the_offending_field(mutate, path):
    raw = _raw()
    mutate(raw)
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == path
    assert str(err.value).startswith(path + ":")


def test_network_objective_fields_are_checked():
    raw = _raw(objective={"kind": "blobs", "n_per_class": 8, "dim": 2,
                          "separation": 2.0, "hidden": [4]})
    cfg = parse_config(raw)
    assert cfg.objective["n_classes"] == 2
    assert cfg.objective["activation"] == "tanh"
    for field, value, path in [
            ("n_classes", 1, "objective.n_classes"),
            ("n_classes", 5, "objective.n_classes"),
            ("activation", "sigmoid", "objective.activation"),
            ("label_noise", 1.5, "objective.label_noise"),
            ("hidden", 4, "objective.hidden")]:
        bad = copy.deepcopy(raw)
        bad["objective"][field] = value
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.path == path


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("path", ["optimizer.rho", "objective.sigma",
                                  "objective.init_scale", "optimizer.lr.base"])
def test_non_finite_numbers_are_rejected_with_their_path(path, value):
    raw = _raw()
    *parents, key = path.split(".")
    node = raw
    for k in parents:
        node = node[k]
    node[key] = value
    text = json.dumps(raw)   # writes the JSON extensions NaN / Infinity
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert err.value.path == path
    assert "finite" in str(err.value)


def test_a_split_without_training_rows_is_a_config_error():
    raw = _raw(objective={"kind": "blobs", "n_per_class": 8, "dim": 2,
                          "separation": 2.0, "hidden": [4],
                          "holdout_fraction": 1.0})
    cfg = parse_config(raw)
    with pytest.raises(ConfigError) as err:
        build_objective(cfg.objective, 0)
    assert err.value.path == "objective.holdout_fraction"
    raw["objective"]["holdout_fraction"] = 15.5 / 16   # one training row left
    assert build_objective(parse_config(raw).objective, 0).n_samples == 1


def _kind_spec(kind, tmp_path) -> dict:
    """A parsed objective spec of each kind, with a held-out split where it can."""
    data = tmp_path / "toy.csv"
    data.write_text("".join(f"{float(a)!r},{float(b)!r},{i % 3}\n" for i, (a, b)
                            in enumerate(np.random.default_rng(5).normal(size=(20, 2)))))
    raw = {"quadratic": {"kind": "quadratic", "matrix": [[2.0, 0.5], [0.5, 1.0]],
                         "sigma": 0.3, "b": [0.1, -0.2], "init_scale": 0.7},
           "blobs": {"kind": "blobs", "n_per_class": 6, "n_classes": 3, "dim": 2,
                     "separation": 2.0, "hidden": [3], "label_noise": 0.2,
                     "holdout_fraction": 0.25},
           "dataset": {"kind": "dataset", "path": str(data), "hidden": [4],
                       "activation": "relu", "holdout_fraction": 0.3}}[kind]
    return parse_config(_raw(objective=raw)).objective


@pytest.mark.parametrize("kind", list(harness.OBJECTIVES))
def test_each_kind_answers_the_surface_on_a_stack_as_on_its_seeds(kind, tmp_path):
    spec, seeds = _kind_spec(kind, tmp_path), [3, 0, 7]
    cls = harness.OBJECTIVES[kind]
    objs = cls.build(spec, seeds)
    assert [type(o) for o in objs] == [cls] * len(seeds)
    assert [build_objective(spec, s).dim for s in seeds] == [objs[0].dim] * 3
    stack = cls.stack(objs)
    x = np.array([stack.init_params(make_rng(s, STREAM_INIT)) for s in seeds])
    for row, obj, seed in zip(x, objs, seeds):
        assert row.tobytes() == obj.init_params(make_rng(seed, STREAM_INIT)).tobytes()
        assert row.tobytes() == init_x(obj, spec, seed).tobytes()
    assert stack.final_loss(x).tolist() == [o.final_loss(r) for o, r in zip(objs, x)]


def test_invalid_json_text_is_a_config_error():
    with pytest.raises(ConfigError) as err:
        parse_config_text("{not json")
    assert err.value.path == "config"


@pytest.mark.parametrize("kind", list(harness.OBJECTIVES))
def test_config_round_trips_through_its_dict_and_text_forms(kind, tmp_path):
    cfg = _cfg(objective=_kind_spec(kind, tmp_path), output_path="m.csv")
    assert parse_config(cfg.to_dict()) == cfg
    assert parse_config_text(cfg.serialize()) == cfg


def test_derive_rejects_an_unknown_key_and_leaves_the_config_alone():
    cfg = _cfg()
    before = cfg.serialize()
    with pytest.raises(ConfigError) as err:
        cfg.derive(bogus=1)
    assert err.value.path == "config.bogus"
    with pytest.raises(ConfigError) as err:
        cfg.derive({"bogus": 1}, seeds=[5])
    assert err.value.path == "optimizer.bogus"
    derived = cfg.derive({"kind": "evasso", "p": 0.5}, seeds=[5], T=7)
    assert (derived.optimizer["p"], derived.seeds, derived.T) == (0.5, [5], 7)
    assert cfg.serialize() == before


@pytest.mark.parametrize("kind, override, key", [
    ("vasso", {"p": 0.5}, "p"),
    ("sgd", {"p": 1.0}, "p"),
    ("sam", {"theta": 0.5}, "theta"),
    ("sam_db", {"theta": 0.5}, "theta"),
    ("evasso", {"kind": "sam", "p": 0.5}, "p"),
])
def test_derive_rejects_a_knob_the_kind_fixes_at_another_value(kind, override, key):
    lr = {"kind": "constant", "base": 0.05}
    cfg = _cfg(optimizer={"kind": kind, "lr": lr})
    new_kind = override.get("kind", kind)
    fixed = optimizers.KIND_KNOBS[new_kind][key]
    with pytest.raises(ConfigError) as err:
        cfg.derive(override)
    assert err.value.path == f"optimizer.{key}"
    assert f"{new_kind!r} fixes {key} at {fixed}," in str(err.value)
    derived = cfg.derive(dict(override, **{key: fixed}))   # the fixed value is no override
    # a config file's value for the knob is ignored
    from_file = _cfg(optimizer={"kind": new_kind, "lr": lr, key: override[key]})
    assert from_file.optimizer_config() == derived.optimizer_config()


# each kind's objective object with every optional key given
_FULL_OBJECTIVES = {
    "quadratic": {"kind": "quadratic", "diag": [2.0, 1.0], "sigma": 0.5,
                  "b": [0.1, -0.2], "init_scale": 0.7},
    "blobs": {"kind": "blobs", "n_per_class": 6, "n_classes": 3, "dim": 2,
              "separation": 2.0, "hidden": [3], "activation": "relu",
              "label_noise": 0.2, "holdout_fraction": 0.25},
    "dataset": {"kind": "dataset", "path": "toy.csv", "header": True, "hidden": [4],
                "activation": "relu", "label_noise": 0.1, "holdout_fraction": 0.3},
}


def _keys_read(kind) -> set:
    """The keys that parsing ``kind``'s full objective object reads."""
    f = core._Fields(_FULL_OBJECTIVES[kind], "objective")
    f.take("kind")
    harness.OBJECTIVES[kind].parse(f, kind)
    f.finish()   # every key given was read
    return f.seen


@pytest.mark.parametrize("kind", list(harness.OBJECTIVES))
def test_each_kind_reads_exactly_the_keys_its_class_docstring_names(kind):
    schema = re.search(r'\{"kind": "%s"[^}]*\}' % kind, harness.OBJECTIVES[kind].__doc__)
    assert schema, f"{kind} has no schema in its class docstring"
    assert _keys_read(kind) == set(re.findall(r'"(\w+)":', schema.group()))


def test_the_config_property_test_knows_every_objective_key():
    # read, not imported: the property test's module stays its own
    source = (pathlib.Path(__file__).parent / "test_config_property.py").read_text()
    keys = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "KEYS")
    read = set().union(*map(_keys_read, harness.OBJECTIVES))
    assert read | {"kind"} == set(keys["objective"])


# an optimizer object with every key given, and a schedule with every key
_FULL_OPTIMIZER = {"kind": "sam_db", "rho": 0.1, "theta": 0.5, "p": 0.5,
                   "lr": {"kind": "cosine", "base": 0.1, "horizon": 80},
                   "rho_schedule": {"kind": "constant", "base": 0.1},
                   "momentum": 0.9, "weight_decay": 0.01, "adv_batch_size": 4}


def _property_test_keys() -> dict:
    """``KEYS`` of the property test: read, not imported, so its module stays its own."""
    source = (pathlib.Path(__file__).parent / "test_config_property.py").read_text()
    return next(ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "KEYS")


def _docstring_keys(doc: str, kind: str) -> set:
    """The keys of the first ``{"kind": "<kind>...}`` schema in ``doc``."""
    schema = re.search(r'\{"kind": "%s[^}]*\}' % kind, doc)
    assert schema, f"no {kind} schema in the docstring"
    return set(re.findall(r'"(\w+)":', schema.group()))


def test_the_optimizer_parse_reads_exactly_the_keys_its_schema_names():
    f = core._Fields(_FULL_OPTIMIZER, "optimizer")
    optimizers.OptimizerConfig.parse(f, 60)   # it finishes: every key given was read
    assert f.seen == _docstring_keys(optimizers.OptimizerConfig.__doc__, "sgd")
    assert f.seen == set(_property_test_keys()["optimizer"])


def test_the_schedule_parse_reads_exactly_the_keys_its_schema_names(monkeypatch):
    finished = []

    class Fields(core._Fields):
        def finish(self):
            finished.append(self.seen)
            super().finish()

    monkeypatch.setattr(core, "_Fields", Fields)
    core.Schedule.parse(_FULL_OPTIMIZER["lr"], "optimizer.lr", 80)
    [seen] = finished   # every key given was read
    assert seen == _docstring_keys(core.Schedule.parse.__doc__, "constant")
    assert seen == set(_property_test_keys()["schedule"])


def test_load_config_reads_a_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(_cfg().serialize())
    assert load_config(str(p)) == _cfg()


def test_optimizer_config_is_built_from_the_optimizer_spec():
    ocfg = _cfg().optimizer_config()
    assert ocfg.rho == 0.1 and ocfg.theta == 0.2
    assert schedule_value(ocfg.lr, 0) == 0.05
    assert ocfg.rho_schedule is None


def test_adversary_batch_size_applies_only_to_decoupled_batches():
    lr = {"kind": "constant", "base": 0.1}
    for kind in ("sgd", "sam", "vasso", "evasso"):
        with pytest.raises(ConfigError) as err:
            _cfg(optimizer={"kind": kind, "lr": lr, "adv_batch_size": 4})
        assert err.value.path == "optimizer.adv_batch_size"
    blobs = {"kind": "blobs", "n_per_class": 8, "dim": 2, "separation": 2.0,
             "hidden": [4]}
    cfg = _cfg(objective=blobs, batch_size=2, T=30, seeds=[0],
               optimizer={"kind": "sam_db", "rho": 0.1, "lr": lr,
                          "adv_batch_size": 4})
    columns, summary = run_seed(cfg, 0)
    assert summary["total_grad_evals"] == 2 * 30 and not summary["aborted"]
    # the same run by hand: adversary batches of 4 from their own stream
    obj = build_objective(cfg.objective, 0)
    x, state, buf = init_x(obj, cfg.objective, 0), None, None
    sampler = obj.make_sampler(2, make_rng(0, STREAM_BATCH))
    adv_sampler = obj.make_sampler(4, make_rng(0, STREAM_ADV_BATCH))
    ocfg = ArmKnobs([cfg.optimizer_config()])
    losses = []
    for t in range(30):
        batch, adv_batch = sampler(), adv_sampler()
        assert len(adv_batch) == 4
        x, state, rep, buf = vasso_step(obj, x, state, batch, ocfg, None, t=t,
                                        momentum_buffer=buf, adv_batch=adv_batch)
        losses.append(rep.loss)
    assert columns.loss.tolist() == losses
    shared, _ = run_seed(_cfg(objective=blobs, batch_size=2, T=30, seeds=[0],
                              optimizer={"kind": "sam_db", "rho": 0.1, "lr": lr}), 0)
    assert shared.loss.tolist() != losses


def test_schedule_horizon_defaults_to_t():
    cfg = _cfg(optimizer={"kind": "sgd",
                          "lr": {"kind": "theory", "base": 1.0}})
    assert cfg.optimizer_config().lr.horizon == 60


@pytest.mark.parametrize("field", ["lr", "rho_schedule"])
def test_a_schedule_horizon_below_t_is_a_config_error(field):
    schedule = {"kind": "cosine", "base": 0.1, "horizon": 59}
    optimizer = {"kind": "vasso", "lr": {"kind": "constant", "base": 0.05},
                 field: schedule}
    with pytest.raises(ConfigError) as err:
        _cfg(optimizer=optimizer)   # T is 60
    assert err.value.path == f"optimizer.{field}.horizon"
    assert "T (60)" in str(err.value)
    schedule["horizon"] = 60
    run_seed(_cfg(optimizer=optimizer, seeds=[0]), 0)


def test_an_empty_diagonal_is_a_config_error():
    with pytest.raises(ConfigError) as err:
        _cfg(objective={"kind": "quadratic", "diag": [], "sigma": 0.5})
    assert err.value.path == "objective.diag"


def test_an_empty_matrix_is_a_config_error():
    with pytest.raises(ConfigError) as err:
        _cfg(objective={"kind": "quadratic", "matrix": [], "sigma": 0.5})
    assert err.value.path == "objective.matrix"


@pytest.mark.parametrize("objective, path", [
    ({"matrix": [[1.0, 0.0], [0.0]]}, "objective.matrix"),
    ({"matrix": [[1.0, 0.0]]}, "objective.matrix"),
    ({"matrix": [1.0]}, "objective.matrix"),
    ({"matrix": [[1.0, 0.5], [0.4, 1.0]]}, "objective.matrix"),
    ({"diag": 2.0}, "objective.diag"),
    ({"diag": [1.0, 2.0], "b": [0.5]}, "objective.b"),
])
def test_a_malformed_quadratic_is_a_config_error(objective, path):
    with pytest.raises(ConfigError) as err:
        _cfg(objective={"kind": "quadratic", "sigma": 0.5, **objective})
    assert err.value.path == path


# ---------------------------------------------------------------------------
# deterministic runs and metrics files


def test_rerun_writes_byte_identical_metrics(tmp_path):
    out = tmp_path / "m.csv"
    cfg = _cfg(output_path=str(out))
    run_experiment(cfg)
    first = out.read_bytes()
    first_summary = (tmp_path / "m.csv.summary.json").read_bytes()
    run_experiment(cfg)
    assert out.read_bytes() == first
    assert (tmp_path / "m.csv.summary.json").read_bytes() == first_summary
    lines = first.decode().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 1 + 60 * 2


def test_zero_radius_perturbed_run_matches_plain_descent():
    sam, _ = run_seed(_cfg(optimizer={
        "kind": "sam", "rho": 0.0,
        "lr": {"kind": "constant", "base": 0.05}}), 3)
    sgd, _ = run_seed(_cfg(optimizer={
        "kind": "sgd", "lr": {"kind": "constant", "base": 0.05}}), 3)
    assert len(sam) == len(sgd) == 60
    for field in ("loss", "full_grad_norm", "eps_drift"):
        assert np.array_equal(getattr(sam, field), getattr(sgd, field))
    assert np.array_equal(sam.grad_evals_cum, 2 * sgd.grad_evals_cum)


def test_gradient_evaluation_accounting():
    T = 60
    _, s_sgd = run_seed(_cfg(optimizer={
        "kind": "sgd", "lr": {"kind": "constant", "base": 0.01}}), 0)
    _, s_sam = run_seed(_cfg(optimizer={
        "kind": "sam", "rho": 0.1,
        "lr": {"kind": "constant", "base": 0.01}}), 0)
    _, s_gated = run_seed(_cfg(optimizer={
        "kind": "evasso", "rho": 0.1, "theta": 0.2, "p": 0.5,
        "lr": {"kind": "constant", "base": 0.01}}), 0)
    assert s_sgd["total_grad_evals"] == T
    assert s_sam["total_grad_evals"] == 2 * T
    assert T < s_gated["total_grad_evals"] < 2 * T


def test_metrics_cells_follow_the_cadence():
    columns, _ = run_seed(_cfg(T=12, metrics_every=5), 0)
    # gradient norms at t = 0, 5, 10; drift from t=1
    assert len(columns.full_grad_norm) == 3 and len(columns.eps_drift) == 11
    assert len(columns.loss) == len(columns.grad_evals_cum) == 12
    assert columns.wallclock_ms is None
    [(columns, _)] = run_seeds(_cfg(T=4), [0], (partial(Columns, wallclock=True),))
    assert len(columns.wallclock_ms) == 4


def test_csv_blank_cells_match_the_none_fields(tmp_path):
    out = tmp_path / "m.csv"
    run_experiment(_cfg(T=10, metrics_every=3, seeds=[4],
                        output_path=str(out)))
    lines = out.read_text().splitlines()[1:]
    for line in lines:
        seed, t, loss, fg, drift, evals, wall = line.split(",")
        assert seed == "4"
        assert (fg == "") == (int(t) % 3 != 0)
        assert (drift == "") == (int(t) == 0)
        assert wall == ""
        float(loss)  # parses


def test_divergent_seed_is_reported_as_aborted():
    cfg = _cfg(objective={"kind": "quadratic", "diag": [5.0], "sigma": 0.0},
               optimizer={"kind": "sgd",
                          "lr": {"kind": "constant", "base": 1e3}},
               T=150, seeds=[0, 1])
    columns, summary = run_seed(cfg, 0)
    assert summary["aborted"] and summary["aborted_at"] is not None
    assert summary["final_loss"] is None
    assert len(columns) == summary["aborted_at"]
    result = run_experiment(cfg)
    assert result.aggregate == {"n_seeds": 2, "n_aborted": 2}


def test_a_seed_whose_final_loss_is_not_finite_is_reported_as_aborted(tmp_path):
    # negative curvature: seed 0 runs all 155 steps, but its final loss is -inf;
    # seed 1 overflows at step 154 and seed 4 finishes
    cfg = _cfg(objective={"kind": "quadratic", "diag": [-9.0, 1.0], "sigma": 0.5},
               optimizer={"kind": "vasso", "rho": 0.1, "theta": 0.3,
                          "lr": {"kind": "constant", "base": 1.0}},
               T=155, batch_size=1, seeds=[0, 1, 4], output_path=str(tmp_path / "m.csv"))
    result = run_experiment(cfg)
    s0, s1, s4 = result.summaries
    assert (s0["aborted"], s0["aborted_at"], s0["final_loss"]) == (True, 155, None)
    assert (s1["aborted"], s1["aborted_at"]) == (True, 154)
    assert not s4["aborted"] and np.isfinite(s4["final_loss"])
    assert result.aggregate["n_aborted"] == 2
    assert result.aggregate["mean_final_loss"] == s4["final_loss"]

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads(pathlib.Path(result.summary_path).read_text(),
                         parse_constant=reject)
    assert summary["per_seed"] == result.summaries


def test_dataset_objective_runs_from_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "toy.csv"
    rows = []
    for label in (0, 1):
        for _ in range(10):
            x = rng.normal(3.0 * (2 * label - 1), 1.0, size=2)
            rows.append(f"{float(x[0])!r},{float(x[1])!r},{label}")
    path.write_text("\n".join(rows) + "\n")
    cfg = _cfg(objective={"kind": "dataset", "path": str(path),
                          "hidden": [4], "holdout_fraction": 0.25},
               optimizer={"kind": "sam", "rho": 0.05,
                          "lr": {"kind": "constant", "base": 0.1}},
               T=40, batch_size=4, seeds=[0])
    _, summary = run_seed(cfg, 0)
    assert not summary["aborted"]
    assert np.isfinite(summary["final_loss"])


def test_the_largest_seed_runs():
    _, summary = run_seed(_cfg(seeds=[2**63 - 1], T=5), 2**63 - 1)
    assert not summary["aborted"]


def test_label_noise_on_a_one_class_dataset_is_a_config_error(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("".join(f"{i}.0,{-i}.0,0\n" for i in range(8)))
    cfg = _cfg(objective={"kind": "dataset", "path": str(path), "hidden": [3],
                          "label_noise": 0.25},
               T=5, batch_size=2, seeds=[0])
    with pytest.raises(ConfigError) as err:
        run_seed(cfg, 0)
    assert err.value.path == "objective.label_noise"
    assert "2 classes" in str(err.value)


def test_decoupled_batches_take_two_backward_passes_per_step(monkeypatch):
    # with p=1 the update batch's gradient at x is never used: its loss comes
    # from a forward pass alone
    calls = []
    loss_and_grad = Mlp.loss_and_grad

    def counted(self, *args, **kwargs):
        calls.append(1)
        return loss_and_grad(self, *args, **kwargs)

    monkeypatch.setattr(Mlp, "loss_and_grad", counted)
    blobs = {"kind": "blobs", "n_per_class": 8, "dim": 2, "separation": 2.0,
             "hidden": [4]}
    _, summary = run_seed(_cfg(objective=blobs, batch_size=4, T=10, metrics_every=10,
                               optimizer={"kind": "sam_db", "rho": 0.1,
                                          "lr": {"kind": "constant", "base": 0.1}}), 0)
    assert summary["total_grad_evals"] == 20
    assert len(calls) == 21   # two per step, plus the metrics gradient at t=0


def test_a_dataset_file_is_read_once_per_run(tmp_path, monkeypatch):
    rng = np.random.default_rng(1)
    path = tmp_path / "toy.csv"
    path.write_text("".join(f"{float(a)!r},{float(b)!r},{i % 3}\n"
                            for i, (a, b) in enumerate(rng.normal(size=(30, 2)))))
    out = tmp_path / "m.csv"
    cfg = _cfg(objective={"kind": "dataset", "path": str(path), "hidden": [4],
                          "label_noise": 0.2, "holdout_fraction": 0.25},
               T=12, batch_size=4, seeds=list(range(8)), output_path=str(out))
    build_all, load = objectives.MlpObjective.build, objectives.load_dataset_csv
    calls = []
    monkeypatch.setattr(objectives, "load_dataset_csv",
                        lambda *a, **k: calls.append(a) or load(*a, **k))

    def parse_per_seed(spec, seeds):
        return [build_all(spec, [seed])[0] for seed in seeds]

    with monkeypatch.context() as m:   # every seed parses the file anew
        m.setattr(objectives.MlpObjective, "build", parse_per_seed)
        run_experiment(cfg)
    assert len(calls) == 8
    files = out.read_bytes(), (tmp_path / "m.csv.summary.json").read_bytes()
    calls.clear()
    run_experiment(cfg)
    assert len(calls) == 1
    assert (out.read_bytes(), (tmp_path / "m.csv.summary.json").read_bytes()) == files


def test_run_logs_per_seed_progress(caplog):
    with caplog.at_level(logging.INFO, logger="vasso_opt"):
        run_seed(_cfg(T=5), 0)
    assert "seed=0 done" in caplog.text


# ---------------------------------------------------------------------------
# paired comparisons


def test_identical_configs_tie_on_every_seed():
    res = paired_compare(_cfg(), _cfg(), [0, 1, 2])
    assert res.ties == 3 and res.wins_a == res.wins_b == 0
    assert res.diffs == [0.0, 0.0, 0.0]
    assert res.p_value == 1.0


def test_sign_test_p_value_is_exact():
    for n in range(61):
        for k in range(n + 1):
            tail = sum(Fraction(comb(n, i), 2 ** n) for i in range(min(k, n - k) + 1))
            assert sign_test_p_value(k, n - k) == float(min(Fraction(1), 2 * tail))
    assert sign_test_p_value(0, 0) == 1.0
    assert sign_test_p_value(16, 4) == sign_test_p_value(4, 16) == 0.01181793212890625
    assert sign_test_p_value(8, 7) == 1.0 and sign_test_p_value(10, 10) == 1.0


def test_sign_test_p_value_agrees_with_scipy():
    # scipy sums floating-point pmf terms: up to 117 ulp off for small p here
    binomtest = pytest.importorskip("scipy.stats").binomtest
    for n in range(1, 201):
        for k in range(0, n // 2 + 1, 1 + n // 50):   # the other half mirrors
            want = binomtest(k, n, 0.5).pvalue
            assert sign_test_p_value(k, n - k) == pytest.approx(want, rel=1e-12, abs=0)


def test_paired_configs_must_only_differ_in_the_optimizer():
    with pytest.raises(ConfigError):
        paired_compare(_cfg(), _cfg(T=61), [0])
    with pytest.raises(ConfigError):
        paired_compare(_cfg(), _cfg(), [0], metric="wallclock")


def test_paired_compare_pairs_the_seeds_it_is_given_whatever_the_configs_list():
    sam = dict(_raw()["optimizer"], kind="sam")
    res = paired_compare(_cfg(seeds=[5]), _cfg(optimizer=sam, seeds=[6, 7]), [2, 0, 4])
    ref = paired_compare(_cfg(seeds=[2, 0, 4]), _cfg(optimizer=sam, seeds=[2, 0, 4]),
                         [2, 0, 4])
    assert res.seeds == [2, 0, 4]
    assert [s["seed"] for s in res.summaries_a + res.summaries_b] == [2, 0, 4] * 2
    assert (res.values_a, res.values_b) == (ref.values_a, ref.values_b)
    assert res.diffs == ref.diffs and res.p_value == ref.p_value


def _noisy_quad_raw(optimizer):
    return _raw(objective={"kind": "quadratic",
                           "diag": list(np.linspace(0.5, 5.0, 20)),
                           "sigma": 2.0},
                optimizer=optimizer, T=1200, seeds=[0])


def test_averaged_adversary_drifts_less_on_a_noisy_quadratic():
    cfg_v = parse_config(_noisy_quad_raw({
        "kind": "vasso", "rho": 0.1, "theta": 0.2,
        "lr": {"kind": "constant", "base": 0.05}}))
    cfg_s = parse_config(_noisy_quad_raw({
        "kind": "sam", "rho": 0.1,
        "lr": {"kind": "constant", "base": 0.05}}))
    res = paired_compare(cfg_v, cfg_s, range(20), metric="mean_drift")
    assert res.wins_a >= 18
    assert res.p_value < 0.01


# ---------------------------------------------------------------------------
# gate-probability tradeoff sweep


def _tradeoff_base():
    return parse_config(_raw(
        objective={"kind": "quadratic",
                   "diag": list(np.linspace(0.5, 5.0, 8)), "sigma": 1.0},
        optimizer={"kind": "evasso", "rho": 0.1, "theta": 0.2,
                   "lr": {"kind": "constant", "base": 0.05}},
        T=400, seeds=[0, 1, 2]))


def test_sweep_produces_one_row_per_arm_plus_the_reference():
    rows = tradeoff_sweep(_tradeoff_base(), [0.3], [0, 1, 2])
    labels = [(r.optimizer, r.p) for r in rows]
    assert labels == [("evasso", 0.3), ("esam", 0.3), ("evasso", 1.0),
                      ("esam", 1.0), ("sam", None)]
    assert all(r.mean_wallclock_ms is None for r in rows)
    assert len(astuple(rows[0])) == len(TRADEOFF_HEADER.split(","))


def test_always_on_gate_row_matches_the_direct_run():
    base = _tradeoff_base()
    rows = tradeoff_sweep(base, [1.0], [0, 1, 2], include_esam_analog=False)
    direct = run_experiment(ExperimentConfig(
        base.objective, dict(base.optimizer, kind="vasso"), base.T,
        base.batch_size, [0, 1, 2], base.metrics_every, None))
    assert rows[0].mean_final_loss == direct.aggregate["mean_final_loss"]
    assert len(rows) == 2


def test_gradient_cost_scales_with_the_gate_probability():
    T, seeds = 400, [0, 1, 2]
    rows = tradeoff_sweep(_tradeoff_base(), [0.2, 0.6], seeds)
    by_arm = {(r.optimizer, r.p): r for r in rows}
    for p in (0.2, 0.6):
        expect = (1 + p) * T
        tol = 4 * np.sqrt(T * p * (1 - p) / len(seeds))
        assert abs(by_arm[("evasso", p)].mean_grad_evals - expect) <= tol
    evals = [by_arm[("evasso", p)].mean_grad_evals for p in (0.2, 0.6, 1.0)]
    assert evals[0] < evals[1] < evals[2]
    assert by_arm[("sam", None)].mean_grad_evals == 2 * T


def test_sweep_of_a_sam_db_config_ignores_its_adversary_batch_size():
    base = _tradeoff_base()
    sam_db = base.derive({"kind": "sam_db", "adv_batch_size": 3})
    assert tradeoff_sweep(sam_db, [0.5], [0, 1]) == tradeoff_sweep(base, [0.5], [0, 1])


def test_sweep_measures_wallclock_only_on_request():
    rows = tradeoff_sweep(_tradeoff_base(), [], [0], record_wallclock=True)
    assert all(r.mean_wallclock_ms is not None for r in rows)


@pytest.mark.xfail(strict=True,
                   reason="the averaged adversary trades accuracy for "
                          "stability: under infrequent gating its slope lags "
                          "the moving iterate, and the theta=1 analog reaches "
                          "a lower final loss on this quadratic")
def test_gated_averaging_beats_gated_raw_on_final_loss():
    cfg_ev = parse_config(_noisy_quad_raw({
        "kind": "evasso", "rho": 0.1, "theta": 0.2, "p": 0.3,
        "lr": {"kind": "constant", "base": 0.05}}))
    cfg_es = parse_config(_noisy_quad_raw({
        "kind": "evasso", "rho": 0.1, "theta": 1.0, "p": 0.3,
        "lr": {"kind": "constant", "base": 0.05}}))
    res = paired_compare(cfg_ev, cfg_es, range(20))
    assert res.wins_a >= 15
