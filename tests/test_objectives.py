import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vasso_opt import core, objectives
from vasso_opt.cli import main
from vasso_opt.core import make_rng, norm2
from vasso_opt.errors import (ConfigError, DimensionMismatchError,
                              InvalidParameterError)
from vasso_opt.objectives import (Dataset, EpochSampler, Mlp, MlpObjective,
                                  NoisyQuadratic, hvp_finite_difference,
                                  inject_label_noise, load_dataset_csv,
                                  m_sharpness_example, m_sharpness_objective,
                                  make_blobs_dataset, mlp_objective)

# ---------------------------------------------------------------------------
# minibatch sampling


def test_epoch_sampler_covers_every_sample_each_epoch():
    s = EpochSampler(10, 3, make_rng(0, 1))
    batches = [s() for _ in range(s.batches_per_epoch)]
    assert [len(b) for b in batches] == [3, 3, 3, 1]
    assert sorted(np.concatenate(batches).tolist()) == list(range(10))
    assert s.epoch == 0
    s()
    assert s.epoch == 1


def test_epoch_sampler_reshuffles_between_epochs():
    s = EpochSampler(32, 32, make_rng(3, 1))
    first, second = s(), s()
    assert sorted(first.tolist()) == sorted(second.tolist())
    assert not np.array_equal(first, second)


def test_epoch_sampler_clamps_batch_size():
    s = EpochSampler(4, 100, make_rng(0, 1))
    assert len(s()) == 4


def test_epoch_sampler_rejects_an_empty_row_set():
    with pytest.raises(InvalidParameterError):
        EpochSampler(0, 4, make_rng(0, 1))


def test_epoch_sampler_rejects_bad_batch_size():
    with pytest.raises(InvalidParameterError):
        EpochSampler(4, 0, make_rng(0, 1))


# ---------------------------------------------------------------------------
# noisy quadratic


def test_quadratic_identity_gradient():
    obj = NoisyQuadratic(np.eye(2))
    assert np.array_equal(obj.full_grad(np.array([1.0, 2.0])), [1.0, 2.0])


def test_quadratic_diagonal_with_offset():
    obj = NoisyQuadratic(np.array([2.0, 0.0]), b=np.array([0.0, 1.0]))
    assert np.array_equal(obj.full_grad(np.array([1.0, 1.0])), [2.0, 1.0])
    assert obj.full_loss(np.array([1.0, 1.0])) == 2.0  # 0.5*2 + 1


def test_quadratic_dense_matrix():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    obj = NoisyQuadratic(A)
    x = np.array([1.0, 1.0])
    assert np.array_equal(obj.full_grad(x), [3.0, 4.0])
    assert obj.full_loss(x) == 3.5
    assert np.array_equal(obj.hvp(x, np.array([1.0, 0.0])), A[:, 0])


def test_quadratic_rejects_bad_matrices():
    with pytest.raises(InvalidParameterError):
        NoisyQuadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatchError):
        NoisyQuadratic(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        NoisyQuadratic(np.zeros((2, 2, 2)))
    with pytest.raises(InvalidParameterError):
        NoisyQuadratic(np.ones(2), sigma=-1.0)


def test_batch_carries_the_noise():
    obj = NoisyQuadratic(np.array([1.0, 4.0]), sigma=0.5)
    x = np.array([0.7, -0.2])
    zeta = np.array([0.3, -1.1])
    assert np.allclose(obj.grad(x, zeta) - obj.full_grad(x), zeta,
                       rtol=1e-15, atol=1e-15)
    assert obj.loss(x, zeta) - obj.full_loss(x) == pytest.approx(zeta @ x,
                                                                 abs=1e-15)
    # the batch gradient is the gradient of the batch loss
    h = 1e-6
    e0 = np.array([1.0, 0.0])
    fd = (obj.loss(x + h * e0, zeta) - obj.loss(x - h * e0, zeta)) / (2 * h)
    assert fd == pytest.approx(obj.grad(x, zeta)[0], rel=1e-7)


def test_a_noise_variance_past_the_float_range_is_infinite():
    assert NoisyQuadratic(np.ones(3), sigma=1e200).sigma2 == np.inf


def test_declared_noise_variance_matches_monte_carlo():
    obj = NoisyQuadratic(np.ones(3), sigma=0.1)
    assert obj.sigma2 == pytest.approx(0.03)
    x = np.zeros(3)
    draws = obj.grad_draws(x, 100_000, make_rng(0, 16))
    err2 = np.sum((draws - obj.full_grad(x)) ** 2, axis=1)
    assert np.mean(err2) == pytest.approx(0.03, rel=0.05)


def test_grad_draws_matches_sequential_sampler():
    obj = NoisyQuadratic(np.ones(4), sigma=0.8)
    x = np.array([1.0, -1.0, 0.5, 0.0])
    stacked = obj.grad_draws(x, 6, make_rng(9, 1))
    sampler = obj.make_sampler(1, make_rng(9, 1))
    looped = np.stack([obj.grad(x, sampler()) for _ in range(6)])
    assert np.array_equal(stacked, looped)


@pytest.mark.parametrize("dim", [1, 20])
@pytest.mark.parametrize("k", [1, 7, 64])
def test_a_noise_block_equals_as_many_single_draws(dim, k):
    obj = NoisyQuadratic(np.ones(dim), sigma=0.7)
    single = obj.make_sampler(1, make_rng(5, 1))
    blocked = obj.make_sampler(1, make_rng(5, 1))
    # two full blocks, then a short tail block, as a run's last block can be
    draws = [blocked(k), blocked(k), blocked(k // 2 + 1)]
    assert [d.shape for d in draws] == [(k, dim), (k, dim), (k // 2 + 1, dim)]
    want = np.stack([single() for _ in range(2 * k + k // 2 + 1)])
    assert np.concatenate(draws).tobytes() == want.tobytes()
    # and the stream goes on where the block left it
    assert blocked().tobytes() == single().tobytes()


def test_a_noise_block_is_its_scaled_draw_and_holds_only_itself(traced_peak):
    # 1,024 steps of 8-dim noise: the block is drawn and scaled in one array
    obj = NoisyQuadratic(np.ones(8), sigma=0.7)
    rng = make_rng(5, 1)
    block = obj.make_sampler(1, make_rng(5, 1))(1024)
    assert block.tobytes() == (0.7 * rng.standard_normal((1024, 8))).tobytes()
    assert traced_peak(obj.make_sampler(1, rng), 1024) <= 1.1 * block.nbytes


def test_gradient_draws_are_formed_in_the_draws_own_array(traced_peak):
    # 16,384 draws of an 8-dim gradient (1 MiB): beyond them the call holds
    # only numpy's fixed 64 KiB buffer for the broadcast add of the gradient
    obj = NoisyQuadratic(np.ones(8), sigma=0.7)
    x = np.linspace(-1.0, 1.0, 8)
    rng = make_rng(5, 1)
    draws = obj.grad_draws(x, 16384, make_rng(5, 1))
    want = obj.full_grad(x) + 0.7 * rng.standard_normal((16384, 8))
    assert draws.tobytes() == want.tobytes()
    assert traced_peak(obj.grad_draws, x, 16384, rng) <= 1.1 * draws.nbytes


def test_gradient_lipschitz_witness():
    rng = make_rng(5, 16)
    for obj in (NoisyQuadratic(np.linspace(0.5, 5.0, 8)),
                NoisyQuadratic(np.array([[2.0, 0.5], [0.5, 1.0]]))):
        L = obj.lambda_max()
        for _ in range(100):
            x = rng.standard_normal(obj.dim)
            y = rng.standard_normal(obj.dim)
            lhs = np.linalg.norm(obj.full_grad(x) - obj.full_grad(y))
            assert lhs <= L * np.linalg.norm(x - y) + 1e-9


_MATRIX = [[2.0, 0.5, 0.0, 0.1], [0.5, 1.0, -0.2, 0.0],
           [0.0, -0.2, 0.5, 0.3], [0.1, 0.0, 0.3, 1.5]]


@pytest.mark.parametrize("shape", [(4,), (3, 4)], ids=["vector", "stack"])
@pytest.mark.parametrize("A", [np.linspace(0.5, 5.0, 4), _MATRIX], ids=["diag", "matrix"])
def test_a_quadratic_without_b_equals_one_with_a_zero_b_and_skips_its_term(
        A, shape, monkeypatch):
    bare, zero = NoisyQuadratic(A, sigma=0.7), NoisyQuadratic(A, b=np.zeros(4), sigma=0.7)
    assert bare.b is None and zero.b.tolist() == [0.0] * 4
    rng = make_rng(9, 16)
    x, batch = rng.standard_normal(shape), rng.standard_normal(shape)
    vecdots, vecdot = [], np.vecdot
    monkeypatch.setattr(np, "vecdot", lambda *a: vecdots.append(1) or vecdot(*a))

    def outputs(obj):
        """Each method's output, and the vecdots it took."""
        calls = {"loss": lambda: obj.loss(x, batch),
                 "loss_and_grad": lambda: obj.loss_and_grad(x, batch),
                 "grad": lambda: obj.grad(x, batch),
                 "full_loss": lambda: obj.full_loss(x),
                 "full_grad": lambda: obj.full_grad(x),
                 "grad_draws": lambda: obj.grad_draws(x.reshape(-1, 4)[-1], 5,
                                                      make_rng(3, 16))}
        out = {}
        for name, call in calls.items():
            vecdots.clear()
            got = call()
            out[name] = ([(type(v), np.asarray(v).tobytes())
                          for v in (got if isinstance(got, tuple) else (got,))],
                         len(vecdots))
        return out

    got, want = outputs(bare), outputs(zero)
    assert {k: v[0] for k, v in got.items()} == {k: v[0] for k, v in want.items()}
    # the linear term is one vecdot per loss, taken only where b was given
    assert {k: want[k][1] - v[1] for k, v in got.items()} == {
        "loss": 1, "loss_and_grad": 1, "grad": 0, "full_loss": 1, "full_grad": 0,
        "grad_draws": 0}


# ---------------------------------------------------------------------------
# datasets


def test_blobs_shapes_and_centers():
    ds = make_blobs_dataset(10, 3, 2, 3.0, make_rng(0, 4))
    assert ds.features.shape == (30, 2)
    assert ds.n_classes == 3
    centers = {0: (3.0, 0.0), 1: (0.0, 3.0), 2: (-3.0, 0.0)}
    for c, center in centers.items():
        mean = ds.features[ds.labels == c].mean(axis=0)
        assert np.linalg.norm(mean - center) < 1.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_blobs_hold_at_most_two_classes_per_dimension(dim):
    # class c sits at +-e_(c mod dim): 2*dim distinct centres, one per class
    ds = make_blobs_dataset(50, 2 * dim, dim, 5.0, make_rng(0, 4))
    means = np.array([ds.features[ds.labels == c].mean(axis=0) for c in range(2 * dim)])
    gaps = np.linalg.norm(means[:, np.newaxis] - means, axis=-1)
    assert gaps[~np.eye(2 * dim, dtype=bool)].min() > 5.0
    with pytest.raises(InvalidParameterError):
        make_blobs_dataset(50, 2 * dim + 1, dim, 5.0, make_rng(0, 4))


def test_blobs_deterministic_per_seed():
    a = make_blobs_dataset(5, 2, 3, 1.0, make_rng(7, 4))
    b = make_blobs_dataset(5, 2, 3, 1.0, make_rng(7, 4))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_label_noise_flip_counts():
    ds = make_blobs_dataset(50, 2, 2, 2.0, make_rng(0, 4))
    same = inject_label_noise(ds, 0.0, make_rng(1, 4))
    assert np.array_equal(same.labels, ds.labels)

    half = inject_label_noise(ds, 0.5, make_rng(1, 4))
    assert int(np.sum(half.labels != ds.labels)) == 50
    assert half.noise_fraction == 0.5

    full = inject_label_noise(ds, 1.0, make_rng(1, 4))
    assert int(np.sum(full.labels != ds.labels)) == 100


def test_label_noise_flips_stay_in_range_and_differ():
    ds = make_blobs_dataset(40, 3, 2, 2.0, make_rng(2, 4))
    noisy = inject_label_noise(ds, 0.3, make_rng(3, 4))
    flipped = noisy.labels != ds.labels
    assert int(flipped.sum()) == 36  # floor(0.3 * 120)
    assert np.all(noisy.labels >= 0) and np.all(noisy.labels < 3)
    # original untouched
    assert ds.noise_fraction == 0.0


def test_label_noise_validation():
    ds = make_blobs_dataset(10, 2, 2, 2.0, make_rng(0, 4))
    with pytest.raises(InvalidParameterError):
        inject_label_noise(ds, 1.5, make_rng(0, 4))
    single = Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int))
    with pytest.raises(InvalidParameterError):
        inject_label_noise(single, 0.5, make_rng(0, 4))


def test_dataset_csv_round_trip(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0.5,1.0,0\n-0.5,2.0,1\n")
    ds = load_dataset_csv(str(p))
    assert np.array_equal(ds.features, [[0.5, 1.0], [-0.5, 2.0]])
    assert np.array_equal(ds.labels, [0, 1])

    with_header = tmp_path / "h.csv"
    with_header.write_text("x0,x1,y\n0.5,1.0,0\n-0.5,2.0,1\n")
    ds2 = load_dataset_csv(str(with_header), header=True)
    assert np.array_equal(ds2.features, ds.features)


def test_dataset_csv_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,0.5\n")
    with pytest.raises(ConfigError):
        load_dataset_csv(str(bad))  # non-integer label column
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ConfigError):
        load_dataset_csv(str(empty))


def test_a_ragged_csv_row_names_its_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x0,x1,y\n0.5,1.0,0\n\n-0.5,1\n")
    with pytest.raises(ConfigError) as err:
        load_dataset_csv(str(p), header=True)
    assert err.value.path == f"{p}:4"
    assert "expected 3 cells, got 2" in str(err.value)


def test_a_negative_label_names_its_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0.5,1.0,0\n-0.5,2.0,-1\n")
    with pytest.raises(ConfigError) as err:
        load_dataset_csv(str(p))
    assert err.value.path == f"{p}:2"
    assert "non-negative integer" in str(err.value)


def test_a_non_integer_label_names_its_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0.5,1.0,0\n-0.5,2.0,1\n1.5,0.0,0.5\n")
    with pytest.raises(ConfigError) as err:
        load_dataset_csv(str(p))
    assert err.value.path == f"{p}:3"
    assert "non-negative integer" in str(err.value)


@pytest.mark.parametrize("label, shown", [("1000000000000", "1e+12"), ("1e300", "1e+300"),
                                          ("2", "2")])
def test_labels_that_skip_a_class_name_the_first_row_of_the_largest(tmp_path, label, shown):
    # a label of 1e12 once sized a 29 TiB output layer, and 1e300 overflowed the int cast
    p = tmp_path / "d.csv"
    p.write_text(f"0.5,1.0,0\n-0.5,2.0,{label}\n1.5,0.0,0\n0.0,1.0,{label}\n")
    with pytest.raises(ConfigError) as err:
        load_dataset_csv(str(p))
    assert err.value.path == f"{p}:2"
    assert str(err.value).endswith(f"class 1 has no row, below the largest label {shown}")


@pytest.mark.parametrize("text, line", [("0.5,x,1\n", 1), ("0.5,1.0,1\n0.5,nan,0\n", 2),
                                        ("1\n", 1)])
def test_a_csv_cell_that_is_not_a_finite_number_names_its_line(tmp_path, text, line):
    p = tmp_path / "d.csv"
    p.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_dataset_csv(str(p))
    assert err.value.path == f"{p}:{line}"


def test_dataset_shape_validation():
    with pytest.raises(DimensionMismatchError):
        Dataset(np.zeros(4), np.zeros(4, dtype=int))
    with pytest.raises(DimensionMismatchError):
        Dataset(np.zeros((4, 2)), np.zeros(3, dtype=int))


# ---------------------------------------------------------------------------
# the MLP


def test_mlp_parameter_count():
    assert Mlp([3, 4, 2]).dim == (3 + 1) * 4 + (4 + 1) * 2
    assert Mlp([2, 2]).dim == 6


def test_mlp_rejects_bad_architectures():
    with pytest.raises(InvalidParameterError):
        Mlp([3])
    with pytest.raises(InvalidParameterError):
        Mlp([3, 0, 2])
    with pytest.raises(InvalidParameterError):
        Mlp([3, 2], activation="sigmoid")


def test_zero_weights_give_uniform_softmax_loss():
    mlp = Mlp([2, 3, 2])
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1])
    loss, _ = mlp.loss_and_grad(np.zeros(mlp.dim), feats, labels)
    assert abs(loss - math.log(2.0)) <= 1e-9


def test_mlp_gradient_matches_central_differences():
    rng = make_rng(11, 16)
    for arch, act in (([3, 5, 2], "tanh"), ([2, 4, 4, 3], "relu")):
        mlp = Mlp(arch, activation=act)
        feats = rng.standard_normal((12, arch[0]))
        labels = rng.integers(0, arch[-1], size=12)
        x = mlp.init_params(rng) + 0.05 * rng.standard_normal(mlp.dim)
        _, g = mlp.loss_and_grad(x, feats, labels)
        h = 1e-5
        fd = np.zeros(mlp.dim)
        for i in range(mlp.dim):
            e = np.zeros(mlp.dim)
            e[i] = h
            lp, _ = mlp.loss_and_grad(x + e, feats, labels)
            lm, _ = mlp.loss_and_grad(x - e, feats, labels)
            fd[i] = (lp - lm) / (2 * h)
        rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12)
        assert rel < 1e-5


def test_single_layer_softmax_fits_separable_points():
    mlp = Mlp([2, 2])
    feats = np.eye(2)
    labels = np.array([0, 1])
    x = np.zeros(mlp.dim)
    for _ in range(200):
        loss, g = mlp.loss_and_grad(x, feats, labels)
        x = x - 1.0 * g
    assert loss < 0.1


def test_mlp_init_leaves_biases_zero():
    mlp = Mlp([3, 4, 2], activation="relu")
    x = mlp.init_params(make_rng(0, 0))
    for (W, b) in mlp.unpack(x):
        assert np.array_equal(b, np.zeros_like(b))
        assert np.any(W != 0.0)


def test_direction_normalization_matches_row_norms():
    mlp = Mlp([3, 4, 2])
    rng = make_rng(4, 5)
    x = mlp.init_params(rng) + 0.1 * rng.standard_normal(mlp.dim)
    d = mlp.normalize_direction(rng.standard_normal(mlp.dim), x)
    for (Wd, bd), (Wx, bx) in zip(mlp.unpack(d), mlp.unpack(x)):
        for j in range(Wd.shape[0]):
            dn = math.hypot(np.linalg.norm(Wd[j]), bd[j])
            xn = math.hypot(np.linalg.norm(Wx[j]), bx[j])
            assert dn == pytest.approx(xn, rel=1e-12)


def test_direction_normalization_keeps_zero_rows_zero():
    mlp = Mlp([2, 2])
    x = np.ones(mlp.dim)
    d = np.zeros(mlp.dim)
    assert np.array_equal(mlp.normalize_direction(d, x), d)


def _normalize_direction_per_neuron(mlp, direction, x):
    """Reference: one neuron at a time, each norm from the 1-D ``norm2``."""
    out = direction.copy()
    for (w0, b0, end), (fan_out, fan_in) in zip(mlp._offsets, mlp.shapes):
        for j in range(fan_out):
            sl_w = slice(w0 + j * fan_in, w0 + (j + 1) * fan_in)
            idx_b = b0 + j
            dnorm = math.sqrt(norm2(out[sl_w]) ** 2 + out[idx_b] ** 2)
            xnorm = math.sqrt(norm2(x[sl_w]) ** 2 + x[idx_b] ** 2)
            if dnorm > 0.0:
                factor = xnorm / dnorm
                out[sl_w] *= factor
                out[idx_b] *= factor
    return out


@pytest.mark.parametrize("sizes", [[1, 3], [2, 8, 2], [2, 32, 2], [5, 7, 4, 3],
                                   [40, 6, 2]])
def test_direction_normalization_equals_the_per_neuron_loop(sizes):
    mlp = Mlp(sizes)
    rng = make_rng(len(sizes), 5)
    x = mlp.init_params(rng) + 0.1 * rng.standard_normal(mlp.dim)
    d = rng.standard_normal(mlp.dim)
    # zero out one neuron's whole group: it must stay zero, unscaled
    (w0, b0, end), (fan_out, fan_in) = mlp._offsets[0], mlp.shapes[0]
    d[w0:w0 + fan_in] = 0.0
    d[b0] = 0.0
    got = mlp.normalize_direction(d, x)
    assert np.array_equal(got, _normalize_direction_per_neuron(mlp, d, x))
    assert np.all(got[w0:w0 + fan_in] == 0.0) and got[b0] == 0.0


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [[6], [6, 4]])
@pytest.mark.parametrize("batch", [1, 16, None])
def test_forward_only_loss_equals_the_loss_of_loss_and_grad(activation, hidden, batch):
    ds = make_blobs_dataset(20, 3, 3, 1.5, make_rng(2, 4))
    mlp = Mlp([3] + hidden + [3], activation)
    x = mlp.init_params(make_rng(1, 0))
    rows = np.arange(ds.n_samples) if batch is None else \
        make_rng(3, 1).permutation(ds.n_samples)[:batch]
    feats, labels = ds.features[rows], ds.labels[rows]
    assert mlp.loss(x, feats, labels) == mlp.loss_and_grad(x, feats, labels)[0]


def test_objective_losses_run_no_backward_pass(monkeypatch):
    obj = _blob_objective(holdout=0.25)
    x = obj.init_params(make_rng(1, 0))
    want = [obj.mlp.loss_and_grad(x, *obj._rows(np.arange(4)))[0],
            obj.mlp.loss_and_grad(x, *obj._rows(np.arange(obj.n_samples)))[0],
            obj.mlp.loss_and_grad(x, *obj._holdout)[0]]

    def no_backward(*args):
        raise AssertionError("a loss-only call ran the backward pass")

    monkeypatch.setattr(Mlp, "loss_and_grad", no_backward)
    assert [obj.loss(x, np.arange(4)), obj.full_loss(x), obj.holdout_loss(x)] == want


# ---------------------------------------------------------------------------
# exactness against the passes as first written: the class-axis max and sum
# by numpy reductions, the backward pass re-taking tanh of the pre-activations


def _reference_cross_entropy(logits, labels):
    zmax = logits.max(axis=-1, keepdims=True)
    exps = np.exp(logits - zmax)
    sums = exps.sum(axis=-1, keepdims=True)
    logsumexp = zmax[..., 0] + np.log(sums[..., 0])
    at = (*np.indices(labels.shape, sparse=True), labels)
    loss = np.mean(logsumexp - logits[at], axis=-1)
    return float(loss) if np.ndim(loss) == 0 else loss, exps, sums, at


def _reference_act_deriv(z, kind):
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def _reference_forward(mlp, x, feats):
    layers = mlp.unpack(x)
    a = feats
    zs, acts = [], [a]
    for i, (W, b) in enumerate(layers):
        z = a @ W.mT + b[..., np.newaxis, :]
        zs.append(z)
        a = objectives._act(z, mlp.activation) if i < len(layers) - 1 else z
        acts.append(a)
    return zs, acts, a


def _reference_loss(mlp, x, feats, labels):
    return _reference_cross_entropy(_reference_forward(mlp, x, feats)[2], labels)[0]


def _reference_loss_and_grad(mlp, x, feats, labels):
    lead = x.shape[:-1]
    layers = mlp.unpack(x)
    zs, acts, logits = _reference_forward(mlp, x, feats)
    loss, exps, sums, at = _reference_cross_entropy(logits, labels)
    grad = np.zeros(x.shape)
    delta = exps / sums
    delta[at] -= 1.0
    delta /= feats.shape[-2]
    for i in range(len(layers) - 1, -1, -1):
        W, _ = layers[i]
        w0, b0, end = mlp._offsets[i]
        grad[..., w0:b0] = (delta.mT @ acts[i]).reshape(lead + (-1,))
        grad[..., b0:end] = delta.sum(axis=-2)
        if i > 0:
            delta = (delta @ W) * _reference_act_deriv(zs[i - 1], mlp.activation)
    return loss, grad


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("n_classes", [2, 3, 7, 8, 9, 17])
@pytest.mark.parametrize("hidden", [[6], [6, 5]])
@pytest.mark.parametrize("stack", [False, True])
def test_mlp_passes_equal_the_reference_bit_for_bit(activation, n_classes, hidden,
                                                    stack):
    rng = make_rng(n_classes, len(hidden))
    mlp = Mlp([3] + hidden + [n_classes], activation)
    lead = (4,) if stack else ()
    # zero biases and all-zero feature rows put first-layer units exactly on
    # the relu kink
    x = np.stack([mlp.init_params(rng) for _ in range(4)]) if stack else \
        mlp.init_params(rng)
    feats = rng.standard_normal(lead + (40, 3))
    feats[..., :6, :] = 0.0
    feats[..., 6:9, 1] = 0.0
    labels = rng.integers(0, n_classes, lead + (40,))
    if stack:
        x[2, 1] = np.nan
    loss, grad = mlp.loss_and_grad(x, feats, labels)
    want_loss, want_grad = _reference_loss_and_grad(mlp, x, feats, labels)
    assert type(loss) is type(want_loss)
    assert _same_bits(loss, want_loss) and _same_bits(grad, want_grad)
    assert _same_bits(mlp.loss(x, feats, labels), _reference_loss(mlp, x, feats, labels))
    assert _same_bits(mlp.forward(x, feats)[-1], _reference_forward(mlp, x, feats)[2])
    if stack:
        assert np.isnan(loss[2]) and np.isfinite(np.delete(loss, 2)).all()


@pytest.mark.parametrize("n_classes", range(2, 8))
@pytest.mark.parametrize("lead", [(), (513,), (3, 97)])
def test_numpys_short_axis_sum_is_the_left_to_right_scan(n_classes, lead):
    # _cross_entropy scans below 8 classes on the strength of this; a numpy
    # that sums short axes differently fails here
    exps = np.exp(30.0 * make_rng(n_classes, len(lead)).standard_normal(
        lead + (n_classes,)))
    scan = exps[..., 0].copy()
    for c in range(1, n_classes):
        scan += exps[..., c]
    assert _same_bits(scan, exps.sum(axis=-1))


_WIDTHS = [1, 2, 3, 8, 9, 32, 33]


@pytest.mark.parametrize("width", _WIDTHS)
@pytest.mark.parametrize("batch", [1, 7, 8, 16, 96, 512])
def test_bias_gradients_equal_numpys_row_sums_bit_for_bit(width, batch):
    # each bias gradient is an in-order einsum over the batch rows, save that
    # a width-1 layer keeps numpy's sum, which adds its contiguous rows
    # pairwise; the reference sums by delta.sum(axis=-2) into a zero-filled
    # gradient, from exponentials of broadcast max-shifted logits
    rng = make_rng(width, batch)
    nets = [([3, width, 9], "relu"), ([3, 5, width], "tanh"), ([3, width, 1, 3], "tanh")]
    for (sizes, activation), lead in itertools.product(nets, [(), (1,), (6,), (96,)]):
        mlp = Mlp(sizes, activation)
        x = mlp.init_params(rng) + 0.3 * rng.standard_normal(lead + (mlp.dim,))
        feats = rng.standard_normal(lead + (batch, 3))
        labels = rng.integers(0, sizes[-1], lead + (batch,))
        loss, grad = mlp.loss_and_grad(x, feats, labels)
        want_loss, want_grad = _reference_loss_and_grad(mlp, x, feats, labels)
        assert _same_bits(loss, want_loss), (sizes, lead)
        assert _same_bits(grad, want_grad), (sizes, lead)


@pytest.mark.parametrize("width", _WIDTHS)
def test_a_masked_stack_gradient_equals_the_reference_bit_for_bit(width):
    parts = [mlp_objective([4, width, 9], "relu",
                           make_blobs_dataset(12, 8, 4, 2.0, make_rng(s, 4)))
             for s in range(6)]
    obj = MlpObjective.stack(parts)
    rng = make_rng(width, 6)
    x = np.stack([o.init_params(rng) for o in parts])
    x += 0.3 * rng.standard_normal(x.shape)
    batch = np.stack([rng.permutation(obj.n_samples)[:16] for _ in parts])
    mask = np.array([True, False, True, True, False, True])
    got = obj.grad(x, batch, rows=mask)
    feats = np.stack([o.dataset.features[b] for o, b in zip(parts, batch)])[mask]
    labels = np.stack([o.dataset.labels[b] for o, b in zip(parts, batch)])[mask]
    want = _reference_loss_and_grad(obj.mlp, x[mask], feats, labels)[1]
    assert _same_bits(got[mask], want) and not got[~mask].any()


def _gathers(monkeypatch):
    """The row indices of each split an objective gathers, in call order."""
    gathered, real = [], MlpObjective._gather

    def counting(self, idx):
        gathered.append(idx)
        return real(self, idx)

    monkeypatch.setattr(MlpObjective, "_gather", counting)
    return gathered


@pytest.mark.parametrize("stacked", [False, True])
def test_the_training_rows_are_gathered_once_per_objective(stacked, monkeypatch):
    seeds = [0, 1, 2] if stacked else [0]
    gathered = _gathers(monkeypatch)
    parts = [_blob_objective(holdout=0.25, seed=s) for s in seeds]
    obj = MlpObjective.stack(parts) if stacked else parts[0]
    # each seed's objective gathers its training rows, then its held-out
    # rows, when it is built; a stack and the passes gather nothing more
    assert [len(idx) for idx in gathered] == [18, 6] * len(seeds)
    x = np.stack([o.init_params(make_rng(s, 0)) for s, o in zip(seeds, parts)])
    x = x if stacked else x[0]
    losses = [obj.full_loss(x) for _ in range(3)]
    grads = [obj.full_grad(x) for _ in range(3)]
    assert len(gathered) == 2 * len(seeds)
    assert all(_same_bits(v, losses[0]) for v in losses)
    assert all(_same_bits(g, grads[0]) for g in grads)
    feats = np.stack([o.dataset.features[idx] for o, idx in zip(parts, gathered[::2])])
    labels = np.stack([o.dataset.labels[idx] for o, idx in zip(parts, gathered[::2])])
    feats, labels = (feats, labels) if stacked else (feats[0], labels[0])
    assert _same_bits(losses[0], _reference_loss(obj.mlp, x, feats, labels))
    assert _same_bits(grads[0], _reference_loss_and_grad(obj.mlp, x, feats, labels)[1])


def test_a_row_mask_computes_only_those_rows_of_a_stacked_gradient(monkeypatch):
    seeds = [0, 1, 2, 3]
    parts = [_blob_objective(holdout=0.25, seed=s) for s in seeds]
    obj = MlpObjective.stack(parts)
    x = np.stack([o.init_params(make_rng(s, 0)) for s, o in zip(seeds, parts)])
    batch = np.stack([make_rng(s, 1).permutation(obj.n_samples)[:5] for s in seeds])
    every = obj.grad(x, batch)
    passes, real = [], Mlp.loss_and_grad

    def counting(self, x, feats, labels):
        passes.append(x.shape[0])
        return real(self, x, feats, labels)

    monkeypatch.setattr(Mlp, "loss_and_grad", counting)
    mask = np.array([True, False, False, True])
    got = obj.grad(x, batch, rows=mask)
    assert passes == [2]
    assert _same_bits(got[mask], every[mask]) and not got[~mask].any()
    # the quadratic computes every row whatever the mask
    quad = NoisyQuadratic([1.0, 2.0, 3.0], sigma=0.5)
    xq, noise = make_rng(0, 2).standard_normal((2, 4, 3))
    assert _same_bits(quad.grad(xq, noise, rows=mask), quad.grad(xq, noise))


@pytest.mark.parametrize("layout", ["fortran", "swapped"])
@pytest.mark.parametrize("stack", [False, True])
def test_the_label_write_lands_in_delta_whatever_the_layout_of_exps(layout, stack,
                                                                    monkeypatch):
    # the backward pass subtracts 1.0 at each label entry through delta's
    # flat view; a delta laid out as a non-C-ordered exps would make that
    # view a copy, and the write would be lost
    rng = make_rng(7, 16)
    mlp = Mlp([3, 5, 4])
    lead = (3,) if stack else ()
    x = np.stack([mlp.init_params(rng) for _ in range(3)]) if stack else mlp.init_params(rng)
    feats, labels = rng.standard_normal(lead + (20, 3)), rng.integers(0, 4, lead + (20,))
    real = objectives._cross_entropy

    def relaid(logits, labels):
        loss, exps, sums, at = real(logits, labels)
        if layout == "fortran":
            out = np.asfortranarray(exps)
        else:   # rows and classes swapped in memory
            out = np.empty(exps.shape[:-2] + exps.shape[:-3:-1]).swapaxes(-1, -2)
            out[...] = exps
        assert not out.flags.c_contiguous
        return loss, out, sums, at

    monkeypatch.setattr(objectives, "_cross_entropy", relaid)
    got = mlp.loss_and_grad(x, feats, labels)[1]
    assert _same_bits(got, _reference_loss_and_grad(mlp, x, feats, labels)[1])


@settings(max_examples=40, deadline=None)
@given(seeds=st.integers(1, 5), n_classes=st.integers(2, 17), holdout=st.booleans(),
       data=st.data())
def test_a_stack_reads_each_seeds_own_rows(seeds, n_classes, holdout, data):
    # each seed has data of its own, so a row read at another seed's offset
    # gives a different loss
    rng = make_rng(seeds * 100 + n_classes, 16)
    n = data.draw(st.integers(4, 24), label="rows")   # a quarter holds out a row
    parts = [mlp_objective([3, 5, n_classes], "tanh",
                           Dataset(rng.standard_normal((n, 3)), rng.integers(0, n_classes, n)),
                           holdout_fraction=0.25 * holdout, rng=make_rng(s, 4))
             for s in range(seeds)]
    obj = MlpObjective.stack(parts)
    x = np.stack([o.init_params(rng) + 0.3 * rng.standard_normal(o.dim) for o in parts])
    size = data.draw(st.integers(1, obj.n_samples), label="batch")
    start = data.draw(st.integers(0, obj.n_samples - size), label="start")
    # a column slice of a table of orders, as the engine's epoch batches are
    batch = np.stack([rng.permutation(obj.n_samples) for _ in parts])[:, start:start + size]
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=seeds, max_size=seeds)
                              .filter(any), label="mask"))

    def each(name, *args):
        return np.array([getattr(o, name)(x[s], *(a[s] for a in args))
                         for s, o in enumerate(parts)])

    loss, grad = obj.loss_and_grad(x, batch)
    assert _same_bits(loss, each("loss", batch))
    assert _same_bits(obj.loss(x, batch), loss)
    assert _same_bits(grad, each("grad", batch))
    masked = obj.grad(x, batch, rows=mask)
    assert _same_bits(masked[mask], grad[mask]) and not masked[~mask].any()
    assert _same_bits(obj.full_loss(x), each("full_loss"))
    assert _same_bits(obj.full_grad(x), each("full_grad"))
    assert obj.has_holdout() == holdout
    if holdout:
        assert _same_bits(obj.holdout_loss(x), each("holdout_loss"))


# ---------------------------------------------------------------------------
# full-data passes over a stack, a chunk of seeds at a time


def _pass_sizes(monkeypatch):
    """The number of seeds or points of each forward pass the MLP runs, in
    call order, read from the leading axis of its layers."""
    sizes, forward = [], Mlp._forward

    def counting(self, layers, feats, *buffers):
        W = layers[0][0]
        sizes.append(W.shape[0] if W.ndim == 3 else 1)
        return forward(self, layers, feats, *buffers)

    monkeypatch.setattr(Mlp, "_forward", counting)
    return sizes


# a [2,4,2] net on 18 training and 6 held-out rows: a seed's widest training
# activation holds 72 floats and its widest held-out one 24, so one seed's
# training activation per chunk splits 8 seeds into chunks of 1 and 3, 3, 2
# held out, and three seeds' splits them into 3, 3, 2 and one held-out chunk
@pytest.mark.parametrize("budget, train, holdout",
                         [(8 * 72, [1] * 8, [3, 3, 2]),
                          (8 * 72 * 3, [3, 3, 2], [8])], ids=["1-seed", "3-seed"])
def test_stacked_full_passes_in_seed_chunks_equal_the_per_seed_calls(
        budget, train, holdout, monkeypatch):
    seeds = list(range(8))
    parts = [_blob_objective(holdout=0.25, seed=s) for s in seeds]
    obj = MlpObjective.stack(parts)
    x = np.stack([o.init_params(make_rng(s, 0)) for s, o in zip(seeds, parts)])
    want = {name: np.array([getattr(o, name)(row) for o, row in zip(parts, x)])
            for name in ("full_grad", "full_loss", "holdout_loss", "final_loss")}
    monkeypatch.setattr(core, "PASS_BYTES", budget)
    sizes = _pass_sizes(monkeypatch)
    for name, chunks in [("full_grad", train), ("full_loss", train),
                         ("holdout_loss", holdout), ("final_loss", holdout)]:
        sizes.clear()
        got = getattr(obj, name)(x)
        assert sizes == chunks, name
        assert _same_bits(got, want[name]), name


# ---------------------------------------------------------------------------
# full-data passes over points on one seed's rows, a chunk of points at a time


# a [2,4,2] net on 24 rows: a point's widest activation holds 96 floats, so a
# block of 2 * 8 * 96 * 3 bytes gives chunks of 3 points, and 7 points run as
# chunks of 3, 3 and 1, each on the shared rows
def test_full_passes_over_a_point_stack_equal_the_per_point_calls(monkeypatch):
    obj = _blob_objective()
    points = 0.5 * make_rng(2, 16).standard_normal((7, obj.dim))
    want = {name: np.array([getattr(obj, name)(p) for p in points])
            for name in ("full_loss", "full_grad")}
    monkeypatch.setattr(core, "BLOCK_BYTES", 2 * 8 * 96 * 3)
    assert core.chunk_points(96) == 3
    sizes = _pass_sizes(monkeypatch)
    for name in want:
        sizes.clear()
        got = getattr(obj, name)(points)
        assert sizes == [3, 3, 1], name
        assert _same_bits(got, want[name]), name


# below 8 classes _cross_entropy folds its sums column by column, from 8 it
# sums them; one class copies its only column as the max
@pytest.mark.parametrize("n_points, chunks", [(7, [3, 3, 1]), (0, [])],
                         ids=["remainder", "empty"])
@pytest.mark.parametrize("n_classes", [1, 2, 3, 8, 9])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_point_stack_losses_on_both_splits_equal_the_per_point_calls(
        activation, n_classes, n_points, chunks, monkeypatch):
    rng = make_rng(n_classes, 16)
    labels = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, 32 - n_classes)])
    obj = mlp_objective([3, 5, n_classes], activation,
                        Dataset(rng.standard_normal((32, 3)), labels),
                        holdout_fraction=0.25, rng=make_rng(1, 4))
    points = 0.8 * rng.standard_normal((n_points, obj.dim))
    want = {name: np.array([getattr(obj, name)(p) for p in points])
            for name in ("full_loss", "holdout_loss")}
    monkeypatch.setattr(objectives, "chunk_points", lambda width: 3)
    sizes = _pass_sizes(monkeypatch)
    for name in want:
        sizes.clear()
        got = getattr(obj, name)(points)
        assert sizes == chunks, name
        assert _same_bits(got, want[name]), name


def test_the_point_budget_gives_the_diagnostics_network_four_points():
    # [2,32,2] on 512 rows: a point's hidden activation is 128 KiB
    assert core.chunk_points(512 * 32) == 4


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_a_stacked_loss_holds_about_one_widest_activation(activation, traced_peak):
    # four points on 256 shared rows of a [2,32,2] net: the hidden activation
    # is written over its pre-activation, so the pass holds it once
    mlp = Mlp([2, 32, 2], activation)
    rng = make_rng(4, 16)
    x = np.stack([mlp.init_params(rng) for _ in range(4)])
    feats = np.broadcast_to(rng.standard_normal((256, 2)), (4, 256, 2))
    labels = np.broadcast_to(rng.integers(0, 2, 256), (4, 256))
    widest = 4 * 256 * 32 * 8
    assert traced_peak(mlp.loss, x, feats, labels) <= 1.5 * widest


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_a_backward_pass_writes_each_derivative_over_its_activation(activation, traced_peak):
    # one point on 512 rows of a [2,32,2] net: the backward pass holds the
    # hidden activation, its derivative written over it, and delta @ W
    mlp = Mlp([2, 32, 2], activation)
    rng = make_rng(5, 16)
    x = mlp.init_params(rng)
    feats, labels = rng.standard_normal((512, 2)), rng.integers(0, 2, 512)
    kept = feats.copy()
    mlp.loss_and_grad(x, feats, labels)
    assert traced_peak(mlp.loss_and_grad, x, feats, labels) <= 2.5 * 512 * 32 * 8
    assert feats.tobytes() == kept.tobytes()   # the input layer is never written


_BLOBS_3_CLASS_RELU = {
    "objective": {"kind": "blobs", "n_per_class": 16, "n_classes": 3, "dim": 2,
                  "separation": 2.0, "hidden": [8], "activation": "relu",
                  "label_noise": 0.1, "holdout_fraction": 0.25},
    "optimizer": {"kind": "evasso", "rho": 0.05, "theta": 0.2, "p": 0.5,
                  "lr": {"kind": "constant", "base": 0.1}},
    "T": 40, "batch_size": 8, "seeds": [0], "metrics_every": 4}


def _cli_output_bytes(workdir, cfg, monkeypatch):
    """Every file a 2-D slice, a spectrum and a 3-seed train write, by name."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)   # relative --out paths keep the train summary's config equal
    for argv in (["slice", "--two-d", "--points", "7", "--radius", "0.5",
                  "--train-steps", "20", "--seed", "3", "--out", "slice.csv"],
                 ["spectrum", "--k", "3", "--iters", "12", "--train-steps", "20",
                  "--seed", "3", "--out", "spectrum.csv"],
                 ["train", "--seed", "0,1,2", "--out", "train.csv"]):
        assert main(argv + ["--config", cfg]) == 0
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def test_cli_outputs_equal_those_of_the_reference_passes(tmp_path, monkeypatch):
    cfg = tmp_path / "blobs.json"
    cfg.write_text(json.dumps(_BLOBS_3_CLASS_RELU))
    now = _cli_output_bytes(tmp_path / "now", str(cfg), monkeypatch)
    monkeypatch.setattr(Mlp, "loss", _reference_loss)
    monkeypatch.setattr(Mlp, "loss_and_grad", _reference_loss_and_grad)
    reference = _cli_output_bytes(tmp_path / "reference", str(cfg), monkeypatch)
    assert sorted(now) == ["slice.csv", "spectrum.csv", "train.csv",
                           "train.csv.summary.json"]
    assert now == reference


# ---------------------------------------------------------------------------
# MLP objective over a dataset


def _blob_objective(holdout=0.0, seed=0):
    ds = make_blobs_dataset(12, 2, 2, 2.5, make_rng(seed, 4))
    return mlp_objective([2, 4, 2], "tanh", ds, holdout_fraction=holdout,
                         rng=make_rng(seed, 4))


def test_batch_gradients_average_to_full_gradient():
    obj = _blob_objective()
    x = obj.init_params(make_rng(1, 0))
    cover = [np.arange(0, 8), np.arange(8, 16), np.arange(16, 24)]
    mean_g = sum(obj.grad(x, b) for b in cover) / len(cover)
    assert np.allclose(mean_g, obj.full_grad(x), atol=1e-10)


def test_holdout_split_partitions_the_dataset(monkeypatch):
    gathered = _gathers(monkeypatch)
    obj = _blob_objective(holdout=0.25)
    assert obj.has_holdout()
    assert obj.n_samples == 18
    both = np.concatenate(gathered)
    assert sorted(both.tolist()) == list(range(24))
    x = obj.init_params(make_rng(1, 0))
    assert math.isfinite(obj.holdout_loss(x))


def test_holdout_loss_requires_a_split():
    obj = _blob_objective()
    with pytest.raises(InvalidParameterError):
        obj.holdout_loss(np.zeros(obj.dim))


def test_mlp_objective_shape_validation():
    ds = make_blobs_dataset(5, 3, 2, 1.0, make_rng(0, 4))
    with pytest.raises(DimensionMismatchError):
        MlpObjective(Mlp([3, 2]), ds)       # feature width mismatch
    with pytest.raises(DimensionMismatchError):
        MlpObjective(Mlp([2, 2]), ds)       # 3 classes, 2 outputs


def test_a_quadratic_scales_a_slice_direction_to_unit_length():
    obj = NoisyQuadratic(np.ones(3))
    d = np.array([0.3, -1.7, 2.2])
    assert obj.normalize_direction(d, np.ones(3)).tobytes() == (d / norm2(d)).tobytes()


# ---------------------------------------------------------------------------
# Hessian-vector products


def test_hvp_uses_analytic_form_on_quadratics():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    obj = NoisyQuadratic(A, sigma=0.0)
    v = np.array([0.4, -1.2])
    out = obj.hvp(np.array([5.0, -5.0]), v)
    assert np.allclose(out, A @ v, atol=1e-8)


def test_hvp_zero_vector_maps_to_zero():
    obj = _blob_objective()
    out = hvp_finite_difference(obj, np.zeros(obj.dim), np.zeros(obj.dim))
    assert np.array_equal(out, np.zeros(obj.dim))


def test_hvp_finite_difference_on_linear_gradient_is_exact():
    # a quadratic seen through the finite-difference path (no analytic hvp)
    class Quad:
        def __init__(self, A):
            self.A = A
            self.dim = A.shape[0]

        def full_grad(self, x):
            return self.A @ x

    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    v = np.array([1.0, 2.0])
    out = hvp_finite_difference(Quad(A), np.array([0.2, -0.4]), v)
    assert np.allclose(out, A @ v, atol=1e-8)


def test_hvp_symmetry_on_mlp():
    obj = _blob_objective()
    rng = make_rng(2, 16)
    x = obj.init_params(rng)
    u = rng.standard_normal(obj.dim)
    w = rng.standard_normal(obj.dim)
    uhw = float(u @ obj.hvp(x, w))
    whu = float(w @ obj.hvp(x, u))
    assert uhw == pytest.approx(whu, rel=1e-4, abs=1e-8)


def test_hvp_dimension_check():
    obj = NoisyQuadratic(np.ones(3))
    with pytest.raises(DimensionMismatchError):
        hvp_finite_difference(obj, np.zeros(3), np.zeros(2))


# ---------------------------------------------------------------------------
# the four-sample partitioning example


def test_pooled_partition_losses_vanish_identically():
    f1, f2 = m_sharpness_example("by_b")
    for w in (-1.0, 0.0, 0.3, 2.0):
        for d in (-0.5, 0.0, 0.5):
            assert f1(w, d) == 0.0
            assert f2(w, d) == 0.0


def test_split_partition_losses_closed_form():
    f1, f2 = m_sharpness_example("by_a")
    assert f1(1.0, 0.0) == 0.0
    assert f2(1.0, 0.0) == 0.0
    assert f1(0.0, 0.5) == 0.25
    assert f2(0.0, -0.5) == 0.75


def test_partition_objectives_differ_by_exactly_one():
    assert m_sharpness_objective("by_b", 0.0, 0.5) == 0.0
    assert m_sharpness_objective("by_a", 0.0, 0.5) == 1.0


def test_partition_objective_vanishes_at_rho_zero():
    # the per-pair losses cancel sample by sample when no perturbation acts
    for w in (-2.0, -0.3, 0.0, 1.7):
        assert m_sharpness_objective("by_a", w, 0.0) == 0.0
        assert m_sharpness_objective("by_b", w, 0.0) == 0.0


def test_partition_objective_monotone_in_radius():
    vals = [m_sharpness_objective("by_a", 0.0, r)
            for r in (0.0, 0.25, 0.5, 1.0, 2.0)]
    assert all(a <= b for a, b in zip(vals[:-1], vals[1:]))


def test_partition_objective_matches_grid_search():
    rng = make_rng(8, 16)
    for _ in range(20):
        w = float(rng.uniform(-2, 2))
        rho = float(rng.uniform(0.01, 1.5))
        for part in ("by_a", "by_b"):
            f1, f2 = m_sharpness_example(part)
            deltas = np.linspace(-rho, rho, 2001)
            brute = max(f1(w, d) for d in deltas) + max(f2(w, d) for d in deltas)
            assert m_sharpness_objective(part, w, rho) == pytest.approx(
                brute, abs=1e-5)


def test_partition_validation():
    with pytest.raises(InvalidParameterError):
        m_sharpness_example("by_c")
    with pytest.raises(InvalidParameterError):
        m_sharpness_objective("by_a", 0.0, -0.1)
