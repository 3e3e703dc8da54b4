"""Stochastic objectives: noisy quadratics, small datasets, and a numpy MLP.

Every objective class answers the same surface, the whole of what the
engine and the diagnostics read::

    parse(fields, kind)  -- classmethod: a config's ``objective`` spec; the
                            class docstring names its keys, ``?`` if optional
    build(spec, seeds)   -- classmethod: the objective of each seed, from a
                            parsed config spec; ConfigError on a bad one
    stack(objs)          -- classmethod: one objective over a stack of seeds
    dim                  -- number of parameters
    init_params(rng)     -- the initial point
    loss(x, batch) / grad(x, batch) / loss_and_grad(x, batch)
    loss_and_slope(x, batch, adv_batch, fresh) -- the loss on ``batch`` and the
                            gradient on ``adv_batch`` where a row is fresh
    full_loss(x)         -- exact (noise-free) objective, or mean over the dataset
    full_grad(x)         -- exact gradient, or mean over the dataset
    final_loss(x)        -- the run's reported loss: held-out where there is
                            a held-out split, ``full_loss`` otherwise
    hvp(x, v)            -- Hessian-vector product (analytic or finite differences)
    normalize_direction(d, x) -- a landscape slice's scaled direction
    make_sampler(batch_size, rng) -> callable yielding batches

A *batch* carries all of a step's stochasticity.  For dataset-backed
objectives it is an index array drawn without replacement with a per-epoch
reshuffle.  For ``NoisyQuadratic`` the batch IS the gradient-noise vector:
the two gradient evaluations of a sharpness-aware step then see identical
noise, which is exactly the same-batch semantics the optimizers rely on.

The loss and gradient methods also take a stack of parameter vectors, one
row per seed, with a matching stack of batches: ``x`` of shape (S, dim)
gives S losses and an (S, dim) gradient, each row equal bit for bit to the
one-vector call on that row.  A quadratic is the same for every seed, so one
instance serves any stack (its ``stack`` returns it); ``MlpObjective.stack``
joins the per-seed data of a network objective.  Values of a single vector
stay Python floats.  ``full_loss`` and ``full_grad`` of one seed's objective
also take a stack of points, (P, dim), all on that seed's data: P losses or
a (P, dim) gradient, each row equal bit for bit to the one-point call.
``grad(x, batch, rows=mask)`` hints that only the masked rows of a stack are
read: the MLP computes just those and leaves the others zero, and the
quadratic, whose gradient costs less than picking rows, computes them all.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (STREAM_DATA, _as_number, as_param_vector, chunk_points, chunk_seeds,
                   make_rng, norm2, row_norms)
from .errors import ConfigError, DimensionMismatchError, InvalidParameterError


def _number_list(v, path, of=_as_number) -> list:
    """A config's non-empty list of numbers, or of what ``of`` reads."""
    if not isinstance(v, list) or not v:
        raise ConfigError(path, f"expected a non-empty list, got {v!r}")
    return [of(x, path) for x in v]


def _as_loss(v):
    """A single vector's loss as a Python float; a stack's stays an array."""
    return float(v) if np.ndim(v) == 0 else v


@functools.lru_cache(maxsize=8)
def _epoch_rows(k: int, n: int) -> np.ndarray:
    """A read-only (k, n) view each of whose rows is ``arange(n)``: the rows of
    k epochs in order, which ``Generator.permuted`` shuffles row by row."""
    return np.broadcast_to(np.arange(n), (k, n))


@functools.lru_cache(maxsize=8)
def _slope_layout(fresh: bytes | None, n: int):
    """The rows of ``MlpObjective.loss_and_slope``'s pass over a stack of n
    rows, which are all fresh (``fresh`` None) or fresh where the bools of
    ``fresh`` are set: the stack row each pass row runs, the row of
    ``[batch; adv_batch]`` it reads, and the pass row that gives each
    stack row's loss.  The n leading pass rows are the stack's, each on its
    slope batch; the trailing rows are its fresh rows again, on ``batch``.
    """
    is_fresh = np.ones(n, dtype=bool) if fresh is None else np.frombuffer(fresh, dtype=bool)
    again, leading = np.flatnonzero(is_fresh), np.arange(n)
    losses = leading.copy()
    losses[again] = n + np.arange(len(again))
    layout = (np.concatenate([leading, again]),
              np.concatenate([leading + n * is_fresh, again]), losses)
    for a in layout:
        a.flags.writeable = False   # shared by every pass of this layout
    return layout


class EpochSampler:
    """Without-replacement minibatch sampler with per-epoch reshuffle.

    A call serves the next batch, and the first call of an epoch draws the
    epoch's order (``Generator.permutation``) and counts it (``epoch``).
    ``next_epochs(k)`` draws the orders of k epochs at once, for a caller
    that serves their batches itself.
    """

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        if n < 1:
            raise InvalidParameterError(f"cannot sample batches from {n} rows")
        if batch_size < 1:
            raise InvalidParameterError(f"batch_size must be >= 1, got {batch_size}")
        self.n = n
        self.batch_size = min(batch_size, n)
        self.rng = rng
        self.epoch = -1
        self._order = None
        self._pos = 0
        self.batches_per_epoch = math.ceil(n / self.batch_size)

    def next_epochs(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """The orders of rows of the next k epochs, a (k, n) array.

        Row j is the order that the first call of the j-th epoch would draw,
        bit for bit: one ``Generator.permuted`` call over a read-only (k, n)
        ``arange`` shuffles its rows in turn, as k ``permutation(n)`` calls
        would.  With ``out``, a C-contiguous (k, n) intp array, the orders
        are drawn into it and it is returned.  The caller serves the epochs
        and counts each one as it begins (``epoch += 1``); the next call
        begins the epoch after them.
        """
        self._order = None
        return self.rng.permuted(_epoch_rows(k, self.n), axis=1, out=out)

    def __call__(self) -> np.ndarray:
        if self._order is None or self._pos >= self.n:
            self._order, self._pos = self.rng.permutation(self.n), 0
            self.epoch += 1
        batch = self._order[self._pos:self._pos + self.batch_size]
        self._pos += self.batch_size
        return batch


class NoisyQuadratic:
    """f(x) = 1/2 x'Ax + b'x with isotropic Gaussian gradient noise.

    ``A`` may be a dense symmetric PSD matrix or a 1-D vector of diagonal
    entries (kept as a diagonal so large spectra stay cheap).  A batch is a
    noise vector zeta ~ N(0, sigma^2 I); ``grad(x, zeta) = Ax + b + zeta`` and
    ``loss(x, zeta) = f(x) + zeta'x`` so the batch gradient is exactly the
    gradient of the batch loss.  ``sigma2`` = dim * sigma^2 is the declared
    total gradient-noise variance E||g - grad f||^2.  An initial point is
    ``init_scale`` times a standard normal draw.  Its ``objective`` config::

        {"kind": "quadratic", "diag": [...] | "matrix": [[...]],
         "sigma": 1.0, "b": [...]?, "init_scale": 1.0?}

    Built without ``b``, the quadratic keeps none (``self.b is None``), and
    its losses and gradients take no linear term: no ``b'x`` and no ``+ b``.
    A given ``b``, an all-zero one included, is added as written.  Skipping
    ``+ 0.0`` can change only the sign of an entry of ``Ax`` that is exactly
    zero, which no output sees: the loss adds that entry's product into
    ``0.5 x'Ax``, and every output reads a gradient through a norm or after
    adding noise to it.
    """

    def __init__(self, A, b=None, sigma: float = 0.0, init_scale: float = 1.0):
        A = np.asarray(A, dtype=np.float64)
        if A.ndim == 1:
            self._diag = A.copy()
            self._A = None
            self.dim = A.shape[0]
        elif A.ndim == 2:
            if A.shape[0] != A.shape[1]:
                raise DimensionMismatchError(f"A must be square, got {A.shape}")
            if not np.allclose(A, A.T, atol=1e-12):
                raise InvalidParameterError("A must be symmetric")
            self._A = A.copy()
            self._diag = None
            self.dim = A.shape[0]
        else:
            raise DimensionMismatchError(f"A must be 1-D or 2-D, got ndim {A.ndim}")
        if sigma < 0:
            raise InvalidParameterError(f"sigma must be >= 0, got {sigma}")
        self.b = None if b is None else as_param_vector(b, self.dim)
        self.sigma = float(sigma)
        self.sigma2 = self.dim * self.sigma * self.sigma   # inf, not an error, on overflow
        self.init_scale = init_scale

    @classmethod
    def parse(cls, fields, kind: str) -> dict:
        out = {"kind": kind}
        diag = fields.take("diag", None)
        matrix = fields.take("matrix", None)
        if (diag is None) == (matrix is None):
            raise ConfigError("objective", "give exactly one of 'diag' or 'matrix'")
        if diag is not None:
            out["diag"] = _number_list(diag, "objective.diag")
        else:
            out["matrix"] = _number_list(matrix, "objective.matrix", of=_number_list)
            if any(len(row) != len(matrix) for row in matrix):
                raise ConfigError("objective.matrix", "must be square")
            A = np.array(out["matrix"])
            if not np.allclose(A, A.T, atol=1e-12):
                raise ConfigError("objective.matrix", "must be symmetric")
        dim = len(diag if diag is not None else matrix)
        out["sigma"] = fields.number("sigma", lo=0.0)
        b = fields.take("b", None)
        if b is not None:
            out["b"] = _number_list(b, "objective.b")
            if len(b) != dim:
                raise ConfigError("objective.b", f"expected {dim} entries, got {len(b)}")
        out["init_scale"] = fields.number("init_scale", 1.0)
        return out

    @classmethod
    def build(cls, spec: dict, seeds) -> list["NoisyQuadratic"]:
        """A quadratic does not depend on the seed: one instance serves them all."""
        A = spec["diag"] if "diag" in spec else spec["matrix"]
        return [cls(A, b=spec.get("b"), sigma=spec["sigma"],
                    init_scale=spec["init_scale"])] * len(seeds)

    @staticmethod
    def stack(objectives) -> "NoisyQuadratic":
        return objectives[0]

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return self.init_scale * rng.standard_normal(self.dim)

    def _Ax(self, x: np.ndarray) -> np.ndarray:
        if self._diag is not None:
            return self._diag * x
        # per row this equals A @ row bit for bit; x @ A.T does not
        return np.matmul(self._A, x[..., np.newaxis])[..., 0]

    def _value(self, x: np.ndarray, ax: np.ndarray):
        value = np.vecdot(0.5 * x, ax)
        return value if self.b is None else value + np.vecdot(self.b, x)

    def _plus_b(self, ax: np.ndarray) -> np.ndarray:
        return ax if self.b is None else ax + self.b

    def lambda_max(self) -> float:
        if self._diag is not None:
            return float(np.max(self._diag))
        return float(np.linalg.eigvalsh(self._A)[-1])

    def full_loss(self, x: np.ndarray) -> float:
        return _as_loss(self._value(x, self._Ax(x)))

    def full_grad(self, x: np.ndarray) -> np.ndarray:
        return self._plus_b(self._Ax(x))

    def final_loss(self, x: np.ndarray) -> float:
        return self.full_loss(x)

    def loss(self, x: np.ndarray, batch: np.ndarray) -> float:
        return _as_loss(self._value(x, self._Ax(x)) + np.vecdot(batch, x))

    def grad(self, x: np.ndarray, batch: np.ndarray, rows=None) -> np.ndarray:
        """The batch gradient; every row of a stack, whatever ``rows`` asks."""
        return self.full_grad(x) + batch

    def loss_and_grad(self, x, batch):
        return self.loss_and_slope(x, batch, batch, True)

    def loss_and_slope(self, x, batch, adv_batch, fresh):
        """The loss at x on ``batch``, and the gradient at x on ``adv_batch``
        where the row is ``fresh`` (True, or one bool per row of a stack), on
        ``batch`` elsewhere.  One ``Ax`` serves both, and nothing is stacked:
        merging SAM-db's passes into one stack costs a quadratic more than it saves."""
        if fresh is not True:
            adv_batch = np.where(fresh[:, np.newaxis], adv_batch, batch)
        ax = self._Ax(x)
        return (_as_loss(self._value(x, ax) + np.vecdot(batch, x)),
                self._plus_b(ax) + adv_batch)

    def hvp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._Ax(v)

    def normalize_direction(self, direction: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The unit direction: a quadratic has no neurons to scale by."""
        return direction / norm2(direction)

    def make_sampler(self, batch_size: int, rng: np.random.Generator):
        """One noise draw per batch (batch_size is irrelevant here).

        ``sample()`` returns one batch; ``sample(k)`` returns the next k as a
        (k, dim) block, equal bit for bit to k single draws, and
        ``sample(k, out=block)`` draws them into ``block``, a C-contiguous
        (k, dim) array, and returns it.
        """
        dim, sigma = self.dim, self.sigma

        def sample(k: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
            # scaled in place: the block is the one array it holds
            noise = rng.standard_normal(dim if k is None else (k, dim), out=out)
            noise *= sigma
            return noise

        return sample

    def grad_draws(self, x: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
        """n stochastic gradients at x, stacked; vectorized for Monte-Carlo loops.

        Each row is ``full_grad(x) + sigma * draw``, formed in the draw's own array.
        """
        draws = rng.standard_normal((n, self.dim))
        draws *= self.sigma
        draws += self.full_grad(x)
        return draws


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    features: np.ndarray          # (n_samples, n_features)
    labels: np.ndarray            # (n_samples,) integer classes
    noise_fraction: float = 0.0   # fraction of labels that were flipped

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DimensionMismatchError(f"features must be 2-D, got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise DimensionMismatchError(
                f"labels shape {self.labels.shape} does not match {self.features.shape[0]} samples")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.n_samples else 0


def load_dataset_csv(path: str, header: bool = False) -> Dataset:
    """CSV rows are features followed by an integer label in the last column.

    Every row needs the first row's number of cells (at least two), every
    cell a finite number and every label a non-negative integer, and every
    class up to the largest label needs a row; a row that breaks this, or the
    largest label's first row, is a ConfigError at ``<path>:<line>``.
    """
    rows, lines = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if header:
            next(reader, None)
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            width = len(rows[0]) if rows else max(len(row), 2)
            if len(row) != width:
                raise ConfigError(where, f"expected {width} cells, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError as e:
                raise ConfigError(where, str(e)) from e
            if not all(map(math.isfinite, values)):
                raise ConfigError(where, "cells must be finite numbers")
            if not values[-1].is_integer() or values[-1] < 0:
                raise ConfigError(where, f"the label must be a non-negative integer, "
                                         f"got {row[-1]!r}")
            rows.append(values)
            lines.append(reader.line_num)
    if not rows:
        raise ConfigError(path, "dataset file has no rows")
    arr = np.asarray(rows, dtype=np.float64)
    classes = np.unique(arr[:, -1])   # before the cast: a huge label sizes the output
    if classes[-1] >= len(classes):
        missing, top = np.argmax(classes != np.arange(len(classes))), np.argmax(arr[:, -1])
        raise ConfigError(f"{path}:{lines[top]}", f"the labels must be dense: class "
                          f"{missing} has no row, below the largest label {classes[-1]:g}")
    return Dataset(arr[:, :-1], arr[:, -1].astype(np.int64))


def make_blobs_dataset(n_per_class: int, n_classes: int, dim: int,
                       separation: float, rng: np.random.Generator) -> Dataset:
    """Gaussian blobs, one unit-variance cloud per class.

    Class c is centred at separation * (+-e_{c mod dim}), cycling through the
    coordinate axes with a sign flip on each wrap: at most 2*dim classes.
    """
    if n_classes > 2 * dim:
        raise InvalidParameterError(f"{dim} dims hold {2 * dim} blob centres, not {n_classes}")
    feats, labels = [], []
    for c in range(n_classes):
        center = np.zeros(dim)
        sign = -1.0 if (c // dim) % 2 else 1.0
        center[c % dim] = sign * separation
        feats.append(center + rng.standard_normal((n_per_class, dim)))
        labels.append(np.full(n_per_class, c, dtype=np.int64))
    return Dataset(np.vstack(feats), np.concatenate(labels))


def inject_label_noise(dataset: Dataset, fraction: float,
                       rng: np.random.Generator) -> Dataset:
    """Flip exactly floor(fraction*n) labels, uniformly among the other classes."""
    if not 0.0 <= fraction <= 1.0:
        raise InvalidParameterError(f"fraction must be in [0,1], got {fraction}")
    n = dataset.n_samples
    k = int(math.floor(fraction * n))
    labels = dataset.labels.copy()
    if k > 0:
        n_classes = dataset.n_classes
        if n_classes < 2:
            raise InvalidParameterError("label noise needs at least 2 classes")
        idx = rng.choice(n, size=k, replace=False)
        # uniform draw over the other classes: shift past the original label
        offsets = rng.integers(1, n_classes, size=k)
        labels[idx] = (labels[idx] + offsets) % n_classes
    return Dataset(dataset.features.copy(), labels, noise_fraction=fraction)


# ---------------------------------------------------------------------------
# multilayer perceptron with handwritten backprop


def _act(z: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    """The activation of ``z``, written into ``out`` when given (``out=z`` for in place)."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    return np.tanh(z, out=out)


def _act_deriv(a: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative, from the activation ``a`` the forward pass
    kept, written over ``a``: relu's 1.0 or 0.0 scales as its mask would."""
    if kind == "relu":
        return np.greater(a, 0.0, out=a)
    np.multiply(a, a, out=a)
    return np.subtract(1.0, a, out=a)


def _fold_columns(op, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``op`` applied along the last axis, one column at a time from the left,
    written into ``out`` when given."""
    if a.shape[-1] == 1:
        return np.positive(a[..., 0], out=out)   # a copy, bit for bit
    out = op(a[..., 0], a[..., 1], out=out)
    for c in range(2, a.shape[-1]):
        op(out, a[..., c], out=out)
    return out


@functools.lru_cache(maxsize=16)
def _label_base(shape: tuple, classes: int) -> np.ndarray:
    """A read-only array shaped as the rows of a C-ordered (..., classes)
    array, each entry the flat index of its row's first class: ``classes * r``
    for row r.  Adding the labels gives each row's label entry."""
    base = classes * np.arange(math.prod(shape)).reshape(shape)
    base.flags.writeable = False   # shared by every pass of this shape
    return base


def _cross_entropy(logits: np.ndarray, labels: np.ndarray, at=None, scratch=None,
                   with_loss: bool = True):
    """Mean cross-entropy by a stable log-softmax over the rows of ``logits``.

    ``logits`` is (n, classes), or (S, n, classes) for a stack, which gives
    S means; ``labels`` is (n,) or (S, n), or (n,) shared by every member of
    the stack.  Also returns the max-shifted exponentials, built C-ordered in
    one array, their row sums and the flat index of each row's label entry,
    shaped as the rows of ``logits``: row r's entry sits at
    ``classes * r + labels[r]`` of a C-ordered (..., classes) array read as
    one flat vector.  From these the backward pass forms its error; a pass
    that reads no loss gives ``with_loss=False``, and None stands in for the
    loss, whose log-sum-exp and label pick are never formed.  The class-axis
    max, and below 8 classes the sum, run as column scans: numpy reduces a
    short axis slowly, and each scan equals its reduction bit for bit.  A
    caller that runs many passes on the same labels may give ``at``, that
    index, built once, and ``scratch``: an array shaped as ``logits`` for the
    exponentials and three shaped as its rows, which the pass writes in place
    of fresh ones.
    """
    classes = logits.shape[-1]
    exps, zmax, sums, logs = (None,) * 4 if scratch is None else scratch
    zmax = _fold_columns(np.maximum, logits, out=zmax)
    exps = np.subtract(logits, zmax[..., np.newaxis],
                       out=np.empty(logits.shape) if exps is None else exps)
    np.exp(exps, out=exps)
    # below 8 terms numpy sums in a plain left-to-right loop; from 8 it sums pairwise
    sums = _fold_columns(np.add, exps, out=sums) if classes < 8 \
        else np.add.reduce(exps, axis=-1, out=sums)
    if at is None:
        at = labels + _label_base(zmax.shape, classes)
    if not with_loss:
        return None, exps, sums[..., np.newaxis], at
    logsumexp = np.add(zmax, np.log(sums, out=logs), out=zmax)
    picked = logits.reshape(-1).take(at)
    loss = _as_loss(np.add.reduce(np.subtract(logsumexp, picked, out=picked), axis=-1)
                    / labels.shape[-1])
    return loss, exps, sums[..., np.newaxis], at


def _sum_rows(delta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sum over the rows (axis -2) of ``delta``, written into ``out``.

    Equals ``delta.sum(axis=-2)`` bit for bit.  From width 2 numpy adds the
    rows in order, and so does this einsum, 3-4x faster on a 96-seed stack
    of width 2 or 8, where numpy's sum runs one short inner loop per row of
    each seed.  A width-1 ``delta`` has its rows contiguous: numpy then
    sums them pairwise and einsum does not, so that case keeps ``add.reduce``.
    """
    if delta.shape[-1] == 1:
        return np.add.reduce(delta, axis=-2, out=out)
    return np.einsum("...bh->...h", delta, out=out)


def _group_norms(W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Norm of each row of W joined with its bias entry.

    Equals a per-row ``norm2`` loop bit for bit (see ``row_norms``).
    """
    return np.sqrt(row_norms(W) ** 2 + b ** 2)


class Mlp:
    """Fully-connected net, cross-entropy loss, parameters in one flat vector.

    ``layer_sizes`` = [d_in, hidden..., n_classes].  Layer l stores a weight
    matrix W_l of shape (out, in) followed by its bias, so the parameter count
    is sum((in+1)*out).  ``forward``, ``loss`` and ``loss_and_grad`` also take
    a stack: x of shape (S, dim) with features (S, n, d_in) and labels (S, n),
    or with one seed's features (n, d_in) and labels (n,) shared by every row.
    """

    def __init__(self, layer_sizes, activation: str = "tanh"):
        if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
            raise InvalidParameterError(f"bad layer_sizes {layer_sizes}")
        if activation not in ("relu", "tanh"):
            raise InvalidParameterError(f"unknown activation {activation!r}")
        self.layer_sizes = list(layer_sizes)
        self.activation = activation
        self.shapes = []
        offset = 0
        self._offsets = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            self.shapes.append((fan_out, fan_in))
            self._offsets.append((offset, offset + fan_out * fan_in,
                                  offset + fan_out * fan_in + fan_out))
            offset = self._offsets[-1][2]
        self.dim = offset

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        x = np.zeros(self.dim)
        for (w0, b0, end), (fan_out, fan_in) in zip(self._offsets, self.shapes):
            scale = math.sqrt(2.0 / fan_in) if self.activation == "relu" \
                else math.sqrt(1.0 / fan_in)
            x[w0:b0] = scale * rng.standard_normal(fan_out * fan_in)
            # biases stay zero
        return x

    def unpack(self, x: np.ndarray):
        lead = x.shape[:-1]
        layers = []
        for (w0, b0, end), (fan_out, fan_in) in zip(self._offsets, self.shapes):
            layers.append((x[..., w0:b0].reshape(lead + (fan_out, fan_in)),
                           x[..., b0:end]))
        return layers

    def forward(self, x: np.ndarray, feats: np.ndarray):
        """Return the activations per layer, ``feats`` first and the logits last."""
        return self._forward(self.unpack(x), feats)

    def _forward(self, layers, feats: np.ndarray, out=None):
        # each activation is written over its pre-activation, which nothing
        # reads again: a layer holds one array, not two, and that array is
        # out[i] when the caller gives one buffer per layer.  A stack's
        # layers may share one seed's (n, d_in) rows: matmul broadcasts them
        acts = [feats]
        for i, (W, b) in enumerate(layers):
            z = np.matmul(acts[-1], W.mT, out=None if out is None else out[i])
            z += b[..., np.newaxis, :]
            acts.append(_act(z, self.activation, out=z) if i < len(layers) - 1 else z)
        return acts

    def _shared_rows_loss(self, feats: np.ndarray, labels: np.ndarray, points: int):
        """``loss`` of a stack of at most ``points`` points, all on the rows
        ``feats`` (n, d_in) and ``labels`` (n,), as a function of the stack.

        Its buffers, one activation per layer and the softmax scratch, and
        the label index are allocated here, once, sized for ``points``; each
        call writes into their leading rows, so a loop over chunks allocates
        them once, not once per chunk.  Each loss equals the one-point
        ``loss`` bit for bit.
        """
        n, classes = labels.shape[0], self.layer_sizes[-1]
        acts = [np.empty((points, n, width)) for width in self.layer_sizes[1:]]
        scratch = [np.empty_like(acts[-1])] + [np.empty((points, n)) for _ in range(3)]
        at = labels + _label_base((points, n), classes)

        def loss(x: np.ndarray) -> np.ndarray:
            k = len(x)
            logits = self._forward(self.unpack(x), feats, [a[:k] for a in acts])[-1]
            return _cross_entropy(logits, labels, at[:k], [s[:k] for s in scratch])[0]

        return loss

    def loss(self, x: np.ndarray, feats: np.ndarray, labels: np.ndarray) -> float:
        """Mean cross-entropy over the batch: a forward pass, no backward."""
        return _cross_entropy(self.forward(x, feats)[-1], labels)[0]

    def loss_and_grad(self, x: np.ndarray, feats: np.ndarray, labels: np.ndarray, *,
                      with_loss: bool = True, forward_only: int = 0):
        """Mean cross-entropy over the batch and its gradient in x.

        Without ``with_loss`` the loss is not reduced, and None stands in its
        place.  On a stack, ``forward_only`` = k runs the last k rows forward
        alone: the losses cover every row, and the gradient only the leading
        rows, (S - k, dim).  Each row's loss and gradient equal those of the
        one-vector call on that row, bit for bit.
        """
        layers = self.unpack(x)
        acts = self._forward(layers, feats)
        loss, exps, sums, at = _cross_entropy(acts[-1], labels, with_loss=with_loss)
        Ws = [W for W, _ in layers]
        if forward_only:   # the backward pass reads the leading rows alone
            m = len(x) - forward_only
            Ws, exps, sums, at = [W[:m] for W in Ws], exps[:m], sums[:m], at[:m]
            acts = [a if a.ndim < exps.ndim else a[:m] for a in acts]   # shared rows stay
        grad = np.empty(exps.shape[:-2] + (self.dim,))   # every layer's slices are written below
        # the label write goes through delta's flat view, which is delta itself
        # only while delta is C-ordered: the softmax goes over exps, which
        # _cross_entropy builds C-ordered, copied into C order if it is not
        delta = np.ascontiguousarray(np.divide(exps, sums, out=exps))
        delta.reshape(-1)[at] -= 1.0
        delta /= feats.shape[-2]
        for i, (gW, gb) in reversed(list(enumerate(self.unpack(grad)))):
            np.matmul(delta.mT, acts[i], out=gW)
            _sum_rows(delta, out=gb)
            if i > 0:   # the last read of acts[i]: its derivative, then delta, go over it
                delta = np.multiply(delta @ Ws[i], _act_deriv(acts[i], self.activation),
                                    out=acts[i])
        return loss, grad

    def normalize_direction(self, direction: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Per-neuron direction scaling for landscape slices.

        Each output neuron's weight row together with its bias is rescaled so
        its norm matches the corresponding group of ``x`` (the usual
        filter-wise normalization, with rows standing in for conv filters).
        """
        out = direction.copy()
        for (Wd, bd), (Wx, bx) in zip(self.unpack(out), self.unpack(x)):
            dnorm = _group_norms(Wd, bd)
            xnorm = _group_norms(Wx, bx)
            live = dnorm > 0.0
            factor = xnorm[live] / dnorm[live]
            Wd[live] *= factor[:, np.newaxis]
            bd[live] *= factor
        return out


class MlpObjective:
    """An Mlp bound to a dataset (optionally with a held-out split).

    Each split, training and held-out, is gathered once when the objective
    is built: features (n, d) and labels (n,).  A batch of training row
    indices reads both with one ``take`` each.  ``MlpObjective.stack``
    builds the objective of a stack of seeds: its splits carry a leading
    seed axis, (S, n, d) and (S, n), and a batch is an (S, B) array of each
    seed's row indices, read from the split's flat (S * n, d) rows at
    ``batch`` plus an (S, 1) column of offsets, s * n on row s.  Its
    ``objective`` config::

        {"kind": "blobs", "n_per_class": 64, "n_classes": 2?, "dim": 2,
         "separation": 3.0, "hidden": [8], "activation": "tanh"?,
         "label_noise": 0.0?, "holdout_fraction": 0.0?}
        {"kind": "dataset", "path": "d.csv", "header": false?, "hidden": [8],
         "activation": "tanh"?, "label_noise": 0.0?, "holdout_fraction": 0.0?}
    """

    def __init__(self, mlp: Mlp, dataset: Dataset,
                 holdout_fraction: float = 0.0, rng: np.random.Generator | None = None):
        if dataset.n_features != mlp.layer_sizes[0]:
            raise DimensionMismatchError(
                f"dataset width {dataset.n_features} != input size {mlp.layer_sizes[0]}")
        if dataset.n_classes > mlp.layer_sizes[-1]:
            raise DimensionMismatchError(
                f"{dataset.n_classes} classes but only {mlp.layer_sizes[-1]} outputs")
        self.mlp = mlp
        self.dataset = dataset
        self.dim = mlp.dim
        if holdout_fraction > 0.0:
            if rng is None:
                raise InvalidParameterError("holdout split needs an rng")
            n = dataset.n_samples
            k = int(math.floor(holdout_fraction * n))
            perm = rng.permutation(n)
            holdout, train = np.sort(perm[:k]), np.sort(perm[k:])
        else:
            holdout, train = np.arange(0), np.arange(dataset.n_samples)
        self._train, self._holdout = self._gather(train), self._gather(holdout)
        self._offsets = 0   # each row's first flat training row: a stack's (S, 1) column
        self._flat = self._flat_train()

    @classmethod
    def parse(cls, fields, kind: str) -> dict:
        out = {"kind": kind}
        if kind == "blobs":
            out["n_per_class"] = fields.number("n_per_class", lo=1, integer=True)
            k = out["n_classes"] = fields.number("n_classes", 2, lo=2, integer=True)
            dim = out["dim"] = fields.number("dim", lo=1, integer=True)
            if k > 2 * dim:   # blobs have 2*dim centres
                raise ConfigError("objective.n_classes", f"must be <= 2*dim = {2 * dim}, got {k}")
            out["separation"] = fields.number("separation")
        else:
            out["path"] = fields.typed("path", str, "a string")
            out["header"] = fields.typed("header", bool, "a boolean", False)
        out["hidden"] = [_as_number(v, "objective.hidden", lo=1, integer=True)
                         for v in fields.typed("hidden", list, "a list of layer widths")]
        activation = fields.take("activation", "tanh")
        if activation not in ("relu", "tanh"):
            raise ConfigError("objective.activation", f"must be relu or tanh, got {activation!r}")
        out["activation"] = activation
        out["label_noise"] = fields.number("label_noise", 0.0, lo=0.0, hi=1.0)
        out["holdout_fraction"] = fields.number("holdout_fraction", 0.0, lo=0.0, hi=1.0)
        return out

    @classmethod
    def build(cls, spec: dict, seeds) -> list["MlpObjective"]:
        """The objective of each seed: a network on blobs or on a file's rows.

        Blobs are drawn per seed.  A file (a spec with a ``path``) is read
        once, and only its label noise and held-out split are drawn per seed.
        """
        shared = load_dataset_csv(spec["path"], header=spec["header"]) \
            if "path" in spec else None
        objs = []
        for seed in seeds:
            data_rng = make_rng(seed, STREAM_DATA)
            dataset = shared if shared is not None else make_blobs_dataset(
                spec["n_per_class"], spec["n_classes"], spec["dim"],
                spec["separation"], data_rng)
            # the network's widths come from the data before its labels are flipped
            layers = [dataset.n_features, *spec["hidden"], dataset.n_classes]
            if spec["label_noise"] > 0.0:
                if dataset.n_classes < 2:
                    raise ConfigError("objective.label_noise", "needs at least 2 classes, "
                                      f"the data has {dataset.n_classes}")
                dataset = inject_label_noise(dataset, spec["label_noise"], data_rng)
            obj = mlp_objective(layers, spec["activation"], dataset,
                                holdout_fraction=spec["holdout_fraction"], rng=data_rng)
            if obj.n_samples == 0:
                raise ConfigError("objective.holdout_fraction", f"holds out all "
                                  f"{dataset.n_samples} rows, leaving none to train on")
            objs.append(obj)
        return objs

    @classmethod
    def stack(cls, objectives) -> "MlpObjective":
        """One objective over the seeds of ``objectives``, in their order.

        They must share the network and the numbers of rows and of held-out
        rows, as the objectives of one config do.  The stack has no
        ``dataset``: it stacks each seed's splits, features (S, n, d) and
        labels (S, n), and row s of a batch reads flat rows from s * n.
        """
        first = objectives[0]
        out = cls.__new__(cls)
        out.mlp, out.dataset, out.dim = first.mlp, None, first.dim
        for name in ("_train", "_holdout"):
            setattr(out, name, tuple(np.stack(part) for part in
                                     zip(*(getattr(o, name) for o in objectives))))
        out._offsets = first.n_samples * np.arange(len(objectives))[:, np.newaxis]
        out._flat = out._flat_train()
        return out

    @property
    def n_samples(self) -> int:
        return self._train[1].shape[-1]

    def has_holdout(self) -> bool:
        return self._holdout[1].size > 0

    def _gather(self, idx: np.ndarray):
        """The features and labels of the dataset's rows ``idx``, in that order."""
        return self.dataset.features[idx], self.dataset.labels[idx]

    def _flat_train(self):
        """The training split's views as flat rows, (S * n, d) and (S * n,),
        which every batch reads; kept, as the split is, for the objective's life."""
        feats, labels = self._train
        return feats.reshape(-1, feats.shape[-1]), labels.reshape(-1)

    def _rows(self, batch: np.ndarray, offsets=None):
        """A batch's features and labels, each read by one ``take`` of the
        training split's flat rows at ``batch + offsets``; ``offsets`` are
        the stack's own unless given, as a row mask's are."""
        feats, labels = self._flat
        at = batch + (self._offsets if offsets is None else offsets)
        return feats.take(at, axis=0), labels.take(at)

    def loss_and_grad(self, x, batch):
        return self.mlp.loss_and_grad(x, *self._rows(batch))

    def loss(self, x, batch) -> float:
        return self.mlp.loss(x, *self._rows(batch))

    def grad(self, x, batch, rows=None) -> np.ndarray:
        """The batch gradient; on a stack, ``rows`` may mask the rows wanted.

        Only the masked rows are computed, each as the whole stack computes
        it, by reading their batches at their own offsets; the other rows
        stay zero.  The pass forms no loss.
        """
        if rows is None:
            return self.mlp.loss_and_grad(x, *self._rows(batch), with_loss=False)[1]
        picked = np.flatnonzero(rows)
        g = np.zeros(x.shape)
        g[picked] = self.mlp.loss_and_grad(
            x[picked], *self._rows(batch[picked], self._offsets[picked]),
            with_loss=False)[1]
        return g

    def loss_and_slope(self, x, batch, adv_batch, fresh):
        """The loss at x on ``batch``, and the gradient at x on each row's
        slope batch: ``adv_batch`` where the row is ``fresh`` (True for every
        row, or one bool per row of a stack), ``batch`` elsewhere.

        One network pass computes both.  Its leading rows are the rows of
        ``x``, each on its slope batch, forward and backward; its trailing
        rows are the fresh rows again, on ``batch``, forward only, and give
        those rows' losses.  A single vector steps as a stack of one.  Rows
        of two lengths share no stack: where the adversary batches' length
        differs from the update batches', every row is fresh and two passes
        run, the loss on ``batch`` and the gradient on ``adv_batch``.  Each
        row's loss and gradient equal those of ``loss`` and ``grad`` on that
        row, bit for bit.
        """
        if fresh is True and np.shape(adv_batch) != np.shape(batch):
            return self.loss(x, batch), self.grad(x, adv_batch)
        if x.ndim == 1:
            loss, g = self.loss_and_slope(x[np.newaxis], batch[np.newaxis],
                                          adv_batch[np.newaxis], np.reshape(fresh, 1))
            return float(loss[0]), g[0]
        rows, picks, losses = _slope_layout(None if fresh is True else fresh.tobytes(), len(x))
        offsets = self._offsets if np.ndim(self._offsets) == 0 else \
            self._offsets.take(rows, axis=0)
        feats, labels = self._rows(np.concatenate([batch, adv_batch]).take(picks, axis=0),
                                   offsets)
        loss, g = self.mlp.loss_and_grad(x.take(rows, axis=0), feats, labels,
                                         forward_only=len(rows) - len(x))
        return loss.take(losses), g

    def _by_chunks(self, x, feats, labels, grad=False):
        """The loss, or with ``grad`` the gradient, of each row of ``x`` on a
        split, a chunk of rows at a time.

        ``feats`` and ``labels`` are a split as the objective keeps it,
        gathered when it was built, so a pass gathers no rows.  A stack is
        either of seeds, whose rows carry a seed axis, or of points that
        share one seed's rows (a landscape slice's line).  A chunk holds as
        many as keep its widest activation (the rows times the widest layer,
        per seed or point) within ``core.PASS_BYTES`` for seeds
        (``core.chunk_seeds``) or half of ``core.BLOCK_BYTES`` for points
        (``core.chunk_points``), and at least one.  A chunk of points reads
        the shared (n, d) rows and (n,) labels as they are, not broadcast to
        the chunk: matmul broadcasts them.  A loss over points allocates its
        buffers, each layer's activation and the softmax scratch, and its
        label index once per call, sized for one chunk, and every chunk
        writes into them (``Mlp._shared_rows_loss``).  Each chunk's results
        go into one preallocated output.  Each row's slice of a stacked pass
        is computed independently of the others, so the output equals the
        per-row calls bit for bit.  A single vector, or a seed stack that
        fits in one chunk, is the one-chunk case: passed whole.
        """
        mlp = self.mlp
        pass_ = (lambda *rows: mlp.loss_and_grad(*rows, with_loss=False)[1]) if grad \
            else mlp.loss
        if x.ndim == 1:
            return pass_(x, feats, labels)
        n, width = len(x), labels.shape[-1] * max(mlp.layer_sizes)
        points = feats.ndim == 2   # one seed's rows under a stack of points
        step = chunk_points(width) if points else chunk_seeds(width)
        if not points and n <= step:
            return pass_(x, feats, labels)
        if points:   # every chunk reads the same rows
            pass_ = mlp._shared_rows_loss(feats, labels, min(step, n)) if not grad \
                else lambda chunk: mlp.loss_and_grad(chunk, feats, labels, with_loss=False)[1]
        out = np.empty((n, self.dim) if grad else n)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            out[lo:hi] = pass_(x[lo:hi]) if points \
                else pass_(x[lo:hi], feats[lo:hi], labels[lo:hi])
        return out

    def full_loss(self, x) -> float:
        """Mean loss over the training rows, in chunks (see ``_by_chunks``)."""
        return self._by_chunks(x, *self._train)

    def full_grad(self, x) -> np.ndarray:
        """Mean gradient over the training rows, in chunks (see ``_by_chunks``)."""
        return self._by_chunks(x, *self._train, grad=True)

    def holdout_loss(self, x) -> float:
        """Mean loss over the held-out rows, in chunks (see ``_by_chunks``)."""
        if not self.has_holdout():
            raise InvalidParameterError("objective has no held-out split")
        return self._by_chunks(x, *self._holdout)

    def final_loss(self, x) -> float:
        return self.holdout_loss(x) if self.has_holdout() else self.full_loss(x)

    def hvp(self, x, v) -> np.ndarray:
        return hvp_finite_difference(self, x, v)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return self.mlp.init_params(rng)

    def normalize_direction(self, direction, x):
        return self.mlp.normalize_direction(direction, x)

    def make_sampler(self, batch_size: int, rng: np.random.Generator):
        return EpochSampler(self.n_samples, batch_size, rng)


def mlp_objective(layer_sizes, activation: str, dataset: Dataset,
                  holdout_fraction: float = 0.0,
                  rng: np.random.Generator | None = None) -> MlpObjective:
    return MlpObjective(Mlp(layer_sizes, activation), dataset,
                        holdout_fraction=holdout_fraction, rng=rng)


# ---------------------------------------------------------------------------
# Hessian-vector products


def hvp_finite_difference(obj, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Central-difference Hessian-vector product on the full gradient.

    The step h = 1e-3 * (1 + ||x||_inf) balances truncation against roundoff.
    """
    if v.shape[0] != obj.dim:
        raise DimensionMismatchError(f"v has dim {v.shape[0]}, objective {obj.dim}")
    vnorm = norm2(v)
    if vnorm == 0.0:
        return np.zeros_like(v)
    h = 1e-3 * (1.0 + float(np.max(np.abs(x))))
    vhat = v / vnorm
    gp = obj.full_grad(x + h * vhat)
    gm = obj.full_grad(x - h * vhat)
    return (gp - gm) * (vnorm / (2.0 * h))


# ---------------------------------------------------------------------------
# the four-sample scalar example where partitioning changes the objective


_MS_DATA = ((0.0, 1.0), (0.0, -1.0), (-1.0, 0.0), (1.0, 0.0))  # (a_i, b_i)
_MS_PARTITIONS = {"by_b": ((0, 1), (2, 3)), "by_a": ((0, 2), (1, 3))}


def _pair_coefficients(partition: str) -> list[tuple[float, float]]:
    """(a_P, b_P) of each pair: the sums of its samples' coefficients."""
    if partition not in _MS_PARTITIONS:
        raise InvalidParameterError(f"partition must be one of {sorted(_MS_PARTITIONS)}")
    return [(sum(_MS_DATA[i][0] for i in group), sum(_MS_DATA[i][1] for i in group))
            for group in _MS_PARTITIONS[partition]]


def m_sharpness_example(partition: str):
    """Two per-partition losses of the 4-sample scalar problem.

    Sample i has loss l_i(w) = a_i w^2 + b_i w.  A partition groups the four
    samples into two pairs; each pair's loss (as a function of the shared
    parameter w and its own perturbation delta) is the sum over the pair:
    f_P(w, delta) = a_P (w+delta)^2 + b_P (w+delta).
    """
    fns = []
    for a, b in _pair_coefficients(partition):

        def f(w, delta, a=a, b=b):
            u = w + delta
            return a * u * u + b * u

        fns.append(f)
    return tuple(fns)


def _max_quadratic_on_interval(a: float, b: float, lo: float, hi: float) -> float:
    """max of a*u^2 + b*u over u in [lo, hi], exactly."""
    cand = [a * lo * lo + b * lo, a * hi * hi + b * hi]
    if a < 0.0:
        u_star = -b / (2.0 * a)
        if lo < u_star < hi:
            cand.append(a * u_star * u_star + b * u_star)
    return max(cand)


def m_sharpness_objective(partition: str, w: float, rho: float) -> float:
    """Sum over partitions of max_{|delta|<=rho} f_P(w, delta), in closed form."""
    if rho < 0:
        raise InvalidParameterError(f"rho must be >= 0, got {rho}")
    return sum(_max_quadratic_on_interval(a, b, w - rho, w + rho)
               for a, b in _pair_coefficients(partition))
