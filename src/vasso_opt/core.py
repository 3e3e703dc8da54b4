"""Vectors, deterministic RNG streams, schedules, and strict config readers.

Parameter vectors are plain 1-D float64 numpy arrays throughout the package;
``as_param_vector`` is the single place where that contract is enforced.  The
training steps also take a stack of them, one row per seed, as an
``(S, dim)`` array.

Randomness comes from numpy's counter-based Philox generator keyed by
``(seed, stream_id)``: equal keys give bit-identical draw sequences on every
platform, and distinct stream ids give statistically independent streams.
The harness reserves a handful of stream ids (below) so that e.g. minibatch
sampling and Bernoulli gating never share a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random on first use; load it with the package so the
# first command of a run does not pay for that import.
from numpy.random import Generator, Philox

from .errors import ConfigError, DimensionMismatchError, InvalidParameterError

# Norms at or below this are treated as degenerate (no preferred direction).
DEGENERATE_NORM_TOL = 1e-12

# Reserved RNG stream ids. Anything >= STREAM_USER is free for ad-hoc use.
STREAM_INIT = 0        # parameter initialisation
STREAM_BATCH = 1       # minibatch sampling / per-batch gradient noise
STREAM_ADV_BATCH = 2   # decoupled adversary batches (SAM-db)
STREAM_GATE = 3        # Bernoulli gate draws (eVASSO)
STREAM_DATA = 4        # synthetic dataset generation / label noise
STREAM_DIRECTION = 5   # probe directions (landscape slices, Lanczos starts)
STREAM_USER = 16

# Seeds are Philox key words that numpy takes exactly only below 2**63.
MAX_SEED = 2**63 - 1

# The working set of a stacked run, in bytes.  Per-seed randomness is drawn a
# block of steps at a time, each stream refilling one resident block; a run's
# block streams (noise, adversary noise, gates) draw the same steps per block,
# so their blocks together hold at most about BLOCK_BYTES for the whole stack.
# Only the callers that read metrics columns keep (T, rows) tables (see
# harness.run_arms).  A full-data pass over a stack runs a chunk of seeds at a
# time, the chunk's widest activation holding at most about PASS_BYTES, a size
# that stays in cache.  A full-data pass over points that share one seed's
# rows (a landscape slice's line) runs a chunk of points at a time, the
# chunk's widest activation holding at most half of BLOCK_BYTES, the other
# half left for the pass's narrower arrays: a chunk of several points pays the
# per-pass overhead once, and a pass holds about a block at most.  A loss over
# points allocates its buffers (each layer's activation, the softmax scratch,
# the label index) once per call, sized for one such chunk, and every chunk
# writes into them; the shared rows are read as they are, not broadcast to
# the chunk.  A 2-D slice runs its alpha-rows on every CPU the process may
# use, one row per worker thread (analysis._row_workers; no flag, key or
# variable sets the count), so each worker holds one chunk's buffers and the
# slice about a block per worker; its output is byte-identical at any count.
# A block holds at least one step, a chunk at least one seed or point.
BLOCK_BYTES = 1 << 20
PASS_BYTES = 1 << 16


def block_steps(n_rows: int, width: int) -> int:
    """Steps per block when each of ``n_rows`` rows draws ``width`` floats a step:
    the floats of every stream that shares the budget, counted together."""
    return max(1, BLOCK_BYTES // (8 * n_rows * width))


def chunk_seeds(width: int) -> int:
    """Seeds per chunk when a seed's widest activation holds ``width`` floats."""
    return max(1, PASS_BYTES // (8 * width))


def chunk_points(width: int) -> int:
    """Points per chunk when a point's widest activation holds ``width`` floats."""
    return max(1, BLOCK_BYTES // 2 // (8 * width))


def make_rng(seed: int, stream: int) -> Generator:
    """Deterministic generator for the given (seed, stream) pair."""
    if not 0 <= seed <= MAX_SEED:
        raise InvalidParameterError(f"seed must be in [0, {MAX_SEED}], got {seed}")
    return Generator(Philox(key=[seed, stream]))


def as_param_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate ``x`` as a finite 1-D float64 vector, optionally of length ``dim``."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected dim {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError("vector contains non-finite entries")
    return v


def norm2(x: np.ndarray) -> float:
    """Euclidean norm."""
    return float(np.linalg.norm(x))


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis: one per row of a stack.

    ``np.vecdot`` takes the same dot kernel as ``norm2``, so each row's norm
    equals ``norm2`` of that row bit for bit (``np.linalg.norm(axis=-1)``
    and ``einsum`` do not).  A 1-D ``x`` gives a numpy scalar.
    """
    return np.sqrt(np.vecdot(x, x))


def _scale_safe(norms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``norms`` of ``rows``, redone where squaring overflowed or underflowed.

    A norm is redone where it is not finite, or is 0, for a finite non-zero
    row: the row is divided by its largest magnitude and that magnitude
    multiplies the norm back.  Every other norm keeps its bits.
    """
    big = np.max(np.abs(rows), axis=1)
    redo = np.isfinite(big) & (big > 0.0) & ~(np.isfinite(norms) & (norms > 0.0))
    if redo.any():
        scaled = rows[redo] / big[redo, np.newaxis]
        norms[redo] = big[redo] * np.linalg.norm(scaled, axis=1)
    return norms


def normalize_to_sphere(x: np.ndarray, rho: float) -> np.ndarray:
    """Project ``x`` radially onto the sphere of radius ``rho``.

    Degenerate inputs (norm <= DEGENERATE_NORM_TOL) map to the zero vector:
    there is no preferred direction, so the perturbation is skipped rather
    than invented.
    """
    if rho <= 0:
        raise InvalidParameterError(f"rho must be positive, got {rho}")
    n = norm2(x)
    if n <= DEGENERATE_NORM_TOL:
        return np.zeros_like(x)
    return (rho / n) * x


SCHEDULE_KINDS = ("constant", "cosine", "inverse-sqrt", "theory")


@dataclass(frozen=True)
class Schedule:
    """A step-size (or radius) schedule.

    kinds:
      constant      -- base at every step
      cosine        -- half-cosine decay from base to 0 across the horizon
      inverse-sqrt  -- base / sqrt(t+1)
      theory        -- base / sqrt(horizon), constant in t
    """

    kind: str
    base: float
    horizon: int | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise InvalidParameterError(
                f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}")
        if self.base <= 0:
            raise InvalidParameterError(f"schedule base must be positive, got {self.base}")
        if self.kind in ("cosine", "theory"):
            if self.horizon is None or self.horizon < 1:
                raise InvalidParameterError(
                    f"{self.kind} schedule needs a positive horizon, got {self.horizon}")

    @classmethod
    def parse(cls, raw, path: str, T: int) -> "Schedule":
        """The schedule of the object at ``path`` over T steps, no horizon below T::

            {"kind": "constant|cosine|inverse-sqrt|theory", "base": 0.01, "horizon": T?}
        """
        f = _Fields(raw, path)
        kind, base, horizon = f.take("kind"), f.number("base", lo=0.0), f.take("horizon", None)
        f.finish()
        if horizon is None and kind in ("cosine", "theory"):
            horizon = T
        elif horizon is not None:
            horizon = _as_number(horizon, f"{path}.horizon", lo=1, integer=True)
            if horizon < T:   # a schedule has no value past its horizon
                raise ConfigError(f"{path}.horizon", f"must be >= T ({T}), got {horizon}")
        try:
            return cls(kind, base, horizon)
        except InvalidParameterError as e:
            raise ConfigError(path, str(e)) from e

    @property
    def constant_in_t(self) -> bool:
        """Whether the value is the same at every iteration: constant and theory."""
        return self.kind in ("constant", "theory")


def schedule_value(s: Schedule, t: int) -> float:
    """Evaluate schedule ``s`` at iteration ``t`` (0-based)."""
    if t < 0:
        raise InvalidParameterError(f"iteration index must be >= 0, got {t}")
    if s.horizon is not None and t >= s.horizon:
        raise InvalidParameterError(
            f"iteration index {t} out of range for horizon {s.horizon}")
    if s.kind == "constant":
        return s.base
    if s.kind == "inverse-sqrt":
        return s.base / math.sqrt(t + 1.0)
    if s.kind == "theory":
        return s.base / math.sqrt(s.horizon)
    # cosine: exactly base at t=0 and exactly 0 at t=horizon-1
    if s.horizon == 1:
        return s.base
    return 0.5 * s.base * (1.0 + math.cos(math.pi * t / (s.horizon - 1)))


_REQUIRED = object()   # the default of a key that has none: it must be given


class _Fields:
    """Tracks consumed keys of one JSON object and rejects leftovers.

    Each key is named once: ``take`` returns its value (a key is required
    exactly when it has no default), and ``number`` and ``typed`` check it
    too, naming it by its dotted path, the object's path and the key.
    """

    def __init__(self, raw: dict, path: str):
        if not isinstance(raw, dict):
            raise ConfigError(path, f"expected an object, got {type(raw).__name__}")
        self.raw = raw
        self.path = path
        self.seen = set()

    def take(self, key, default=_REQUIRED):
        self.seen.add(key)
        if key in self.raw:
            return self.raw[key]
        if default is _REQUIRED:
            raise ConfigError(f"{self.path}.{key}", "missing required field")
        return default

    def number(self, key, default=_REQUIRED, **bounds):
        """A finite number within ``bounds`` (``_as_number``); null, if that is the default."""
        v = self.take(key, default)
        if v is None and default is None:
            return None
        return _as_number(v, f"{self.path}.{key}", **bounds)

    def typed(self, key, type_, what: str, default=_REQUIRED):
        """The key's value, which must be an instance of ``type_`` (``what``, in errors)."""
        v = self.take(key, default)
        if not isinstance(v, type_):
            raise ConfigError(f"{self.path}.{key}", f"expected {what}")
        return v

    def finish(self):
        unknown = set(self.raw) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(f"{self.path}.{key}", "unknown key")


def _as_number(v, path, lo=None, hi=None, integer=False):
    ok = isinstance(v, int) and not isinstance(v, bool) if integer else \
        isinstance(v, (int, float)) and not isinstance(v, bool)
    if not ok:
        raise ConfigError(path, f"expected {'an integer' if integer else 'a number'}, got {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(path, f"must be finite, got {v}")
    if lo is not None and v < lo:
        raise ConfigError(path, f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(path, f"must be <= {hi}, got {v}")
    return int(v) if integer else float(v)
