"""Vector arithmetic, deterministic RNG streams, and hyperparameter schedules.

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

from .errors import DimensionMismatchError, InvalidParameterError

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
# block of steps at a time, a block holding at most about BLOCK_BYTES for the
# whole stack; a full-data pass over a stack runs a chunk of seeds at a time,
# the chunk's widest activation holding at most about PASS_BYTES, a size that
# stays in cache.  A full-data pass over points that share one seed's rows (a
# landscape slice's line) runs a chunk of points at a time, the chunk's widest
# activation holding at most half of BLOCK_BYTES, the other half left for the
# pass's narrower arrays: a chunk of several points pays the per-pass
# overhead once, and a pass holds about a block at most.  A block holds at
# least one step, a chunk at least one seed or point.
BLOCK_BYTES = 1 << 20
PASS_BYTES = 1 << 16


def block_steps(n_rows: int, width: int) -> int:
    """Steps per block when each of ``n_rows`` rows draws ``width`` floats a step."""
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
