"""Diagnostics: adversary drift, EMA variance suppression, delta-stability,
SNR adversary spread, Lanczos spectra, and landscape slices.

Everything here is pure given (objective, rng) and built for desk-scale
problems: dense vectors, full reorthogonalization, closed forms where they
exist.  The linearized sharpness surrogate L(v) = f(x) + rho*||v|| (the inner
maximum of a linear form over the rho-sphere) is used exactly rather than by
numerical maximization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEGENERATE_NORM_TOL, block_steps, norm2, row_norms
from .errors import InvalidParameterError


@dataclass
class StabilityTrace:
    drifts: np.ndarray   # drifts[t] = ||eps_{t+1} - eps_t||
    rho: float


def track_drift(epsilons, rho: float | None = None) -> StabilityTrace:
    """Chord lengths between consecutive adversaries.

    All adversaries live on a common sphere (or are zero), so every drift is
    at most the diameter 2*rho.  When ``rho`` is not given it is inferred as
    the largest adversary norm in the sequence.
    """
    E = np.array(list(epsilons), dtype=np.float64)
    if len(E) < 2:
        return StabilityTrace(np.zeros(0), rho if rho is not None else 0.0)
    if rho is None:
        rho = row_norms(E).max()
    return StabilityTrace(row_norms(np.diff(E, axis=0)), float(rho))


_MSE_BLOCK = 1024   # the most draws per ema_chain call in mse_suppression


def mse_suppression(obj, x_fixed, thetas, n_steps: int, rngs
                    ) -> list[tuple[float, float]]:
    """Steady-state E||d - grad f||^2 and E||g - grad f||^2 at a fixed point.

    One ``(mse_d, mse_g)`` pair per theta in ``thetas``; theta i draws its
    stochastic gradients at ``x_fixed`` from ``rngs[i]``.  Each chain runs the
    EMA recursion for ceil(10/theta) burn-in steps plus ``n_steps`` measured
    steps.  At the fixpoint the EMA variance settles at theta/(2-theta) times
    the gradient variance, which is what each ratio should approach.

    The chains are columns of one ``ema_chain`` over blocks of
    ``core.block_steps`` rows, at most ``_MSE_BLOCK``, each block warm-started
    from the last row of the one before, so memory stays flat in ``n_steps``
    and in the width.  A chain whose burn-in is shorter than the longest
    draws nothing past its own window; its columns idle at zero.
    Squared errors are summed strictly in draw order, so each pair equals a
    step-by-step ``vasso_update`` loop bit for bit.
    """
    thetas, rngs = list(thetas), list(rngs)
    if len(thetas) != len(rngs):
        raise InvalidParameterError(
            f"need one rng per theta, got {len(thetas)} thetas and {len(rngs)} rngs")
    for theta in thetas:
        if not 0.0 < theta <= 1.0:
            raise InvalidParameterError(f"theta must be in (0,1], got {theta}")
    truth = obj.full_grad(x_fixed)
    dim = truth.size
    draws = [_grad_draws(obj, x_fixed, rng) for rng in rngs]
    burns = [math.ceil(10.0 / theta) for theta in thetas]
    total = max(burns, default=0) + n_steps
    theta_row = np.repeat(thetas, dim)
    d_last = None
    acc = [[0.0, 0.0] for _ in thetas]
    block = min(_MSE_BLOCK, block_steps(1, theta_row.size))
    for start in range(0, total, block):
        n = min(block, total - start)
        gs = np.zeros((n, theta_row.size))
        spans = []
        for i, (draw, burn) in enumerate(zip(draws, burns)):
            cols = slice(i * dim, (i + 1) * dim)
            stop = max(min(burn + n_steps - start, n), 0)
            if stop:
                gs[:stop, cols] = draw(stop)
            spans.append((slice(max(burn - start, 0), stop), cols))
        chain = ema_chain(gs, theta_row, d_init=d_last)
        d_last = chain[-1]
        for span, sums in zip(spans, acc):
            sums[0] = _sum_in_order(sums[0], _squared_errors(chain[span], truth))
            sums[1] = _sum_in_order(sums[1], _squared_errors(gs[span], truth))
    return [(acc_d / n_steps, acc_g / n_steps) for acc_d, acc_g in acc]


def _squared_errors(rows: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """norm2(row - truth) ** 2 per row: each norm rounded as ``norm2`` rounds
    it, squared as v * v (Python's ``v ** 2`` calls libm pow, an ulp off at times)."""
    return row_norms(rows - truth) ** 2


def _sum_in_order(acc: float, values: np.ndarray) -> float:
    """acc + values[0] + values[1] + ..., added left to right."""
    return float(np.cumsum(np.concatenate(([acc], values)))[-1])


def ema_steady_state_mse(theta: float, sigma2: float) -> float:
    """Closed-form steady-state EMA error variance theta/(2-theta) * sigma^2."""
    return theta / (2.0 - theta) * sigma2


# -- slope samplers for delta_stability ------------------------------------

def _grad_draws(obj, x, rng):
    """A callable ``n -> (n, dim)``: n stochastic gradients at x, stacked.

    Draws are vectorized where the objective allows.  Successive calls
    continue one stream: they draw exactly what one call of the summed size
    would.
    """
    if hasattr(obj, "grad_draws"):
        return lambda n: obj.grad_draws(x, n, rng)
    sampler = obj.make_sampler(1, rng)
    return lambda n: np.stack([obj.grad(x, sampler()) for _ in range(n)])


def noisy_grad_sampler(obj, x):
    """Draws of the raw stochastic gradient at x (the SAM slope distribution)."""

    def draw(n: int, rng) -> np.ndarray:
        return _grad_draws(obj, x, rng)(n)

    return draw


def ema_slope_sampler(obj, x, theta: float):
    """Draws from the steady-state EMA slope chain at x (the VASSO slope).

    Each call runs a fresh chain: burn-in of ceil(10/theta) EMA steps, then
    ``n`` consecutive chain states.  The recursion
    d_t = (1-theta) d_{t-1} + theta g_t runs as ``ema_chain`` over the
    stacked gradient draws, so every state equals the step-by-step
    ``vasso_update`` one bit for bit.
    """
    if not 0.0 < theta <= 1.0:
        raise InvalidParameterError(f"theta must be in (0,1], got {theta}")
    burn = math.ceil(10.0 / theta)

    def draw(n: int, rng) -> np.ndarray:
        gs = _grad_draws(obj, x, rng)(burn + n)
        chain = ema_chain(gs, theta)
        return chain[burn:]

    return draw


def ema_chain(gs: np.ndarray, theta: float | np.ndarray,
              d_init: np.ndarray | None = None) -> np.ndarray:
    """The EMA states d_t = (1-theta) d_{t-1} + theta g_t, one per row of ``gs``.

    ``theta`` is one weight, or a row of one weight per column, so a stack of
    independent chains runs as one scan.  ``d_init`` is d_{-1}; it defaults to
    gs[0], the warm start of ``vasso_update``, and every state is rounded as
    that update rounds it: fl(fl(keep*d) + fl(theta*g)).  The result starts
    as theta*gs and each row is overwritten by keep*prev + row, two numpy
    calls per row, so the cost is 0.8-1.5 us per row at widths 10 to 30:
    0.08-0.15 us per entry at width 10 and 0.03-0.04 at width 30 (1024-row
    blocks on a 2-core x86 box, numpy 2.4).  Beyond the C-contiguous (n, dim)
    result it holds one row.  Like a scan in Python floats it raises no
    warning where a state meets inf - inf or overflows.
    """
    keep = np.ones(gs.shape[1]) - theta
    chain = np.empty(gs.shape)
    scratch = np.empty(gs.shape[1])
    prev = gs[0] if d_init is None else np.asarray(d_init, dtype=np.float64)
    with np.errstate(all="ignore"):
        np.multiply(theta, gs, out=chain)
        for row in chain:
            np.multiply(keep, prev, out=scratch)
            np.add(scratch, row, out=row)
            prev = row
    return chain


def delta_stability(obj, x, v, rho: float, n_samples: int, rng) -> float:
    """Empirical E|L(v) - L(grad f(x))| with L(v) = f(x) + rho*||v||.

    ``v`` is either a fixed vector or a sampler ``(n, rng) -> (n, dim)``
    providing draws of the slope estimate.
    """
    if rho < 0:
        raise InvalidParameterError(f"rho must be >= 0, got {rho}")
    g_norm = norm2(obj.full_grad(x))
    if callable(v):
        draws = v(n_samples, rng)
        norms = np.linalg.norm(draws, axis=1)
        return float(np.mean(np.abs(rho * norms - rho * g_norm)))
    return abs(rho * norm2(np.asarray(v, dtype=np.float64)) - rho * g_norm)


# -- SNR adversary spread ---------------------------------------------------

@dataclass
class SpreadStat:
    noise_scale: float
    mean_cos: float
    std_cos: float


def mean_gaussian_norm(dim: int, scale: float = 1.0) -> float:
    """E||zeta|| for zeta ~ N(0, scale^2 I_dim): scale*sqrt(2)*Gamma((d+1)/2)/Gamma(d/2).

    No two large log-gammas are subtracted, so the result is within a few
    ulps at every d.  Below d=1000 it is the exact rational (d-1)!!/(d-2)!!,
    rounded once, times sqrt(pi/2) (d even) or sqrt(2/pi) (d odd); from
    there on it is sqrt(d) times the asymptotic series in 1/d, cut where
    its terms fall below an ulp.
    """
    if dim < 1:
        raise InvalidParameterError(f"dim must be >= 1, got {dim}")
    if dim < 1000:
        ratio = math.prod(range(dim - 1, 0, -2)) / math.prod(range(dim - 2, 0, -2))
        return scale * ratio * math.sqrt(math.pi / 2.0 if dim % 2 == 0 else 2.0 / math.pi)
    # 1 - 1/(4d) + 1/(32d^2) + 5/(128d^3) - 21/(2048d^4) - 399/(8192d^5)
    series = np.polyval([-399 / 8192, -21 / 2048, 5 / 128, 1 / 32, -1 / 4, 1.0], 1.0 / dim)
    return scale * math.sqrt(dim) * float(series)


def noise_scale_for_snr(true_grad: np.ndarray, snr: float) -> float:
    """Per-coordinate noise std giving ||grad f|| / E||zeta|| == snr."""
    if snr <= 0:
        raise InvalidParameterError(f"snr must be positive, got {snr}")
    return norm2(true_grad) / (snr * mean_gaussian_norm(true_grad.shape[0]))


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


def snr_adversary_spread(true_grad: np.ndarray, noise_scales, n_draws: int,
                         rng) -> list[SpreadStat]:
    """Cosine alignment between noisy adversaries and the true gradient.

    For each scale, draws n noisy gradients g+zeta and reports mean and std
    of cos(eps, g) for the adversary eps = rho*(g+zeta)/||g+zeta||, which
    does not depend on rho.  Alignment decays from ~1 toward 0 as the noise
    scale grows past ||g||.
    """
    g = np.asarray(true_grad, dtype=np.float64)
    with np.errstate(over="ignore"):   # _scale_safe redoes what overflowed
        gn = float(_scale_safe(np.array([norm2(g)]), g[np.newaxis, :])[0])
    if gn <= DEGENERATE_NORM_TOL:
        raise InvalidParameterError("true_grad must be non-zero")
    ghat = g / gn
    out = []
    for scale in noise_scales:
        v = g[np.newaxis, :] + scale * rng.standard_normal((n_draws, g.shape[0]))
        with np.errstate(over="ignore"):
            norms = _scale_safe(np.linalg.norm(v, axis=1), v)
        norms[norms == 0.0] = 1.0  # degenerate draws count as orthogonal
        cos = (v @ ghat) / norms
        out.append(SpreadStat(float(scale), float(np.mean(cos)), float(np.std(cos))))
    return out


# -- Lanczos spectrum -------------------------------------------------------

@dataclass
class SpectrumEstimate:
    top_eigenvalues: list[float]   # descending
    lanczos_iters: int
    residuals: list[float]
    breakdown: bool = False


def check_spectrum_sizes(k: int, iters: int, dim: int) -> None:
    """Raise InvalidParameterError unless ``1 <= k <= iters <= dim``."""
    if not 1 <= k <= iters or iters > dim:
        raise InvalidParameterError(f"need 1 <= k <= iters <= dim, got k={k}, "
                                    f"iters={iters}, dim={dim}")


def lanczos_spectrum(obj, x, k: int, iters: int, rng) -> SpectrumEstimate:
    """Top-k Ritz values of the Hessian at x via Lanczos with full reorthogonalization.

    Residual for Ritz pair (lambda_i, y_i) is |beta_m * y_i[last]|.  Early
    breakdown (the Krylov space closed) returns whatever subspace converged,
    flagged via ``breakdown``.
    """
    dim = obj.dim
    check_spectrum_sizes(k, iters, dim)
    V = np.zeros((iters, dim))
    alphas = np.zeros(iters)
    betas = np.zeros(iters)
    v = rng.standard_normal(dim)
    V[0] = v / norm2(v)
    m = iters
    broke = False
    last_beta = 0.0
    for j in range(iters):
        w = obj.hvp(x, V[j])
        alphas[j] = float(V[j] @ w)
        w = w - alphas[j] * V[j]
        if j > 0:
            w = w - betas[j - 1] * V[j - 1]
        # full reorthogonalization, twice for good measure
        for _ in range(2):
            w = w - V[:j + 1].T @ (V[:j + 1] @ w)
        beta = norm2(w)
        last_beta = beta
        if beta <= 1e-12 * max(1.0, abs(alphas[j])):
            m = j + 1
            broke = True
            break
        if j + 1 < iters:
            betas[j] = beta
            V[j + 1] = w / beta
    evals, evecs = _tridiagonal_eigh(alphas[:m], betas[:m - 1])
    order = np.argsort(evals)[::-1][:min(k, m)]
    top = [float(evals[i]) for i in order]
    residuals = [float(abs(last_beta * evecs[m - 1, i])) for i in order]
    return SpectrumEstimate(top, m, residuals, breakdown=broke)


def _tridiagonal_eigh(diag: np.ndarray, offdiag: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a symmetric tridiagonal.

    The matrix is formed densely; Lanczos keeps it at most ``iters`` wide.
    """
    t = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
    return np.linalg.eigh(t)


# -- landscape slices -------------------------------------------------------

def _normalized_direction(obj, d: np.ndarray, x_center: np.ndarray) -> np.ndarray:
    if norm2(d) <= DEGENERATE_NORM_TOL:
        raise InvalidParameterError("slice direction must be non-zero")
    return obj.normalize_direction(d, x_center)


def landscape_slice(obj, x_center, directions, alphas, betas=None) -> np.ndarray:
    """Loss on a 1-D or 2-D affine slice through x_center.

    ``directions`` holds one or two vectors, each scaled by the objective's
    ``normalize_direction``: per-neuron for the MLP, to unit length for the
    quadratic.  Returns loss values of shape (len(alphas),)
    or (len(alphas), len(betas)).  The points of a 1-D slice, and of each
    alpha-row of a 2-D one, go to ``obj.full_loss`` as one (points, dim)
    stack; each loss equals the one-point call bit for bit.
    """
    dirs = [_normalized_direction(obj, np.asarray(d, dtype=np.float64), x_center)
            for d in directions]
    if len(dirs) == 1:
        if betas is not None:
            raise InvalidParameterError("betas given but only one direction")
        return obj.full_loss(_line(x_center, alphas, dirs[0]))
    if len(dirs) == 2:
        if betas is None:
            raise InvalidParameterError("two directions need a beta grid")
        out = np.empty((len(alphas), len(betas)))
        for i, a in enumerate(alphas):
            out[i] = obj.full_loss(_line(x_center + a * dirs[0], betas, dirs[1]))
        return out
    raise InvalidParameterError("directions must hold 1 or 2 vectors")


def _line(x: np.ndarray, steps, d: np.ndarray) -> np.ndarray:
    """The points x + s * d, one row per step s, each rounded as the one-point sum."""
    return x + np.multiply.outer(np.asarray(steps, dtype=np.float64), d)
