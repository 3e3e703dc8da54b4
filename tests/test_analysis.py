import math
import re
import numpy as np
import pytest

from vasso_opt import analysis, core
from vasso_opt.analysis import (delta_stability, ema_chain, ema_slope_sampler,
                                ema_steady_state_mse, landscape_slice,
                                lanczos_spectrum, mean_gaussian_norm,
                                mse_suppression, noise_scale_for_snr,
                                noisy_grad_sampler, snr_adversary_spread)
from vasso_opt.core import make_rng, norm2
from vasso_opt.errors import InvalidParameterError
from vasso_opt.objectives import (Mlp, NoisyQuadratic, make_blobs_dataset,
                                  mlp_objective)
from vasso_opt.optimizers import vasso_update


# ---------------------------------------------------------------------------
# averaging suppresses gradient-noise mean squared error


def test_no_averaging_means_no_suppression():
    obj = NoisyQuadratic(np.ones(3), sigma=0.5)
    [(mse_d, mse_g)] = mse_suppression(obj, np.array([1.0, 0.0, -1.0]), [1.0],
                                       2000, [make_rng(0, 16)])
    assert mse_d == pytest.approx(mse_g, rel=1e-12)


def test_noiseless_gradients_have_zero_mse():
    obj = NoisyQuadratic(np.ones(2), sigma=0.0)
    [(mse_d, mse_g)] = mse_suppression(obj, np.array([2.0, 1.0]), [0.3], 500,
                                       [make_rng(0, 16)])
    assert mse_d == 0.0 and mse_g == 0.0


def test_steady_state_factor_values():
    assert ema_steady_state_mse(1.0, 2.0) == 2.0
    assert ema_steady_state_mse(0.2, 1.0) == pytest.approx(1.0 / 9.0, rel=1e-12)


@pytest.mark.parametrize("theta", [0.2, 0.4, 0.9])
def test_suppression_matches_steady_state_factor(theta):
    obj = NoisyQuadratic(np.ones(4), sigma=0.5)  # total variance 1.0
    x = np.array([0.5, -0.5, 1.0, 0.0])
    [(mse_d, mse_g)] = mse_suppression(obj, x, [theta], 30_000, [make_rng(7, 16)])
    assert mse_g == pytest.approx(1.0, rel=0.05)
    assert mse_d == pytest.approx(ema_steady_state_mse(theta, 1.0), rel=0.10)
    assert mse_d < theta * 1.0


def _square(v):
    # one rounding, as numpy's ** 2 squares; Python's v ** 2 calls libm pow,
    # which can land an ulp away (1.164474607671078 ** 2)
    return v * v


def _mse_suppression_step_by_step(obj, x_fixed, theta, n_steps, rng):
    """Reference: one sampler draw and one ``vasso_update`` per step."""
    truth = obj.full_grad(x_fixed)
    sampler = obj.make_sampler(1, rng)
    burn = math.ceil(10.0 / theta)
    d = None
    acc_d = 0.0
    acc_g = 0.0
    for i in range(burn + n_steps):
        g = obj.grad(x_fixed, sampler())
        d, _ = vasso_update(d, g, theta, 0.0)
        if i >= burn:
            acc_d += _square(norm2(d - truth))
            acc_g += _square(norm2(g - truth))
    return acc_d / n_steps, acc_g / n_steps


def _each_equals_the_step_by_step_loop(obj, x, thetas, n_steps, seed):
    # theta i draws from make_rng(seed + i, 16) in the stack and on its own
    got = mse_suppression(obj, x, thetas, n_steps,
                          [make_rng(seed + i, 16) for i in range(len(thetas))])
    want = [_mse_suppression_step_by_step(obj, x, theta, n_steps,
                                          make_rng(seed + i, 16))
            for i, theta in enumerate(thetas)]
    assert got == want


# a stack whose burn-ins (2000, 25, 10 steps) differ, the longest past a block
_STACK = pytest.param((0.005, 0.4, 1.0), id="stack")


@pytest.mark.parametrize("theta", [0.2, 0.4, 0.9, 1.0, _STACK])
@pytest.mark.parametrize("dim", [1, 4, 10])
@pytest.mark.parametrize("n_steps", [300, 2500])
def test_blocked_suppression_equals_the_step_by_step_loop(theta, dim, n_steps):
    # 2500 measured steps span three blocks and end mid-block; 300 fit in one
    obj = NoisyQuadratic(np.linspace(0.5, 2.0, dim), sigma=0.7)
    x = make_rng(dim, 0).standard_normal(dim)
    _each_equals_the_step_by_step_loop(obj, x, np.atleast_1d(theta).tolist(),
                                       n_steps, 5)


@pytest.mark.parametrize("thetas", [(0.5,), (0.005, 0.5, 1.0)],
                         ids=["one", "stack"])
def test_blocked_suppression_follows_the_sampler_of_a_network(thetas):
    # no vectorized grad_draws: draws come from one sampler across blocks,
    # whose 12-row epochs do not line up with the block boundaries
    ds = make_blobs_dataset(6, 2, 2, 2.0, make_rng(0, 4))
    obj = mlp_objective([2, 3, 2], "tanh", ds)
    x = obj.init_params(make_rng(0, 0))
    _each_equals_the_step_by_step_loop(obj, x, list(thetas), 1100, 1)


def test_suppression_holds_a_block_of_about_a_megabyte_at_any_width(monkeypatch,
                                                                    traced_peak):
    # at dim 2000 a block of 1,024 rows of three chains held about 150 MB
    obj = NoisyQuadratic(np.ones(2000), sigma=1.0)
    x = make_rng(3, 0).standard_normal(2000)

    def run():
        return mse_suppression(obj, x, [0.2, 0.4, 0.9], 2000,
                               [make_rng(3, 16 + i) for i in range(3)])

    got = []
    assert traced_peak(lambda: got.append(run())) < 8 * core.BLOCK_BYTES
    # the sums do not depend on where the blocks break
    monkeypatch.setattr(analysis, "block_steps", lambda n_rows, width: 97)
    assert [run()] == got


_OUTSIDE = "theta must be in (0,1], got "


@pytest.mark.parametrize("thetas, n_rngs, message", [
    ((0.0,), 1, _OUTSIDE + "0.0"),
    ((1.5,), 1, _OUTSIDE + "1.5"),
    ((0.5, 0.0), 2, _OUTSIDE + "0.0"),
    ((0.0, 0.5), 2, _OUTSIDE + "0.0"),
    ((0.5, 1.0, 1.5), 3, _OUTSIDE + "1.5"),
    ((0.2, 0.4), 1, "need one rng per theta"),
    ((0.2, 0.4), 3, "need one rng per theta"),
])
def test_suppression_rejects_a_bad_stack_before_any_draw(thetas, n_rngs, message):
    obj = NoisyQuadratic(np.ones(2), sigma=1.0)
    rngs = [make_rng(i, 16) for i in range(n_rngs)]
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        mse_suppression(obj, np.zeros(2), thetas, 10, rngs)
    # every rng is still at the start of its stream
    assert [rng.random() for rng in rngs] == \
        [make_rng(i, 16).random() for i in range(n_rngs)]


def test_chain_matches_sequential_updates_exactly():
    rng = make_rng(3, 16)
    gs = rng.standard_normal((500, 4))
    theta = 0.3
    chain = ema_chain(gs, theta)
    d = None
    for t in range(500):
        d, _ = vasso_update(d, gs[t], theta, 1.0)
        assert np.array_equal(chain[t], d)


def test_chain_accepts_explicit_warm_start():
    gs = np.array([[1.0, 0.0], [0.0, 1.0]])
    chain = ema_chain(gs, 0.5, d_init=np.array([2.0, 2.0]))
    assert np.allclose(chain[0], [1.5, 1.0], rtol=1e-15)
    assert np.allclose(chain[1], [0.75, 1.0], rtol=1e-15)


def _update_loop(gs, theta, d_init=None):
    d, states = d_init, []
    for g in gs:
        d, _ = vasso_update(d, g, theta, 1.0)
        states.append(d)
    return np.array(states)


def _column_loops(gs, thetas, d_init=None):
    return np.column_stack([
        _update_loop(gs[:, [j]], theta, None if d_init is None else d_init[[j]])
        for j, theta in enumerate(thetas)])


@pytest.mark.parametrize("warm_start", [False, True], ids=["default", "d_init"])
@pytest.mark.parametrize("shape", [(1, 4), (300, 1), (300, 4), (60, 40)],
                         ids=["one-row", "dim1", "tall", "wide"])
@pytest.mark.parametrize("theta", [1.0, 0.3, 1e-3, "row"])
def test_chain_equals_the_update_loop_in_every_shape(theta, shape, warm_start):
    rng = make_rng(7, 16)
    gs = rng.standard_normal(shape)
    d_init = rng.standard_normal(shape[1]) if warm_start else None
    if theta == "row":   # one weight per column, each column its own chain
        theta = np.resize([1.0, 0.3, 1e-3], shape[1])
        want = _column_loops(gs, theta, d_init)
    else:
        want = _update_loop(gs, theta, d_init)
    chain = ema_chain(gs, theta, d_init=d_init)
    assert chain.shape == shape and chain.dtype == np.float64
    assert chain.flags.c_contiguous
    assert np.array_equal(chain, want)


def test_chain_meets_inf_minus_inf_without_a_warning():
    # as Python floats do: under the RuntimeWarning filter a warning would raise
    chain = ema_chain(np.array([[np.inf, 1.0], [-np.inf, 1.0]]), 0.5)
    assert chain[0].tolist() == [np.inf, 1.0]
    assert np.isnan(chain[1, 0]) and chain[1, 1] == 1.0


def test_chain_holds_about_one_row_beyond_its_result(traced_peak):
    gs = make_rng(7, 16).standard_normal((20_000, 10))
    assert traced_peak(ema_chain, gs, 0.2) < 3 * gs.nbytes


def test_samplers_draw_the_requested_shapes():
    obj = NoisyQuadratic(np.ones(3), sigma=1.0)
    x = np.zeros(3)
    raw = noisy_grad_sampler(obj, x)
    ema = ema_slope_sampler(obj, x, 0.5)
    rng = make_rng(0, 16)
    assert raw(10, rng).shape == (10, 3)
    assert ema(10, rng).shape == (10, 3)
    # both are unbiased for the full gradient (zero here)
    assert np.abs(np.mean(raw(20_000, rng), axis=0)).max() < 0.05
    assert np.abs(np.mean(ema(20_000, rng), axis=0)).max() < 0.05


# ---------------------------------------------------------------------------
# perturbed-loss stability


def test_exact_direction_has_zero_gap():
    obj = NoisyQuadratic(np.array([2.0, 1.0]), sigma=1.0)
    x = np.array([1.0, -1.0])
    gap = delta_stability(obj, x, lambda n, rng: np.tile(obj.full_grad(x),
                                                        (n, 1)),
                         0.5, 1000, make_rng(0, 16))
    assert gap == 0.0


def test_zero_direction_gap_is_radius_times_gradient_norm():
    obj = NoisyQuadratic(np.ones(2))
    x = np.array([3.0, 4.0])
    gap = delta_stability(obj, x, lambda n, rng: np.zeros((n, 2)), 0.1, 100,
                          make_rng(0, 16))
    assert gap == pytest.approx(0.5, rel=1e-12)


def test_gap_never_exceeds_direction_error():
    obj = NoisyQuadratic(np.ones(5), sigma=1.0)
    x = np.array([0.5, 1.0, -0.5, 0.0, 2.0])
    rho = 0.3
    gf = obj.full_grad(x)
    rng = make_rng(11, 16)
    draws = obj.grad_draws(x, 100_000, rng)
    lhs = np.abs(rho * np.linalg.norm(draws, axis=1) - rho * norm2(gf))
    rhs = rho * np.linalg.norm(draws - gf, axis=1)
    assert np.all(lhs <= rhs + 1e-12)


def test_averaged_direction_is_more_stable_than_raw():
    obj = NoisyQuadratic(np.ones(10), sigma=1.0)
    x = np.full(10, 0.3)
    rho, n = 0.05, 10_000
    d_sam = delta_stability(obj, x, noisy_grad_sampler(obj, x), rho, n,
                            make_rng(2, 16))
    d_vasso = delta_stability(obj, x, ema_slope_sampler(obj, x, 0.2), rho, n,
                              make_rng(2, 16))
    assert d_vasso < d_sam
    # at the mean-squared level the gap ratio tracks the steady-state factor
    [(mse_d, mse_g)] = mse_suppression(obj, x, [0.2], 50_000, [make_rng(3, 16)])
    assert mse_d / mse_g == pytest.approx(1.0 / 9.0, rel=0.15)


def test_negative_radius_is_rejected():
    obj = NoisyQuadratic(np.ones(2))
    with pytest.raises(InvalidParameterError):
        delta_stability(obj, np.ones(2), np.ones(2), -0.1, 10, make_rng(0, 16))


# ---------------------------------------------------------------------------
# alignment of the adversary across noise scales


def test_mean_norm_of_standard_gaussian_dim3():
    # closed form sqrt(2) * Gamma(2) / Gamma(3/2) = 2 sqrt(2/pi)
    expect = 2.0 * math.sqrt(2.0 / math.pi)
    assert mean_gaussian_norm(3, 1.0) == pytest.approx(expect, rel=1e-12)
    rng = make_rng(0, 16)
    mc = float(np.mean(np.linalg.norm(rng.standard_normal((200_000, 3)),
                                      axis=1)))
    assert mean_gaussian_norm(3, 1.0) == pytest.approx(mc, rel=0.01)


def test_mean_norm_scales_linearly():
    assert mean_gaussian_norm(7, 2.5) == pytest.approx(
        2.5 * mean_gaussian_norm(7, 1.0), rel=1e-12)


@pytest.mark.parametrize("dim, expect", [
    (1, math.sqrt(2.0 / math.pi)),
    (2, math.sqrt(math.pi / 2.0)),
    (3, 2.0 * math.sqrt(2.0 / math.pi)),
])
def test_mean_norm_matches_the_closed_forms(dim, expect):
    assert mean_gaussian_norm(dim) == pytest.approx(expect, rel=1e-14)


def test_mean_norm_agrees_with_the_scipy_gammaln_formula():
    # Both take exp of a difference of two log-gammas of size about
    # L = lgamma(d/2), each correct to a few ulps of L, so the two may differ
    # by a few eps*L relative: at most 6e-14 up to d=100, 2.2e-11 (d=9296)
    # up to d=1e4.
    gammaln = pytest.importorskip("scipy.special").gammaln
    for dim in range(1, 10_001):
        ref = math.sqrt(2.0) * math.exp(gammaln((dim + 1) / 2.0)
                                        - gammaln(dim / 2.0))
        tol = 8 * np.finfo(float).eps * max(1.0, math.lgamma(dim / 2.0))
        assert mean_gaussian_norm(dim) == pytest.approx(ref, rel=tol)


def test_mean_norm_is_within_8_eps_of_a_50_digit_reference():
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    for dim in [*range(1, 2001), 10**4, 10**5, 10**6]:
        ref = mp.sqrt(2) * mp.gamma(mp.mpf(dim + 1) / 2) / mp.gamma(mp.mpf(dim) / 2)
        err = abs(mp.mpf(mean_gaussian_norm(dim)) - ref) / ref
        assert err <= 8 * np.finfo(float).eps, dim


@pytest.mark.parametrize("dim", [0, -1])
def test_mean_norm_rejects_a_dimension_below_one(dim):
    with pytest.raises(InvalidParameterError, match="dim"):
        mean_gaussian_norm(dim)


def test_noise_scale_targets_the_requested_ratio():
    g = np.array([0.2, -0.1, 0.6])
    for snr in (5.0, 1.0, 0.1):
        scale = noise_scale_for_snr(g, snr)
        assert norm2(g) / mean_gaussian_norm(g.shape[0], scale) == \
            pytest.approx(snr, rel=1e-12)
    with pytest.raises(InvalidParameterError):
        noise_scale_for_snr(g, 0.0)
    with pytest.raises(InvalidParameterError, match="dim"):
        noise_scale_for_snr(np.array([]), 1.0)


def test_noiseless_spread_is_perfectly_aligned():
    stat, = snr_adversary_spread(np.array([0.2, -0.1, 0.6]), [0.0], 100,
                                 make_rng(0, 16))
    assert stat.mean_cos == pytest.approx(1.0, abs=1e-12)
    assert stat.std_cos == pytest.approx(0.0, abs=1e-12)


def test_spread_rejects_a_zero_gradient():
    with pytest.raises(InvalidParameterError):
        snr_adversary_spread(np.zeros(3), [0.1], 10, make_rng(0, 16))


def test_alignment_degrades_as_noise_grows():
    g = np.array([0.2, -0.1, 0.6])
    scales = [noise_scale_for_snr(g, snr) for snr in (5.0, 1.0, 0.1, 0.01)]
    stats = snr_adversary_spread(g, scales, 2000, make_rng(4, 16))
    cosines = [s.mean_cos for s in stats]
    assert all(a > b for a, b in zip(cosines, cosines[1:]))
    assert cosines[0] > 0.9
    assert abs(cosines[-1]) <= 0.1


# ---------------------------------------------------------------------------
# spectrum


def _diag_objective():
    diag = np.array([10.0, 5.0, 4.0, 3.0, 2.0] + [1.0] * 45)
    return NoisyQuadratic(diag), diag


def test_top_eigenvalues_of_known_diagonal():
    obj, diag = _diag_objective()
    est = lanczos_spectrum(obj, np.zeros(50), k=5, iters=40,
                           rng=make_rng(0, 16))
    assert np.allclose(est.top_eigenvalues, [10.0, 5.0, 4.0, 3.0, 2.0],
                       atol=1e-6)
    # six distinct eigenvalues: the recurrence terminates at the sixth step
    assert est.breakdown and est.lanczos_iters == 6
    assert np.all(np.asarray(est.residuals) <= 1e-8)


def test_scaled_identity_collapses_immediately():
    obj = NoisyQuadratic(np.full(6, 2.5))
    est = lanczos_spectrum(obj, np.zeros(6), k=1, iters=6, rng=make_rng(1, 16))
    assert est.lanczos_iters == 1 and est.breakdown
    assert est.top_eigenvalues[0] == pytest.approx(2.5, rel=1e-12)
    assert est.residuals[0] <= 1e-12


def test_leading_estimate_improves_monotonically_with_iterations():
    obj, diag = _diag_objective()
    tops = []
    for iters in (5, 10, 20):
        est = lanczos_spectrum(obj, np.zeros(50), k=1, iters=iters,
                               rng=make_rng(3, 16))
        tops.append(est.top_eigenvalues[0])
    assert tops[0] <= tops[1] + 1e-12 <= tops[2] + 2e-12
    assert all(t <= 10.0 + 1e-9 for t in tops)


def test_spectrum_input_validation():
    obj = NoisyQuadratic(np.ones(4))
    with pytest.raises(InvalidParameterError):
        lanczos_spectrum(obj, np.zeros(4), k=0, iters=3, rng=make_rng(0, 16))
    with pytest.raises(InvalidParameterError):
        lanczos_spectrum(obj, np.zeros(4), k=4, iters=3, rng=make_rng(0, 16))
    with pytest.raises(InvalidParameterError):
        lanczos_spectrum(obj, np.zeros(4), k=2, iters=5, rng=make_rng(0, 16))


def _tridiagonals_of(monkeypatch, runs):
    """The (diag, offdiag) pairs that ``runs()`` hands the eigen-solve."""
    seen = []
    solve = analysis._tridiagonal_eigh

    def record(diag, offdiag):
        seen.append((diag.copy(), offdiag.copy()))
        return solve(diag, offdiag)

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_tridiagonal_eigh", record)
        runs()
    return seen


def _assert_same_as_scipy(diag, offdiag):
    eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal
    evals, evecs = analysis._tridiagonal_eigh(diag, offdiag)
    ref_evals, ref_evecs = eigh_tridiagonal(diag, offdiag)
    assert np.array_equal(evals, ref_evals)
    # the residuals read only the magnitudes of the last row
    assert np.array_equal(np.abs(evecs[-1]), np.abs(ref_evecs[-1]))


def test_tridiagonal_solve_equals_scipy_on_lanczos_matrices(monkeypatch):
    def runs():
        for seed in range(4):
            rng = make_rng(seed, 16)
            obj = NoisyQuadratic(rng.uniform(0.1, 10.0, 60))
            lanczos_spectrum(obj, np.zeros(60), k=3, iters=40, rng=rng)
            data = make_blobs_dataset(64, 2, 2, 2.0, make_rng(seed, 17))
            net = mlp_objective([2, 8, 2], "tanh", data)
            x = 0.3 * rng.standard_normal(net.dim)
            lanczos_spectrum(net, x, k=3, iters=20, rng=rng)
        obj, _ = _diag_objective()   # breaks down at the sixth step
        lanczos_spectrum(obj, np.zeros(50), k=5, iters=40, rng=make_rng(0, 16))

    seen = _tridiagonals_of(monkeypatch, runs)
    assert len(seen) == 9 and len(seen[-1][0]) == 6
    for diag, offdiag in seen:
        _assert_same_as_scipy(diag, offdiag)


def test_tridiagonal_solve_equals_scipy_on_random_tridiagonals():
    rng = make_rng(0, 16)
    for m in range(1, 101):
        diag = rng.standard_normal(m)
        offdiag = np.abs(rng.standard_normal(m - 1))   # Lanczos betas are > 0
        _assert_same_as_scipy(diag, offdiag)


def test_tridiagonal_solve_matches_scipy_eigenvalues_on_clusters():
    # Near-degenerate clusters: within one, eigenvectors depend on the basis
    # each solver picks, so only the eigenvalues are compared.
    eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal
    rng = make_rng(1, 16)
    for m in range(2, 41):
        diag = rng.integers(-3, 4, m).astype(np.float64)
        offdiag = 1e-11 * rng.uniform(0.5, 2.0, m - 1)
        evals, _ = analysis._tridiagonal_eigh(diag, offdiag)
        ref, _ = eigh_tridiagonal(diag, offdiag)
        t_norm = float(np.max(np.abs(ref)))
        assert np.max(np.abs(evals - ref)) <= 16 * np.spacing(t_norm)


def test_network_spectrum_has_small_residuals():
    data = make_blobs_dataset(12, 2, 2, 2.0, make_rng(0, 16))
    obj = mlp_objective([2, 4, 2], "tanh", data)
    rng = make_rng(5, 16)
    x = 0.1 * rng.standard_normal(obj.dim)
    est = lanczos_spectrum(obj, x, k=3, iters=20, rng=make_rng(6, 16))
    lam1 = abs(est.top_eigenvalues[0])
    assert est.top_eigenvalues[0] >= est.top_eigenvalues[1] >= \
        est.top_eigenvalues[2]
    assert np.all(np.asarray(est.residuals) <= 1e-3 * max(lam1, 1.0))


# ---------------------------------------------------------------------------
# landscape slices


def test_slice_center_recovers_the_loss():
    obj = NoisyQuadratic(np.array([2.0, 1.0]), b=np.array([0.5, -0.5]))
    x = np.array([1.0, 2.0])
    alphas = np.linspace(-1.0, 1.0, 5)
    vals = landscape_slice(obj, x, [np.array([1.0, 0.0])], alphas)
    assert vals[2] == obj.full_loss(x)


def test_axis_slice_of_identity_quadratic_is_unit_parabola():
    obj = NoisyQuadratic(np.ones(3))
    x = np.zeros(3)
    alphas = np.linspace(-2.0, 2.0, 41)
    vals = landscape_slice(obj, x, [np.array([1.0, 0.0, 0.0])], alphas)
    coeffs = np.polyfit(alphas, vals, 2)
    assert coeffs[0] == pytest.approx(0.5, rel=1e-10)
    fit = np.polyval(coeffs, alphas)
    ss_res = float(np.sum((vals - fit) ** 2))
    ss_tot = float(np.sum((vals - np.mean(vals)) ** 2))
    assert 1.0 - ss_res / ss_tot > 1.0 - 1e-10


def test_two_direction_grid_is_symmetric_for_isotropic_loss():
    obj = NoisyQuadratic(np.ones(4))
    x = np.zeros(4)
    alphas = np.linspace(-1.0, 1.0, 9)
    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0, 0.0])
    grid = landscape_slice(obj, x, [u, v], alphas, betas=alphas)
    assert grid.shape == (9, 9)
    assert np.allclose(grid, grid.T, atol=1e-12)


def test_slice_normalizes_directions_through_the_objective_hook():
    data = make_blobs_dataset(6, 2, 2, 2.0, make_rng(0, 16))
    obj = mlp_objective([2, 3, 2], "tanh", data)
    rng = make_rng(8, 16)
    x = 0.2 * rng.standard_normal(obj.dim)
    d_raw = rng.standard_normal(obj.dim)
    alphas = np.array([-0.5, 0.0, 0.5])
    vals = landscape_slice(obj, x, [d_raw], alphas)
    d_used = obj.normalize_direction(d_raw, x)
    manual = np.array([obj.full_loss(x + a * d_used) for a in alphas])
    assert np.allclose(vals, manual, rtol=1e-12)
    # scaling the raw direction does not change the slice
    vals2 = landscape_slice(obj, x, [3.0 * d_raw], alphas)
    assert np.allclose(vals, vals2, rtol=1e-12)


def _slice_by_points(obj, x, directions, alphas, betas=None):
    """The slice as first written: one ``full_loss`` call per point."""
    d = [obj.normalize_direction(np.asarray(v, dtype=np.float64), x) for v in directions]
    if betas is None:
        return np.array([obj.full_loss(x + a * d[0]) for a in alphas])
    out = np.empty((len(alphas), len(betas)))
    for i, a in enumerate(alphas):
        base = x + a * d[0]
        for j, b in enumerate(betas):
            out[i, j] = obj.full_loss(base + b * d[1])
    return out


# the blobs net is [2,3,2] on 12 rows: a point's widest activation holds 36
# floats, so a block of 2 * 8 * 36 * 3 bytes runs 7 points as chunks of 3, 3, 1
@pytest.mark.parametrize("two_d", [False, True], ids=["1-d", "2-d"])
@pytest.mark.parametrize("kind", ["blobs", "quadratic"])
def test_a_slice_of_point_stacks_equals_the_per_point_loop(kind, two_d, monkeypatch):
    rng = make_rng(8, 16)
    if kind == "blobs":
        obj = mlp_objective([2, 3, 2], "tanh", make_blobs_dataset(6, 2, 2, 2.0, rng))
    else:
        A = rng.standard_normal((20, 20))
        obj = NoisyQuadratic(A @ A.T, b=rng.standard_normal(20))
    x = 0.3 * rng.standard_normal(obj.dim)
    dirs = list(rng.standard_normal((1 + two_d, obj.dim)))
    alphas = np.linspace(-0.7, 0.7, 7)
    betas = np.linspace(-0.4, 0.5, 7) if two_d else None
    want = _slice_by_points(obj, x, dirs, alphas, betas)
    monkeypatch.setattr(core, "BLOCK_BYTES", 2 * 8 * 36 * 3)
    calls, passes = [], []
    full_loss, forward = type(obj).full_loss, Mlp._forward

    def counting_loss(self, points):
        calls.append(points.shape)
        return full_loss(self, points)

    def counting_forward(self, layers, feats):
        passes.append(feats.shape[0])
        return forward(self, layers, feats)

    monkeypatch.setattr(type(obj), "full_loss", counting_loss)
    monkeypatch.setattr(Mlp, "_forward", counting_forward)
    got = landscape_slice(obj, x, dirs, alphas, betas)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert calls == [(7, obj.dim)] * (7 if two_d else 1)
    assert passes == ([3, 3, 1] * len(calls) if kind == "blobs" else [])


def test_slice_validates_inputs():
    obj = NoisyQuadratic(np.ones(3))
    with pytest.raises(InvalidParameterError):
        landscape_slice(obj, np.zeros(3), [np.zeros(3)], np.array([0.0]))
    with pytest.raises(InvalidParameterError):
        landscape_slice(obj, np.zeros(3), [np.ones(3)], np.array([0.0]),
                        betas=np.array([0.0]))
    with pytest.raises(InvalidParameterError):
        landscape_slice(obj, np.zeros(3), [np.ones(3), np.ones(3)],
                        np.array([0.0]))
