"""Mixture construction, evaluation and invariants."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular

from gmmodes.constructions import arrangement_scenario, generic_arrangement, product_of_triangles
from gmmodes.errors import (
    DimensionMismatch,
    NegativeWeight,
    NonFinite,
    NonSPD,
    SingularTransform,
    WeightSumInvalid,
)
from gmmodes.mixture import (
    affine_transform,
    derivatives,
    evaluate,
    is_homoscedastic,
    is_isotropic,
    load_mixture,
    make_mixture,
    mixture_from_dict,
    mixture_to_dict,
    save_mixture,
)
from gmmodes.modefinder import default_starts
from sweeps import needle_pair, spectrum_pair


def cross_mixture():
    return make_mixture(
        [0.5, 0.5],
        [[1.0, 0.0], [0.0, 1.0]],
        [np.diag([1.0, 0.1]), np.diag([0.1, 1.0])],
    )


def random_mixture(rng, d, k, sigma_scale=1.0):
    weights = rng.dirichlet(np.ones(k) * 2.0)
    means = rng.uniform(-3, 3, size=(k, d))
    covs = []
    for _ in range(k):
        A = rng.normal(size=(d, d)) * sigma_scale
        covs.append(A @ A.T + 0.2 * sigma_scale**2 * np.eye(d))
    return make_mixture(weights, means, covs)


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------

def test_single_component():
    mix = make_mixture([1.0], [[0.0]], [[[1.0]]])
    assert mix.dim == 1 and mix.k == 1


def test_cross_mixture_builds():
    mix = cross_mixture()
    assert mix.dim == 2 and mix.k == 2


def test_non_spd_rejected():
    # eigenvalues 3 and -1
    with pytest.raises(NonSPD) as exc:
        make_mixture([1.0], [[0.0, 0.0]], [[[1.0, 2.0], [2.0, 1.0]]])
    assert exc.value.index == 0


def test_asymmetric_rejected():
    with pytest.raises(NonSPD):
        make_mixture([1.0], [[0.0, 0.0]], [[[1.0, 0.5], [0.2, 1.0]]])


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        make_mixture([1.5, -0.5], [[0.0], [1.0]], [[[1.0]], [[1.0]]])


def test_weight_sum_tolerance():
    # last-ulp drift is renormalized
    mix = make_mixture([0.5, 0.5 + 5e-10], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
    assert abs(sum(c.weight for c in mix.components) - 1.0) < 1e-15
    with pytest.raises(WeightSumInvalid):
        make_mixture([0.5, 0.6], [[0.0], [1.0]], [[[1.0]], [[1.0]]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_mixture_rejected(bad):
    weights, means, covs = [0.5, 0.5], [[0.0, 0.0], [1.0, 0.0]], [np.eye(2), np.eye(2)]
    with pytest.raises(NonFinite):
        make_mixture([bad, 0.5], means, covs)
    with pytest.raises(NonFinite):
        make_mixture(weights, [[0.0, bad], [1.0, 0.0]], covs)
    with pytest.raises(NonFinite):
        make_mixture(weights, means, [np.eye(2), [[1.0, 0.0], [0.0, bad]]])
    with pytest.raises(NonFinite):
        make_mixture(weights, means, [np.eye(2), [[1.0, bad], [bad, 1.0]]])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        make_mixture([0.5, 0.5], [[0.0], [0.0, 1.0]], [[[1.0]], [[1.0]]])


def test_cached_log_normalizer():
    rng = np.random.default_rng(0)
    for d in (1, 2, 4):
        mix = random_mixture(rng, d, 3)
        for c in mix.components:
            expected = -0.5 * np.linalg.slogdet(2 * np.pi * c.cov)[1]
            assert abs(c.log_norm - expected) < 1e-12 * max(1.0, abs(expected))
            recon = -np.sum(2 * np.log(np.diag(c.chol))) / 2 - (d / 2) * np.log(2 * np.pi)
            assert abs(c.log_norm - recon) < 1e-12


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

def test_standard_normal_peak():
    mix = make_mixture([1.0], [[0.0]], [[[1.0]]])
    res = evaluate(mix, [0.0])
    assert res.log_density == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)
    assert res.log_density == pytest.approx(-0.918939, abs=1e-6)


def test_gradient_zero_at_mean():
    rng = np.random.default_rng(1)
    for d in (1, 3):
        mu = rng.normal(size=d)
        A = rng.normal(size=(d, d))
        mix = make_mixture([1.0], [mu], [A @ A.T + 0.5 * np.eye(d)])
        res = evaluate(mix, mu)
        assert np.linalg.norm(res.gradient) < 1e-14


def fd_gradient(mix, x, h=1e-5):
    d = len(x)
    g = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        g[i] = (evaluate(mix, x + e).density - evaluate(mix, x - e).density) / (2 * h)
    return g


def fd_hessian(mix, x, h=1e-5):
    d = len(x)
    H = np.zeros((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        H[:, i] = (evaluate(mix, x + e).gradient - evaluate(mix, x - e).gradient) / (2 * h)
    return 0.5 * (H + H.T)


def test_cross_gradient_matches_fd():
    mix = cross_mixture()
    x = np.array([0.5, 0.5])
    res = evaluate(mix, x)
    g_fd = fd_gradient(mix, x)
    assert np.linalg.norm(res.gradient - g_fd) <= 1e-6 * np.linalg.norm(g_fd)


def test_gradient_hessian_fd_sweep():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        mix = random_mixture(rng, d, int(rng.integers(1, 4)))
        x = rng.uniform(-3, 3, size=d)
        res = evaluate(mix, x)
        g_fd = fd_gradient(mix, x)
        scale = max(np.linalg.norm(g_fd), res.density)
        assert np.linalg.norm(res.gradient - g_fd) <= 1e-5 * scale
        H_fd = fd_hessian(mix, x)
        h_scale = max(np.linalg.norm(H_fd), res.density)
        assert np.linalg.norm(res.hessian - H_fd) <= 1e-4 * h_scale


def test_far_tail_underflow_behavior():
    rng = np.random.default_rng(3)
    mix = random_mixture(rng, 2, 3)
    sigma = np.sqrt(max(np.max(np.linalg.eigvalsh(c.cov)) for c in mix.components))
    x = mix.components[0].mean + 40.0 * sigma * np.array([1.0, 1.0]) + 10.0
    res = evaluate(mix, x)
    assert np.isfinite(res.log_density)
    assert res.density == 0.0
    assert np.all(np.isfinite(res.grad_over_density))


def test_responsibilities_on_simplex():
    rng = np.random.default_rng(4)
    for _ in range(20):
        mix = random_mixture(rng, 2, 4)
        x = rng.uniform(-10, 10, size=2)
        r = evaluate(mix, x).responsibilities
        assert np.all(r >= 0) and np.all(r <= 1)
        assert abs(np.sum(r) - 1.0) < 1e-12


def test_evaluate_is_pure():
    mix = cross_mixture()
    x = np.array([0.3, -0.2])
    a, b = evaluate(mix, x), evaluate(mix, x)
    assert a.log_density == b.log_density
    assert np.array_equal(a.gradient, b.gradient)
    assert np.array_equal(a.hessian, b.hessian)


def test_non_finite_point_rejected():
    with pytest.raises(NonFinite):
        evaluate(cross_mixture(), [np.nan, 0.0])


def test_extreme_anisotropy_stable():
    # normal variance ~1e-9 against unit tangential variance
    d3 = 1e-9
    mix = make_mixture(
        [0.5, 0.5],
        [[0.0, 0.0], [0.5, 0.5]],
        [np.diag([1.0, d3]), np.diag([d3, 1.0])],
    )
    res = evaluate(mix, [0.25, 0.25])
    assert np.isfinite(res.log_density)
    assert np.all(np.isfinite(res.grad_over_density))


def reference_point(mix, x):
    """Per-point formulas with per-component Cholesky solves.

    Returns log-density, responsibilities, grad f / f, Hess f / f and the
    magnitudes sum_i r_i ||g_i|| and sum_i r_i (||g_i||^2 + ||P_i||) of the
    terms that the gradient and Hessian sums cancel.
    """
    lt, pulls, precs = [], [], []
    for c in mix.components:
        L = cholesky(c.cov, lower=True)
        z = solve_triangular(L, x - c.mean, lower=True)
        lt.append(np.log(c.weight) + c.log_norm - 0.5 * z @ z)
        pulls.append(cho_solve((L, True), c.mean - x))
        precs.append(cho_solve((L, True), np.eye(mix.dim)))
    lt = np.array(lt)
    w = np.exp(lt - lt.max())
    r = w / w.sum()
    grad = sum(ri * g for ri, g in zip(r, pulls))
    hess = sum(ri * (np.outer(g, g) - P) for ri, g, P in zip(r, pulls, precs))
    g_scale = sum(ri * np.linalg.norm(g) for ri, g in zip(r, pulls))
    h_scale = sum(ri * (g @ g + np.linalg.norm(P)) for ri, g, P in zip(r, pulls, precs))
    return lt.max() + np.log(w.sum()), r, grad, hess, g_scale, h_scale


def assert_kernel_matches_reference(mix, X, rtol=1e-10):
    # Each stored whitening factor is L^{-1}: exactly lower-triangular, and
    # within float noise of scipy's triangular solve.
    for c, W in zip(mix.components, mix._whitens):
        ref = solve_triangular(cholesky(c.cov, lower=True), np.eye(mix.dim), lower=True)
        assert np.all(np.triu(W, 1) == 0.0)
        assert np.max(np.abs(W - ref)) <= 1e-14 * np.max(np.abs(ref))
    der = derivatives(mix, X)
    for i, x in enumerate(X):
        ld, r, g, H, g_scale, h_scale = reference_point(mix, x)
        assert abs(der.log_density[i] - ld) <= rtol * max(1.0, abs(ld))
        assert np.max(np.abs(der.responsibilities[:, i] - r)) <= rtol
        assert np.linalg.norm(der.grad_over_density[i] - g) <= rtol * g_scale
        assert np.linalg.norm(der.hessian_over_density[i] - H) <= rtol * h_scale


def test_kernel_matches_per_point_formulas():
    rng = np.random.default_rng(11)
    for d in range(1, 5):
        for k in range(1, 10):
            mix = random_mixture(rng, d, k)
            sigma = np.sqrt(max(np.max(np.linalg.eigvalsh(c.cov)) for c in mix.components))
            X = np.vstack([
                rng.uniform(-4, 4, size=(12, d)),
                mix.means + 1e-3,
                # far tails, where evaluate's density flushes to 0.0
                mix.means[0] + 60.0 * sigma * rng.normal(size=(3, d)),
            ])
            assert_kernel_matches_reference(mix, X)


def test_kernel_matches_per_point_formulas_small_delta():
    # delta = 2^-10: normal variance delta^3 ~ 1e-9 against unit tangential
    scen = arrangement_scenario(generic_arrangement(2, 3, seed=1), 2.0**-10)
    mix = scen.mixture
    lo, hi = scen.search_box
    rng = np.random.default_rng(12)
    X = np.vstack([rng.uniform(lo, hi, size=(40, 2)), mix.means + 1e-6, lo - 30.0])
    assert_kernel_matches_reference(mix, X)
    assert evaluate(mix, lo - 30.0).density == 0.0


def test_evaluate_is_kernel_row():
    rng = np.random.default_rng(13)
    for d in (1, 3):
        mix = random_mixture(rng, d, 4)
        x = rng.uniform(-3, 3, size=d)
        res, der = evaluate(mix, x), derivatives(mix, x[None, :])
        assert res.log_density == der.log_density[0]
        assert np.array_equal(res.responsibilities, der.responsibilities[:, 0])
        assert np.array_equal(res.grad_over_density, der.grad_over_density[0])
        assert np.array_equal(res.hessian_over_density, der.hessian_over_density[0])


def test_kernel_hessian_is_exactly_symmetric():
    # The Newton sweep reads both triangles of Hess f / f and eigh reads one,
    # so they must agree bit for bit.
    rng = np.random.default_rng(14)
    for d in range(1, 5):
        for k in (1, 2, 5, 9):
            mix = random_mixture(rng, d, k)
            H = derivatives(mix, rng.uniform(-4, 4, size=(50, d))).hessian_over_density
            assert np.array_equal(H, np.swapaxes(H, 1, 2))
    scen = arrangement_scenario(generic_arrangement(2, 3, seed=1), 2.0**-10)
    lo, hi = scen.search_box
    H = derivatives(scen.mixture, rng.uniform(lo, hi, size=(200, 2))).hessian_over_density
    assert np.array_equal(H, np.swapaxes(H, 1, 2))


def test_derivatives_alone_match_a_batch():
    # BLAS and einsum round a lone column differently, so a row alone must
    # still get the bits it gets in a batch: near the gradient tolerance a
    # verdict would otherwise depend on what a point is batched with.
    rng = np.random.default_rng(15)
    for i in range(100):
        for mix in (needle_pair(i), spectrum_pair(i)):
            x = mix.means[rng.integers(2)] + rng.normal(size=mix.dim)
            alone = derivatives(mix, x[None, :])
            for m in (2, 7):
                batch = derivatives(mix, np.repeat(x[None, :], m, axis=0))
                assert alone.log_density[0] == batch.log_density[0]
                assert np.array_equal(alone.responsibilities[:, 0], batch.responsibilities[:, 0])
                assert np.array_equal(alone.grad_over_density[0], batch.grad_over_density[0])
                assert np.array_equal(alone.hessian_over_density[0], batch.hessian_over_density[0])


def test_kernel_peak_memory():
    # One call over the catalog's heaviest batch (k = 9, d = 4, 2250 rows)
    # holds at most two (k, d, m) temporaries (0.65 MB each) at a time.
    scen = product_of_triangles(2, 0.72)
    X = default_starts(scen, budget=2250, seed=0)
    derivatives(scen.mixture, X)
    tracemalloc.start()
    try:
        derivatives(scen.mixture, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


# ----------------------------------------------------------------------
# Affine transforms
# ----------------------------------------------------------------------

def test_affine_identity():
    mix = cross_mixture()
    out = affine_transform(mix, np.eye(2), np.zeros(2))
    for a, b in zip(out.components, mix.components):
        assert np.allclose(a.mean, b.mean, atol=1e-15)
        assert np.allclose(a.cov, b.cov, atol=1e-15)


def test_affine_change_of_variables():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        mix = random_mixture(rng, d, 3)
        A = rng.normal(size=(d, d)) + 2 * np.eye(d)
        b = rng.normal(size=d)
        out = affine_transform(mix, A, b)
        det = abs(np.linalg.det(A))
        for _ in range(5):
            x = rng.uniform(-2, 2, size=d)
            f0 = evaluate(mix, x).density
            f1 = evaluate(out, A @ x + b).density
            assert abs(f1 - f0 / det) <= 1e-9 * max(f0 / det, 1e-300)


def test_whitening_homoscedastic():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(2, 2))
    cov = A @ A.T + np.eye(2)
    mix = make_mixture([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], [cov, cov])
    w, V = np.linalg.eigh(cov)
    W = V @ np.diag(w**-0.5) @ V.T
    white = affine_transform(mix, W, np.zeros(2))
    for c in white.components:
        assert np.allclose(c.cov, np.eye(2), atol=1e-10)


def test_singular_transform_rejected():
    with pytest.raises(SingularTransform):
        affine_transform(cross_mixture(), np.zeros((2, 2)), np.zeros(2))


# ----------------------------------------------------------------------
# Shape predicates
# ----------------------------------------------------------------------

def test_duistermaat_is_homoscedastic_isotropic():
    cov = 0.72**2 * np.eye(2)
    mix = make_mixture(
        [1 / 3] * 3,
        [[1, 0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]],
        [cov] * 3,
    )
    assert is_homoscedastic(mix)
    assert is_isotropic(mix)


def test_cross_is_neither():
    mix = cross_mixture()
    assert not is_homoscedastic(mix)
    assert not is_isotropic(mix)


def test_single_component_both():
    mix = make_mixture([1.0], [[0.0, 0.0]], [np.diag([2.0, 2.0])])
    assert is_homoscedastic(mix) and is_isotropic(mix)
    skew = make_mixture([1.0], [[0.0, 0.0]], [np.diag([2.0, 1.0])])
    assert is_homoscedastic(skew) and not is_isotropic(skew)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def test_json_round_trip_exact(tmp_path):
    rng = np.random.default_rng(8)
    mix = random_mixture(rng, 3, 4)
    path = tmp_path / "mix.json"
    save_mixture(mix, path)
    back = load_mixture(path)
    assert back.dim == mix.dim
    for a, b in zip(back.components, mix.components):
        assert a.weight == b.weight
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.cov, b.cov)


def test_load_validates(tmp_path):
    obj = mixture_to_dict(cross_mixture())
    obj["components"][0]["weight"] = 0.9  # breaks the weight sum
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(WeightSumInvalid):
        load_mixture(path)


def test_dict_schema():
    obj = mixture_to_dict(cross_mixture())
    assert set(obj) == {"dim", "components"}
    assert set(obj["components"][0]) == {"weight", "mean", "cov"}
    assert mixture_from_dict(obj).k == 2
