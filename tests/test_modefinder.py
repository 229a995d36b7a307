"""Fixed-point ascent, Newton refinement, classification and the k=2 oracle."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.stats import qmc

from gmmodes.constructions import (
    Scenario,
    cross_example,
    duistermaat_triangle,
    generic_arrangement,
    arrangement_scenario,
    product_of_triangles,
    scenario_catalog,
    univariate_pair,
)
from gmmodes.errors import DimensionMismatch, InvalidParameter, TooFewSamples
from gmmodes.mixture import Mixture, affine_transform, derivatives, make_mixture
from gmmodes import modefinder
from gmmodes.modefinder import (
    AscentOptions,
    _newton_roots,
    _ridgeline_halves,
    _RidgelineHalf,
    _on_halves,
    _ridgeline_log_residual,
    ascend,
    _halton,
    default_starts,
    find_critical_points,
    fixed_point_step,
    ridgeline_oracle_k2,
    ridgeline_point,
    verify_ridgeline_membership,
)
from sweeps import census, census_sweep, needle_pair, oracle_k2_mixtures, spectrum_pair, stretched_product


def random_two_component(rng, d):
    covs = []
    for _ in range(2):
        A = rng.normal(size=(d, d))
        covs.append(A @ A.T + 0.3 * np.eye(d))
    alpha = rng.uniform(0.15, 0.85)
    means = rng.normal(scale=1.5, size=(2, d))
    return make_mixture([alpha, 1 - alpha], means, covs)


def random_pair_scenario(seed, d):
    """A random_two_component mixture in a Scenario, with the benchmark's
    oracle_k2 search box: the means widened by 3 sigma."""
    mix = random_two_component(np.random.default_rng(seed), d)
    sigma = np.sqrt(max(np.max(np.linalg.eigvalsh(c.cov)) for c in mix.components))
    return Scenario("pair", mix, None, "none", (mix.means.min(axis=0) - 3 * sigma, mix.means.max(axis=0) + 3 * sigma))


def run_multistart(mix, budget=200, seed=0):
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(max(np.max(np.linalg.eigvalsh(c.cov)) for c in mix.components))
    lo = mix._means.min(axis=0) - 3 * sigma
    hi = mix._means.max(axis=0) + 3 * sigma
    starts = [c.mean for c in mix.components]
    for i in range(mix.k):
        for j in range(i + 1, mix.k):
            starts.append(0.5 * (mix._means[i] + mix._means[j]))
    fill = rng.uniform(lo, hi, size=(max(0, budget - len(starts)), mix.dim))
    starts = np.vstack([starts, fill])
    return find_critical_points(mix, starts, search_box=(lo, hi))


# ----------------------------------------------------------------------
# Options
# ----------------------------------------------------------------------

def test_options_validation():
    with pytest.raises(ValueError):
        AscentOptions(gradient_tolerance=0.0)
    with pytest.raises(ValueError):
        AscentOptions(dedup_radius=-1.0)


def test_drivers_reject_misshaped_and_empty_starts():
    mix = cross_example().mixture  # d = 2
    for bad in (np.zeros((3, 3)), np.zeros((2, 1)), np.zeros((2, 2, 2))):
        with pytest.raises(DimensionMismatch):
            find_critical_points(mix, bad)
    for bad in (np.zeros(3), np.zeros((3, 3)), [0.0]):
        with pytest.raises(DimensionMismatch):
            ascend(mix, bad)
        with pytest.raises(DimensionMismatch):
            fixed_point_step(mix, bad)
    for run in (find_critical_points, ascend, fixed_point_step):
        for empty in ([], np.zeros((0, 2))):
            with pytest.raises(InvalidParameter):
                run(mix, empty)


# ----------------------------------------------------------------------
# Fixed-point step
# ----------------------------------------------------------------------

def test_single_gaussian_one_step():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3))
    mu = np.array([1.0, -2.0, 0.5])
    mix = make_mixture([1.0], [mu], [A @ A.T + np.eye(3)])
    x1 = fixed_point_step(mix, rng.normal(size=3))
    assert np.allclose(x1, mu, atol=1e-12)


def test_homoscedastic_step_is_convex_combination():
    cov = np.array([[1.0, 0.3], [0.3, 2.0]])
    mix = make_mixture([0.3, 0.7], [[0.0, 0.0], [2.0, 1.0]], [cov, cov])
    x = np.array([0.7, 0.4])
    r = mix.responsibilities(x[None, :])[:, 0]
    expect = r[0] * mix._means[0] + r[1] * mix._means[1]
    assert np.allclose(fixed_point_step(mix, x), expect, atol=1e-12)


def test_critical_point_is_fixed():
    mix = cross_example().mixture
    rep = run_multistart(mix, budget=60)
    for cp in rep.critical_points:
        x1 = fixed_point_step(mix, cp.location)
        assert np.linalg.norm(x1 - cp.location) <= 1e-10


# ----------------------------------------------------------------------
# Ascend
# ----------------------------------------------------------------------

def test_ascend_cross_basins():
    mix = cross_example().mixture
    near_mean = ascend(mix, [0.9, 0.1])
    assert near_mean.kind == "mode"
    assert np.linalg.norm(near_mean.location - [1, 0]) < 0.2
    central = ascend(mix, [0.05, 0.05])
    assert central.kind == "mode"
    assert np.linalg.norm(central.location) < 0.2


def test_ascend_duistermaat_origin():
    mix = duistermaat_triangle(0.72).mixture
    cp = ascend(mix, [0.0, 0.0])
    assert cp.kind == "mode"
    assert np.linalg.norm(cp.location) < 1e-8


def test_ascent_monotone_log_density():
    # the damped iteration may not lose more than 1e-12 per accepted step
    mix = duistermaat_triangle(0.6).mixture
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        logf = mix.log_density(x[None, :])[0]
        for _ in range(50):
            x_new = fixed_point_step(mix, x)
            logf_new = mix.log_density(x_new[None, :])[0]
            assert logf_new >= logf - 1e-12
            if np.linalg.norm(x_new - x) < 1e-14:
                break
            x, logf = x_new, logf_new


# The 20 starts of product_of_triangles(2, 0.72) (default_starts, budget
# 2250, seed 0) that climbed longest alone, 28 to 42 climbs, when the
# climbing step was the mean-shift step times eta: flat regions near the
# near-degenerate modes, and rows stalled beside mode x saddle points.
_PRODUCT_LONG_CLIMBS = [182, 334, 563, 697, 2237, 1651, 2075, 63, 1589, 1677,
                        1496, 296, 566, 995, 2020, 1168, 1040, 1265, 1774, 1951]
# The 20 that climb longest alone with the curvature-aware step of
# _mean_shift_step, 12 to 28 climbs (ties broken by start index).
_PRODUCT_LONG_CURVED_CLIMBS = [563, 2075, 995, 468, 614, 668, 1978, 275, 393, 448,
                               518, 1023, 1908, 743, 928, 998, 1040, 1662, 190, 293]


def _product_long_climbs(scen):
    return default_starts(scen, budget=2250, seed=0)[_PRODUCT_LONG_CLIMBS]


def _climb_trails(monkeypatch, mix, starts, scale):
    """Ascend from each start alone; per start, one (x, log f, climbing,
    Newton) tuple per point the row moved to: the point, its log-density,
    whether the row climbs from it and whether its Hessian there is
    negative definite. An iteration that finds the row where the previous
    one did followed a rejected trial, not a step, and adds no tuple. The
    loop state is rows last, so a lone start's point is column 0."""
    states, trails = {}, []
    state, newton_step = modefinder._state, modefinder._newton_step

    def recorded_state(mix, X):
        s = state(mix, X)
        states[id(s[3])] = s  # the loop passes this grad array to _newton_step
        return s

    def recorded_newton_step(g, h, step_cap, polish):
        step, concave = newton_step(g, h, step_cap, polish)
        x, logf = states[id(g)][:2]
        if not trails[-1] or not np.array_equal(trails[-1][-1][0], x[:, 0]):
            trails[-1].append((x[:, 0].copy(), float(logf[0]), not polish[0], bool(concave[0])))
        return step, concave

    monkeypatch.setattr(modefinder, "_state", recorded_state)
    monkeypatch.setattr(modefinder, "_newton_step", recorded_newton_step)
    for x0 in starts:
        trails.append([])
        modefinder._ascend_batch(mix, x0[None, :], AscentOptions(), scale)
    return trails


@pytest.mark.parametrize(
    "scenario, starts",
    [
        (duistermaat_triangle(0.6), lambda scen: np.random.default_rng(2).uniform(-2, 2, size=(20, 2))),
        (product_of_triangles(2, 0.72), lambda scen: default_starts(scen, budget=2250, seed=0)[
            np.union1d(_PRODUCT_LONG_CLIMBS, _PRODUCT_LONG_CURVED_CLIMBS)]),
    ],
    ids=["triangle", "product"],
)
def test_overrelaxed_climb_is_monotone(monkeypatch, scenario, starts):
    # No accepted climbing step, overrelaxed or not, lowers log f by more
    # than the slack; and some accepted mean-shift steps are overrelaxed,
    # longer than 1.5 plain steps.
    mix = scenario.mixture
    lo, hi = scenario.search_box
    scale = float(np.linalg.norm(np.asarray(hi) - np.asarray(lo)))
    overrelaxed = 0
    for trail in _climb_trails(monkeypatch, mix, starts(scenario), scale):
        for (x, logf, climbing, newton), (x_next, logf_next, _, _) in zip(trail, trail[1:]):
            if not climbing:
                continue
            assert logf_next >= logf - modefinder._MONOTONE_SLACK
            if not newton:
                plain = np.linalg.norm(fixed_point_step(mix, x) - x)
                overrelaxed += bool(np.linalg.norm(x_next - x) > 1.5 * plain)
    assert overrelaxed > 0


@pytest.mark.parametrize("seed, plain_calls", [(0, 289), (1, 353)])
def test_product_ascent_work_bound(monkeypatch, seed, plain_calls):
    # Overrelaxed climbing needs at most 200 derivative calls where plain
    # mean-shift climbing needs 289 (seed 0) and 353 (seed 1), and at most 60
    # where the mean-shift step times eta needed 109 and 170.
    scen = product_of_triangles(2, 0.72)
    starts = default_starts(scen, budget=2250, seed=seed)
    calls, derivatives = [], modefinder.derivatives

    def counted(mix, X):
        calls.append(len(X))
        return derivatives(mix, X)

    monkeypatch.setattr(modefinder, "derivatives", counted)
    rep = find_critical_points(scen.mixture, starts, search_box=scen.search_box)
    assert rep.mode_count == scen.expected_modes and rep.starts_converged == len(starts)
    assert 0 < len(calls) <= 200 < plain_calls
    assert len(calls) <= 60
    # One call per iteration, a rejected trial retried in the next, and none
    # to confirm a converged polish: 31 and 23 calls, where a repair call in
    # the same iteration needed 46 and 38, and the confirming call 32 and 24.
    assert len(calls) <= {0: 31, 1: 23}[seed]


def test_catalog_ascent_work_bound(monkeypatch):
    # The catalog as gmmodes verify runs it, at Halton seed 0: 140
    # derivative calls, where a repair call in the same iteration needed 199
    # and a call to confirm each converged polish 151.
    calls, derivatives = [], modefinder.derivatives

    def counted(mix, X):
        calls.append(len(X))
        return derivatives(mix, X)

    monkeypatch.setattr(modefinder, "derivatives", counted)
    for scen in scenario_catalog():
        starts = default_starts(scen, budget=max(500, 250 * scen.mixture.k), seed=0)
        rep = find_critical_points(scen.mixture, starts, search_box=scen.search_box)
        assert scen.expected_modes in (None, rep.mode_count)
    assert 0 < len(calls) <= 140


# ----------------------------------------------------------------------
# Climbing step: (A / eta - (1 - 1 / eta) Hess f / f) s = grad f / f
# ----------------------------------------------------------------------

def _step_inputs(mix, x):
    """Responsibilities, grad f / f and Hess f / f at the point x, rows last
    as the ascent keeps them (a batch of one), and A = sum_i r_i P_i there."""
    _, resp, g, h = derivatives(mix, x[None, :])
    return resp, g.T, h.transpose(1, 2, 0), np.einsum("km,kab->ab", resp, mix._precisions)


def _plain_climb(scen, start, steps):
    """Start `start` of the scenario's 2250 seed-0 default starts after
    `steps` plain mean-shift steps."""
    x = default_starts(scen, budget=2250, seed=0)[start]
    for _ in range(steps):
        x = fixed_point_step(scen.mixture, x)
    return x


def test_climbing_step_at_eta_1_is_the_plain_mean_shift_step():
    # At eta = 1 the climbing step is A^{-1} grad f / f bit for bit: over a
    # batch, against the solve below, and row by row, against fixed_point_step.
    scen = product_of_triangles(2, 0.72)
    mix, X = scen.mixture, default_starts(scen, budget=2250, seed=0)[::25]
    _, resp, g, h = derivatives(mix, X)
    g, h = g.T, h.transpose(1, 2, 0)
    d, m = g.shape
    A = (mix._precisions.reshape(mix.k, d * d).T @ resp).reshape(d, d, m)
    plain = np.linalg.solve(A.transpose(2, 0, 1), g.T[..., None])[..., 0].T
    assert np.array_equal(modefinder._mean_shift_step(mix, resp, g, h, np.ones(m)), plain)
    for x in X[:10]:
        resp, g, h, _ = _step_inputs(mix, x)
        step = modefinder._mean_shift_step(mix, resp, g, h, np.ones(1))
        assert np.array_equal(x + step[:, 0], fixed_point_step(mix, x))


def test_climbing_step_tends_to_the_newton_step_on_a_concave_row():
    # 60 plain steps take product start 63 where Hess f / f is negative
    # definite. As eta doubles, the climbing step comes closer to the Newton
    # step every time, in the A norm.
    scen = product_of_triangles(2, 0.72)
    resp, g, h, A = _step_inputs(scen.mixture, _plain_climb(scen, 63, 60))
    newton, concave = modefinder._newton_step(g, h, np.inf, np.zeros(1, dtype=bool))
    assert concave[0]
    errors = []
    for eta in 2.0 ** np.arange(31):
        e = (modefinder._mean_shift_step(scen.mixture, resp, g, h, np.array([eta])) - newton)[:, 0]
        errors.append(np.sqrt(e @ A @ e))
    assert np.all(np.diff(errors) < 0) and errors[-1] <= 1e-7 * errors[0]


def test_climbing_step_beside_a_saddle_lengthens_the_escape():
    # 20 plain steps take product start 63 next to a mode x saddle point,
    # where Hess f / f = H has one positive eigenvalue. Along a generalized
    # eigenvector v of (-H, A), -H v = lam A v, the climbing step is the
    # plain step times 1 / (lam + (1 - lam) / eta). So the escaping direction
    # (lam < 0) grows faster than eta, the stiffest one stays between the
    # plain and the Newton step, and the step ascends until the escape turns
    # round, past eta = (1 - lam) / -lam, about 17 here.
    scen = product_of_triangles(2, 0.72)
    resp, g, h, A = _step_inputs(scen.mixture, _plain_climb(scen, 63, 20))
    lam, V = scipy.linalg.eigh(-h[..., 0], A)
    assert lam[0] < 0 < lam[1] and lam[-1] > 0.5

    def step(eta):
        s = modefinder._mean_shift_step(scen.mixture, resp, g, h, np.array([eta]))[:, 0]
        return s @ g[:, 0], V.T @ A @ s  # the ascent s . grad f / f, and the components

    plain, escape = step(1.0)[1], 1.0
    for eta in (2.0, 4.0, 8.0, 16.0):
        ascent, components = step(eta)
        ratio = components / plain
        assert ascent > 0 and ratio[0] > max(eta, escape)
        assert 1.0 <= ratio[-1] <= 1.0 / lam[-1]
        escape = ratio[0]
    # Past the turn the step descends: the ascent takes the plain step there.
    assert step(32.0)[0] < 0


def test_accepted_climbing_steps_ascend(monkeypatch):
    # Every accepted climbing step x -> x' points uphill, (x' - x) . grad f / f
    # > 0: a step past its escape's turn is replaced by the plain step, as
    # starts 563 and 2075 need on their way.
    scen = product_of_triangles(2, 0.72)
    lo, hi = scen.search_box
    starts = default_starts(scen, budget=2250, seed=0)[np.union1d(_PRODUCT_LONG_CLIMBS, _PRODUCT_LONG_CURVED_CLIMBS)]
    for trail in _climb_trails(monkeypatch, scen.mixture, starts, float(np.linalg.norm(hi - lo))):
        for (x, _, climbing, _), (x_next, *_) in zip(trail, trail[1:]):
            if climbing:
                assert (x_next - x) @ derivatives(scen.mixture, x[None, :]).grad_over_density[0] > 0


# ----------------------------------------------------------------------
# Newton step: symmetric elimination, eigh only where its eigenvalue floor acts
# ----------------------------------------------------------------------

def test_singular_mean_shift_row_takes_no_step():
    # A row whose system (A / eta - (1 - 1 / eta) H) s = g is singular (here
    # zero: eta = 2, H = A) takes no step; the other rows keep the steps a
    # batch without it gives them, bit for bit.
    scen = duistermaat_triangle(0.72)
    mix, x = scen.mixture, np.random.default_rng(4).uniform(-1, 1, size=(6, 2))
    _, resp, g, h = derivatives(mix, x)
    g, h = g.T.copy(), h.transpose(1, 2, 0).copy()
    A = (mix._precisions.reshape(mix.k, 4).T @ resp).reshape(2, 2, 6)  # as the step forms it
    h[..., 2], eta = A[..., 2], np.full(6, 2.0)
    regular = np.arange(6) != 2
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve((A / eta - 0.5 * h).transpose(2, 0, 1), g.T[..., None])
    step = modefinder._mean_shift_step(mix, resp, g, h, eta)
    assert np.all(step[:, 2] == 0.0)
    alone = modefinder._mean_shift_step(mix, resp[:, regular], g[:, regular], h[..., regular], eta[regular])
    assert np.array_equal(step[:, regular], alone)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_singular_mean_shift_system_does_not_abort_the_batch(seed):
    # The product of triangles and its default starts through
    # M = Q diag(1, c^(1/3), c^(2/3), c), c = 1e8: some climbing rows meet a
    # singular mean-shift system. The run still reports, and those rows
    # count as not converged.
    mix, M = stretched_product(1e8, seed)
    rep = find_critical_points(mix, default_starts(product_of_triangles(2, 0.72), budget=2250, seed=0) @ M.T)
    assert 0 < rep.starts_converged < rep.starts_used == 2250
    assert rep.mode_count >= 1 and all(p.converged for p in rep.critical_points)


def _eigh_newton_step(g, h, step_cap):
    """Reference: every row through eigh, tiny eigenvalues floored keeping their sign."""
    w, V = np.linalg.eigh(h)
    concave = w[:, -1] < 0.0
    floor = np.maximum(1e-12 * np.max(np.abs(w), axis=1), 1e-300)[:, None]
    w = np.where(np.abs(w) < floor, np.where(w >= 0, floor, -floor), w)
    step = -np.einsum("mij,mj->mi", V, np.einsum("mji,mj->mi", V, g) / w)
    norm = np.linalg.norm(step, axis=1)
    long = norm > step_cap
    step[long] *= (step_cap / norm[long])[:, None]
    return step, concave


def _random_newton_rows(rng, d, m, cond):
    """m random gradients, polishing flags and symmetric Hessians whose eigenvalue
    magnitudes run from 1 down to 1 / cond (0 for cond = inf) at a random scale;
    the first third are negative definite, the rest have random signs."""
    Q = np.linalg.qr(rng.normal(size=(m, d, d)))[0]
    mag = np.exp(rng.uniform(-np.log(min(cond, 1e9)), 0.0, size=(m, d)))
    mag[:, -1], mag[:, 0] = 1.0 / cond, 1.0
    sign = np.where(rng.random((m, d)) < 0.3, 1.0, -1.0)
    sign[: m // 3] = -1.0
    h = 10.0 ** rng.uniform(-3, 3, size=(m, 1, 1)) * (Q * (sign * mag)[:, None, :]) @ np.swapaxes(Q, 1, 2)
    return rng.normal(size=(m, d)), 0.5 * (h + np.swapaxes(h, 1, 2)), rng.random(m) < 0.5


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("cond", [1.0, 1e3, 1e6, 1e9, 1e14, np.inf])
def test_newton_step_matches_eigh_reference(d, cond):
    g, h, polish = _random_newton_rows(np.random.default_rng(30 + d), d, 1000, cond)
    for cap in (np.inf, 0.5):
        # _newton_step takes and returns its rows last.
        step, concave = modefinder._newton_step(g.T, h.transpose(1, 2, 0), cap, polish)
        step = step.T
        ref_step, ref_concave = _eigh_newton_step(g, h, cap)
        assert np.array_equal(concave, ref_concave)
        used = polish | concave  # the rows whose Newton step is taken
        # Rows past the condition bound keep the eigh path and its floor:
        # rounding apart, the same step.
        rtol = 1e-13 + (0.0 if cond >= modefinder._SWEEP_CONDITION else 4e-15 * cond)
        err = np.linalg.norm(step - ref_step, axis=1)[used]
        assert np.all(err <= rtol * np.linalg.norm(ref_step, axis=1)[used])


def test_newton_step_of_a_row_does_not_depend_on_its_batch():
    rng = np.random.default_rng(40)
    for d in range(1, 5):
        rows = [_random_newton_rows(rng, d, 30, cond) for cond in (1e6, np.inf)]
        g, h, polish = (np.concatenate(parts) for parts in zip(*rows))
        g, h = g.T, h.transpose(1, 2, 0)  # rows last, as _newton_step takes them
        step, concave = modefinder._newton_step(g, h, 0.5, polish)
        for i in range(len(polish)):
            one_step, one_concave = modefinder._newton_step(g[:, i : i + 1], h[..., i : i + 1], 0.5, polish[i : i + 1])
            assert np.array_equal(one_step[:, 0], step[:, i]) and one_concave[0] == concave[i]


def _count_eigh_rows(monkeypatch):
    """Patch np.linalg.eigh to record how many matrices each call factors."""
    rows, eigh = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        rows.append(int(np.prod(np.shape(a)[:-2], dtype=int)))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return rows


def test_product_ascent_runs_no_eigh(monkeypatch):
    # Every Newton row of the catalog's heaviest scenario is either clearly
    # negative definite or a climbing row that is clearly indefinite.
    scen = product_of_triangles(2, 0.72)
    starts = default_starts(scen, budget=2250, seed=0)
    rows = _count_eigh_rows(monkeypatch)
    rep = find_critical_points(scen.mixture, starts, search_box=scen.search_box)
    assert rep.mode_count == scen.expected_modes
    assert sum(rows) == 0


@pytest.mark.parametrize(
    "scenario, starts",
    [
        (cross_example(), lambda scen: default_starts(scen, budget=60, seed=1)),
        (duistermaat_triangle(0.72), lambda scen: default_starts(scen, budget=150, seed=1)),
        # 20 of the catalog's 2250 starts: means, midpoints and Halton fill
        (product_of_triangles(2, 0.72), lambda scen: default_starts(scen, budget=2250, seed=1)[::112][:20]),
        (product_of_triangles(2, 0.72), _product_long_climbs),
        # Small batches: a few rows left after the first iterations.
        *((random_pair_scenario(seed, d), lambda scen: default_starts(scen, budget=80, seed=1))
          for seed, d in ((11, 1), (12, 2), (13, 3))),
    ],
    ids=["cross", "triangle", "product", "product-long-climbs", "pair-d1", "pair-d2", "pair-d3"],
)
def test_driver_identical_to_sequential_ascend(scenario, starts):
    mix = scenario.mixture
    X = starts(scenario)
    opts = AscentOptions()
    rep = find_critical_points(mix, X, opts, search_box=scenario.search_box)
    lo, hi = scenario.search_box
    scale = float(np.linalg.norm(np.asarray(hi) - np.asarray(lo)))
    hits = [0] * len(rep.critical_points)
    converged = 0
    for x0 in X:
        cp = ascend(mix, x0, opts, scale=scale)
        if not cp.converged:
            continue
        converged += 1
        near = [
            j for j, p in enumerate(rep.critical_points)
            if np.linalg.norm(p.location - cp.location) <= rep.dedup_radius
        ]
        assert len(near) == 1
        assert rep.critical_points[near[0]].kind == cp.kind
        hits[near[0]] += 1
    assert converged == rep.starts_converged
    assert hits == [p.converged_from for p in rep.critical_points]


@pytest.mark.parametrize(
    "scenario, starts",
    [
        (cross_example(), lambda scen: default_starts(scen, budget=60, seed=1)),
        (duistermaat_triangle(0.72), lambda scen: default_starts(scen, budget=150, seed=1)),
        (product_of_triangles(2, 0.72), lambda scen: default_starts(scen, budget=2250, seed=1)[::112][:20]),
    ],
    ids=["cross", "triangle", "product"],
)
def test_one_derivatives_call_per_iteration(monkeypatch, scenario, starts):
    # One kernel call at the starts, then one per iteration over the trial
    # points of the rows that go on: a rejected trial is retried in the next
    # iteration, not by a further call in the same one, and the last
    # iteration only ends rows, so it makes none.
    calls = {"derivatives": 0, "_newton_step": 0}
    for name in calls:
        def counted(*args, fn=getattr(modefinder, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(modefinder, name, counted)
    find_critical_points(scenario.mixture, starts(scenario), search_box=scenario.search_box)
    assert calls["derivatives"] == calls["_newton_step"]


def test_truncated_climb_of_a_row_does_not_depend_on_its_batch(monkeypatch):
    # Cut after 8 climbs and one Newton step, so that endpoints still show
    # the climb: each row's overrelaxation is its own, and only rounding,
    # which varies with the batch size, separates batch from lone rows.
    scen = product_of_triangles(2, 0.72)
    X = default_starts(scen, budget=2250, seed=0)
    X = np.concatenate([X[_PRODUCT_LONG_CLIMBS], X[::50]])
    lo, hi = scen.search_box
    scale = float(np.linalg.norm(hi - lo))
    opts = AscentOptions()
    assert np.all(modefinder._ascend_batch(scen.mixture, X, opts, scale).converged)
    monkeypatch.setattr(modefinder, "_MAX_CLIMBS", 8)
    monkeypatch.setattr(modefinder, "_MAX_NEWTON_STEPS", 1)
    batch = modefinder._ascend_batch(scen.mixture, X, opts, scale)
    assert (len(X), np.sum(~batch.converged)) == (65, 20)  # the cut took effect
    alone = [modefinder._ascend_batch(scen.mixture, x[None, :], opts, scale).x[0] for x in X]
    assert np.max(np.abs(batch.x - alone)) <= 1e-10 * scale


@pytest.mark.parametrize("d", [1, 2, 3])
def test_polishing_batch_rows_end_as_alone(monkeypatch, d):
    # The k = 2 oracle's critical points, with the two means appended. Each
    # root is within 1e3 gradient tolerances, so its row polishes from its
    # first iteration, while the means climb. Each row ends as it does
    # alone, whatever else the batch holds or has dropped.
    opts, ascend_batch, newton_step = AscentOptions(), modefinder._ascend_batch, modefinder._newton_step
    first_polish = []

    def recorded(g, h, step_cap, polish):
        first_polish.append(polish.copy())
        return newton_step(g, h, step_cap, polish)

    rows = _count_eigh_rows(monkeypatch)
    monkeypatch.setattr(modefinder, "_newton_step", recorded)
    for seed in range(20):
        mix = random_pair_scenario(100 * d + seed, d).mixture
        roots = np.array([p.location for p in ridgeline_oracle_k2(mix)])
        X, scale = np.concatenate([roots, mix._means]), modefinder._default_scale(mix)
        first_polish.clear()
        batch = ascend_batch(mix, X, opts, scale)
        assert np.all(first_polish[0][: len(roots)])
        for i in range(len(X)):
            alone = ascend_batch(mix, X[i : i + 1], opts, scale)
            assert batch.converged[i] == alone.converged[0]
            assert np.max(np.abs(batch.x[i] - alone.x[0])) <= 1e-10 * scale
            kind = modefinder._classified(mix, batch, [i], [1])[0].kind_label
            assert kind == modefinder._classified(mix, alone, [0], [1])[0].kind_label
    # Polishing rows at a saddle or antimode are not negative definite, so
    # their Newton step still comes from eigh.
    assert sum(rows) > 0


def test_climbing_rows_that_drop_end_as_alone(monkeypatch):
    # Climbing rows whose trial lowers log f, next to rows whose trials do
    # not: only the dropping rows stay where they are, and every row ends
    # where it ends alone, as the same kind.
    scen = duistermaat_triangle(0.6)
    mix, X = scen.mixture, np.random.default_rng(2).uniform(-2, 2, size=(20, 2))
    lo, hi = scen.search_box
    scale, opts = float(np.linalg.norm(hi - lo)), AscentOptions()
    iterations, states, state, newton_step = [], {}, modefinder._state, modefinder._newton_step

    def recorded_state(mix, x):
        s = state(mix, x)
        states[id(s[3])] = s  # the loop passes this grad array to _newton_step
        return s

    def recorded_newton_step(g, h, step_cap, polish):
        # The rows' points, rows last; None after the loop compacted its rows.
        s = states.get(id(g))
        iterations.append((polish.any(), None if s is None else s[0].copy()))
        return newton_step(g, h, step_cap, polish)

    monkeypatch.setattr(modefinder, "_newton_step", recorded_newton_step)
    monkeypatch.setattr(modefinder, "_state", recorded_state)
    batch = modefinder._ascend_batch(mix, X, opts, scale)
    monkeypatch.undo()
    kinds = [p.kind_label for p in modefinder._classified(mix, batch, range(len(X)), [1] * len(X))]
    for i, x in enumerate(X):
        alone = modefinder._ascend_batch(mix, x[None, :], opts, scale)
        assert np.max(np.abs(batch.x[i] - alone.x[0])) <= 1e-10 * scale
        assert kinds[i] == modefinder._classified(mix, alone, [0], [1])[0].kind_label
    # Some iteration in which every row climbs keeps some rows in place and
    # moves the others (no row finishes while climbing, so the next
    # iteration holds the same rows in the same order); each kept row moves
    # later, so its point is no row's endpoint.
    mixed = 0
    for (polishing, x), (_, x_next) in zip(iterations, iterations[1:]):
        if polishing or x is None or x_next is None:
            continue
        kept = np.all(x_next == x, axis=0)
        if kept.any() and not kept.all():
            mixed += 1
            for p in x[:, kept].T:
                assert not np.any(np.all(batch.x == p, axis=1))
    assert mixed > 0


def test_batched_classifier_on_a_mixed_batch(monkeypatch):
    # The oracle's modes and saddles on the cross, and a hand-built row whose
    # Hessian has a zero eigenvalue, classified as one batch: each kind
    # follows the signs of the row's own spectrum, and only the singular row
    # is probed, once.
    mix = cross_example().mixture
    oracle = ridgeline_oracle_k2(mix)
    assert {p.kind for p in oracle} == {"mode", "saddle"}
    x = np.array([p.location for p in oracle] + [oracle[0].location])
    hess = derivatives(mix, x).hessian_over_density.copy()
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    hess[-1] = rot @ np.diag([-1.0, 0.0]) @ rot.T
    n = len(x)
    end = modefinder._Endpoints(x, mix.log_density(x), np.arange(n) * 1e-12, hess, np.arange(n) != 1)
    probes, probe = [], modefinder._probe_extremum

    def counted(*args):
        probes.append(probe(*args))
        return probes[-1]

    monkeypatch.setattr(modefinder, "_probe_extremum", counted)
    points = modefinder._classified(mix, end, np.arange(n), np.arange(1, n + 1))
    assert probes == ["mode"]
    for i, cp in enumerate(points):
        eigs = np.linalg.eigvalsh(hess[i])
        assert np.array_equal(cp.hessian_eigenvalues, eigs)
        assert cp.location.flags.owndata and cp.hessian_eigenvalues.flags.owndata
        assert np.array_equal(cp.location, x[i]) and cp.log_density == end.log_density[i]
        assert (cp.gradient_norm, cp.converged_from, cp.converged) == (i * 1e-12, i + 1, i != 1)
        assert cp.degenerate_hessian == (i == n - 1)
        if i < n - 1:
            neg = int(np.sum(eigs < 0))
            expected = {2: "mode", 0: "antimode"}.get(neg, f"saddle({neg})")
            assert cp.kind_label == expected == oracle[i].kind_label
    assert points[-1].kind == "mode"


def test_the_mode_at_the_behboodian_threshold_is_degenerate():
    # Equal unit components 2 apart, the default of `gmmodes construct
    # univariate`: the two modes have just merged (Behboodian 1970), and
    # f'' = 0 at x = 1. The generalized eigenvalue of (Hess f / f, A) there is
    # below 1e-8, and the probe settles the point as a mode.
    scen = univariate_pair(0, 1, 2, 1, 0.5)
    rep = find_critical_points(scen.mixture, default_starts(scen, budget=500), search_box=scen.search_box)
    assert [(p.kind, p.degenerate_hessian) for p in rep.critical_points] == [("mode", True)]


def test_endpoints_whose_metric_has_no_cholesky_factor_still_report():
    # At c = 1e10, A = sum_i r_i P_i has no Cholesky factor in floats at some
    # endpoints. Those rows are reported degenerate without a probe, and the
    # run returns its report.
    mix, M = stretched_product(1e10, 0)
    rep = find_critical_points(mix, default_starts(product_of_triangles(2, 0.72), budget=500, seed=0) @ M.T)
    assert rep.starts_used == 500 and rep.critical_points


def test_find_critical_points_rejects_bad_search_boxes():
    scen = cross_example()
    lo, hi = scen.search_box
    starts = default_starts(scen, budget=50)
    with pytest.raises(DimensionMismatch):
        find_critical_points(scen.mixture, starts, search_box=(np.zeros(3), np.ones(3)))
    for box in [(np.array([np.nan, lo[1]]), hi), (hi, lo)]:
        with pytest.raises(InvalidParameter):
            find_critical_points(scen.mixture, starts, search_box=box)


@pytest.mark.parametrize("scenario", scenario_catalog(), ids=lambda scen: scen.name)
def test_ascend_from_critical_point_stays_put(scenario, monkeypatch):
    # A start already at a critical point settles there at once, rather than
    # halving steps at the noise floor.
    starts = default_starts(scenario, budget=200, seed=0)
    rep = find_critical_points(scenario.mixture, starts, search_box=scenario.search_box)
    lo, hi = scenario.search_box
    scale = float(np.linalg.norm(np.asarray(hi) - np.asarray(lo)))
    calls = []
    log_terms = Mixture.log_terms

    def counted(self, X):
        calls.append(X)
        return log_terms(self, X)

    monkeypatch.setattr(Mixture, "log_terms", counted)
    for cp in rep.critical_points:
        if cp.kind == "degenerate" or cp.degenerate_hessian:
            continue
        calls.clear()
        end = ascend(scenario.mixture, cp.location, scale=scale)
        assert end.converged
        assert np.linalg.norm(end.location - cp.location) <= 1e-12
        assert 1 <= len(calls) <= 3


# ----------------------------------------------------------------------
# Starts
# ----------------------------------------------------------------------

def test_default_starts_structure():
    scen = cross_example()
    starts = default_starts(scen, budget=50, seed=1)
    assert len(starts) == 50
    assert any(np.allclose(s, [1, 0]) for s in starts)
    assert any(np.allclose(s, [0, 1]) for s in starts)
    assert any(np.allclose(s, [0.5, 0.5]) for s in starts)


def test_default_starts_include_vertices():
    arr = generic_arrangement(2, 3, seed=1)
    scen = arrangement_scenario(arr, 0.05)
    starts = default_starts(scen, budget=60, seed=1)
    for v in arr.vertices:
        assert any(np.allclose(s, v) for s in starts)


def test_default_starts_deterministic():
    scen = duistermaat_triangle(0.72)
    a = default_starts(scen, budget=100, seed=9)
    b = default_starts(scen, budget=100, seed=9)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("d", range(1, 9))
def test_halton_matches_scipy(d):
    for seed in (0, 1, 7, 2024):
        for n in (1, 200, 2250):
            ref = qmc.Halton(d, scramble=True, seed=seed).random(n)
            assert np.array_equal(_halton(n, d, seed), ref)


def test_halton_is_memoized_read_only():
    pts = _halton(200, 3, 5)
    assert _halton(200, 3, 5) is pts and not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 0.5
    scen = duistermaat_triangle(0.72)
    a, b = default_starts(scen, budget=100, seed=5), default_starts(scen, budget=100, seed=5)
    assert a is not b and a.flags.writeable and np.array_equal(a, b)


def test_default_starts_rejects_bad_inputs():
    scen = cross_example()
    with pytest.raises(InvalidParameter):
        default_starts(scen, budget=1)
    with pytest.raises(InvalidParameter):
        default_starts(scen, budget=50, seed=-1)
    lo, hi = scen.search_box
    boxes = [(hi, lo), (lo, np.array([hi[0], lo[1]])), (np.array([np.nan, lo[1]]), hi),
             (lo, np.array([np.inf, hi[1]]))]
    for box in boxes:
        with pytest.raises(InvalidParameter):
            default_starts(dataclasses.replace(scen, search_box=box), budget=50)


# ----------------------------------------------------------------------
# Multistart reports
# ----------------------------------------------------------------------

def test_single_gaussian_report():
    mu = np.array([0.3, -1.2])
    mix = make_mixture([1.0], [mu], [np.diag([1.0, 2.0])])
    rep = run_multistart(mix, budget=20)
    assert rep.mode_count == 1
    assert np.linalg.norm(rep.modes[0].location - mu) < 1e-9
    assert rep.bound_check.lower == 1 and rep.bound_check.upper == 44


def test_univariate_pair_critical_points():
    mix = univariate_pair(0, 1, 2.1, 1, 0.5).mixture
    rep = run_multistart(mix, budget=40)
    assert rep.mode_count == 2
    assert rep.count("antimode") == 1
    assert len(rep.critical_points) == 3


def test_duistermaat_four_modes():
    scen = duistermaat_triangle(0.72)
    starts = default_starts(scen, budget=150, seed=1)
    rep = find_critical_points(scen.mixture, starts, search_box=scen.search_box)
    assert rep.mode_count == 4


def test_report_classification_invariants():
    scen = duistermaat_triangle(0.72)
    starts = default_starts(scen, budget=150, seed=1)
    rep = find_critical_points(scen.mixture, starts, search_box=scen.search_box)
    for cp in rep.critical_points:
        assert cp.gradient_norm <= AscentOptions().gradient_tolerance
        if cp.kind == "mode" and not cp.degenerate_hessian:
            tol = modefinder._DEGENERATE_EIGEN_TOLERANCE * np.max(np.abs(cp.hessian_eigenvalues))
            assert np.all(cp.hessian_eigenvalues < -tol)


def test_report_serialization():
    rep = run_multistart(cross_example().mixture, budget=60)
    doc = rep.to_dict()
    assert doc["mode_count"] == 3
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == "x_1,x_2,log_density,kind,min_eigenvalue,converged_from"
    assert len(csv_text.splitlines()) == 1 + len(rep.critical_points)


def test_mode_count_respects_upper_bound():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(k))
        means = rng.normal(scale=2, size=(k, d))
        covs = []
        for _ in range(k):
            A = rng.normal(size=(d, d))
            covs.append(A @ A.T + 0.3 * np.eye(d))
        mix = make_mixture(weights, means, covs)
        rep = run_multistart(mix, budget=80, seed=5)
        assert rep.bound_check.mode_count_within_upper


# ----------------------------------------------------------------------
# Ridgeline
# ----------------------------------------------------------------------

def test_ridgeline_point_vertex_of_simplex():
    mix = cross_example().mixture
    means = [c.mean for c in mix.components]
    covs = [c.cov for c in mix.components]
    x = ridgeline_point(means, covs, [1.0, 0.0])
    assert np.allclose(x, means[0], atol=1e-12)


def test_ridgeline_point_homoscedastic():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    means = [np.array([0.0, 0.0]), np.array([1.0, 2.0]), np.array([-1.0, 1.0])]
    alpha = np.array([0.2, 0.5, 0.3])
    x = ridgeline_point(means, [cov] * 3, alpha)
    assert np.allclose(x, sum(a * m for a, m in zip(alpha, means)), atol=1e-12)


def test_ridgeline_point_direct_solve():
    mix = cross_example().mixture
    P1 = np.linalg.inv(mix.components[0].cov)
    P2 = np.linalg.inv(mix.components[1].cov)
    expect = np.linalg.solve(P1 + P2, P1 @ mix._means[0] + P2 @ mix._means[1])
    x = ridgeline_point(mix.means, [c.cov for c in mix.components], [0.5, 0.5])
    assert np.allclose(x, expect, atol=1e-10)


def test_oracle_cross_five_critical_points():
    mix = cross_example().mixture
    pts = ridgeline_oracle_k2(mix, samples=4000)
    kinds = sorted(p.kind for p in pts)
    assert len(pts) == 5
    assert kinds.count("mode") == 3
    assert kinds.count("saddle") == 2
    assert all(p.saddle_index == 1 for p in pts if p.kind == "saddle")


def test_oracle_univariate_three():
    mix = univariate_pair(0, 1, 2.1, 1, 0.5).mixture
    pts = ridgeline_oracle_k2(mix, samples=2000)
    assert len(pts) == 3
    assert sum(p.kind == "mode" for p in pts) == 2


def test_oracle_identical_components():
    mix = make_mixture([0.5, 0.5], [[1.0], [1.0]], [[[1.0]], [[1.0]]])
    pts = ridgeline_oracle_k2(mix, samples=2000)
    # G = -theta has its one root at t = 1/2, sampled as theta = -0 and +0.
    assert len(pts) == 1
    assert np.allclose(pts[0].location, [1.0], atol=1e-10)


def test_oracle_sample_floor():
    with pytest.raises(TooFewSamples):
        ridgeline_oracle_k2(cross_example().mixture, samples=100)


def test_oracle_requires_two_components():
    with pytest.raises(ValueError):
        ridgeline_oracle_k2(duistermaat_triangle(0.72).mixture)


def test_oracle_matches_multistart_sample():
    rng = np.random.default_rng(10)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        mix = random_two_component(rng, d)
        rep = run_multistart(mix, budget=200, seed=3)
        oracle = ridgeline_oracle_k2(mix, samples=4000)
        o_modes = [p for p in oracle if p.kind == "mode"]
        assert rep.mode_count == len(o_modes)
        for m in rep.modes:
            assert min(np.linalg.norm(m.location - p.location) for p in o_modes) <= rep.dedup_radius


def test_oracle_makes_one_kernel_call_and_no_polish(monkeypatch):
    # The oracle reports its theta roots as they are: one derivatives call
    # per oracle, at the roots, and no ascent, dedup or search scale.
    calls = []

    def counted(name):
        original = getattr(modefinder, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(modefinder, name, wrapper)

    for name in ("derivatives", "_ascend_batch", "_distinct_critical_points", "_default_scale"):
        counted(name)
    rng = np.random.default_rng(10)  # the mixtures of test_oracle_matches_multistart_sample
    for _ in range(25):
        calls.clear()
        ridgeline_oracle_k2(random_two_component(rng, int(rng.integers(1, 4))), samples=4000)
        assert calls == ["derivatives"]


def test_oracle_requires_two_components_invalid_parameter():
    with pytest.raises(InvalidParameter):
        ridgeline_oracle_k2(duistermaat_triangle(0.72).mixture)
    with pytest.raises(InvalidParameter):
        ridgeline_oracle_k2(make_mixture([1.0], [[0.0]], [[[1.0]]]))


def ridgeline_curve(mix, t):
    """x*(t) at the weights t of the first component, evaluated as ``gmmodes
    ridgeline`` does: at theta = log(t / (1 - t)), -inf at t = 0 and +inf at t = 1."""
    with np.errstate(divide="ignore"):
        theta = np.log(t) - np.log1p(-t)
    return _on_halves(_ridgeline_halves(mix), _RidgelineHalf.points, theta, mix.dim)


def _anisotropic_pair(rng, d, ratio):
    """Two components with independently rotated covariances whose
    eigenvalues run geometrically from 1 to ratio (variances 1 and ratio
    when d = 1)."""
    covs = []
    for i in range(2):
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        Q = q * np.sign(np.diag(r))
        ev = np.geomspace(1.0, ratio, d)[rng.permutation(d)] if d > 1 else np.array([(1.0, ratio)[i]])
        cov = (Q * ev) @ Q.T
        covs.append(0.5 * (cov + cov.T))
    return make_mixture([0.4, 0.6], rng.normal(scale=1.5, size=(2, d)), covs)


def _mp_ridgeline(mix, t):
    """x*(t) solved at 50 digits. The precisions are formed exactly
    from the mixture's float Cholesky factors, P_i = (L_i L_i^T)^{-1}: those
    factors are how a component is stored, and at condition 1e9 rounding the
    covariance into them already moves P by ~1e-7, which no method working
    from the float factors can undo."""
    with mpmath.workdps(50):
        P = []
        for c in mix.components:
            L = mpmath.matrix(c.chol.tolist())
            P.append(mpmath.inverse(L * L.T))
        Pmu = [p * mpmath.matrix(m.tolist()) for p, m in zip(P, mix._means)]
        xs = []
        for tt in t:
            tt = mpmath.mpf(float(tt))
            A = tt * P[0] + (1 - tt) * P[1]
            x = mpmath.lu_solve(A, tt * Pmu[0] + (1 - tt) * Pmu[1])
            xs.append([float(v) for v in x])
    return np.array(xs)


@pytest.mark.parametrize("ratio", [1.0, 1e3, 1e6, 1e9])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_ridgeline_curve_matches_mpmath(d, ratio):
    rng = np.random.default_rng(int(100 * d + math.log10(ratio)))
    t = np.array([0.0, 1e-9, 1e-3, 0.25, 0.5, 0.75, 1 - 1e-3, 1 - 1e-9, 1.0])
    for _ in range(3):
        mix = _anisotropic_pair(rng, d, ratio)
        x = ridgeline_curve(mix, t)
        x_ref = _mp_ridgeline(mix, t)
        x_err = np.linalg.norm(x - x_ref, axis=1) / np.linalg.norm(x_ref, axis=1)
        assert np.max(x_err) <= 1e-10


def test_ridgeline_curve_matches_ridgeline_point():
    rng = np.random.default_rng(31)
    t = np.linspace(0.0, 1.0, 17)
    for d in (1, 2, 3, 4):
        mix = random_two_component(rng, d)
        covs = [c.cov for c in mix.components]
        x = ridgeline_curve(mix, t)
        for ti, xi in zip(t, x):
            expect = ridgeline_point(mix.means, covs, [ti, 1.0 - ti])
            assert np.max(np.abs(xi - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))


def test_oracle_census_identity():
    cases = [cross_example().mixture, univariate_pair(0, 1, 2.1, 1, 0.5).mixture]
    rng = np.random.default_rng(10)  # the mixtures of test_oracle_matches_multistart_sample
    for _ in range(25):
        cases.append(random_two_component(rng, int(rng.integers(1, 4))))
    for mix in cases:
        assert census(ridgeline_oracle_k2(mix, samples=4000), mix.dim) == 1


def test_oracle_finds_the_middle_root_of_a_mirrored_pair():
    # Equal weights and mirrored components put a critical point at t = 1/2,
    # on the mirror plane x_1 = 0. Both halves sample the residual there and
    # may round it to opposite signs: that sign change is a root too.
    rng = np.random.default_rng(0)
    for i in range(60):
        d = 1 + i % 3
        R, A = np.diag([-1.0] + [1.0] * (d - 1)), rng.normal(size=(d, d))
        C, mu = A @ A.T + 0.3 * np.eye(d), np.eye(d)[0] * rng.uniform(0.5, 3.0)
        mix = make_mixture([0.5, 0.5], [mu, R @ mu], [C, R @ C @ R])
        points = ridgeline_oracle_k2(mix, samples=4000)
        assert census(points, d) == 1
        assert any(abs(p.location[0]) <= 1e-12 for p in points)
        # Rounding may give up to three sign changes around t = 1/2: one point.
        assert len({p.location.tobytes() for p in points}) == len(points)


def test_closed_form_residual_matches_kernel():
    # The oracle's G = log(r_1 / r_2) - theta at theta = log(t / (1 - t)) has
    # the sign of the kernel's r_1(x*(t)) - t on the interior of the
    # 4000-point grid, and G + theta is the kernel's lt_0 - lt_1 at x*(t) to
    # rounding.
    t = np.linspace(0.0, 1.0, 4000)[1:-1]
    theta = np.log(t) - np.log1p(-t)
    rng = np.random.default_rng(10)  # the mixtures of test_oracle_matches_multistart_sample
    cases = [random_two_component(rng, int(rng.integers(1, 4))) for _ in range(25)]
    for d in (1, 2, 3, 4):
        for ratio in (1.0, 1e3, 1e6, 1e9):
            rng = np.random.default_rng(int(100 * d + math.log10(ratio)))
            cases += [_anisotropic_pair(rng, d, ratio) for _ in range(3)]
    for mix in cases:
        x = ridgeline_curve(mix, t)
        lt, kernel = mix.log_terms(x), mix.responsibilities(x)[0] - t
        G = _ridgeline_log_residual(_ridgeline_halves(mix), theta, slope=False)
        assert np.all(np.abs(G + theta - (lt[0] - lt[1])) <= 1e-14 * (1.0 + np.max(np.abs(lt), axis=0)))
        assert np.array_equal(np.sign(G), np.sign(kernel))


def test_oracle_resolves_a_pair_below_the_first_grid_cell():
    # Needle mixture 384: a mode at weight 3.3e-12 and a saddle at 1.2e-4 of
    # the first component, both inside the first uniform cell (1 / 3999) of
    # the first half. Both are reported, and the census is complete.
    mix = needle_pair(384)
    points = ridgeline_oracle_k2(mix, samples=4000)
    weights = mix.responsibilities(np.array([p.location for p in points]))[0]
    low = sorted((w, p.kind_label) for w, p in zip(weights, points) if w < 1.0 / 3999)
    assert [kind for _, kind in low] == ["mode", "saddle(1)"]
    assert low[0][0] < 1e-11
    assert census(points, mix.dim) == 1


def test_oracle_seeds_a_root_past_the_grid_at_its_mean():
    # Means 40 apart: each mode lies at a weight of the other component
    # below 2^-1074, so G < 0 at the first sample and > 0 at the last, and
    # both roots are seeded at the means themselves.
    points = ridgeline_oracle_k2(univariate_pair(0, 1, 40, 1, 0.5).mixture, samples=4000)
    assert [(p.kind, float(p.location[0])) for p in points if p.kind == "mode"] == [("mode", 0.0), ("mode", 40.0)]
    assert [p.kind for p in points].count("antimode") == 1 and census(points, 1) == 1
    # A mode at a weight near 1e-288, deep in the 2^-j samples, polishes to its mean.
    mix = make_mixture([0.3, 0.7], [[0, 0, 0], [30, -20, 5]], [np.eye(3), np.diag([2.0, 1.0, 0.5])])
    points = ridgeline_oracle_k2(mix, samples=4000)
    assert sorted(p.kind_label for p in points) == ["mode", "mode", "saddle(2)"]
    assert any(p.kind == "mode" and np.array_equal(p.location, [30.0, -20.0, 5.0]) for p in points)
    assert census(points, 3) == 1


def test_oracle_census_on_the_bench_mixtures():
    # The oracle_k2 bench mixtures at generator seeds 0-3 (tests/sweeps.py): 4 x 46.
    # Each point's kind is the one its Hessian's eigenvalue signs give.
    assert census_sweep([mix for seed in range(4) for mix in oracle_k2_mixtures(seed)]) == (184, [], [])


def test_oracle_census_on_the_spectrum_sweep():
    # Covariance ratios up to 1e12 with geometric spectra (tests/sweeps.py):
    # the census is complete and every kind is the Hessian's on every mixture.
    assert census_sweep([spectrum_pair(i) for i in range(200)]) == (200, [], [])


def test_oracle_census_on_the_needle_sweep():
    # Crossing needles up to a covariance ratio of 1e12 (tests/sweeps.py):
    # the census is complete and every kind is the Hessian's on every mixture.
    assert census_sweep([needle_pair(i) for i in range(1000)]) == (1000, [], [])


def test_oracle_brackets_sign_of_log_density_slope():
    """The function the oracle brackets has the sign of d log f(x*(t)) / dt,
    checked on the 4000-point grid against a centred finite difference
    wherever that difference is well above its own error (its change when
    the step doubles, plus rounding)."""
    cases = [cross_example().mixture, univariate_pair(0, 1, 2.1, 1, 0.5).mixture]
    rng = np.random.default_rng(10)  # the mixtures of test_oracle_matches_multistart_sample
    for _ in range(25):
        cases.append(random_two_component(rng, int(rng.integers(1, 4))))
    t, h = np.linspace(0.0, 1.0, 4000)[1:-1], 1e-6
    for mix in cases:
        log_f = lambda s: mix.log_density(ridgeline_curve(mix, s))
        slope = (log_f(t + h) - log_f(t - h)) / (2 * h)
        slope_2h = (log_f(t + 2 * h) - log_f(t - 2 * h)) / (4 * h)
        err = np.abs(slope - slope_2h) + 1e-15 * (1.0 + np.abs(log_f(t))) / h
        clear = np.abs(slope) > 100 * err
        assert np.count_nonzero(clear) >= 0.99 * t.size
        theta = np.log(t) - np.log1p(-t)  # the oracle's coordinate of x*(t)
        residual = _ridgeline_log_residual(_ridgeline_halves(mix), theta, slope=False)
        assert np.array_equal(np.sign(residual[clear]), np.sign(slope[clear]))


def test_log_residual_slope_matches_centred_difference():
    # G' = s (1 - s) D'(s) - 1, with D' in closed form, against a centred
    # difference of G in theta = log(t / (1 - t)) on both halves, wherever
    # that difference is well above its own error.
    theta, h = np.linspace(-40.0, 40.0, 801), 1e-5
    rng = np.random.default_rng(10)  # the mixtures of test_oracle_matches_multistart_sample
    cases = [random_two_component(rng, int(rng.integers(1, 4))) for _ in range(25)]
    for d in (1, 2, 3, 4):
        for ratio in (1e3, 1e6, 1e9):
            rng = np.random.default_rng(int(100 * d + math.log10(ratio)))
            cases += [_anisotropic_pair(rng, d, ratio) for _ in range(3)]
    for mix in cases:
        G = lambda th: _ridgeline_log_residual(_ridgeline_halves(mix), th)[0]
        value, slope = _ridgeline_log_residual(_ridgeline_halves(mix), theta)
        diff = (G(theta + h) - G(theta - h)) / (2 * h)
        diff_2h = (G(theta + 2 * h) - G(theta - 2 * h)) / (4 * h)
        err = np.abs(diff - diff_2h) + 1e-15 * (1.0 + np.abs(value) + np.abs(theta)) / h
        assert np.all(np.abs(slope - diff) <= 10 * err + 1e-9 * np.abs(slope))


def test_newton_roots_on_known_roots():
    # f has roots at 1/3 and 0.9 in grid cells of spacing 1/3999, one
    # bracket with f falling, the other rising; an exact zero at the first
    # iterate ends its bracket at once; and Newton steps from the flat
    # tails of arctan leave their bracket and bisect.
    roots = np.array([1.0 / 3.0, 0.9])
    w = 1.0 / 3999
    calls = []

    def f(x):
        calls.append(x.size)
        low = x < 0.7
        y = np.where(low, -np.tan(3.0 * (x - roots[0])), np.expm1(40.0 * (x - roots[1])))
        return y, np.where(low, -3.0 / np.cos(3.0 * (x - roots[0])) ** 2, 40.0 * np.exp(40.0 * (x - roots[1])))

    a0 = np.array([roots[0] - 0.3 * w, roots[1] - 0.9 * w])
    x = _newton_roots(f, np.array([a0[0] + w, a0[1]]), np.array([a0[0], a0[1] + w]), 4e-12)
    assert np.all(np.abs(x - roots) <= 1e-12) and np.all((a0 < x) & (x < a0 + w))
    assert len(calls) <= math.ceil(math.log2(w / 1e-12)) + 1

    x = _newton_roots(lambda x: (x - 0.5, np.ones_like(x)), np.array([0.25]), np.array([0.75]), 4e-12)
    assert x[0] == 0.5

    steps = []

    def arctan(x):
        steps.append(x.copy())
        return np.arctan(50.0 * (x - 0.1)), 50.0 / (1.0 + (50.0 * (x - 0.1)) ** 2)

    x = _newton_roots(arctan, np.array([-2.0]), np.array([3.0]), 4e-12)
    assert abs(x[0] - 0.1) <= 1e-12
    assert steps[1][0] == 0.5 * (-2.0 + steps[0][0])  # the first Newton step left [-2, 0.5]: bisected


def test_oracle_newton_contract(monkeypatch):
    """Every root the oracle refines lies inside its sign-change cell; there
    G changes sign within 4e-12 of it in theta or is exactly 0; and one call
    evaluates G at most bisection's count of times plus one."""
    seen = []

    def spy(f, neg, pos, tol):
        calls = []

        def counted(x):
            calls.append(x.size)
            return f(x)

        roots = _newton_roots(counted, neg, pos, tol)
        seen.append((neg, pos, roots, len(calls)))
        return roots

    monkeypatch.setattr(modefinder, "_newton_roots", spy)
    rng = np.random.default_rng(10)
    mixes = [cross_example().mixture] + [random_two_component(rng, int(rng.integers(1, 4))) for _ in range(10)]
    cells = 0
    for mix in mixes:
        ridgeline_oracle_k2(mix, samples=4000)
        neg, pos, roots, calls = seen.pop()
        cells += roots.size
        assert np.all((roots - neg) * (roots - pos) <= 0.0)
        # neg is the lower end where neg - pos is negative or -0: the zero-width
        # t = 1/2 cell runs from theta = -0 on the first half to +0 on the second.
        low = np.signbit(neg - pos)
        lo, hi = np.where(low, neg, pos), np.where(low, pos, neg)
        G = lambda th: _ridgeline_log_residual(_ridgeline_halves(mix), th, slope=False)
        below, at, above = G(np.maximum(roots - 4e-12, lo)), G(roots), G(np.minimum(roots + 4e-12, hi))
        assert np.all((at == 0.0) | (below * above < 0.0))
        if roots.size:
            assert calls <= math.ceil(math.log2(np.max(hi - lo) / 4e-12)) + 1
    assert cells >= len(mixes)


def test_ridgeline_membership():
    mix = cross_example().mixture
    rep = run_multistart(mix, budget=60)
    diam = np.linalg.norm(np.ptp(mix._means, axis=0)) + 6.0
    for cp in rep.critical_points:
        assert verify_ridgeline_membership(mix, cp) <= 1e-8 * diam
    # a non-critical point has a visible residual
    from gmmodes.modefinder import CriticalPoint

    fake = CriticalPoint(
        location=0.5 * (mix._means[0] + mix._means[1]),
        log_density=0.0,
        gradient_norm=1.0,
        hessian_eigenvalues=np.array([0.0, 0.0]),
        kind="degenerate",
    )
    assert verify_ridgeline_membership(mix, fake) > 1e-3


def test_ridgeline_membership_single_gaussian():
    mix = make_mixture([1.0], [[0.5, -0.5]], [np.eye(2)])
    rep = run_multistart(mix, budget=10)
    assert verify_ridgeline_membership(mix, rep.modes[0]) <= 1e-12


# ----------------------------------------------------------------------
# Structural properties (small-scale versions; full runs in acceptance)
# ----------------------------------------------------------------------

def test_univariate_mode_ceiling_small():
    rng = np.random.default_rng(20)
    for _ in range(40):
        k = int(rng.integers(1, 7))
        weights = rng.dirichlet(np.ones(k))
        means = rng.uniform(-5, 5, size=(k, 1))
        covs = [[[float(rng.uniform(0.1, 2.0)) ** 2]] for _ in range(k)]
        mix = make_mixture(weights, means, covs)
        rep = run_multistart(mix, budget=80, seed=21)
        assert rep.mode_count <= k


def test_affine_invariance_small():
    rng = np.random.default_rng(22)
    scen = cross_example()
    starts = default_starts(scen, budget=80, seed=1)
    base = find_critical_points(scen.mixture, starts, search_box=scen.search_box)
    for _ in range(5):
        A = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        b = rng.normal(size=2)
        moved = affine_transform(scen.mixture, A, b)
        rep = find_critical_points(moved, starts @ A.T + b)
        assert rep.mode_count == base.mode_count


def test_homoscedastic_hull_small():
    rng = np.random.default_rng(23)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 6))
        A = rng.normal(size=(d, d))
        cov = A @ A.T + 0.3 * np.eye(d)
        means = rng.normal(scale=1.5, size=(k, d))
        mix = make_mixture(rng.dirichlet(np.ones(k)), means, [cov] * k)
        rep = run_multistart(mix, budget=80, seed=24)
        for cp in rep.critical_points:
            assert _hull_distance(means, cp.location) <= 1e-6


def _hull_distance(points, x):
    """Exact distance to the convex hull by face enumeration (small k)."""
    import itertools

    k = len(points)
    best = np.inf
    for r in range(1, k + 1):
        for subset in itertools.combinations(range(k), r):
            M = np.asarray(points)[list(subset)]
            # minimize ||M^T w - x|| subject to sum w = 1 via KKT system
            G = M @ M.T
            n = len(subset)
            KKT = np.block([[G, np.ones((n, 1))], [np.ones((1, n)), np.zeros((1, 1))]])
            rhs = np.concatenate([M @ x, [1.0]])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue
            w = sol[:n]
            if np.all(w >= -1e-9):
                best = min(best, np.linalg.norm(M.T @ w - x))
    return best
