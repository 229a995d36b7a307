"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as the criteria complete.
"""

import itertools
import time

import numpy as np
import pytest

from gmmodes import bounds
from gmmodes.constructions import (
    cross_example,
    duistermaat_triangle,
    generic_arrangement,
    product_of_triangles,
    scenario_catalog,
    select_delta,
    seven_mode_probe,
    univariate_pair,
)
from gmmodes.mixture import affine_transform, evaluate, make_mixture
from gmmodes.modefinder import (
    default_starts,
    find_critical_points,
    ridgeline_oracle_k2,
    verify_ridgeline_membership,
)

MEASURED_COUNTS = []  # (d, k, mode_count) pairs accumulated for criterion 11


def verdict(num, name, ok):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def run_scenario(scen, budget, seed=1):
    starts = default_starts(scen, budget=budget, seed=seed)
    report = find_critical_points(scen.mixture, starts, search_box=scen.search_box)
    MEASURED_COUNTS.append((scen.mixture.dim, scen.mixture.k, report.mode_count))
    return report


def run_mixture(mix, budget, seed=0, pad=3.0):
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(max(np.max(np.linalg.eigvalsh(c.cov)) for c in mix.components))
    lo = mix._means.min(axis=0) - pad * sigma
    hi = mix._means.max(axis=0) + pad * sigma
    starts = [c.mean for c in mix.components]
    for i in range(mix.k):
        for j in range(i + 1, mix.k):
            starts.append(0.5 * (mix._means[i] + mix._means[j]))
    fill = rng.uniform(lo, hi, size=(max(0, budget - len(starts)), mix.dim))
    report = find_critical_points(mix, np.vstack([starts, fill]), search_box=(lo, hi))
    MEASURED_COUNTS.append((mix.dim, mix.k, report.mode_count))
    return report


def test_criterion_01_cross_three_modes():
    t0 = time.perf_counter()
    scen = cross_example()
    report = run_scenario(scen, budget=150)
    elapsed = time.perf_counter() - t0
    locs = [m.location for m in report.modes]
    ok = (
        report.mode_count == 3
        and min(np.linalg.norm(x - [1, 0]) for x in locs) < 0.2
        and min(np.linalg.norm(x - [0, 1]) for x in locs) < 0.2
        and min(np.linalg.norm(x) for x in locs) < 0.2
        and elapsed <= 1.0
    )
    verdict(1, "cross mixture has exactly 3 modes", ok)


def test_criterion_02_duistermaat_sigma_sweep():
    rep = run_scenario(duistermaat_triangle(0.72), budget=200)
    origin_gap = min(np.linalg.norm(m.location) for m in rep.modes)
    ok = rep.mode_count == 4 and origin_gap <= 1e-6
    ok = ok and run_scenario(duistermaat_triangle(0.1), budget=200).mode_count == 3
    ok = ok and run_scenario(duistermaat_triangle(5.0), budget=200).mode_count == 1
    verdict(2, "triangle mode counts at sigma 0.72 / 0.1 / 5", ok)


def test_criterion_03_univariate_boundary():
    counts = {}
    for gap in (1.9, 2.0, 2.1):
        scen = univariate_pair(0.0, 1.0, gap, 1.0, 0.5)
        counts[gap] = run_scenario(scen, budget=60).mode_count
    ok = counts == {1.9: 1, 2.0: 1, 2.1: 2}
    verdict(3, "equal-sigma pairs split exactly past separation 2", ok)


def test_criterion_04_univariate_ceiling():
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(300):
        k = int(rng.integers(1, 7))
        weights = rng.dirichlet(np.ones(k))
        means = rng.uniform(-6, 6, size=(k, 1))
        covs = [[[float(rng.uniform(0.2, 2.0)) ** 2]] for _ in range(k)]
        mix = make_mixture(weights, means, covs)
        rep = run_mixture(mix, budget=60, seed=7)
        ok = ok and rep.mode_count <= k
    verdict(4, "300 univariate mixtures never exceed k modes", ok)


def test_criterion_05_arrangement_counts():
    cases = {(2, 2): 3, (2, 3): 6, (2, 4): 10, (3, 3): 4}
    seeds = {(2, 2): 1, (2, 3): 1, (2, 4): 1, (3, 3): 2}
    ok = True
    for (d, k), expected in cases.items():
        arr = generic_arrangement(d, k, seed=seeds[(d, k)])
        budget = 2000 if (d, k) == (2, 4) else 500
        res = select_delta(arr, start_budget=budget, seed=0)
        MEASURED_COUNTS.append((d, k, res["report"].mode_count))
        ok = ok and res["report"].mode_count == expected == res["target"]
    verdict(5, "arrangement mixtures hit C(k,d)+k modes", ok)


def test_criterion_06_triangle_product():
    scen = product_of_triangles(2, 0.72)
    rep = run_scenario(scen, budget=1200)
    factor = run_scenario(duistermaat_triangle(0.72), budget=200)
    ok = rep.mode_count == 16 and factor.mode_count == 4
    if ok:
        expected = [
            np.concatenate([a.location, b.location])
            for a, b in itertools.product(factor.modes, factor.modes)
        ]
        for m in rep.modes:
            gap = min(np.linalg.norm(m.location - e) for e in expected)
            ok = ok and gap <= rep.dedup_radius
    verdict(6, "product of two triangles has the 16 product modes", ok)


def test_criterion_07_no_seven_modes():
    grid = np.exp(np.linspace(np.log(0.01), np.log(2.0), 20))
    worst = 0
    for st in grid:
        for sn in grid:
            scen = seven_mode_probe(st, sn)
            rep = run_scenario(scen, budget=120)
            worst = max(worst, rep.mode_count)
            if rep.mode_count >= 7:
                break
    verdict(7, f"three-component sweep tops out at {worst} modes", worst < 7)


def test_criterion_08_oracle_equivalence():
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(200):
        d = int(rng.integers(1, 4))
        covs = []
        for _ in range(2):
            A = rng.normal(size=(d, d))
            covs.append(A @ A.T + 0.3 * np.eye(d))
        alpha = float(rng.uniform(0.15, 0.85))
        mix = make_mixture([alpha, 1 - alpha], rng.normal(scale=1.5, size=(2, d)), covs)
        rep = run_mixture(mix, budget=200, seed=3)
        oracle_modes = [p for p in ridgeline_oracle_k2(mix, samples=4000) if p.kind == "mode"]
        ok = ok and rep.mode_count == len(oracle_modes)
        for m in rep.modes:
            gap = min(np.linalg.norm(m.location - p.location) for p in oracle_modes)
            ok = ok and gap <= rep.dedup_radius
    verdict(8, "multistart agrees with the k=2 ridgeline oracle", ok)


def fd_gradient(mix, x, h=1e-5):
    g = np.zeros(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
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


def test_criterion_09_calculus_checks():
    rng = np.random.default_rng(23)
    ok = True
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        covs = []
        for _ in range(k):
            A = rng.normal(size=(d, d))
            covs.append(A @ A.T + 0.3 * np.eye(d))
        mix = make_mixture(rng.dirichlet(np.ones(k)), rng.uniform(-3, 3, size=(k, d)), covs)
        x = rng.uniform(-3, 3, size=d)
        res = evaluate(mix, x)
        g_fd = fd_gradient(mix, x)
        scale = max(np.linalg.norm(g_fd), res.density)
        ok = ok and np.linalg.norm(res.gradient - g_fd) <= 1e-5 * scale
        H_fd = fd_hessian(mix, x)
        h_scale = max(np.linalg.norm(H_fd), res.density)
        ok = ok and np.linalg.norm(res.hessian - H_fd) <= 1e-4 * h_scale
    verdict(9, "gradient and Hessian match finite differences", ok)


def test_criterion_10_structural_invariants():
    rng = np.random.default_rng(31)
    ok = True

    # affine invariance of mode counts: 20 maps across 5 scenarios
    scenarios = [
        cross_example(),
        duistermaat_triangle(0.72),
        univariate_pair(0.0, 1.0, 2.1, 1.0, 0.5),
        seven_mode_probe(0.5, 0.01),
        univariate_pair(0.0, 1.0, 1.9, 1.0, 0.5),
    ]
    for i, scen in enumerate(scenarios):
        d = scen.mixture.dim
        starts = default_starts(scen, budget=150, seed=1)
        base = find_critical_points(scen.mixture, starts, search_box=scen.search_box)
        for _ in range(4):
            A = rng.normal(size=(d, d)) + 2.5 * np.eye(d)
            b = rng.normal(size=d)
            moved = affine_transform(scen.mixture, A, b)
            rep = find_critical_points(moved, starts @ A.T + b[None, :])
            ok = ok and rep.mode_count == base.mode_count

    # homoscedastic critical points sit in the convex hull of the means
    for _ in range(100):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 6))
        A = rng.normal(size=(d, d))
        cov = A @ A.T + 0.3 * np.eye(d)
        means = rng.normal(scale=1.5, size=(k, d))
        mix = make_mixture(rng.dirichlet(np.ones(k)), means, [cov] * k)
        rep = run_mixture(mix, budget=80, seed=5)
        for cp in rep.critical_points:
            ok = ok and hull_distance(means, cp.location) <= 1e-6

    # ridgeline membership residual at every converged critical point
    for scen in scenario_catalog():
        report = run_scenario(scen, budget=250 * scen.mixture.k)
        lo, hi = scen.search_box
        diam = float(np.linalg.norm(hi - lo))
        for cp in report.critical_points:
            if cp.converged:
                ok = ok and verify_ridgeline_membership(scen.mixture, cp) <= 1e-8 * diam

    verdict(10, "affine invariance, hull membership, ridgeline residuals", ok)


@pytest.mark.parametrize("c", [1e2, 1e3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_product_modes_survive_ill_conditioned_maps(c, seed):
    # Criterion 10's maps are well conditioned. Here the product of triangles
    # and its default starts go through M = Q diag(1, c^(1/3), c^(2/3), c)
    # with a random rotation Q, a covariance condition of about c^2. An
    # affine map carries critical points to critical points, so all 16 modes
    # stay and every start converges. From c = 1e4 on, the degenerate test,
    # relative to the largest Hessian eigenvalue, flips single modes.
    scen = product_of_triangles(2, 0.72)
    starts = default_starts(scen, budget=2250, seed=0)
    Q = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))[0]
    M = Q @ np.diag(c ** (np.arange(4) / 3))
    rep = find_critical_points(affine_transform(scen.mixture, M, np.zeros(4)), starts @ M.T)
    assert (rep.mode_count, rep.starts_converged) == (16, 2250)


def hull_distance(points, x):
    k = len(points)
    best = np.inf
    for r in range(1, k + 1):
        for subset in itertools.combinations(range(k), r):
            M = np.asarray(points)[list(subset)]
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


def test_criterion_11_bound_identities():
    ok = all(bounds.lower(2, k) == bounds.conjecture(2, k) for k in range(1, 65))
    ok = ok and all(bounds.conjecture(d, 2) == d + 1 for d in range(1, 65))
    ok = ok and all(
        bounds.fewnomial([2] * d, k) == bounds.upper(d, k)
        for d in range(1, 21)
        for k in range(1, 21)
    )
    ok = ok and len(MEASURED_COUNTS) > 500
    ok = ok and all(count <= bounds.upper(d, k) for d, k, count in MEASURED_COUNTS)
    verdict(11, "bound identities and measured counts under the bound", ok)
