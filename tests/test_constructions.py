"""Scenario generators, arrangements and the delta-cubed construction."""

import json
from math import comb, sqrt

import numpy as np
import pytest

from gmmodes.constructions import (
    _default_means,
    arrangement_mixture,
    cross_example,
    duistermaat_triangle,
    generic_arrangement,
    product_mixture,
    scenario_catalog,
    scenario_from_metadata,
    scenario_metadata,
    select_delta,
    seven_mode_probe,
    unimodality_certificates,
    univariate_pair,
)
from gmmodes.errors import (
    InvalidDelta,
    InvalidParameter,
    MeanOnForeignHyperplane,
    TooManyComponents,
)
from gmmodes.mixture import evaluate, is_homoscedastic, is_isotropic, make_mixture
from gmmodes.modefinder import default_starts


# ----------------------------------------------------------------------
# Univariate pairs and unimodality conditions
# ----------------------------------------------------------------------

def test_univariate_pair_expected_counts():
    assert univariate_pair(0, 1, 1.9, 1, 0.5).expected_modes == 1
    assert univariate_pair(0, 1, 2.1, 1, 0.5).expected_modes == 2
    assert univariate_pair(0, 1, 0, 1, 0.3).expected_modes == 1


def test_univariate_pair_validation():
    with pytest.raises(InvalidParameter):
        univariate_pair(0, -1, 1, 1, 0.5)
    with pytest.raises(InvalidParameter):
        univariate_pair(0, 1, 1, 1, 1.0)


def test_certificates_boundary():
    c = unimodality_certificates(0, 1, 2.0, 1, 0.5)
    assert c.equal_sigma_iff is True  # boundary case is still unimodal


def test_certificates_behboodian():
    c = unimodality_certificates(0, 1, 2.0, 3, 0.5)
    assert c.behboodian_sufficient is True
    assert c.equal_sigma_iff is None


def test_certificates_log_condition():
    # threshold 2*sqrt(1 + ln(9)/2) ~ 2.8975
    c = unimodality_certificates(0, 1, 2.89, 1, 0.9)
    assert c.equal_sigma_log_sufficient is True
    c2 = unimodality_certificates(0, 1, 2.90, 1, 0.9)
    assert c2.equal_sigma_log_sufficient is False


# ----------------------------------------------------------------------
# Named bivariate examples
# ----------------------------------------------------------------------

def test_cross_example_parameters():
    s = cross_example()
    assert s.expected_modes == 3
    assert s.expectation_provenance == "paper"
    mix = s.mixture
    assert np.allclose(mix.means, [[1, 0], [0, 1]])
    assert np.allclose(mix.components[0].cov, np.diag([1.0, 0.1]))
    assert np.allclose(mix.components[1].cov, np.diag([0.1, 1.0]))
    assert not is_homoscedastic(mix)


def test_duistermaat_parameters():
    s = duistermaat_triangle(0.72)
    assert s.expected_modes == 4
    mix = s.mixture
    assert is_homoscedastic(mix) and is_isotropic(mix)
    assert np.allclose(mix.means[0], [1, 0])
    assert np.allclose(mix.means[1], [-0.5, sqrt(3) / 2])
    assert np.allclose(mix.components[0].cov, 0.72**2 * np.eye(2))
    assert duistermaat_triangle(0.1).expected_modes is None
    with pytest.raises(InvalidParameter):
        duistermaat_triangle(0.0)


# ----------------------------------------------------------------------
# Arrangements
# ----------------------------------------------------------------------

def test_arrangement_vertex_counts():
    assert generic_arrangement(2, 3, seed=1).vertices.shape == (3, 2)
    assert generic_arrangement(3, 3, seed=1).vertices.shape == (1, 3)
    arr = generic_arrangement(2, 4, seed=7)
    assert arr.vertices.shape == (6, 2)
    assert arr.genericity_margin >= 0.05


def test_arrangement_geometry_invariants():
    for (d, k, seed) in [(2, 3, 1), (2, 4, 7), (3, 4, 2), (1, 3, 5)]:
        arr = generic_arrangement(d, k, seed=seed)
        assert np.allclose(np.linalg.norm(arr.normals, axis=1), 1.0, atol=1e-12)
        assert np.max(np.abs(arr.vertices)) <= 1.0 + 1e-12
        for v, subset in zip(arr.vertices, arr.vertex_subsets):
            res = arr.normals[list(subset)] @ v - arr.offsets[list(subset)]
            assert np.max(np.abs(res)) <= 1e-10
            others = [j for j in range(k) if j not in subset]
            if others:
                gaps = np.abs(arr.normals[others] @ v - arr.offsets[others])
                assert np.min(gaps) >= arr.genericity_margin - 1e-12


def test_arrangement_seed_determinism():
    a = generic_arrangement(2, 4, seed=7)
    b = generic_arrangement(2, 4, seed=7)
    assert np.array_equal(a.normals, b.normals)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.vertices, b.vertices)


def test_arrangement_invalid_dims():
    with pytest.raises(InvalidParameter):
        generic_arrangement(3, 2, seed=1)


def test_arrangement_mixture_peak_value():
    # component peak at its mean: (2 pi)^(-d/2) * delta^(-3/2)
    delta = 0.1
    for (d, k) in [(2, 3), (1, 1)]:
        arr = generic_arrangement(d, k, seed=2)
        mix = arrangement_mixture(arr, delta)
        for i, c in enumerate(mix.components):
            single = make_mixture([1.0], [c.mean], [c.cov])
            peak = evaluate(single, c.mean).density
            expect = (2 * np.pi) ** (-d / 2) * delta ** (-1.5)
            assert peak == pytest.approx(expect, rel=1e-12)


def test_arrangement_mixture_d1_variance():
    arr = generic_arrangement(1, 1, seed=3)
    mix = arrangement_mixture(arr, 0.2)
    assert mix.components[0].cov[0, 0] == pytest.approx(0.2**3, rel=1e-12)


def test_arrangement_component_profile():
    # standard along the hyperplane, variance delta^3 across it
    delta = 0.05
    arr = generic_arrangement(2, 3, seed=1)
    mix = arrangement_mixture(arr, delta)
    for i, c in enumerate(mix.components):
        n = arr.normals[i]
        t = np.array([-n[1], n[0]])
        single = make_mixture([1.0], [c.mean], [c.cov])
        peak = evaluate(single, c.mean).density
        for s in (0.3, 1.1):
            tang = evaluate(single, c.mean + s * t).density
            assert tang == pytest.approx(peak * np.exp(-0.5 * s**2), rel=1e-9)
        for s in (0.2 * delta**1.5, delta**1.5):
            norm = evaluate(single, c.mean + s * n).density
            assert norm == pytest.approx(peak * np.exp(-0.5 * s**2 / delta**3), rel=1e-9)


def test_arrangement_mean_validation():
    arr = generic_arrangement(2, 3, seed=1)
    with pytest.raises(InvalidDelta):
        arrangement_mixture(arr, 1.5)
    # mean not on its own hyperplane
    bad = _default_means(arr)
    bad[0] = bad[0] + 0.3 * arr.normals[0]
    with pytest.raises(MeanOnForeignHyperplane):
        arrangement_mixture(arr, 0.1, means=bad)
    # mean sitting on a foreign hyperplane (vertex of H_0 and H_1)
    bad2 = _default_means(arr)
    v = arr.vertices[[i for i, s in enumerate(arr.vertex_subsets) if 0 in s][0]]
    bad2[0] = v
    with pytest.raises(MeanOnForeignHyperplane):
        arrangement_mixture(arr, 0.1, means=bad2)


def test_default_means_clear_other_hyperplanes():
    for (d, k, seed) in [(2, 2, 1), (2, 4, 7), (3, 3, 2)]:
        arr = generic_arrangement(d, k, seed=seed)
        means = _default_means(arr)
        for i, mu in enumerate(means):
            eta = arr.signed_distances(mu)
            assert abs(eta[i]) <= 1e-9
            others = np.abs(np.delete(eta, i))
            assert np.min(others) >= arr.genericity_margin


def test_select_delta_small_cases():
    res = select_delta(generic_arrangement(2, 3, seed=1), start_budget=300, seed=0)
    assert res["report"].mode_count == 6 == res["target"]
    res = select_delta(generic_arrangement(1, 2, seed=1), start_budget=100, seed=0)
    assert res["target"] == 2
    assert res["report"].mode_count == 2


# ----------------------------------------------------------------------
# Products
# ----------------------------------------------------------------------

def test_product_single_factor_identity():
    mix = cross_example().mixture
    out = product_mixture([mix])
    assert out.dim == mix.dim and out.k == mix.k
    for a, b in zip(out.components, mix.components):
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.cov, b.cov)


def test_product_of_triangles_structure():
    tri = duistermaat_triangle(0.72).mixture
    prod = product_mixture([tri, tri])
    assert prod.dim == 4 and prod.k == 9
    assert np.allclose([c.weight for c in prod.components], 1 / 9)


def test_product_density_factorizes():
    rng = np.random.default_rng(11)
    f1 = cross_example().mixture
    f2 = duistermaat_triangle(0.5).mixture
    prod = product_mixture([f1, f2])
    for _ in range(100):
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=2)
        lhs = evaluate(prod, np.concatenate([x, y])).density
        rhs = evaluate(f1, x).density * evaluate(f2, y).density
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_product_component_cap():
    big = make_mixture(
        np.full(101, 1 / 101), [[float(i)] for i in range(101)], [[[1.0]]] * 101
    )
    with pytest.raises(TooManyComponents):
        product_mixture([big, big])


# ----------------------------------------------------------------------
# Seven-mode probe and catalog
# ----------------------------------------------------------------------

def test_seven_mode_probe_geometry():
    s = seven_mode_probe(0.5, 0.01)
    mix = s.mixture
    assert mix.k == 3 and mix.dim == 2
    # means are the side midpoints of the unit-circumradius triangle
    norms = np.linalg.norm(mix.means, axis=1)
    assert np.allclose(norms, 0.5, atol=1e-12)
    for c in mix.components:
        w = np.linalg.eigvalsh(c.cov)
        assert w[0] == pytest.approx(0.01, rel=1e-9)
        assert w[1] == pytest.approx(0.5, rel=1e-9)
    with pytest.raises(InvalidParameter):
        seven_mode_probe(0.0, 1.0)


def test_catalog_contents():
    cat = scenario_catalog()
    by_name = {s.name: s for s in cat}
    assert by_name["cross"].expected_modes == 3
    assert by_name["duistermaat(sigma=0.72)"].expected_modes == 4
    assert by_name["arrangement(d=2,k=4)"].expected_modes == comb(4, 2) + 4 == 10
    assert by_name["arrangement(d=1,k=2)"].expected_modes == 2
    assert by_name["triangle_product(n=2,sigma=0.72)"].expected_modes == 16
    # deterministic: same call gives identical parameters
    cat2 = scenario_catalog()
    for a, b in zip(cat, cat2):
        assert a.name == b.name
        assert np.array_equal(a.mixture._means, b.mixture._means)


def test_search_box_contains_means_with_margin():
    for s in scenario_catalog():
        lo, hi = s.search_box
        for c in s.mixture.components:
            r = 3.0 * np.sqrt(np.max(np.linalg.eigvalsh(c.cov)))
            assert np.all(c.mean - r >= lo - 1e-9)
            assert np.all(c.mean + r <= hi + 1e-9)


def test_scenario_metadata_schema():
    meta = scenario_metadata(cross_example())
    assert set(meta) == {"name", "expected_modes", "provenance", "search_box", "notes"}
    assert set(meta["search_box"]) == {"lo", "hi"}


@pytest.mark.parametrize("scenario", scenario_catalog(), ids=lambda scen: scen.name)
def test_scenario_metadata_round_trip(scenario):
    # Written as a sidecar file is, then read back: every field, and an
    # arrangement whose vertices seed the file's default starts, so that
    # `gmmodes modes` on a constructed file starts where `verify` does.
    meta = json.loads(json.dumps(scenario_metadata(scenario)))
    assert ("vertices" in meta) == (scenario.arrangement is not None)
    back = scenario_from_metadata(scenario.mixture, meta)
    for field in ("name", "mixture", "expected_modes", "expectation_provenance", "notes"):
        assert getattr(back, field) == getattr(scenario, field)
    for end, end_back in zip(scenario.search_box, back.search_box):
        assert np.array_equal(end, end_back)
    assert (back.arrangement is None) == (scenario.arrangement is None)
    if back.arrangement is not None:
        for field in ("dim", "vertex_subsets", "genericity_margin"):
            assert getattr(back.arrangement, field) == getattr(scenario.arrangement, field)
        for field in ("normals", "offsets", "vertices"):
            assert np.array_equal(getattr(back.arrangement, field), getattr(scenario.arrangement, field))
    assert np.array_equal(default_starts(back, 500, seed=1), default_starts(scenario, 500, seed=1))


def test_scenario_from_missing_metadata_is_a_plain_file():
    scen = cross_example()
    for meta in (None, {"name": "cross"}):
        back = scenario_from_metadata(scen.mixture, meta)
        assert (back.name, back.expected_modes, back.expectation_provenance) == ("file", None, "none")
        for end, end_back in zip(scen.search_box, back.search_box):
            assert np.array_equal(end, end_back)
