"""Named mixture configurations: two-component pairs, the bivariate cross,
the isotropic triangle with its central fourth mode, products of triangles,
the elongated three-component probe, and the hyperplane-arrangement family
whose small-delta limit plants a mode at every arrangement vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from math import comb, sqrt

import numpy as np

from .errors import (
    DeltaNotFound,
    DimensionMismatch,
    GenericityFailure,
    InvalidDelta,
    InvalidParameter,
    MeanOnForeignHyperplane,
    TooManyComponents,
)
from .mixture import Mixture, make_mixture

__all__ = [
    "HyperplaneArrangement",
    "Scenario",
    "UnimodalityCertificates",
    "univariate_pair",
    "unimodality_certificates",
    "cross_example",
    "duistermaat_triangle",
    "generic_arrangement",
    "arrangement_mixture",
    "select_delta",
    "product_mixture",
    "seven_mode_probe",
    "arrangement_scenario",
    "product_of_triangles",
    "scenario_catalog",
    "scenario_metadata",
    "scenario_from_metadata",
]

GENERICITY_MARGIN = 0.05
_MAX_ARRANGEMENT_DRAWS = 1000
_DELTA_SCHEDULE = [2.0 ** (-j) for j in range(1, 21)]
_COMPONENT_CAP = 10_000


@dataclass(frozen=True)
class HyperplaneArrangement:
    """k hyperplanes {x : n_i . x = b_i} in R^d with their d-wise vertices.

    ``vertex_subsets[j]`` is the d-tuple of hyperplane indices whose
    intersection is ``vertices[j]``. ``genericity_margin`` lower-bounds
    both the smallest singular value over all d-subsets of normals and
    the distance from each vertex to every non-defining hyperplane.
    """

    dim: int
    normals: np.ndarray       # (k, d), unit rows
    offsets: np.ndarray       # (k,)
    vertices: np.ndarray      # (C(k, d), d)
    vertex_subsets: tuple[tuple[int, ...], ...]
    genericity_margin: float

    @property
    def k(self) -> int:
        return self.normals.shape[0]

    def signed_distances(self, x: np.ndarray) -> np.ndarray:
        """eta_i(x) = n_i . x - b_i for every hyperplane."""
        return self.normals @ np.asarray(x, dtype=float) - self.offsets


@dataclass(frozen=True)
class Scenario:
    """A mixture plus the metadata a reproducible mode-count run needs."""

    name: str
    mixture: Mixture
    expected_modes: int | None
    expectation_provenance: str  # "paper" | "derived" | "none"
    search_box: tuple[np.ndarray, np.ndarray]
    notes: str = ""
    arrangement: HyperplaneArrangement | None = field(default=None, repr=False)


@dataclass(frozen=True)
class UnimodalityCertificates:
    """Classical sufficient/iff unimodality tests for a univariate pair."""

    behboodian_sufficient: bool
    equal_sigma_iff: bool | None
    equal_sigma_log_sufficient: bool | None


def _search_box(mix: Mixture, extra_points=None):
    """Axis-aligned box holding every mean with a 3-sigma margin."""
    lo = np.full(mix.dim, np.inf)
    hi = np.full(mix.dim, -np.inf)
    for c in mix.components:
        r = 3.0 * sqrt(float(np.max(np.linalg.eigvalsh(c.cov))))
        lo = np.minimum(lo, c.mean - r)
        hi = np.maximum(hi, c.mean + r)
    if extra_points is not None:
        for p in np.atleast_2d(extra_points):
            lo = np.minimum(lo, p - 0.5)
            hi = np.maximum(hi, p + 0.5)
    return lo, hi


# ----------------------------------------------------------------------
# Univariate pairs
# ----------------------------------------------------------------------

def univariate_pair(mu1, sigma1, mu2, sigma2, alpha) -> Scenario:
    """Mixture of two univariate Gaussians with weights (alpha, 1 - alpha).

    The expected mode count is recorded only where a classical condition
    settles it: the equal-sigma alpha = 1/2 case is an if-and-only-if
    threshold at |mu2 - mu1| = 2 sigma, the other conditions are
    sufficient for unimodality only.
    """
    cert = unimodality_certificates(mu1, sigma1, mu2, sigma2, alpha)
    mix = make_mixture(
        [alpha, 1.0 - alpha],
        [[mu1], [mu2]],
        [[[sigma1**2]], [[sigma2**2]]],
    )
    expected = None
    provenance = "none"
    if cert.equal_sigma_iff is not None:
        expected = 1 if cert.equal_sigma_iff else 2
        provenance = "paper"
    elif cert.behboodian_sufficient or cert.equal_sigma_log_sufficient:
        expected = 1
        provenance = "paper"
    if mu1 == mu2 and sigma1 == sigma2:
        expected, provenance = 1, "paper"
    return Scenario(
        name=f"univariate_pair(mu={mu1},{mu2};sigma={sigma1},{sigma2};alpha={alpha})",
        mixture=mix,
        expected_modes=expected,
        expectation_provenance=provenance,
        search_box=_search_box(mix),
        notes="two univariate components",
    )


def unimodality_certificates(mu1, sigma1, mu2, sigma2, alpha) -> UnimodalityCertificates:
    """Evaluate the classical unimodality conditions for a univariate pair.

    behboodian_sufficient: |mu2 - mu1| <= 2 min(sigma1, sigma2).
    equal_sigma_iff (sigma1 = sigma2, alpha = 1/2 only): threshold 2 sigma.
    equal_sigma_log_sufficient (sigma1 = sigma2 only):
        threshold 2 sigma sqrt(1 + |log alpha - log(1 - alpha)| / 2).
    """
    if sigma1 <= 0 or sigma2 <= 0:
        raise InvalidParameter("sigmas must be positive")
    if not 0.0 < alpha < 1.0:
        raise InvalidParameter(f"alpha must be in (0,1), got {alpha}")
    gap = abs(mu2 - mu1)
    behboodian = gap <= 2.0 * min(sigma1, sigma2)
    iff = None
    log_sufficient = None
    if sigma1 == sigma2:
        s = sigma1
        log_sufficient = gap <= 2.0 * s * sqrt(1.0 + abs(np.log(alpha) - np.log(1 - alpha)) / 2.0)
        if alpha == 0.5:
            iff = gap <= 2.0 * s
    return UnimodalityCertificates(behboodian, iff, log_sufficient)


# ----------------------------------------------------------------------
# Bivariate examples
# ----------------------------------------------------------------------

def cross_example() -> Scenario:
    """Two anisotropic bivariate components whose overlap creates a third
    mode near the origin on top of the two modes near the means."""
    mix = make_mixture(
        [0.5, 0.5],
        [[1.0, 0.0], [0.0, 1.0]],
        [np.diag([1.0, 0.1]), np.diag([0.1, 1.0])],
    )
    return Scenario(
        name="cross",
        mixture=mix,
        expected_modes=3,
        expectation_provenance="paper",
        search_box=_search_box(mix),
        notes="two elongated components crossing near the origin; 3 modes",
    )


_TRIANGLE = np.array(
    [
        [1.0, 0.0],
        [-0.5, sqrt(3.0) / 2.0],
        [-0.5, -sqrt(3.0) / 2.0],
    ]
)


def duistermaat_triangle(sigma: float) -> Scenario:
    """Isotropic equal-weight components on an equilateral triangle.

    ``sigma`` is the per-component standard deviation (covariance
    sigma^2 * I); the 4-mode window sits around sigma = 0.72, where a
    fourth mode appears at the origin alongside the three modes near the
    means. The count drops to 3 for tight sigma and to 1 for very
    diffuse sigma.
    """
    if sigma <= 0:
        raise InvalidParameter(f"sigma must be positive, got {sigma}")
    mix = make_mixture(
        [1.0 / 3.0] * 3,
        list(_TRIANGLE),
        [sigma**2 * np.eye(2)] * 3,
    )
    expected = 4 if sigma == 0.72 else None
    return Scenario(
        name=f"duistermaat(sigma={sigma})",
        mixture=mix,
        expected_modes=expected,
        expectation_provenance="paper" if expected is not None else "none",
        search_box=_search_box(mix),
        notes="equilateral triangle of isotropic components",
    )


# ----------------------------------------------------------------------
# Hyperplane arrangements
# ----------------------------------------------------------------------

def _arrangement_margin(normals, offsets, vertices, subsets):
    """Min over d-subset singular values and vertex/foreign-plane gaps."""
    d = normals.shape[1]
    margin = np.inf
    for subset in subsets:
        s = np.linalg.svd(normals[list(subset)], compute_uv=False)
        margin = min(margin, s[-1])
    for v, subset in zip(vertices, subsets):
        others = [j for j in range(normals.shape[0]) if j not in subset]
        if others:
            gaps = np.abs(normals[others] @ v - offsets[others])
            margin = min(margin, float(np.min(gaps)))
    return margin


def generic_arrangement(d: int, k: int, seed: int) -> HyperplaneArrangement:
    """Seeded generic arrangement of k hyperplanes in R^d.

    Normals are uniform on the sphere, offsets uniform in [-1, 1]; whole
    draws are rejected until the genericity margin reaches 0.05. The
    arrangement is rescaled so that every vertex lies in [-1, 1]^d.
    """
    if not 1 <= d <= k:
        raise InvalidParameter(f"need 1 <= d <= k, got d={d}, k={k}")
    rng = np.random.default_rng(seed)
    subsets = tuple(itertools.combinations(range(k), d))
    best = 0.0
    for _ in range(_MAX_ARRANGEMENT_DRAWS):
        normals = rng.normal(size=(k, d))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        offsets = rng.uniform(-1.0, 1.0, size=k)
        try:
            vertices = np.array(
                [np.linalg.solve(normals[list(s)], offsets[list(s)]) for s in subsets]
            )
        except np.linalg.LinAlgError:
            continue
        scale = max(1.0, float(np.max(np.abs(vertices))))
        offsets = offsets / scale
        vertices = vertices / scale
        margin = _arrangement_margin(normals, offsets, vertices, subsets)
        best = max(best, margin)
        if margin >= GENERICITY_MARGIN:
            return HyperplaneArrangement(
                dim=d,
                normals=normals,
                offsets=offsets,
                vertices=vertices,
                vertex_subsets=subsets,
                genericity_margin=float(margin),
            )
    raise GenericityFailure(best, _MAX_ARRANGEMENT_DRAWS)


def _tangent_basis(n: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to unit normal n."""
    d = n.shape[0]
    q, _ = np.linalg.qr(np.column_stack([n, np.eye(d)]))
    return q[:, 1:d].T


def _default_means(arr: HyperplaneArrangement) -> np.ndarray:
    """Mean for each hyperplane: centroid of its vertices, nudged along the
    hyperplane until it clears every other hyperplane."""
    k, d = arr.k, arr.dim
    clearance = max(arr.genericity_margin, 0.2)
    means = np.empty((k, d))
    for i in range(k):
        mine = [j for j, s in enumerate(arr.vertex_subsets) if i in s]
        c = np.mean(arr.vertices[mine], axis=0)
        n = arr.normals[i]
        c = c - (n @ c - arr.offsets[i]) * n  # re-project onto H_i
        others = [j for j in range(k) if j != i]
        if not others or np.min(np.abs(arr.normals[others] @ c - arr.offsets[others])) >= clearance:
            means[i] = c
            continue
        tangents = _tangent_basis(n) if d > 1 else np.zeros((0, d))
        found = None
        for step in [m * clearance for m in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)]:
            for u in tangents:
                for s in (+1.0, -1.0):
                    cand = c + s * step * u
                    if np.min(np.abs(arr.normals[others] @ cand - arr.offsets[others])) >= clearance:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            raise MeanOnForeignHyperplane(
                f"could not place a mean on hyperplane {i} clear of the others"
            )
        means[i] = found
    return means


def arrangement_mixture(
    arr: HyperplaneArrangement, delta: float, means=None
) -> Mixture:
    """Equal-weight mixture with one component per hyperplane: unit
    variance along the hyperplane, variance delta^3 across it, so the
    covariance is I + (delta^3 - 1) n n^T.
    """
    if not 0.0 < delta < 1.0:
        raise InvalidDelta(f"delta must be in (0, 1), got {delta}")
    if means is None:
        means = _default_means(arr)
    else:
        means = np.atleast_2d(np.asarray(means, dtype=float))
        if means.shape != (arr.k, arr.dim):
            raise InvalidParameter(f"means must have shape ({arr.k}, {arr.dim})")
        for i, mu in enumerate(means):
            eta = arr.signed_distances(mu)
            if abs(eta[i]) > 1e-9:
                raise MeanOnForeignHyperplane(f"mean {i} does not lie on hyperplane {i}")
            others = np.abs(np.delete(eta, i))
            if others.size and np.min(others) < arr.genericity_margin:
                raise MeanOnForeignHyperplane(
                    f"mean {i} is within the genericity margin of another hyperplane"
                )
    d3 = delta**3
    eye = np.eye(arr.dim)
    covs = [eye + (d3 - 1.0) * np.outer(n, n) for n in arr.normals]
    return make_mixture(np.full(arr.k, 1.0 / arr.k), list(means), covs)


def _cube_certificate(arr, mix, delta, vertex_index) -> bool:
    """Check that the mixture value at a vertex beats a deterministic grid
    sample of the boundary of the cube {|eta_i| <= delta, i in subset}."""
    subset = list(arr.vertex_subsets[vertex_index])
    p = arr.vertices[vertex_index]
    d = len(subset)
    N_inv = np.linalg.inv(arr.normals[subset])
    axes = [np.linspace(-delta, delta, 9)] * (d - 1)
    boundary = []
    for pos, i in enumerate(subset):
        for sign in (+delta, -delta):
            if d == 1:
                etas = np.array([[sign]])
            else:
                grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d - 1)
                etas = np.insert(grid, pos, sign, axis=1)
            boundary.append(p[None, :] + etas @ N_inv.T)
    boundary = np.concatenate(boundary, axis=0)
    center = mix.log_density(p[None, :])[0]
    return bool(center > np.max(mix.log_density(boundary)))


def _arrangement_target(d: int, k: int) -> int:
    """The construction's mode count: C(k,d) vertex modes plus k mean
    modes, or k when d = 1, where vertex and mean modes coincide."""
    return comb(k, d) + k if d >= 2 else k


def select_delta(arr: HyperplaneArrangement, start_budget: int = 500, seed: int = 0):
    """Walk the halving schedule 1/2, 1/4, ..., 2^-20 and return the first
    delta whose arrangement mixture measurably reaches the target mode
    count (:func:`_arrangement_target`) and passes the cube certificate at
    every vertex.

    Returns a dict with keys ``delta``, ``report``, ``target``.
    """
    from .modefinder import default_starts, find_critical_points

    d, k = arr.dim, arr.k
    target = _arrangement_target(d, k)
    counts = {}
    for delta in _DELTA_SCHEDULE:
        scen = arrangement_scenario(arr, delta, name=f"arrangement(d={d},k={k})")
        mix = scen.mixture
        starts = default_starts(scen, budget=start_budget, seed=seed)
        report = find_critical_points(mix, starts, search_box=scen.search_box)
        counts[delta] = report.mode_count
        if report.mode_count >= target and all(
            _cube_certificate(arr, mix, delta, j) for j in range(len(arr.vertices))
        ):
            return {"delta": delta, "report": report, "target": target}
    raise DeltaNotFound(counts, target)


def arrangement_scenario(
    arr: HyperplaneArrangement, delta: float, name=None, expected=None, provenance="none"
) -> Scenario:
    mix = arrangement_mixture(arr, delta)
    return Scenario(
        name=name or f"arrangement(d={arr.dim},k={arr.k},delta={delta})",
        mixture=mix,
        expected_modes=expected,
        expectation_provenance=provenance,
        search_box=_search_box(mix, extra_points=arr.vertices),
        notes=f"hyperplane arrangement construction, delta={delta}",
        arrangement=arr,
    )


# ----------------------------------------------------------------------
# Products
# ----------------------------------------------------------------------

def product_mixture(factors) -> Mixture:
    """Independent product of mixtures: concatenated means, block-diagonal
    covariances, multiplied weights over the Cartesian component product."""
    factors = list(factors)
    if not factors:
        raise InvalidParameter("need at least one factor")
    total = 1
    for f in factors:
        total *= f.k
    if total > _COMPONENT_CAP:
        raise TooManyComponents(f"product would have {total} components (cap {_COMPONENT_CAP})")
    weights, means, covs = [], [], []
    for combo in itertools.product(*(f.components for f in factors)):
        w = 1.0
        for c in combo:
            w *= c.weight
        weights.append(w)
        means.append(np.concatenate([c.mean for c in combo]))
        blocks = [c.cov for c in combo]
        dim = sum(b.shape[0] for b in blocks)
        cov = np.zeros((dim, dim))
        off = 0
        for b in blocks:
            n = b.shape[0]
            cov[off : off + n, off : off + n] = b
            off += n
        covs.append(cov)
    return make_mixture(weights, means, covs)


def product_of_triangles(n: int = 2, sigma: float = 0.72) -> Scenario:
    """n-fold product of the sigma-triangle: 3^n components in R^(2n) with
    4^n modes at the products of the factor mode sets."""
    factor = duistermaat_triangle(sigma)
    mix = product_mixture([factor.mixture] * n)
    expected = 4**n if sigma == 0.72 else None
    return Scenario(
        name=f"triangle_product(n={n},sigma={sigma})",
        mixture=mix,
        expected_modes=expected,
        expectation_provenance="paper" if expected is not None else "none",
        search_box=_search_box(mix),
        notes=f"product of {n} triangles, {mix.k} components in d={mix.dim}",
    )


# ----------------------------------------------------------------------
# Seven-mode probe
# ----------------------------------------------------------------------

def seven_mode_probe(sigma_tangential: float, sigma_normal: float) -> Scenario:
    """Three components on the midpoints of an equilateral triangle's sides,
    each elongated along its side (variance sigma_tangential along the
    side, sigma_normal across it). The interesting question is whether a
    seventh mode at the center can coexist with the six side modes; it
    cannot, and no parameter choice measures 7.
    """
    if sigma_tangential <= 0 or sigma_normal <= 0:
        raise InvalidParameter("both variances must be positive")
    means, covs = [], []
    for a in range(3):
        b = (a + 1) % 3
        mid = 0.5 * (_TRIANGLE[a] + _TRIANGLE[b])
        t = _TRIANGLE[b] - _TRIANGLE[a]
        t = t / np.linalg.norm(t)
        n = np.array([-t[1], t[0]])
        means.append(mid)
        covs.append(sigma_tangential * np.outer(t, t) + sigma_normal * np.outer(n, n))
    mix = make_mixture([1.0 / 3.0] * 3, means, covs)
    return Scenario(
        name=f"seven_mode_probe(st={sigma_tangential},sn={sigma_normal})",
        mixture=mix,
        expected_modes=None,
        expectation_provenance="none",
        search_box=_search_box(mix, extra_points=_TRIANGLE),
        notes="side-midpoint components elongated along the triangle sides",
    )


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------

# The (d, k) of the catalog arrangements and their delta, small enough that
# the vertex modes are present (verified by the acceptance suite).
_CATALOG_ARRANGEMENTS = ((1, 2), (2, 2), (2, 3), (2, 4), (3, 3))
_CATALOG_DELTA = 0.03125
_CATALOG_ARRANGEMENT_SEED = 1


def scenario_catalog() -> list[Scenario]:
    """Deterministic list of every named configuration with its expected
    mode count where one is known."""
    scenarios = [
        univariate_pair(0.0, 1.0, 1.9, 1.0, 0.5),
        univariate_pair(0.0, 1.0, 2.1, 1.0, 0.5),
        cross_example(),
        duistermaat_triangle(0.72),
        seven_mode_probe(0.5, 0.01),
    ]
    for d, k in _CATALOG_ARRANGEMENTS:
        arr = generic_arrangement(d, k, seed=_CATALOG_ARRANGEMENT_SEED)
        if d == 1:
            provenance = "derived"
            note = "d=1: vertex and mean modes coincide, expected k not C(k,1)+k"
        else:
            provenance = "paper"
            note = f"expected C({k},{d})+{k} modes"
        scen = arrangement_scenario(
            arr,
            _CATALOG_DELTA,
            name=f"arrangement(d={d},k={k})",
            expected=_arrangement_target(d, k),
            provenance=provenance,
        )
        notes = f"{note}; delta={_CATALOG_DELTA}, seed={_CATALOG_ARRANGEMENT_SEED}"
        scenarios.append(replace(scen, notes=notes))
    scenarios.append(product_of_triangles(2, 0.72))
    return scenarios


def scenario_metadata(scen: Scenario) -> dict:
    """The sidecar object written as ``<base>.meta.json`` beside a
    scenario's mixture file; :func:`scenario_from_metadata` reads it back.
    An arrangement scenario also records its hyperplanes and vertices."""
    lo, hi = scen.search_box
    meta = {
        "name": scen.name,
        "expected_modes": scen.expected_modes,
        "provenance": scen.expectation_provenance,
        "search_box": {"lo": list(map(float, lo)), "hi": list(map(float, hi))},
        "notes": scen.notes,
    }
    arr = scen.arrangement
    if arr is not None:
        meta["vertices"] = arr.vertices.tolist()
        meta["normals"] = arr.normals.tolist()
        meta["offsets"] = arr.offsets.tolist()
        meta["genericity_margin"] = arr.genericity_margin
    return meta


def scenario_from_metadata(mix: Mixture, meta: dict | None) -> Scenario:
    """The scenario of a mixture read from a file, with its sidecar object
    ``meta`` (None when there is none).

    A sidecar without ``search_box`` counts as none: the scenario is then
    named ``file``, has no expected count and takes the default search box.
    A sidecar's arrangement is read back, so the file's default starts
    include its ``vertices``, which must be finite, of shape (n, d).
    """
    if meta is None or "search_box" not in meta:
        return Scenario("file", mix, None, "none", _search_box(mix))
    try:
        box = tuple(np.asarray(meta["search_box"][end], dtype=float) for end in ("lo", "hi"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"metadata search_box needs numeric lo and hi ({exc!r})") from exc
    if box[0].shape != (mix.dim,) or box[1].shape != (mix.dim,):
        raise DimensionMismatch(f"metadata search_box does not match dim {mix.dim}")
    arr = None
    if "vertices" in meta:
        try:
            normals, offsets, vertices = (np.asarray(meta[f], float) for f in ("normals", "offsets", "vertices"))
            margin = float(meta["genericity_margin"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameter(f"metadata arrangement fields must be numeric ({exc!r})") from exc
        if vertices.ndim != 2 or vertices.shape[1] != mix.dim or not np.isfinite(vertices).all():
            raise InvalidParameter(f"metadata vertices must be finite, shape (n, {mix.dim}), got {vertices.shape}")
        subsets = tuple(itertools.combinations(range(offsets.size), mix.dim))
        arr = HyperplaneArrangement(mix.dim, normals, offsets, vertices, subsets, margin)
    return Scenario(
        name=meta.get("name", "file"),
        mixture=mix,
        expected_modes=meta.get("expected_modes"),
        expectation_provenance=meta.get("provenance", "none"),
        search_box=box,
        notes=meta.get("notes", ""),
        arrangement=arr,
    )
