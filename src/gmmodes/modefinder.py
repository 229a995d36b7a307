"""Locate, refine, classify and deduplicate critical points of a mixture.

The ascent is two-phase. Phase one iterates the fixed-point map

    x' = [sum_i r_i(x) P_i]^{-1} [sum_i r_i(x) P_i mu_i]

where r_i are the responsibilities and P_i the component precisions;
this is the mean-shift step and its fixed points are exactly the
critical points of the density. Phase two polishes with damped Newton
on the gradient, which also yields the Hessian used for classification.
Both phases run batched over all active starts, phase two through the
(m, d) derivative kernel :func:`gmmodes.mixture.derivatives`; a single
start (:func:`ascend`) is a batch of one.

All convergence tests are scale-free (||grad f|| / f) because density
magnitudes across the constructions here differ by hundreds of orders
of magnitude.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bounds
from .errors import DimensionMismatch, IllConditioned, InvalidParameter, NonFinite, TooFewSamples
from .mixture import Mixture, _whitening_factor, derivatives, mixture_to_dict

__all__ = [
    "AscentOptions",
    "CriticalPoint",
    "ModeReport",
    "fixed_point_step",
    "ascend",
    "default_starts",
    "find_critical_points",
    "ridgeline_point",
    "ridgeline_oracle_k2",
    "verify_ridgeline_membership",
]

_CONDITION_LIMIT = 1e14
# Damped fixed-point steps may not decrease log-density by more than this.
_MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class AscentOptions:
    """Tolerances and iteration caps for the two-phase ascent.

    ``dedup_radius`` of None means 1e-5 times the search-box diameter,
    resolved per run from the bounding box of the starts.
    ``degenerate_eigen_tolerance`` is relative to the largest absolute
    Hessian eigenvalue at the point being classified.
    """

    max_fixed_point_iters: int = 500
    max_newton_iters: int = 50
    gradient_tolerance: float = 1e-10
    step_tolerance: float = 1e-12
    dedup_radius: float | None = None
    degenerate_eigen_tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_fixed_point_iters < 1 or self.max_newton_iters < 1:
            raise ValueError("iteration caps must be >= 1")
        for name in ("gradient_tolerance", "step_tolerance", "degenerate_eigen_tolerance"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.dedup_radius is not None and self.dedup_radius <= 0.0:
            raise ValueError("dedup_radius must be > 0")


@dataclass(frozen=True)
class CriticalPoint:
    """A refined critical point with its Hessian-based classification.

    ``gradient_norm`` is the scale-free norm ||grad f|| / f. ``kind`` is
    one of ``mode``, ``antimode``, ``saddle`` (with ``saddle_index``
    negative eigenvalues) or ``degenerate``. A degenerate point that a
    deterministic neighborhood probe certifies as a strict local maximum
    is reported as a mode with ``degenerate_hessian`` set.
    """

    location: np.ndarray
    log_density: float
    gradient_norm: float
    hessian_eigenvalues: np.ndarray
    kind: str
    saddle_index: int | None = None
    converged_from: int = 1
    converged: bool = True
    degenerate_hessian: bool = False

    @property
    def kind_label(self) -> str:
        if self.kind == "saddle":
            return f"saddle({self.saddle_index})"
        return self.kind


@dataclass(frozen=True)
class BoundCheck:
    lower: int
    conjecture: int
    upper: int
    mode_count_within_upper: bool


@dataclass(frozen=True)
class ModeReport:
    """Deduplicated critical points of one mixture plus bound comparison."""

    mixture_digest: str
    critical_points: tuple[CriticalPoint, ...]
    mode_count: int
    starts_used: int
    starts_converged: int
    bound_check: BoundCheck
    dedup_radius: float = 0.0

    @property
    def modes(self) -> tuple[CriticalPoint, ...]:
        return tuple(c for c in self.critical_points if c.kind == "mode")

    def count(self, kind: str) -> int:
        return sum(1 for c in self.critical_points if c.kind == kind)

    def to_dict(self) -> dict:
        return {
            "mixture_digest": self.mixture_digest,
            "mode_count": self.mode_count,
            "starts_used": self.starts_used,
            "starts_converged": self.starts_converged,
            "dedup_radius": self.dedup_radius,
            "bound_check": {
                "lower": self.bound_check.lower,
                "conjecture": self.bound_check.conjecture,
                "upper": self.bound_check.upper,
                "mode_count_within_upper": self.bound_check.mode_count_within_upper,
            },
            "critical_points": [
                {
                    "location": cp.location.tolist(),
                    "log_density": cp.log_density,
                    "gradient_norm": cp.gradient_norm,
                    "hessian_eigenvalues": cp.hessian_eigenvalues.tolist(),
                    "kind": cp.kind_label,
                    "converged_from": cp.converged_from,
                    "degenerate_hessian": cp.degenerate_hessian,
                }
                for cp in self.critical_points
            ],
        }

    def to_csv(self) -> str:
        d = len(self.critical_points[0].location) if self.critical_points else 0
        out = io.StringIO()
        cols = [f"x_{i + 1}" for i in range(d)]
        out.write(",".join(cols + ["log_density", "kind", "min_eigenvalue", "converged_from"]) + "\n")
        for cp in self.critical_points:
            row = [repr(float(v)) for v in cp.location]
            row += [
                repr(cp.log_density),
                cp.kind_label,
                repr(float(cp.hessian_eigenvalues[0])),
                str(cp.converged_from),
            ]
            out.write(",".join(row) + "\n")
        return out.getvalue()


def mixture_digest(mix: Mixture) -> str:
    payload = json.dumps(mixture_to_dict(mix), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


# ----------------------------------------------------------------------
# Fixed-point (mean shift) iteration
# ----------------------------------------------------------------------

def fixed_point_step(mix: Mixture, x) -> np.ndarray:
    """One mean-shift step from x; fixed points are critical points."""
    x = np.asarray(x, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise NonFinite(f"start contains non-finite entries: {x}")
    return _fixed_point_batch(mix, mix.responsibilities(x[None, :]))[0]


def _fixed_point_batch(mix: Mixture, resp: np.ndarray) -> np.ndarray:
    """Vectorized mean-shift step for points with responsibilities resp (k, m)."""
    precs = mix._precisions
    P = np.einsum("km,kst->mst", resp, precs)
    pmu = np.einsum("kst,kt->ks", precs, mix._means)              # (k, d)
    rhs = np.einsum("km,ks->ms", resp, pmu)
    return np.linalg.solve(P, rhs[..., None])[..., 0]


def _mean_shift(mix: Mixture, X: np.ndarray, opts: AscentOptions) -> np.ndarray:
    """Phase one: damped fixed-point ascent of every row of X at once.

    A row stops once ||grad f / f|| falls below 1e3 * gradient_tolerance or
    its step below step_tolerance; a step that lowers log-density by more
    than the monotone slack is halved toward its origin (at most 60 times).
    """
    coarse_tol = 1e3 * opts.gradient_tolerance
    X = X.copy()
    # Log-density and responsibilities of every row, kept current so each
    # point's log_terms are computed once.
    logf, resp = mix._log_density_resp(X)
    active = np.ones(X.shape[0], dtype=bool)
    for _ in range(opts.max_fixed_point_iters):
        if not np.any(active):
            break
        idx = np.flatnonzero(active)
        g = mix._grad_from_resp(X[idx], resp[:, idx])
        done = np.linalg.norm(g, axis=1) < coarse_tol
        active[idx[done]] = False
        idx = idx[~done]
        if idx.size == 0:
            continue
        X_new = _fixed_point_batch(mix, resp[:, idx])
        logf_new, resp_new = mix._log_density_resp(X_new)
        for _ in range(60):
            bad = logf_new < logf[idx] - _MONOTONE_SLACK
            if not np.any(bad):
                break
            X_new[bad] = 0.5 * (X_new[bad] + X[idx[bad]])
            logf_new[bad], resp_new[:, bad] = mix._log_density_resp(X_new[bad])
        steps = np.linalg.norm(X_new - X[idx], axis=1)
        X[idx], logf[idx], resp[:, idx] = X_new, logf_new, resp_new
        active[idx[steps < opts.step_tolerance]] = False
    return X


# ----------------------------------------------------------------------
# Newton refinement and classification
# ----------------------------------------------------------------------

class _Polished(NamedTuple):
    """Phase-two endpoints of m starts, row-aligned."""

    x: np.ndarray             # (m, d)
    log_density: np.ndarray   # (m,)
    grad: np.ndarray          # (m, d) grad f / f
    hess: np.ndarray          # (m, d, d) Hess f / f
    converged: np.ndarray     # (m,) bool

    def critical_point(self, i: int, mix: Mixture, opts, scale: float, converged_from: int = 1):
        """Classify row i into a CriticalPoint."""
        kind, sidx, eigs, degen = _classify(mix, self.x[i], self.hess[i], opts, scale)
        return CriticalPoint(
            location=self.x[i].copy(),
            log_density=float(self.log_density[i]),
            gradient_norm=float(np.linalg.norm(self.grad[i])),
            hessian_eigenvalues=eigs,
            kind=kind,
            saddle_index=sidx,
            converged_from=converged_from,
            converged=bool(self.converged[i]),
            degenerate_hessian=degen,
        )


def _newton_polish(mix: Mixture, X: np.ndarray, opts: AscentOptions, step_cap: float) -> _Polished:
    """Damped Newton on grad f for every row of X at once.

    Each row follows its own rules: the Hessian's tiny eigenvalues are
    floored keeping their sign, a step is capped at ``step_cap`` and halved
    toward its origin (at most 30 times) while it more than doubles
    ||grad f / f||, a row stops once it moves less than ``step_tolerance``
    or after ``max_newton_iters`` steps, and it has converged when
    ||grad f / f|| is within ``gradient_tolerance``.
    """
    X = np.array(X, dtype=float)
    der = derivatives(mix, X)
    logf, G, H = der.log_density, der.grad_over_density, der.hessian_over_density
    active = np.ones(X.shape[0], dtype=bool)
    for _ in range(opts.max_newton_iters):
        # Polish past the gradient test down to step_tolerance so that in
        # flat (near-degenerate) regions every start lands on the same
        # point instead of scattering across the plateau.
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        g = G[idx]
        # Regularize only the linear solve: clamp tiny eigenvalues away
        # from zero, keeping their sign so saddles are still repelled.
        w, V = np.linalg.eigh(H[idx])
        floor = np.maximum(1e-12 * np.max(np.abs(w), axis=1), 1e-300)[:, None]
        w = np.where(np.abs(w) < floor, np.where(w >= 0, floor, -floor), w)
        step = -np.einsum("mij,mj->mi", V, np.einsum("mji,mj->mi", V, g) / w)
        norm = np.linalg.norm(step, axis=1)
        long = norm > step_cap
        step[long] *= (step_cap / norm[long])[:, None]
        x = X[idx]
        x_new = x + step
        new = derivatives(mix, x_new)
        logf_new, g_new, H_new = new.log_density, new.grad_over_density, new.hessian_over_density
        # Back off if Newton overshoots into a lower-gradient-free region.
        g_norm = np.linalg.norm(g, axis=1)
        for _ in range(30):
            bad = np.linalg.norm(g_new, axis=1) > 2.0 * g_norm
            if not np.any(bad):
                break
            x_new[bad] = 0.5 * (x_new[bad] + x[bad])
            sub = derivatives(mix, x_new[bad])
            logf_new[bad] = sub.log_density
            g_new[bad] = sub.grad_over_density
            H_new[bad] = sub.hessian_over_density
        moved = np.linalg.norm(x_new - x, axis=1)
        X[idx], logf[idx], G[idx], H[idx] = x_new, logf_new, g_new, H_new
        active[idx[moved < opts.step_tolerance]] = False
    return _Polished(X, logf, G, H, np.linalg.norm(G, axis=1) <= opts.gradient_tolerance)


def _ascend_batch(mix: Mixture, X: np.ndarray, opts: AscentOptions, scale: float) -> _Polished:
    """Both phases for every row of X; ``scale`` caps Newton steps at scale / 2."""
    return _newton_polish(mix, _mean_shift(mix, X, opts), opts, step_cap=0.5 * max(scale, 1e-300))


_PROBE_FRACTIONS = (1e-4, 1e-3, 1e-2)


def _probe_extremum(mix: Mixture, x: np.ndarray, directions: np.ndarray, scale: float):
    """Deterministic neighborhood probe for degenerate Hessians.

    Returns "mode" / "antimode" when the center beats (or loses to) every
    probe sample by a margin above float noise, else "degenerate".
    """
    center = mix.log_density(x[None, :])[0]
    for frac in _PROBE_FRACTIONS:
        r = frac * scale
        samples = mix.log_density(x[None, :] + r * directions)
        hi, lo = np.max(samples), np.min(samples)
        margin = 64.0 * np.finfo(float).eps * max(abs(center), 1.0)
        if center - hi > margin:
            return "mode"
        if lo - center > margin:
            return "antimode"
        if hi - center > margin and center - lo > margin:
            return "degenerate"
    return "degenerate"


def _classify(mix: Mixture, x: np.ndarray, hess: np.ndarray, opts: AscentOptions, scale: float):
    """Classify a converged critical point from its Hessian spectrum (Hess f / f)."""
    eigs = np.sort(np.linalg.eigvalsh(hess))
    tol = opts.degenerate_eigen_tolerance * np.max(np.abs(eigs)) if eigs.size else 0.0
    d = eigs.size
    degenerate = bool(np.any(np.abs(eigs) <= tol))
    if not degenerate:
        neg = int(np.sum(eigs < -tol))
        if neg == d:
            return "mode", None, eigs, False
        if neg == 0:
            return "antimode", None, eigs, False
        return "saddle", neg, eigs, False
    # Degenerate spectrum: resolve strict local extrema by direct probing
    # along coordinate axes and Hessian eigenvectors.
    _, V = np.linalg.eigh(hess)
    dirs = np.concatenate([np.eye(d), -np.eye(d), V.T, -V.T], axis=0)
    kind = _probe_extremum(mix, x, dirs, scale)
    return kind, None, eigs, True


def ascend(mix: Mixture, x0, opts: AscentOptions | None = None, scale: float | None = None) -> CriticalPoint:
    """Run the two-phase ascent from one start and classify the endpoint.

    ``scale`` is the search-box diameter used for Newton step capping and
    degenerate probing; it defaults to a spread estimate from the means.
    This is :func:`find_critical_points`' per-start path, as a batch of one.
    """
    opts = opts or AscentOptions()
    x = np.asarray(x0, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise NonFinite(f"start contains non-finite entries: {x}")
    if scale is None:
        scale = _default_scale(mix)
    return _ascend_batch(mix, x[None, :], opts, scale).critical_point(0, mix, opts, scale)


def _default_scale(mix: Mixture) -> float:
    spread = np.ptp(mix._means, axis=0) if mix.k > 1 else np.zeros(mix.dim)
    sigma = np.sqrt(max(np.max(np.linalg.eigvalsh(c.cov)) for c in mix.components))
    return float(np.linalg.norm(spread) + 6.0 * sigma)


# ----------------------------------------------------------------------
# Start generation
# ----------------------------------------------------------------------

def _first_primes(d: int) -> list[int]:
    primes, c = [], 2
    while len(primes) < d:
        if all(c % p for p in primes):
            primes.append(c)
        c += 1
    return primes


def _halton(n: int, d: int, seed: int) -> np.ndarray:
    """n points of Owen's randomized Halton sequence in [0, 1)^d.

    Bit-identical to ``scipy.stats.qmc.Halton(d, scramble=True, seed=seed)
    .random(n)`` (A. B. Owen, "A randomized Halton algorithm in R", 2017):
    base j is the j-th prime, and each of its ceil(54 / log2(base)) - 1
    digit positions gets its own random permutation of the digits, drawn
    row by row from ``default_rng(seed)``. A point's scrambled digits are
    summed low to high as perm[digit] * base^-(position + 1), the same
    order and the same rounding as scipy's loop; once every index's
    remaining digits are 0 the term is one constant.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((n, d))
    for col, base in enumerate(_first_primes(d)):
        count = math.ceil(54 / math.log2(base)) - 1
        # permuted shuffles each row in turn, drawing as rng.shuffle does.
        perms = rng.permuted(np.tile(np.arange(base), (count, 1)), axis=1)
        q, acc, inv = np.arange(n), np.zeros(n), 1.0 / base
        for perm in perms:
            if q[-1]:
                acc += perm[q % base] * inv
                q //= base
            else:
                acc += float(perm[0]) * inv
            inv /= base
        out[:, col] = acc
    return out


def default_starts(scenario, budget: int, seed: int = 0) -> np.ndarray:
    """Deterministic multistart seeds for a scenario.

    The union of component means, arrangement vertices (when present) and
    pairwise mean midpoints, then filled to ``budget`` with an
    Owen-scrambled Halton sequence over the scenario's search box, the
    same points as ``scipy.stats.qmc.Halton(scramble=True, seed=seed)``.
    ``InvalidParameter`` if the budget is below the component count, the
    seed is negative, or the search box is not finite with lo < hi in
    every coordinate.
    """
    mix = scenario.mixture
    if budget < mix.k:
        raise InvalidParameter(f"budget {budget} is below the component count {mix.k}")
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    lo, hi = (np.asarray(a, dtype=float) for a in scenario.search_box)
    if lo.shape != (mix.dim,) or hi.shape != (mix.dim,):
        raise DimensionMismatch(f"search box shapes {lo.shape}, {hi.shape} do not match dim {mix.dim}")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo < hi)):
        raise InvalidParameter(f"search box needs finite lo < hi in every coordinate, got {lo}, {hi}")
    pts = [c.mean for c in mix.components]
    arr = getattr(scenario, "arrangement", None)
    if arr is not None:
        pts.extend(v for v in arr.vertices)
    means = mix._means
    for i in range(mix.k):
        for j in range(i + 1, mix.k):
            pts.append(0.5 * (means[i] + means[j]))
    remaining = budget - len(pts)
    if remaining > 0:
        pts.extend(lo + _halton(remaining, mix.dim, seed) * (hi - lo))
    return np.array(pts)


# ----------------------------------------------------------------------
# Multistart driver
# ----------------------------------------------------------------------

def _dedup(points: np.ndarray, order_key, radius):
    """Greedy clustering of the rows of points, taken in order_key order:
    each joins the earliest cluster whose first member lies within radius,
    else starts a new one. Returns list of index lists, built one cluster
    at a time (the first unassigned point heads the next cluster)."""
    order = np.asarray(order_key, dtype=int)
    pts = points[order]
    unassigned = np.ones(order.size, dtype=bool)
    clusters = []
    while np.any(unassigned):
        head = int(np.argmax(unassigned))
        members = unassigned & (np.linalg.norm(pts - pts[head], axis=1) <= radius)
        clusters.append(order[members].tolist())
        unassigned &= ~members
    return clusters


def _distinct_critical_points(mix: Mixture, pol: _Polished, opts, scale: float, radius: float):
    """Dedup the converged rows of pol and classify each cluster's row of
    smallest ||grad f / f||."""
    # Deterministic dedup order: lexicographic by location.
    conv_idx = sorted(np.flatnonzero(pol.converged), key=lambda i: tuple(pol.x[i]))
    grad_norms = np.linalg.norm(pol.grad, axis=1)
    return [
        pol.critical_point(min(cl, key=lambda i: grad_norms[i]), mix, opts, scale, converged_from=len(cl))
        for cl in _dedup(pol.x, conv_idx, radius)
    ]


def find_critical_points(
    mix: Mixture,
    starts,
    opts: AscentOptions | None = None,
    search_box=None,
) -> ModeReport:
    """Multistart search: ascend from every start, dedup and classify.

    Both phases run vectorized over all active starts; the outcome is
    identical to running :func:`ascend` sequentially because every start
    follows the same damped iteration (``ascend`` is this path as a batch
    of one), and deduplication is performed on a deterministic
    lexicographic ordering of the converged points.
    """
    opts = opts or AscentOptions()
    X = np.atleast_2d(np.asarray(starts, dtype=float))
    m = X.shape[0]
    if m < 1:
        raise ValueError("at least one start is required")
    if not np.all(np.isfinite(X)):
        raise NonFinite("starts contain non-finite entries")

    if search_box is not None:
        lo, hi = (np.asarray(a, dtype=float) for a in search_box)
    else:
        lo, hi = X.min(axis=0), X.max(axis=0)
    diam = float(np.linalg.norm(hi - lo))
    scale = diam if diam > 0 else _default_scale(mix)
    radius = opts.dedup_radius if opts.dedup_radius is not None else 1e-5 * scale

    pol = _ascend_batch(mix, X, opts, scale)
    critical_points = _distinct_critical_points(mix, pol, opts, scale, radius)

    mode_count = sum(1 for c in critical_points if c.kind == "mode")
    up = bounds.upper(mix.dim, mix.k)
    check = BoundCheck(
        lower=bounds.lower(mix.dim, mix.k),
        conjecture=bounds.conjecture(mix.dim, mix.k),
        upper=up,
        mode_count_within_upper=mode_count <= up,
    )
    return ModeReport(
        mixture_digest=mixture_digest(mix),
        critical_points=tuple(critical_points),
        mode_count=mode_count,
        starts_used=m,
        starts_converged=int(np.sum(pol.converged)),
        bound_check=check,
        dedup_radius=radius,
    )


# ----------------------------------------------------------------------
# Ridgeline curve (exhaustive oracle for k = 2)
# ----------------------------------------------------------------------

def ridgeline_point(means, covariances, alpha) -> np.ndarray:
    """Point of the ridgeline map for simplex weights alpha:

        x*(alpha) = [sum_i alpha_i P_i]^{-1} [sum_i alpha_i P_i mu_i]
    """
    alpha = np.asarray(alpha, dtype=float).ravel()
    means = np.array([np.asarray(mu, dtype=float).ravel() for mu in means])
    W = np.stack([_whitening_factor(cov, i) for i, cov in enumerate(covariances)])
    if means.shape != W.shape[:2] or alpha.shape != W.shape[:1]:
        raise DimensionMismatch("means, covariances and alpha do not match")
    return _ridgeline_solve(np.swapaxes(W, 1, 2) @ W, means, alpha)


def _ridgeline_solve(precisions: np.ndarray, means: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    P = np.einsum("k,kst->st", alpha, precisions)
    rhs = np.einsum("k,kst,kt->s", alpha, precisions, means)
    eigs = np.linalg.eigvalsh(P)
    if eigs[0] <= 0.0 or eigs[-1] / eigs[0] > _CONDITION_LIMIT:
        raise IllConditioned("combined ridgeline precision is ill-conditioned")
    return np.linalg.solve(P, rhs)


def _ridgeline_curve_k2(mix: Mixture, t: np.ndarray):
    """x*(t) and dx*/dt for alpha = (t, 1 - t), vectorized over t."""
    P1, P2 = mix._precisions
    m1 = P1 @ mix._means[0]
    m2 = P2 @ mix._means[1]
    P = t[:, None, None] * P1 + (1.0 - t)[:, None, None] * P2
    rhs = t[:, None] * m1 + (1.0 - t)[:, None] * m2
    x = np.linalg.solve(P, rhs[..., None])[..., 0]
    dP_x = np.einsum("st,mt->ms", P1 - P2, x)
    dx = np.linalg.solve(P, ((m1 - m2)[None, :] - dP_x)[..., None])[..., 0]
    return x, dx


def _ridgeline_derivative(mix: Mixture, t: np.ndarray) -> np.ndarray:
    """Scale-free derivative of f along the ridgeline: (grad f / f) . dx*/dt."""
    x, dx = _ridgeline_curve_k2(mix, np.atleast_1d(t))
    g = mix.grad_over_density(x)
    return np.einsum("md,md->m", g, dx)


def ridgeline_oracle_k2(mix: Mixture, samples: int = 4000, opts: AscentOptions | None = None):
    """Exhaustively enumerate the critical points of a 2-component mixture.

    Every critical point lies on the ridgeline curve x*(t), t in [0, 1],
    and is a zero of d f(x*(t)) / dt. The derivative is evaluated in
    closed form on a uniform grid, each sign change is bisected to an
    interval below 1e-12, and the resulting points are polished with
    Newton on grad f and deduplicated.

    The two component means (the curve endpoints) are always polished as
    well: a critical point whose minority responsibility underflows the
    grid spacing, or even the floating-point gap around t = 0 or 1, has
    no representable sign change in t but sits inside Newton's basin
    around the corresponding mean.
    """
    if mix.k != 2:
        raise ValueError(f"ridgeline oracle requires exactly 2 components, got {mix.k}")
    if samples < 1000:
        raise TooFewSamples(f"need at least 1000 samples, got {samples}")
    opts = opts or AscentOptions()

    t_grid = np.linspace(0.0, 1.0, samples)
    h = _ridgeline_derivative(mix, t_grid)
    sign = np.sign(h)
    flips = np.flatnonzero((sign[:-1] * sign[1:]) < 0)
    # Bisect every bracket at once, one derivative call per halving.
    a, b, ha = t_grid[flips], t_grid[flips + 1], h[flips]
    open_ = np.flatnonzero(b - a > 1e-12)
    while open_.size:
        mid = 0.5 * (a[open_] + b[open_])
        hm = _ridgeline_derivative(mix, mid)
        zero = hm == 0.0
        left = ~zero & ((ha[open_] < 0) != (hm < 0))
        right = ~zero & ~left
        a[open_[zero]] = b[open_[zero]] = mid[zero]
        b[open_[left]] = mid[left]
        a[open_[right]], ha[open_[right]] = mid[right], hm[right]
        open_ = open_[b[open_] - a[open_] > 1e-12]
    roots = np.sort(np.concatenate([t_grid[h == 0.0], 0.5 * (a + b)]))

    scale = _default_scale(mix)
    seeds = np.concatenate([_ridgeline_curve_k2(mix, roots)[0], mix._means])
    pol = _newton_polish(mix, seeds, opts, step_cap=0.5 * scale)
    radius = opts.dedup_radius if opts.dedup_radius is not None else 1e-5 * scale
    return _distinct_critical_points(mix, pol, opts, scale, radius)


def verify_ridgeline_membership(mix: Mixture, cp: CriticalPoint) -> float:
    """Distance from cp to its own ridgeline image x*(responsibilities(cp)).

    Zero (up to refinement tolerance) exactly when cp is a critical
    point, since critical points are fixed points of the responsibility-
    weighted ridgeline map.
    """
    x = np.asarray(cp.location, dtype=float)
    alpha = mix.responsibilities(x[None, :])[:, 0]
    return float(np.linalg.norm(_ridgeline_solve(mix._precisions, mix._means, alpha) - x))
