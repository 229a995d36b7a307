"""Locate, refine, classify and deduplicate critical points of a mixture.

Every start climbs, then polishes, in one batched loop over the (m, d)
derivative kernel :func:`gmmodes.mixture.derivatives`. Climbing takes the
Newton step where the Hessian is negative definite, else the mean-shift
step x' = x + A^{-1} grad f / f = A^{-1} sum_i r_i P_i mu_i with
A = sum_i r_i P_i (r_i the responsibilities, P_i the precisions), whose
fixed points are exactly the critical points. Near flat modes that step
crawls at a linear rate, so it is adaptively overrelaxed (Salakhutdinov &
Roweis, ICML 2003): each start moves by eta A^{-1} grad f / f, and eta
doubles after every mean-shift step accepted without halving, up to 64,
and drops back to 1 when an overrelaxed step lowers log f, which is then
retaken as the plain step. Polishing is damped Newton,
which also yields the Hessian used for classification. Symmetric
elimination of -Hess f / f, row by row with the pivots of its Cholesky
factorization, decides concavity and gives the Newton step; only saddles
and near-singular Hessians go through eigh, whose eigenvalue floor keeps
the step finite. The multistart driver, :func:`ascend` (a batch of one)
and the k = 2 ridgeline oracle all run through that loop.

The loop keeps its rows on the last axis, as the kernel computes them:
points and gradients are (d, m), Hessians (d, d, m), responsibilities
(k, m). With d <= 4 and up to thousands of starts, each elementwise step
of the elimination and of the step rules then runs over m contiguous
values instead of d. The (m, ...) arrays of the public API are transposed
views of these.

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
# Climbing steps may not decrease log-density by more than this.
_MONOTONE_SLACK = 1e-12
# Largest overrelaxation factor of a climbing mean-shift step.
_OVERRELAX_CAP = 64.0


# A start climbs at most this many steps, then polishes at most this many.
_MAX_CLIMBS = 500
_MAX_NEWTON_STEPS = 50
# A step shorter than this ends climbing, or polishing.
_STEP_TOLERANCE = 1e-12
# A Hessian eigenvalue is degenerate when its magnitude is at most this
# fraction of the largest at the point being classified.
_DEGENERATE_EIGEN_TOLERANCE = 1e-8


@dataclass(frozen=True)
class AscentOptions:
    """The settable tolerances of a run: a row has converged when
    ||grad f / f|| <= ``gradient_tolerance`` at its endpoint, and endpoints
    within ``dedup_radius`` are one point. ``dedup_radius`` of None means
    1e-5 times the search-box diameter, resolved per run from the bounding
    box of the starts.
    """

    gradient_tolerance: float = 1e-10
    dedup_radius: float | None = None

    def __post_init__(self):
        if not self.gradient_tolerance > 0.0:
            raise InvalidParameter("gradient_tolerance must be > 0")
        if self.dedup_radius is not None and not self.dedup_radius > 0.0:
            raise InvalidParameter("dedup_radius must be > 0")


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
# The ascent: climb, then polish, every start in one batched loop
# ----------------------------------------------------------------------

def _mean_shift_step(mix: Mixture, resp: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Mean-shift steps A^{-1} grad f / f, A = sum_i r_i P_i, for the rows of
    g = grad f / f (d, m) with responsibilities resp (k, m); shape (d, m)."""
    d, m = g.shape
    A = (mix._precisions.reshape(mix.k, d * d).T @ resp).reshape(d, d, m)
    return np.linalg.solve(A.transpose(2, 0, 1), g.T[..., None])[..., 0].T


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a rows-last (d, m) array, summed in
    coordinate order whatever the batch size (einsum is not, for m = 1)."""
    return np.sqrt((a * a).sum(axis=0))


def _as_starts(mix: Mixture, starts) -> np.ndarray:
    """Starts as a checked (m, dim) float array."""
    X = np.atleast_2d(np.asarray(starts, dtype=float))
    if X.size == 0:
        raise InvalidParameter("at least one start is required")
    if X.ndim != 2 or X.shape[1] != mix.dim:
        raise DimensionMismatch(f"starts have shape {X.shape}, expected (m, {mix.dim})")
    if not np.all(np.isfinite(X)):
        raise NonFinite("starts contain non-finite entries")
    return X


def fixed_point_step(mix: Mixture, x) -> np.ndarray:
    """One mean-shift step from x; fixed points are critical points."""
    X = _as_starts(mix, np.ravel(x)[None, :])
    _, resp, g, _ = derivatives(mix, X)
    return X[0] + _mean_shift_step(mix, resp, g.T)[:, 0]


class _Endpoints(NamedTuple):
    """Ascent endpoints of m starts, row-aligned (transposed views of the
    ascent's rows-last arrays)."""

    x: np.ndarray             # (m, d)
    log_density: np.ndarray   # (m,)
    grad: np.ndarray          # (m, d) grad f / f
    hess: np.ndarray          # (m, d, d) Hess f / f
    converged: np.ndarray     # (m,) bool

    def critical_point(self, i: int, mix: Mixture, scale: float, converged_from: int = 1):
        """Classify row i into a CriticalPoint."""
        kind, sidx, eigs, degen = _classify(mix, self.x[i], self.hess[i], scale)
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


def _state(mix: Mixture, x: np.ndarray):
    """[x, log f, responsibilities, grad f / f, Hess f / f] at the rows of
    x (d, m), rows last: shapes (d, m), (m,), (k, m), (d, m), (d, d, m)."""
    logf, resp, g, h = derivatives(mix, x.T)
    return [x, logf, resp, g.T, h.transpose(1, 2, 0)]


# A pivot in the elimination of -Hess f / f is clearly nonzero when its
# magnitude exceeds this fraction of the matrix's largest entry.
_PIVOT_TOLERANCE = 1e-9
# Definite rows whose condition number is bounded below this take the
# eliminated Newton step: the eigenvalue floor of the eigh path, 1e-12 of
# the largest, cannot act on them.
_SWEEP_CONDITION = 1e10


def _sweep_newton_rows(g: np.ndarray, h: np.ndarray):
    """Newton steps -H^{-1} g by symmetric elimination of A = -H, vectorized
    over the rows of g (d, m) and h = H (d, d, m), rows last.

    The pivots are those of the Cholesky factorization A = L L^T (the
    squares of diag L), taken without square roots. Sweeping them out of
    the bordered matrix [[A, g], [g^T, 0]] one at a time (the sweep
    operator) leaves -A^{-1} in its leading block and A^{-1} g, the Newton
    step, in its last column.

    Returns (step (d, m), definite, indefinite). A row is ``definite`` when
    every pivot exceeds _PIVOT_TOLERANCE times its largest absolute entry
    and trace(A) trace(A^{-1}), an upper bound on its condition number, is
    below _SWEEP_CONDITION; only definite rows get a nonzero step. A row is
    ``indefinite`` when a pivot falls below minus that margin while every
    earlier pivot passed. Rows that are neither sit in the near-singular
    band.
    """
    d, m = g.shape
    S = np.zeros((d + 1, d + 1, m))
    S[:d, :d] = -h
    S[:d, d] = S[d, :d] = g
    margin = _PIVOT_TOLERANCE * np.abs(h.reshape(d * d, m)).max(axis=0)
    low = -margin
    definite, indefinite = np.ones(m, dtype=bool), np.zeros(m, dtype=bool)
    for j in range(d):
        pivot = S[j, j]
        indefinite |= definite & (pivot < low)
        definite &= pivot > margin
        # 1 / pivot, and 0 once a pivot has failed, which keeps S finite.
        inv = definite / np.where(definite, pivot, 1.0)
        row = S[j] * inv
        S -= S[:, j, None] * row
        S[j] = S[:, j] = row
        S[j, j] = -inv
    condition = h.trace() * S[:d, :d].trace()
    definite &= condition < _SWEEP_CONDITION
    return S[:d, d] * definite, definite, indefinite


def _newton_step(g: np.ndarray, h: np.ndarray, step_cap: float, polish: np.ndarray):
    """Newton steps -H^{-1} g (d, m) capped at step_cap, and whether each H is
    negative definite, for the rows of g (d, m) and h = H (d, d, m).

    Symmetric elimination of -H (:func:`_sweep_newton_rows`) decides
    concavity. Rows it shows clearly negative definite take its step.
    Climbing rows (``polish`` False) it shows indefinite are not concave
    and get no step: they take the mean-shift step instead. Every other
    row, a polishing row that is not negative definite (a saddle) or a row
    in the near-singular band, goes through eigh, and only its solve is
    regularized: tiny eigenvalues are clamped away from zero keeping their
    sign, so saddles are still repelled."""
    step, concave, indefinite = _sweep_newton_rows(g, h)
    rest = ~concave & (polish | ~indefinite)
    if rest.any():
        w, V = np.linalg.eigh(h[..., rest].transpose(2, 0, 1))
        floor = np.maximum(1e-12 * np.abs(w).max(axis=1), 1e-300)[:, None]
        concave[rest] = w[:, -1] < 0.0
        w = np.where(np.abs(w) < floor, np.where(w >= 0, floor, -floor), w)
        step[:, rest] = -np.einsum("mij,mj->mi", V, np.einsum("mji,mj->mi", V, g[:, rest].T) / w).T
    norm = _row_norms(step)
    long = norm > step_cap
    if long.any():
        step[:, long] *= step_cap / norm[long]
    return step, concave


def _ascend_batch(
    mix: Mixture, X: np.ndarray, opts: AscentOptions, scale: float, polishing=None
) -> _Endpoints:
    """Ascend from every row of X at once: each row climbs, then polishes.

    Each iteration makes one :func:`derivatives` call over the active rows,
    plus one per repair round over the rows whose step was rejected. Every
    rule is per row, so an endpoint does not depend on the batch:

    - Climbing: the Newton step where Hess f / f is negative definite,
      else the mean-shift step x + eta A^{-1} grad f / f, A = sum_i r_i P_i,
      overrelaxed by the row's factor eta. A Newton step that lowers log f
      by more than the monotone slack falls back to the mean-shift step
      (fall-back rule). A mean-shift step with eta > 1 that does so resets
      eta to 1 and is retaken as the plain step (reset rule); a plain step
      that does so is halved toward its origin while log f drops by more
      than the slack, at most 60 times.
    - Overrelaxation: eta starts at 1 and doubles, up to _OVERRELAX_CAP,
      after each mean-shift step accepted without halving. It is per-row
      state, compacted with the rows.
    - Handover to polishing: ||grad f / f|| < 1e3 * gradient_tolerance, a
      step below _STEP_TOLERANCE, or _MAX_CLIMBS climbs. Rows
      marked in ``polishing`` start there.
    - Polishing: damped Newton, a step halved toward its origin (at most
      30 times) while it more than doubles ||grad f / f||, until a step
      below _STEP_TOLERANCE or _MAX_NEWTON_STEPS steps. It goes past the
      gradient test so that starts in flat regions land on one point
      rather than scattering across the plateau. A row already within
      gradient_tolerance whose step is rejected keeps its point and stops
      (settle rule): at the noise floor halving cannot help.
    - Newton steps come from symmetric elimination of -Hess f / f (the
      Cholesky pivots) on rows where Hess f / f is clearly negative
      definite and well conditioned. Climbing rows where it is clearly
      indefinite need none. Every other row (saddles while polishing,
      near-singular Hessians) goes through eigh, which floors tiny
      eigenvalues keeping their sign. Steps are capped at scale / 2
      (:func:`_newton_step`).

    A row has converged when ||grad f / f|| <= gradient_tolerance at its
    endpoint. The working set is compacted only when rows finish.

    The loop state keeps the row axis last, as the kernel works: points and
    gradients (d, m), Hessians (d, d, m), responsibilities (k, m). The
    elimination and the step rules then act on m contiguous values per
    entry, not on d <= 4.
    """
    tol, step_cap = opts.gradient_tolerance, 0.5 * max(scale, 1e-300)
    x0 = np.array(np.transpose(X), dtype=float, order="C")
    d, n = x0.shape
    out = [x0, np.empty(n), np.empty((d, n)), np.empty((d, d, n))]  # x, log f, grad, Hess
    rows = np.arange(n)
    polish = np.zeros(n, dtype=bool) if polishing is None else np.array(polishing, dtype=bool)
    steps = np.zeros(n, dtype=int)  # climbs while climbing, Newton steps while polishing
    stalled = np.zeros(n, dtype=bool)  # the last step was below _STEP_TOLERANCE
    eta = np.ones(n)  # overrelaxation of each row's mean-shift step
    cur = _state(mix, x0.copy())
    g_norm = _row_norms(cur[3])  # ||grad f / f|| at cur's rows, then carried from the repair check
    while rows.size:
        x, logf, resp, g, h = cur
        start = ~polish & ((g_norm < 1e3 * tol) | stalled | (steps >= _MAX_CLIMBS))
        polish[start], steps[start] = True, 0
        step, concave = _newton_step(g, h, step_cap, polish)
        newton = polish | concave
        shift = ~newton
        if shift.any():
            step[:, shift] = _mean_shift_step(mix, resp[:, shift], g[:, shift])
        x_new = x + np.where(newton, step, eta * step)
        new = _state(mix, x_new)
        halvings = np.zeros(rows.size, dtype=int)
        while True:
            new_norm = _row_norms(new[3])
            drop = ~polish & (new[1] < logf - _MONOTONE_SLACK)
            worse = polish & (new_norm > 2.0 * g_norm)
            if not (drop | worse).any():
                break
            # Newton rows fall back to the mean-shift step, overrelaxed ones
            # to the plain one; any other dropping row halves its step.
            retake = drop & (newton | (eta > 1.0))
            settle = worse & (g_norm <= tol)
            if settle.any():
                for a, b in zip(new, cur):
                    a[..., settle] = b[..., settle]
                new_norm[settle] = g_norm[settle]
            redo = retake | (drop & (halvings < 60)) | (worse & ~settle & (halvings < 30))
            if not redo.any():
                break
            # In place: x_new is new[0], which the settle rule resets.
            halve = redo & ~retake
            np.copyto(x_new, 0.5 * (x_new + x), where=halve)
            halvings += halve
            fall = retake & newton
            if fall.any():
                step[:, fall] = _mean_shift_step(mix, resp[:, fall], g[:, fall])
            eta[retake & ~newton] = 1.0
            x_new[:, retake] = x[:, retake] + eta[retake] * step[:, retake]
            newton[retake] = False
            for a, b in zip(new, _state(mix, x_new[:, redo])):
                a[..., redo] = b
        grow = ~newton & (halvings == 0)
        np.copyto(eta, np.minimum(2.0 * eta, _OVERRELAX_CAP), where=grow)
        stalled = _row_norms(x_new - x) < _STEP_TOLERANCE
        cur, g_norm = new, new_norm
        steps += 1
        done = polish & (stalled | (steps >= _MAX_NEWTON_STEPS))
        if done.any():
            # Integer indices: each boolean mask index would redo its nonzero.
            fin, keep = done.nonzero()[0], (~done).nonzero()[0]
            for a, b in zip(out, (cur[0], cur[1], cur[3], cur[4])):
                a[..., rows[fin]] = b.take(fin, axis=-1)
            rows, polish, steps, stalled, eta, g_norm = (a[keep] for a in (rows, polish, steps, stalled, eta, g_norm))
            cur = [a.take(keep, axis=-1) for a in cur]
    x, logf, grad, hess = out
    return _Endpoints(x.T, logf, grad.T, hess.transpose(2, 0, 1), _row_norms(grad) <= tol)


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


def _classify(mix: Mixture, x: np.ndarray, hess: np.ndarray, scale: float):
    """Classify a converged critical point from its Hessian spectrum (Hess f / f)."""
    eigs = np.sort(np.linalg.eigvalsh(hess))
    tol = _DEGENERATE_EIGEN_TOLERANCE * np.max(np.abs(eigs)) if eigs.size else 0.0
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
    """Run the ascent from one start and classify the endpoint.

    ``scale`` is the search-box diameter used for Newton step capping and
    degenerate probing; it defaults to a spread estimate from the means.
    This is :func:`find_critical_points`' per-start path, as a batch of one.
    """
    opts = opts or AscentOptions()
    X = _as_starts(mix, np.ravel(x0)[None, :])
    if scale is None:
        scale = _default_scale(mix)
    return _ascend_batch(mix, X, opts, scale).critical_point(0, mix, scale)


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
    arr, means = getattr(scenario, "arrangement", None), mix._means
    pts = [means, *([] if arr is None else [arr.vertices])]
    pts += [0.5 * (means[i] + means[i + 1 :]) for i in range(mix.k - 1)]  # pairs (i, j > i), in order
    remaining = budget - sum(len(p) for p in pts)
    if remaining > 0:
        pts.append(lo + _halton(remaining, mix.dim, seed) * (hi - lo))
    return np.concatenate(pts)


# ----------------------------------------------------------------------
# Multistart driver
# ----------------------------------------------------------------------

def _distinct_critical_points(mix: Mixture, pol: _Endpoints, scale: float, radius: float):
    """Cluster the converged rows of pol and classify each cluster's row of
    smallest ||grad f / f||.

    Clustering is greedy over the rows in lexicographic order of location,
    so it is deterministic: the first unassigned row heads the next
    cluster, which takes every unassigned row within radius of it."""
    order = np.flatnonzero(pol.converged)
    order = order[np.lexsort(pol.x[order].T[::-1])]
    pts = pol.x[order]
    grad_norms = _row_norms(pol.grad.T)
    unassigned = np.ones(order.size, dtype=bool)
    points = []
    while np.any(unassigned):
        head = int(np.argmax(unassigned))
        members = unassigned & (np.linalg.norm(pts - pts[head], axis=1) <= radius)
        cluster = order[members]
        best = cluster[np.argmin(grad_norms[cluster])]
        points.append(pol.critical_point(best, mix, scale, converged_from=cluster.size))
        unassigned &= ~members
    return points


def find_critical_points(
    mix: Mixture,
    starts,
    opts: AscentOptions | None = None,
    search_box=None,
) -> ModeReport:
    """Multistart search: ascend from every start, dedup and classify.

    The ascent runs vectorized over all active starts; the outcome is
    identical to running :func:`ascend` sequentially because every start
    follows its own rules in the same loop (``ascend`` is this path as a
    batch of one), and deduplication is performed on a deterministic
    lexicographic ordering of the converged points.
    """
    opts = opts or AscentOptions()
    X = _as_starts(mix, starts)
    m = X.shape[0]

    if search_box is not None:
        lo, hi = (np.asarray(a, dtype=float) for a in search_box)
    else:
        lo, hi = X.min(axis=0), X.max(axis=0)
    diam = float(np.linalg.norm(hi - lo))
    scale = diam if diam > 0 else _default_scale(mix)
    radius = opts.dedup_radius if opts.dedup_radius is not None else 1e-5 * scale

    pol = _ascend_batch(mix, X, opts, scale)
    critical_points = _distinct_critical_points(mix, pol, scale, radius)

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


def _ridgeline_k2(mix: Mixture):
    """Closed-form ridgeline of a 2-component mixture: a function t -> x*(t)
    for alpha = (t, 1 - t), vectorized over t.

    With s the weight of component a, L_b the Cholesky factor of the other
    one and the SVD W_a L_b = Y S V^T, the basis B = L_b V diagonalizes
    s P_a + (1 - s) P_b to diag(s lam + 1 - s), lam = S^2, so
    x* = mu_b + B s e / (s lam + 1 - s) with e = S Y^T W_a (mu_a - mu_b).
    Each half of the curve is taken from its own end (a = 1, s = t up to
    t = 1/2, then a = 2, s = 1 - t), so the denominator stays >= 1/2 and no
    small singular value is divided by.
    """
    W, mu = mix._whitens, mix._means
    halves = []
    for a, b in ((0, 1), (1, 0)):
        L_b = mix.components[b].chol
        Y, s, Vt = np.linalg.svd(W[a] @ L_b)
        halves.append((mu[b], L_b @ Vt.T, s * s, s * (Y.T @ (W[a] @ (mu[a] - mu[b])))))

    def curve(t):
        t = np.asarray(t, dtype=float)
        x = np.empty((t.size, mix.dim))
        for (mu_b, B, lam, e), s, rows in (
            (halves[0], t, t <= 0.5),
            (halves[1], 1.0 - t, t > 0.5),
        ):
            if rows.any():
                s = s[rows, None]
                den = s * lam + (1.0 - s)
                x[rows] = mu_b + (s * e / den) @ B.T
        return x

    return curve


def _itp_brackets(f, a, b, fa, fb, width: float, kappa1: float):
    """Shrink every bracket [a_i, b_i] with f(a_i) f(b_i) < 0 to width <= ``width``
    by ITP (Oliveira & Takahashi, ACM TOMS 2020; kappa2 = 2, n0 = 1), with one
    vectorized call f(x) per round over the open brackets: at most one round
    more than bisection. An exact zero closes its bracket. Returns (a, b).
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    eps = 0.5 * width
    n_max = np.ceil(np.log2(np.maximum((b - a) / width, 1.0))) + 1.0
    j = 0
    open_ = np.flatnonzero(b - a > width)
    while open_.size:
        ao, bo, fao, fbo = a[open_], b[open_], fa[open_], fb[open_]
        w = bo - ao
        mid = ao + 0.5 * w
        r = np.maximum(eps * 2.0 ** (n_max[open_] - j) - 0.5 * w, 0.0)
        x_f = ao + w * (fao / (fao - fbo))
        sigma = np.sign(mid - x_f)
        delta = kappa1 * w * w
        x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
        x = np.where(np.abs(x_t - mid) <= r, x_t, mid - sigma * r)
        # Stay eps inside, or a root pinned within rounding of an endpoint
        # draws x onto that endpoint round after round; x stays within r.
        x = x.clip(ao + eps, bo - eps)
        y = f(x)
        zero = y == 0.0
        left = ~zero & ((y < 0) == (fao < 0))
        right = ~zero & ~left
        a[open_], fa[open_] = np.where(right, ao, x), np.where(left, y, fao)
        b[open_], fb[open_] = np.where(left, bo, x), np.where(right, y, fbo)
        j += 1
        open_ = open_[b[open_] - a[open_] > width]
    return a, b


def ridgeline_oracle_k2(mix: Mixture, samples: int = 4000):
    """Exhaustively enumerate the critical points of a 2-component mixture.

    Every critical point lies on the ridgeline curve x*(t), t in [0, 1], at
    a zero of the residual r_1(x*(t)) - t (r_1 the responsibility of the
    first component), which has the sign of d log f(x*(t)) / dt. The
    residual is taken on a uniform grid. Every sign change is narrowed by
    ITP to an interval below 1e-12, and the resulting points enter the
    shared ascent already polishing (damped Newton, so saddles are found
    too) and are deduplicated.

    The two component means (the curve endpoints) always enter it too,
    climbing: a mode whose minority responsibility underflows the grid
    spacing, or even the floating-point gap around t = 0 or 1, has no
    representable sign change in t but sits near the corresponding mean.
    """
    if mix.k != 2:
        raise InvalidParameter(f"ridgeline oracle requires exactly 2 components, got {mix.k}")
    if samples < 1000:
        raise TooFewSamples(f"need at least 1000 samples, got {samples}")
    curve = _ridgeline_k2(mix)

    def residual(t):
        return mix.responsibilities(curve(t))[0] - t

    t_grid = np.linspace(0.0, 1.0, samples)
    h = residual(t_grid)
    sign = np.sign(h)
    flips = np.flatnonzero((sign[:-1] * sign[1:]) < 0)
    spacing = 1.0 / (samples - 1)
    a, b = _itp_brackets(
        residual, t_grid[flips], t_grid[flips + 1], h[flips], h[flips + 1], 1e-12, 0.2 / spacing
    )
    roots = np.sort(np.concatenate([t_grid[h == 0.0], 0.5 * (a + b)]))

    scale = _default_scale(mix)
    seeds = np.concatenate([curve(roots), mix._means])
    polishing = np.arange(len(seeds)) < len(roots)
    pol = _ascend_batch(mix, seeds, AscentOptions(), scale, polishing)
    return _distinct_critical_points(mix, pol, scale, 1e-5 * scale)


def verify_ridgeline_membership(mix: Mixture, cp: CriticalPoint) -> float:
    """Distance from cp to its own ridgeline image x*(responsibilities(cp)).

    Zero (up to refinement tolerance) exactly when cp is a critical
    point, since critical points are fixed points of the responsibility-
    weighted ridgeline map.
    """
    x = np.asarray(cp.location, dtype=float)
    alpha = mix.responsibilities(x[None, :])[:, 0]
    return float(np.linalg.norm(_ridgeline_solve(mix._precisions, mix._means, alpha) - x))
