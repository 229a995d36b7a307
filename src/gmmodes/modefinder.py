"""Locate, refine, classify and deduplicate critical points of a mixture.

Every start climbs, then polishes, in one batched loop over the (m, d)
derivative kernel :func:`gmmodes.mixture.derivatives`, called once per
iteration on the trial points of the rows that go on: a rejected trial
leaves its row in place and shapes only its next step, and a converged
polishing row whose step would not move it ends. Climbing takes the
Newton step where the Hessian is negative definite, else a mean-shift
step. The plain one, x' = x + A^{-1} grad f / f with A = sum_i r_i P_i
(r_i the responsibilities, P_i the precisions), is the EM step of the
mixture (Carreira-Perpinan, IEEE TPAMI 2007), whose fixed points are
exactly the critical points. Near flat modes and saddles it crawls, so it
is adaptively overrelaxed (Salakhutdinov & Roweis, ICML 2003): a start
moves by the s solving (A / eta - (1 - 1 / eta) H) s = grad f / f,
H = Hess f / f, which is the plain step at eta = 1 and along stiff
directions, and tends to the Newton step along flat and escaping ones as
eta grows. Polishing is damped Newton, which also yields the Hessian used
for classification; symmetric elimination of -Hess f / f decides
concavity and gives the Newton step, and only saddles and near-singular
Hessians go through eigh. The multistart driver and :func:`ascend` (a
batch of one) run through that loop; the k = 2 ridgeline oracle needs none.

The loop keeps its rows on the last axis, as the kernel computes them:
points and gradients are (d, m), Hessians (d, d, m), responsibilities
(k, m), so each elementwise step runs over m contiguous values instead of
d <= 4. The (m, ...) arrays of the public API are transposed views.

All convergence tests are scale-free (||grad f|| / f) because density
magnitudes across the constructions here differ by hundreds of orders
of magnitude.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass
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
        if not 0.0 < self.gradient_tolerance < math.inf:
            raise InvalidParameter("gradient_tolerance must be finite and > 0")
        if self.dedup_radius is not None and not 0.0 < self.dedup_radius < math.inf:
            raise InvalidParameter("dedup_radius must be finite and > 0")


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
            "bound_check": asdict(self.bound_check),
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
            row = [repr(float(v)) for v in cp.location] + [repr(cp.log_density), cp.kind_label]
            row += [repr(float(cp.hessian_eigenvalues[0])), str(cp.converged_from)]
            out.write(",".join(row) + "\n")
        return out.getvalue()


def mixture_digest(mix: Mixture) -> str:
    payload = json.dumps(mixture_to_dict(mix), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


# ----------------------------------------------------------------------
# The ascent: climb, then polish, every start in one batched loop
# ----------------------------------------------------------------------

def _mean_shift_step(mix: Mixture, resp: np.ndarray, g: np.ndarray, h: np.ndarray, eta) -> np.ndarray:
    """Overrelaxed mean-shift steps s solving (A / eta - (1 - 1 / eta) H) s = g,
    A = sum_i r_i P_i, for the rows of g = grad f / f (d, m) and h = H =
    Hess f / f (d, d, m) with responsibilities resp (k, m) and factors eta;
    shape (d, m). At eta = 1 it is the plain step A^{-1} g, bit for bit. A
    row whose system is singular takes no step."""
    d, m = g.shape
    A = (mix._precisions.reshape(mix.k, d * d).T @ resp).reshape(d, d, m)
    M, rhs = (A / eta - (1.0 - 1.0 / eta) * h).transpose(2, 0, 1), g.T[..., None]
    try:
        return np.linalg.solve(M, rhs)[..., 0].T
    except np.linalg.LinAlgError:
        step = np.zeros((d, m))
        for i in range(m):
            with contextlib.suppress(np.linalg.LinAlgError):
                step[:, i] = np.linalg.solve(M[i], rhs[i])[:, 0]
        return step


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
    _, resp, g, h = derivatives(mix, X)
    return X[0] + _mean_shift_step(mix, resp, g.T, h.transpose(1, 2, 0), 1.0)[:, 0]


class _Endpoints(NamedTuple):
    """Ascent endpoints of m starts, row-aligned (transposed views of the
    ascent's rows-last arrays)."""

    x: np.ndarray             # (m, d)
    log_density: np.ndarray   # (m,)
    grad_norm: np.ndarray     # (m,) ||grad f / f||
    hess: np.ndarray          # (m, d, d) Hess f / f
    converged: np.ndarray     # (m,) bool


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
    over the rows of g (d, m) and h = H (d, d, m), rows last. Sweeping the
    Cholesky pivots of A out of [[A, g], [g^T, 0]] one at a time (the sweep
    operator, no square roots) leaves A^{-1} g, the step, in the last column.

    Returns (step (d, m), definite, indefinite). A row is ``definite``, and
    only then gets a nonzero step, when every pivot exceeds
    _PIVOT_TOLERANCE times its largest absolute entry and trace(A)
    trace(A^{-1}), a bound on its condition number, is below
    _SWEEP_CONDITION; ``indefinite`` when a pivot falls below minus that
    margin while every earlier pivot passed. Other rows are near-singular.
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
    negative definite, for the rows of g (d, m) and h = H (d, d, m). Rows
    :func:`_sweep_newton_rows` shows clearly negative definite take its
    step; climbing rows (``polish`` False) it shows indefinite get none and
    take the mean-shift step. The rest, saddles while polishing and
    near-singular rows, go through eigh with tiny eigenvalues clamped away
    from zero keeping their sign, so saddles are still repelled."""
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


def _ascend_batch(mix: Mixture, X: np.ndarray, opts: AscentOptions, scale: float) -> _Endpoints:
    """Ascend from every row of X at once: each row climbs, then polishes.

    Each iteration takes every active row's step from its current point,
    ends the rows that are done, makes one :func:`derivatives` call over the
    trial points and accepts or rejects each trial once. A rejected trial
    leaves its row where it is and changes only its next step. Every rule
    is per row, so an endpoint does not depend on the batch:

    - Climbing: the Newton step where Hess f / f is negative definite,
      else the mean-shift step s of :func:`_mean_shift_step` at the row's
      overrelaxation factor eta. An overrelaxed s that is not an ascent
      direction, s . grad f / f <= 0, resets eta to 1 and is replaced by
      the plain step (ascent rule). A trial that lowers log f by more than
      the monotone slack is rejected. After a Newton trial the row takes
      the mean-shift step until it next moves (fall-back rule); after an
      overrelaxed one eta resets to 1 (reset rule); after a plain one the
      row retries at 2^-h times the step, h the rejections since it last
      moved, and the trial at h = 60 is accepted whatever it gives.
    - Overrelaxation: eta starts at 1 and doubles, up to _OVERRELAX_CAP,
      after each mean-shift step accepted at full length.
    - Handover to polishing: ||grad f / f|| < 1e3 * gradient_tolerance, a
      step below _STEP_TOLERANCE, or _MAX_CLIMBS climbs.
    - Polishing: damped Newton, until a step below _STEP_TOLERANCE or
      _MAX_NEWTON_STEPS steps. A trial that more than doubles
      ||grad f / f|| is rejected and retried at 2^-h times the step, and
      the trial at h = 30 is accepted. Polishing goes past the gradient
      test so that starts in flat regions land on one point rather than
      scattering across the plateau. A row within gradient_tolerance ends
      where it is when its trial would move less than _STEP_TOLERANCE (end
      rule) or is rejected (settle rule): halving cannot help there.
    - Newton steps come from :func:`_newton_step`, capped at scale / 2.

    Climbs and Newton steps count accepted steps only. A row has converged
    when ||grad f / f|| <= gradient_tolerance at its endpoint. The working
    set, rows last, is compacted only when rows end, before the kernel call.
    """
    tol, step_cap = opts.gradient_tolerance, 0.5 * max(scale, 1e-300)
    x0 = np.array(np.transpose(X), dtype=float, order="C")
    d, n = x0.shape
    out = [x0, np.empty(n), np.empty(n), np.empty((d, d, n))]  # x, log f, ||grad f / f||, Hess
    rows = np.arange(n)
    polish = np.zeros(n, dtype=bool)
    steps = np.zeros(n, dtype=int)  # climbs while climbing, Newton steps while polishing
    stalled = np.zeros(n, dtype=bool)  # the last step was below _STEP_TOLERANCE
    eta = np.ones(n)  # overrelaxation of each row's mean-shift step
    halvings = np.zeros(n, dtype=int)  # h: halved trials rejected since the row last moved
    barred = np.zeros(n, dtype=bool)  # a Newton trial was rejected since the row last moved
    cur = _state(mix, x0.copy())
    g_norm = _row_norms(cur[3])  # ||grad f / f|| at cur's rows
    while rows.size:
        x, logf, resp, g, h = cur
        start = ~polish & ((g_norm < 1e3 * tol) | stalled | (steps >= _MAX_CLIMBS))
        polish[start], steps[start] = True, 0
        step, concave = _newton_step(g, h, step_cap, polish)
        newton = polish | (concave & ~barred)
        shift = ~newton
        if shift.any():
            step[:, shift] = _mean_shift_step(mix, resp[:, shift], g[:, shift], h[..., shift], eta[shift])
            # Ascent rule: an overrelaxed step that does not point uphill.
            back = shift & (eta > 1.0) & ~((step * g).sum(axis=0) > 0.0)
            if back.any():
                eta[back] = 1.0
                step[:, back] = _mean_shift_step(mix, resp[:, back], g[:, back], h[..., back], 1.0)
        trial = x + np.ldexp(step, -halvings)
        still = polish & (g_norm <= tol) & (_row_norms(trial - x) < _STEP_TOLERANCE)  # end rule
        done = still | (polish & ((stalled & ~start) | (steps >= _MAX_NEWTON_STEPS)))
        if done.any():
            # Integer indices: each boolean mask index would redo its nonzero.
            fin, keep = done.nonzero()[0], (~done).nonzero()[0]
            for a, b in zip(out, (x, logf, g_norm, h)):
                a[..., rows[fin]] = b.take(fin, axis=-1)
            if not keep.size:
                break
            state = (rows, polish, steps, eta, halvings, barred, g_norm, newton)
            rows, polish, steps, eta, halvings, barred, g_norm, newton = (a[keep] for a in state)
            cur, trial = [a.take(keep, axis=-1) for a in cur], trial.take(keep, axis=-1)
        new = _state(mix, trial)
        new_norm = _row_norms(new[3])
        drop = ~polish & (new[1] < cur[1] - _MONOTONE_SLACK)
        worse = polish & (new_norm > 2.0 * g_norm)
        retake = halve = np.zeros(rows.size, dtype=bool)
        if (drop | worse).any():  # rare: without a rejection retry is all False
            settle = worse & (g_norm <= tol)
            retake = drop & (newton | (eta > 1.0))
            halve = (drop & ~retake & (halvings < 60)) | (worse & ~settle & (halvings < 30))
            stay = retake | halve | settle
            for a, b in zip(new, cur):
                a[..., stay] = b[..., stay]
            new_norm[stay] = g_norm[stay]
            eta[retake & ~newton] = 1.0
        retry = retake | halve
        barred = retry & (barred | (retake & newton))
        grow = ~retry & ~newton & (halvings == 0)
        np.copyto(eta, np.minimum(2.0 * eta, _OVERRELAX_CAP), where=grow)
        halvings = (halvings + halve) * retry
        # Kept rows read a zero step: a settled row stalls and finishes, a retrying one does not.
        stalled = ~retry & (_row_norms(new[0] - cur[0]) < _STEP_TOLERANCE)
        cur, g_norm = new, new_norm
        steps += ~retry
    x, logf, grad_norm, hess = out
    return _Endpoints(x.T, logf, grad_norm, hess.transpose(2, 0, 1), grad_norm <= tol)


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


def _classified(mix: Mixture, end: _Endpoints, rows, counts, scale: float) -> list[CriticalPoint]:
    """CriticalPoints of the given rows of end, converged_from the matching
    counts, classified by one batched eigvalsh of their Hess f / f; only a
    degenerate spectrum takes its own eigh and neighborhood probe."""
    eigs = np.linalg.eigvalsh(end.hess[rows])
    d = eigs.shape[1]
    tol = _DEGENERATE_EIGEN_TOLERANCE * np.abs(eigs).max(axis=1, keepdims=True)
    degenerate = (np.abs(eigs) <= tol).any(axis=1)
    negative = (eigs < -tol).sum(axis=1)
    points = []
    for i, e, degen, neg, count in zip(rows, eigs, degenerate, negative, counts):
        kind = "mode" if neg == d else "antimode" if neg == 0 else "saddle"
        if degen:
            # Degenerate spectrum: resolve strict local extrema by direct
            # probing along coordinate axes and Hessian eigenvectors.
            V = np.linalg.eigh(end.hess[i])[1]
            kind = _probe_extremum(mix, end.x[i], np.concatenate([np.eye(d), -np.eye(d), V.T, -V.T]), scale)
        points.append(CriticalPoint(
            end.x[i].copy(), float(end.log_density[i]), float(end.grad_norm[i]), e.copy(), kind,
            int(neg) if kind == "saddle" else None, int(count), bool(end.converged[i]), bool(degen),
        ))
    return points


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
    return _classified(mix, _ascend_batch(mix, X, opts, scale), [0], [1], scale)[0]


def _default_scale(mix: Mixture) -> float:
    spread = np.ptp(mix._means, axis=0) if mix.k > 1 else np.zeros(mix.dim)
    sigma = np.sqrt(np.linalg.eigvalsh([c.cov for c in mix.components]).max())
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


@functools.lru_cache(maxsize=16)
def _halton(n: int, d: int, seed: int) -> np.ndarray:
    """n points of Owen's randomized Halton sequence in [0, 1)^d (memoized, read-only).

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
    out.flags.writeable = False
    return out


def _checked_box(mix: Mixture, box):
    """A search box (lo, hi) as float arrays: ``DimensionMismatch`` unless
    both have shape (dim,), ``InvalidParameter`` unless they are finite with
    lo < hi in every coordinate."""
    lo, hi = (np.asarray(a, dtype=float) for a in box)
    if lo.shape != (mix.dim,) or hi.shape != (mix.dim,):
        raise DimensionMismatch(f"search box shapes {lo.shape}, {hi.shape} do not match dim {mix.dim}")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo < hi)):
        raise InvalidParameter(f"search box needs finite lo < hi in every coordinate, got {lo}, {hi}")
    return lo, hi


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
    lo, hi = _checked_box(mix, scenario.search_box)
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
    unassigned = np.ones(order.size, dtype=bool)
    best, counts = [], []
    while np.any(unassigned):
        head = int(np.argmax(unassigned))
        members = unassigned & (np.linalg.norm(pts - pts[head], axis=1) <= radius)
        cluster = order[members]
        best.append(cluster[np.argmin(pol.grad_norm[cluster])])
        counts.append(cluster.size)
        unassigned &= ~members
    return _classified(mix, pol, best, counts, scale)


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
        lo, hi = _checked_box(mix, search_box)
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


class _RidgelineHalf(NamedTuple):
    """One half of a 2-component ridgeline (:func:`_ridgeline_halves`)."""

    mu_b: np.ndarray
    B: np.ndarray
    lam: np.ndarray
    e: np.ndarray
    sq: np.ndarray  # (2, d): c^2 and lam c^2
    log_peak: float  # (log alpha_a + log_norm_a) - (log alpha_b + log_norm_b)

    def points(self, s: np.ndarray) -> np.ndarray:
        """x*(s) (n, d) at the weights s (n,) of component a."""
        s = s[:, None]
        den = s * self.lam + (1.0 - s)
        return self.mu_b + (s * self.e / den) @ self.B.T

    def log_ratio(self, s: np.ndarray, slope: bool = False) -> np.ndarray:
        """D = log(r_a / r_b) at x*(s) (n,), or [D, s (1 - s) dD / ds] (n, 2) with ``slope``:
        W_a (x* - mu_a) = -Y (1 - s) c / den and W_b (x* - mu_b) = V s S c / den,
        so no point and no density is formed. D' sums q = c^2 / den^2 and q (lam - 1) / den."""
        inv = 1.0 / (s * self.lam[:, None] + (1.0 - s))
        q = inv * inv
        sq_a, sq_b = self.sq @ q
        D = self.log_peak - 0.5 * ((1.0 - s) ** 2 * sq_a - s * s * sq_b)
        if not slope:
            return D
        dq_a, dq_b = self.sq @ (q * inv * (self.lam - 1.0)[:, None])
        dD = (1.0 - s) * sq_a + s * sq_b + (1.0 - s) ** 2 * dq_a - s * s * dq_b
        return np.stack([D, s * (1.0 - s) * dD], axis=1)


def _ridgeline_halves(mix: Mixture) -> list[_RidgelineHalf]:
    """The halves (a, b) = (0, 1), then (1, 0), of a 2-component ridgeline.

    With s the weight of component a, L_b the Cholesky factor of the other
    one and the SVD W_a L_b = Y S V^T, the basis B = L_b V diagonalizes
    s P_a + (1 - s) P_b to diag(den), den = s lam + 1 - s, lam = S^2, so
    x*(s) = mu_b + B s e / den, e = S c, c = Y^T W_a (mu_a - mu_b). Each half
    is taken from its own end, s in [0, 1/2], so den stays >= 1/2 and no
    small singular value is divided by.
    """
    W, mu = mix._whitens, mix._means
    peak = mix._log_weights + mix._log_norms
    L = np.linalg.cholesky(np.stack([comp.cov for comp in mix.components]))
    Y, S, Vt = np.linalg.svd(W @ L[::-1])  # W_a L_b of both halves
    halves = []
    for a, b in ((0, 1), (1, 0)):
        c, lam = Y[a].T @ (W[a] @ (mu[a] - mu[b])), S[a] * S[a]
        sq = np.stack([c * c, lam * c * c])
        halves.append(_RidgelineHalf(mu[b], L[b] @ Vt[a].T, lam, S[a] * c, sq, peak[a] - peak[b]))
    return halves


def _on_halves(halves: list[_RidgelineHalf], f, theta: np.ndarray, *shape: int) -> np.ndarray:
    """f(half, s) at theta = log(t / (1 - t)): s = t on the first half, where theta is -0
    or below, else s = 1 - t; either way s = 1 / (1 + e^|theta|), and 0 at theta = -+inf."""
    first, e = np.signbit(theta), np.exp(-np.abs(theta))
    s = e / (1.0 + e)
    out = np.empty(theta.shape + shape)
    for half, rows in zip(halves, (first, ~first)):
        if rows.any():
            out[rows] = f(half, s[rows])
    return out


def _ridgeline_k2(mix: Mixture):
    """Closed-form ridgeline of a 2-component mixture: t -> x*(t) for
    alpha = (t, 1 - t), vectorized, from the first of
    :func:`_ridgeline_halves` up to t = 1/2 (s = t), then the second (s = 1 - t)."""
    halves = _ridgeline_halves(mix)

    def curve(t):
        t = np.asarray(t, dtype=float)
        out, first = np.empty(t.shape + (mix.dim,)), t <= 0.5
        out[first], out[~first] = halves[0].points(t[first]), halves[1].points(1.0 - t[~first])
        return out

    return curve


def _ridgeline_log_residual(halves: list[_RidgelineHalf], theta: np.ndarray, slope: bool = True):
    """G = log(r_1 / r_2) - theta at x*(t), theta = log(t / (1 - t)), which has the
    sign of r_1 - t, and with ``slope`` G' too. On a half of weight s, G = +-F and
    G' = F' for F = D(s) - log(s / (1 - s)), F' = s (1 - s) D'(s) - 1."""
    if not slope:
        D = _on_halves(halves, _RidgelineHalf.log_ratio, theta)
        return np.where(np.signbit(theta), D, -D) - theta
    D, dD = _on_halves(halves, lambda half, s: half.log_ratio(s, True), theta, 2).T
    return np.where(np.signbit(theta), D, -D) - theta, dD - 1.0


def _newton_roots(f, neg: np.ndarray, pos: np.ndarray, tol: float) -> np.ndarray:
    """A root of f in each bracket, f(neg_i) < 0 < f(pos_i), by Newton from the
    midpoints, all at once; f(x) gives f and f'. Each value moves the bracket
    end of its sign, and an iterate that leaves its bracket is its midpoint;
    after 60 rounds (the sweeps take at most 8) it bisects, so a Newton cycle
    cannot hold it. The roots are the next iterates once no step exceeds tol."""
    x, new, rounds = np.inf, 0.5 * (neg + pos), 0
    while not np.all(np.abs(new - x) <= tol):
        x, rounds = new, rounds + 1
        y, dy = f(x)
        neg, pos = np.where(y < 0.0, x, neg), np.where(y > 0.0, x, pos)
        new = x - np.divide(y, dy, out=np.full_like(y, np.inf), where=dy != 0.0)
        new = np.where(((new - neg) * (new - pos) <= 0.0) & (rounds < 60), new, 0.5 * (neg + pos))
    return new


@functools.lru_cache(maxsize=4)
def _theta_grid(samples: int) -> np.ndarray:
    """The oracle's theta samples, increasing (read-only), at each half's uniform grid weights
    s < 1/2, s = 2^-j (j = 12..1074) and s = 1/2: theta = -0 on the first half, +0 on the second."""
    t = np.linspace(0.0, 1.0, samples)
    s = np.sort(np.concatenate([t[(0.0 < t) & (t < 0.5)], np.ldexp(1.0, -np.arange(12, 1075))]))
    theta = np.append(np.log(s) - np.log1p(-s), -0.0)
    theta = np.concatenate([theta, -theta[::-1]])
    theta.flags.writeable = False
    return theta


def ridgeline_oracle_k2(mix: Mixture, samples: int = 4000):
    """Exhaustively enumerate the critical points of a 2-component mixture.

    Every critical point lies on the ridgeline x*(t), t in [0, 1] (Ray &
    Lindsay, Ann. Statist. 2005), at a zero of G = log(r_1 / r_2) - theta,
    theta = log(t / (1 - t)) (:func:`_ridgeline_log_residual`), which has the
    sign of r_1(x*(t)) - t and so of d log f(x*(t)) / dt. Each half is taken
    in its own weight s (:func:`_ridgeline_halves`), where D = log(r_a / r_b)
    takes O(d) flops in closed form and does not underflow. G is sampled on
    :func:`_theta_grid`, whose s = 2^-j bracket a root at any weight down to
    2^-1074 unless a second root lies within a factor of 2 of it (a
    mode-saddle pair). An exact zero is a root. G -> +inf as t -> 0 and -inf
    as t -> 1, so a negative first sample or a positive last one is a root
    past the grid, seeded at that mean (theta = -+inf). Every sign change,
    the zero-width cell from theta = -0 to +0 (t = 1/2 on each half)
    included, is refined at once by Newton in theta (:func:`_newton_roots`)
    to a step of 4e-12, so 1e-12 in t; roots closer than 8e-12 are one. Each
    root is reported at x*(t), classified by G', which has the sign of
    d^2 log f / dt^2 there: a mode where G' < 0, else a saddle of index d - 1
    (antimode if d = 1), and degenerate at G' = 0. One derivative-kernel
    call gives log f, the measured ||grad f / f|| and the Hessian
    eigenvalues; ``converged`` is True, from the theta bracket.
    """
    if mix.k != 2:
        raise InvalidParameter(f"ridgeline oracle requires exactly 2 components, got {mix.k}")
    if samples < 1000:
        raise TooFewSamples(f"need at least 1000 samples, got {samples}")
    halves = _ridgeline_halves(mix)
    theta = _theta_grid(samples)
    G = _ridgeline_log_residual(halves, theta, slope=False)
    flips = np.flatnonzero(np.sign(G[:-1]) * np.sign(G[1:]) < 0)
    ends = theta[np.where(G[flips] > 0.0, [flips + 1, flips], [flips, flips + 1])]  # where G < 0, G > 0
    roots = _newton_roots(lambda th: _ridgeline_log_residual(halves, th), *ends, 4e-12)
    past = [-np.inf] * int(G[0] < 0.0) + [np.inf] * int(G[-1] > 0.0)
    roots = np.sort(np.concatenate([theta[G == 0.0], roots, past]) + 0.0)
    roots = roots[np.append(True, np.diff(roots) >= 8e-12)]  # t = 1/2 is sampled on both halves
    x = _on_halves(halves, _RidgelineHalf.points, roots, mix.dim)
    logf, _, g, h = derivatives(mix, x)
    slope, eigs, d = _ridgeline_log_residual(halves, roots)[1], np.linalg.eigvalsh(h), mix.dim
    kinds = ["mode" if s < 0.0 else ("saddle" if d > 1 else "antimode") if s > 0.0 else "degenerate" for s in slope]
    return [CriticalPoint(x[i].copy(), float(logf[i]), float(np.linalg.norm(g[i])), eigs[i].copy(), kinds[i],
                          d - 1 if kinds[i] == "saddle" else None, degenerate_hessian=kinds[i] == "degenerate")
            for i in np.lexsort(x.T[::-1])]


def verify_ridgeline_membership(mix: Mixture, cp: CriticalPoint) -> float:
    """Distance from cp to its own ridgeline image x*(responsibilities(cp)): zero
    (up to refinement tolerance) exactly when cp is a critical point, a fixed
    point of the responsibility-weighted ridgeline map."""
    x = np.asarray(cp.location, dtype=float)
    alpha = mix.responsibilities(x[None, :])[:, 0]
    return float(np.linalg.norm(_ridgeline_solve(mix._precisions, mix._means, alpha) - x))
