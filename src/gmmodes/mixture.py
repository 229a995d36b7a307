"""Gaussian mixture representation and stable density evaluation.

A :class:`Mixture` is a convex combination of Gaussian components. Each
component is stored in one numerical form, its whitening factor
W = L^{-1} (the inverse of the lower Cholesky factor of its covariance):
quadratic forms are sums of squares ||W (x - mu)||^2, never an explicit
precision inside a quadratic form. The precisions W^T W that gradients,
Hessians and mean-shift steps need are formed once per mixture. Density,
gradient and Hessian are accumulated in a max-shifted log scale so that
mixtures whose component peak heights differ by hundreds of orders of
magnitude (normal variances as small as ~1e-9) still evaluate without
overflow or underflow.

:func:`derivatives` is the batched kernel: log-density, responsibilities,
grad f / f and Hess f / f for all rows of an (m, d) array from one
:meth:`Mixture.log_terms` call. :func:`evaluate` is its one-point form.
Inside the kernel the row axis is last: points are worked on as (d, m),
per-component terms as (k, d, m) and Hessians as (d, d, m), so every
elementwise pass runs over m contiguous values rather than over d <= 4.
The (m, ...) results it returns are transposed views of those arrays, so
a caller that keeps its rows last, as the ascent does, copies nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NegativeWeight,
    NonFinite,
    NonSPD,
    SingularTransform,
    WeightSumInvalid,
)

__all__ = [
    "GaussianComponent",
    "Mixture",
    "EvalResult",
    "Derivatives",
    "make_mixture",
    "derivatives",
    "evaluate",
    "affine_transform",
    "is_homoscedastic",
    "is_isotropic",
    "mixture_to_dict",
    "mixture_from_dict",
    "save_mixture",
    "load_mixture",
]

# Below this log-density the reported density is flushed to exactly 0.0
# while log_density stays exact, keeping far-tail ascent usable.
LOG_DENSITY_FLOOR = -700.0

_SYM_RTOL = 1e-12
_WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class GaussianComponent:
    """One weighted Gaussian term of a mixture.

    ``log_norm`` is the cached log-normalizer -0.5*log det(2*pi*cov).
    Instances are immutable; arrays are never written after construction.
    """

    weight: float
    mean: np.ndarray
    cov: np.ndarray
    log_norm: float = field(repr=False)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of ``cov``, factored on access."""
        return np.linalg.cholesky(self.cov)


@dataclass(frozen=True)
class Mixture:
    """A validated Gaussian mixture density in R^dim.

    Immutable after construction; all evaluation entry points are pure
    functions of (mixture, point) and safe to call concurrently.
    """

    dim: int
    components: tuple[GaussianComponent, ...]
    # Stacked per-component arrays for vectorized evaluation.
    _means: np.ndarray = field(repr=False)       # (k, d)
    _whitens: np.ndarray = field(repr=False)     # (k, d, d) lower, L^{-1}
    _precisions: np.ndarray = field(repr=False)  # (k, d, d) W^T W, exactly symmetric
    _log_weights: np.ndarray = field(repr=False)  # (k,)
    _log_norms: np.ndarray = field(repr=False)    # (k,)

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def means(self) -> np.ndarray:
        return self._means.copy()

    # ------------------------------------------------------------------
    # Batched internals. X has shape (m, d); all returns are per-point.
    # ------------------------------------------------------------------

    def log_terms(self, X: np.ndarray) -> np.ndarray:
        """Per-component log(alpha_i * f_i(x)) for points X, shape (k, m)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        # Columns of Z are the whitened offsets W_i (x - mu_i), all components at once.
        Z = self._whitens @ (X.T - self._means[:, :, None])  # (k, d, m)
        quad = np.einsum("kdm,kdm->km", Z, Z)
        return (self._log_weights + self._log_norms)[:, None] - 0.5 * quad

    def log_density(self, X: np.ndarray) -> np.ndarray:
        return self._log_density_resp(X)[0]

    def responsibilities(self, X: np.ndarray) -> np.ndarray:
        """Normalized component contributions, shape (k, m)."""
        return self._log_density_resp(X)[1]

    def _log_density_resp(self, X: np.ndarray):
        """Log-density (m,) and responsibilities (k, m) from one log_terms call."""
        lt = self.log_terms(X)
        shift = lt.max(axis=0)
        w = np.exp(lt - shift)
        wsum = w.sum(axis=0)
        return shift + np.log(wsum), w / wsum

    def grad_over_density(self, X: np.ndarray) -> np.ndarray:
        """Scale-free gradient grad f / f at each point, shape (m, d): the
        ``grad_over_density`` field of :func:`derivatives`.

        Nothing in the package calls it. It stays as a named method because
        the benchmark's span tracer (``bench/tracer.py``) wraps it by name.
        """
        return derivatives(self, X).grad_over_density

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return mixture_to_dict(self)


@dataclass(frozen=True)
class EvalResult:
    """Density evaluation at one point.

    ``density`` is 0.0 whenever ``log_density`` is below -700 while
    ``log_density`` stays exact. The ``*_over_density`` fields carry the
    gradient and Hessian divided by the density; they stay finite deep in
    the tails and are what scale-free convergence tests consume.
    """

    log_density: float
    density: float
    gradient: np.ndarray
    hessian: np.ndarray
    responsibilities: np.ndarray
    grad_over_density: np.ndarray
    hessian_over_density: np.ndarray


class Derivatives(NamedTuple):
    """Batched output of :func:`derivatives` for m points in R^d."""

    log_density: np.ndarray           # (m,)
    responsibilities: np.ndarray      # (k, m)
    grad_over_density: np.ndarray     # (m, d)
    hessian_over_density: np.ndarray  # (m, d, d), symmetric


def _validate_covariance(cov: np.ndarray, index: int) -> np.ndarray:
    """Lower Cholesky factor of a finite, symmetric positive definite covariance."""
    # numpy's cholesky factors NaN entries without complaint.
    if not np.all(np.isfinite(cov)):
        raise NonFinite(f"covariance {index} contains non-finite entries")
    scale = np.max(np.abs(cov))
    if scale == 0.0 or np.max(np.abs(cov - cov.T)) > _SYM_RTOL * scale:
        raise NonSPD(index, f"covariance {index} is not symmetric")
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NonSPD(index) from exc
    if np.any(np.diag(L) <= 0.0):
        raise NonSPD(index)
    return L


def _whitening_factor(cov, index: int = 0) -> np.ndarray:
    """Validated whitening factor W = L^{-1} of a covariance (NonSPD if not SPD).

    Forward substitution on L W = I, one row of W at a time, so W is
    exactly lower-triangular and diag(W) = 1 / diag(L).
    """
    L = _validate_covariance(np.asarray(cov, dtype=float), index)
    d = L.shape[0]
    I, W = np.eye(d), np.zeros((d, d))
    for i in range(d):
        W[i, : i + 1] = (I[i, : i + 1] - L[i, :i] @ W[:i, : i + 1]) / L[i, i]
    return W


def make_mixture(weights, means, covariances) -> Mixture:
    """Build a validated Mixture with cached factorizations.

    Weights, means and covariances must be finite. Weights must be
    nonnegative and sum to 1 within 1e-9 (they are renormalized inside
    that band, rejected outside). Covariances must be symmetric positive
    definite.
    """
    weights = np.asarray(weights, dtype=float)
    means = [np.asarray(m, dtype=float).ravel() for m in means]
    covs = [np.asarray(c, dtype=float) for c in covariances]
    if not (len(weights) == len(means) == len(covs)) or len(weights) == 0:
        raise DimensionMismatch("weights, means, covariances must have equal nonzero length")
    d = means[0].shape[0]
    for i, (mu, cov) in enumerate(zip(means, covs)):
        if mu.shape != (d,):
            raise DimensionMismatch(f"mean {i} has dimension {mu.shape}, expected ({d},)")
        if cov.shape != (d, d):
            raise DimensionMismatch(f"covariance {i} has shape {cov.shape}, expected ({d},{d})")
    # Covariances are checked for finiteness with the rest of their validation.
    if not (np.all(np.isfinite(weights)) and all(np.all(np.isfinite(mu)) for mu in means)):
        raise NonFinite("weights and means must be finite")
    if np.any(weights < 0.0):
        raise NegativeWeight(f"weights must be nonnegative, got {weights}")
    s = float(np.sum(weights))
    if abs(s - 1.0) > _WEIGHT_SUM_TOL:
        raise WeightSumInvalid(f"weights sum to {s!r}, not 1 within {_WEIGHT_SUM_TOL}")
    weights = weights / s

    whitens = np.stack([_whitening_factor(cov, i) for i, cov in enumerate(covs)])
    precisions = np.swapaxes(whitens, 1, 2) @ whitens
    # log det(cov)^{-1/2} = sum log diag(W), since diag(W) = 1 / diag(L).
    log_det_w = np.sum(np.log(np.diagonal(whitens, axis1=1, axis2=2)), axis=1)
    log_norms = log_det_w - 0.5 * d * np.log(2.0 * np.pi)
    comps = tuple(
        GaussianComponent(
            weight=float(weights[i]),
            mean=means[i].copy(),
            cov=covs[i].copy(),
            log_norm=float(log_norms[i]),
        )
        for i in range(len(weights))
    )
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    return Mixture(
        dim=d,
        components=comps,
        _means=np.stack([c.mean for c in comps]),
        _whitens=whitens,
        _precisions=0.5 * (precisions + np.swapaxes(precisions, 1, 2)),
        _log_weights=log_w,
        _log_norms=log_norms,
    )


def derivatives(mix: Mixture, X) -> Derivatives:
    """Log-density, responsibilities, grad f / f and Hess f / f at every row of X.

    One :meth:`Mixture.log_terms` call over the (m, d) points; the rest is
    accumulated in the max-shifted log scale: responsibilities
    r_i = exp(logterm_i - logsum) weight the per-component pulls
    g_i = P_i (mu_i - x), giving grad f / f = sum_i r_i g_i and
    Hess f / f = sum_i r_i (g_i g_i^T - P_i). Both stay finite deep in the
    tails where the density itself underflows.

    The work runs with the row axis last, and the gradient (m, d) and the
    Hessian (m, d, d) come back as transposed views of (d, m) and
    (d, d, m) arrays. The Hessian is symmetrized, since (r g_a) g_b and
    (r g_b) g_a round differently.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, d = X.shape
    if 0 < m < 4:  # BLAS and einsum round under 4 columns unlike a batch's first 4: pad
        log_density, resp, g, h = derivatives(mix, np.concatenate([X, np.repeat(X[-1:], 4 - m, axis=0)]))
        return Derivatives(log_density[:m], resp[:, :m], g[:m], h[:m])
    log_density, resp = mix._log_density_resp(X)  # (m,), (k, m)
    offsets = mix._means[:, :, None] - X.T  # (k, d, m)
    G = mix._precisions @ offsets
    RG = np.multiply(resp[:, None, :], G, out=offsets)  # r_i g_i, in the offsets' buffer
    hess = np.einsum("kam,kbm->abm", RG, G)  # sum_i r_i g_i g_i^T, (d, d, m)
    del G  # before the (d, d, m) temporaries below
    hess -= (mix._precisions.reshape(mix.k, d * d).T @ resp).reshape(d, d, m)
    hess = 0.5 * (hess + hess.transpose(1, 0, 2))
    return Derivatives(log_density, resp, RG.sum(axis=0).T, hess.transpose(2, 0, 1))


def evaluate(mix: Mixture, x) -> EvalResult:
    """Evaluate density, gradient, Hessian and responsibilities at x.

    The one-point form of :func:`derivatives`; the single rescale by the
    density is applied at the end, and the density is flushed to 0.0 below
    ``LOG_DENSITY_FLOOR``.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (mix.dim,):
        raise DimensionMismatch(f"point has shape {x.shape}, expected ({mix.dim},)")
    if not np.all(np.isfinite(x)):
        raise NonFinite(f"point contains non-finite entries: {x}")

    der = derivatives(mix, x[None, :])
    log_density = float(der.log_density[0])
    density = float(np.exp(log_density)) if log_density > LOG_DENSITY_FLOOR else 0.0
    grad_over_f = der.grad_over_density[0]
    hess_over_f = der.hessian_over_density[0]
    return EvalResult(
        log_density=log_density,
        density=density,
        gradient=density * grad_over_f,
        hessian=density * hess_over_f,
        responsibilities=der.responsibilities[:, 0],
        grad_over_density=grad_over_f,
        hessian_over_density=hess_over_f,
    )


def affine_transform(mix: Mixture, A, b) -> Mixture:
    """Push the mixture forward through x -> A x + b.

    Means become A mu + b, covariances A Sigma A^T; weights are kept.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    d = mix.dim
    if A.shape != (d, d) or b.shape != (d,):
        raise DimensionMismatch(f"transform shapes {A.shape}, {b.shape} do not match dim {d}")
    sign, _ = np.linalg.slogdet(A)
    if not np.all(np.isfinite(A)) or sign == 0.0:
        raise SingularTransform("transform matrix is singular")
    weights = [c.weight for c in mix.components]
    means = [A @ c.mean + b for c in mix.components]
    covs = [A @ c.cov @ A.T for c in mix.components]
    return make_mixture(weights, means, covs)


def is_homoscedastic(mix: Mixture) -> bool:
    """True when every component shares one covariance (1e-12 relative)."""
    ref = mix.components[0].cov
    scale = max(np.max(np.abs(ref)), 1.0e-300)
    return all(
        np.max(np.abs(c.cov - ref)) <= _SYM_RTOL * scale for c in mix.components
    )


def is_isotropic(mix: Mixture) -> bool:
    """True when every covariance is a scalar multiple of the identity."""
    d = mix.dim
    eye = np.eye(d)
    for c in mix.components:
        sigma = np.trace(c.cov) / d
        if np.max(np.abs(c.cov - sigma * eye)) > _SYM_RTOL * max(abs(sigma), 1.0e-300):
            return False
    return True


# ----------------------------------------------------------------------
# JSON schema:
# {"dim": d, "components": [{"weight": w, "mean": [..], "cov": [[..],..]}]}
# ----------------------------------------------------------------------

def mixture_to_dict(mix: Mixture) -> dict:
    return {
        "dim": mix.dim,
        "components": [
            {
                "weight": c.weight,
                "mean": c.mean.tolist(),
                "cov": c.cov.tolist(),
            }
            for c in mix.components
        ],
    }


def mixture_from_dict(obj: dict) -> Mixture:
    """Rebuild a mixture from its JSON object, re-validating all invariants.

    ``InvalidParameter`` if the object does not follow the schema above.
    """
    if not isinstance(obj, dict):
        raise InvalidParameter(f"a mixture document is a JSON object, not {type(obj).__name__}")
    try:
        d = int(obj["dim"])
        comps = obj["components"]
        weights = [float(c["weight"]) for c in comps]
        means = [np.asarray(c["mean"], dtype=float) for c in comps]
        covs = [np.asarray(c["cov"], dtype=float) for c in comps]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"malformed mixture document ({type(exc).__name__}: {exc})") from exc
    mix = make_mixture(weights, means, covs)
    if mix.dim != d:
        raise DimensionMismatch(f"declared dim {d} != component dim {mix.dim}")
    return mix


def save_mixture(mix: Mixture, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mixture_to_dict(mix), fh, indent=2)
        fh.write("\n")


def load_mixture(path) -> Mixture:
    with open(path, encoding="utf-8") as fh:
        return mixture_from_dict(json.load(fh))
