"""The seeded 2-component sweeps that stress the k = 2 oracle.

Mixture i of either family draws from ``default_rng(1000 + i)``. The two
families share their first draws, so a spectrum mixture and the needle
mixture of the same index have the same weight.

- ``spectrum_pair(i)``, d = 1 + i mod 3: weight U(0.15, 0.85), means
  N(0, 1.5^2), log10 ratio U(0, 12); then each covariance is rotated by
  its own Q, with eigenvalues geometric from 1 to the ratio in a drawn
  order (variances 1 and the ratio when d = 1).
- ``needle_pair(i)``, d = 2 + i mod 2: weight U(0.15, 0.85), means
  N(0, 1.5^2), ratio 10^U(0, 12); then each covariance is rotated by its
  own Q, with eigenvalues (1 / ratio, 1, ...): crossing needles.

Q is the QR factor of an N(0, 1) d x d draw, its column signs set so
that diag R > 0.

``census`` is the Morse census of a list of critical points, and
``census_sweep`` counts the mixtures of a family on which the k = 2
oracle's census holds.
"""

import numpy as np

from gmmodes.mixture import make_mixture
from gmmodes.modefinder import ridgeline_oracle_k2


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _pair(weight, means, covs):
    covs = [0.5 * (c + c.T) for c in covs]
    return make_mixture([weight, 1.0 - weight], means, covs)


def spectrum_pair(i: int):
    rng, d = np.random.default_rng(1000 + i), 1 + i % 3
    weight = rng.uniform(0.15, 0.85)
    means = rng.normal(scale=1.5, size=(2, d))
    ratio = 10.0 ** rng.uniform(0.0, 12.0)
    covs = []
    for j in range(2):
        Q = _rotation(rng, d)
        ev = np.geomspace(1.0, ratio, d)[rng.permutation(d)] if d > 1 else np.array([(1.0, ratio)[j]])
        covs.append((Q * ev) @ Q.T)
    return _pair(weight, means, covs)


def needle_pair(i: int):
    rng, d = np.random.default_rng(1000 + i), 2 + i % 2
    weight = rng.uniform(0.15, 0.85)
    means = rng.normal(scale=1.5, size=(2, d))
    ratio = 10.0 ** rng.uniform(0.0, 12.0)
    ev = np.array([1.0 / ratio] + [1.0] * (d - 1))
    covs = [(Q * ev) @ Q.T for Q in (_rotation(rng, d) for _ in range(2))]
    return _pair(weight, means, covs)


def census(points, d):
    """sum over critical points of (-1)^(d - s), s = number of negative
    Hessian eigenvalues; 1 (the Euler characteristic of R^d) for a complete
    list of non-degenerate critical points."""
    assert not any(p.kind == "degenerate" for p in points)
    return sum((-1) ** (d - int(np.sum(p.hessian_eigenvalues < 0))) for p in points)


def census_sweep(pair, n: int):
    """(held, failed) over the first n mixtures of ``pair`` (``needle_pair``
    or ``spectrum_pair``): how many have an oracle census of 1, and the
    indices of the others."""
    failed = []
    for i in range(n):
        mix = pair(i)
        if census(ridgeline_oracle_k2(mix, samples=4000), mix.dim) != 1:
            failed.append(i)
    return n - len(failed), failed
