"""Exact integer mode-count bounds for mixtures of k Gaussians in R^d.

Three quantities are tracked for each (d, k):

* ``lower``      -- the constructive lower bound C(k, d) + k,
* ``conjecture`` -- the conjectured maximum C(d + k - 1, d),
* ``upper``      -- the fewnomial-type upper bound 2^(d + C(k,2)) * (5 + 3d)^k.

Everything is plain Python integer arithmetic; values overflow 64 bits
already around d = k = 8.

The lower-bound formula is known to overshoot for d = 1, where the true
maximum is k (the construction's vertex modes coincide with the mean
modes on a line). ``bound_table`` flags those cells instead of clamping.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from math import comb

from .errors import InvalidParameter

__all__ = [
    "BoundSet",
    "lower",
    "conjecture",
    "upper",
    "fewnomial",
    "bound_table",
    "table_to_csv",
    "table_to_text",
]


@dataclass(frozen=True)
class BoundSet:
    d: int
    k: int
    lower: int
    conjecture: int
    upper: int
    # True where the lower-bound formula exceeds the known exact value
    # m(1, k) = k; only possible for d = 1, k >= 1.
    lower_exceeds_known: bool = False


def _check(d: int, k: int) -> None:
    if d < 1 or k < 1:
        raise InvalidParameter(f"d and k must be >= 1, got d={d}, k={k}")


def lower(d: int, k: int) -> int:
    """Constructive lower bound C(k, d) + k (0 + k when d > k)."""
    _check(d, k)
    return comb(k, d) + k


def conjecture(d: int, k: int) -> int:
    """Conjectured maximum number of modes C(d + k - 1, d)."""
    _check(d, k)
    return comb(d + k - 1, d)


def upper(d: int, k: int) -> int:
    """Upper bound 2^(d + C(k,2)) * (5 + 3d)^k on non-degenerate critical points."""
    _check(d, k)
    return 2 ** (d + comb(k, 2)) * (5 + 3 * d) ** k


def fewnomial(degrees, k: int) -> int:
    """Bound on non-degenerate solutions of n polynomial equations of the
    given degrees in n variables plus k exponentials of quadratic forms:

        d_1 * ... * d_n * (5 + n + d_1 + ... + d_n)^k * 2^(k(k-1)/2)

    With k = 0 this is the Bezout product of the degrees.
    """
    degrees = [int(x) for x in degrees]
    if len(degrees) == 0 or any(x < 1 for x in degrees):
        raise InvalidParameter(f"degrees must be a nonempty sequence of positive ints, got {degrees}")
    if k < 0:
        raise InvalidParameter(f"k must be >= 0, got {k}")
    n = len(degrees)
    total = sum(degrees)
    prod = 1
    for x in degrees:
        prod *= x
    return prod * (5 + n + total) ** k * 2 ** (k * (k - 1) // 2)


def bound_table(d_max: int, k_max: int) -> list[list[BoundSet]]:
    """Full (d, k) table of bound triples, row d = 1..d_max, column k = 1..k_max."""
    _check(d_max, k_max)
    table = []
    for d in range(1, d_max + 1):
        row = []
        for k in range(1, k_max + 1):
            lo = lower(d, k)
            row.append(
                BoundSet(
                    d=d,
                    k=k,
                    lower=lo,
                    conjecture=conjecture(d, k),
                    upper=upper(d, k),
                    lower_exceeds_known=(d == 1 and lo > k),
                )
            )
        table.append(row)
    return table


def table_to_csv(table: list[list[BoundSet]]) -> str:
    out = io.StringIO()
    out.write("d,k,lower,conjecture,upper,lower_exceeds_known\n")
    for row in table:
        for b in row:
            out.write(
                f"{b.d},{b.k},{b.lower},{b.conjecture},{b.upper},"
                f"{str(b.lower_exceeds_known).lower()}\n"
            )
    return out.getvalue()


def table_to_text(table: list[list[BoundSet]]) -> str:
    rows = [("d", "k", "lower", "conjecture", "upper", "flag")]
    for row in table:
        for b in row:
            rows.append(
                (
                    str(b.d),
                    str(b.k),
                    str(b.lower),
                    str(b.conjecture),
                    str(b.upper),
                    "d=1 formula > m(1,k)" if b.lower_exceeds_known else "",
                )
            )
    widths = [max(len(r[i]) for r in rows) for i in range(6)]
    lines = [
        "  ".join(cell.rjust(w) for cell, w in zip(r[:5], widths[:5]))
        + ("  " + r[5] if r[5] else "")
        for r in rows
    ]
    return "\n".join(lines) + "\n"
