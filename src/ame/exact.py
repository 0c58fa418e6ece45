"""Exact scalar arithmetic shared by the closed forms and the linear systems.

Every algebraic quantity in this package is a ``fractions.Fraction``;
nothing on that side ever touches floating point, so table regressions can
demand bit-exact equality.  `as_index` turns an integer input, numpy integers
included, into a Python int and refuses anything else, so neither a float nor
fixed-width arithmetic reaches that side.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def as_index(value, what: str) -> int:
    """`value` as a Python int, if it is an integer (int, bool or numpy integer).

    A float, a string or anything else without `__index__` raises ValueError
    naming `what` and the value, rather than being truncated or parsed.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def binomial(n: int, k: int) -> int:
    """C(n, k), returning 0 whenever k is out of range.

    Zero for k < 0 or k > n is the usual convention for the public function;
    its callers in `enumerator`, the closed-form bodies and
    `purity_identity_residual`, pass 0 <= k <= n only.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def hyp2f1_terminating(c: int, i: int, z: Fraction | int) -> Fraction:
    """Exact value of the terminating Gauss series 2F1(1, 1-i; c; z).

    The second upper parameter 1-i is a nonpositive integer, so the series
    has exactly ``i`` terms:

        sum_{k=0}^{i-1}  (1)_k (1-i)_k / (c)_k * z^k / k!

    Successive terms are produced via the ratio
    (1+k)(1-i+k) / ((c+k)(1+k)) * z; an independent Pochhammer-product
    summation is kept in the test suite as a cross-check.  The closed forms
    in `enumerator` take every i at once from a contiguous-relation sweep;
    this term-by-term series is what that sweep is tested against.
    """
    if i < 1:
        raise ValueError(f"termination parameter must be >= 1, got i={i}")
    if c < 1:
        raise ValueError(f"lower parameter must be >= 1, got c={c}")
    z = Fraction(z)
    total = Fraction(0)
    term = Fraction(1)
    for k in range(i):
        total += term
        term *= Fraction((1 + k) * (1 - i + k), (c + k) * (1 + k)) * z
    return total
