"""Hermitian one-site operator basis and coefficient-space weight traces.

Normalization: tr(g_a g_b) = d * delta_ab with g_0 the identity, so d = 2
gives exactly {I, X, Y, Z}.  Higher d follows the Gell-Mann pattern
(symmetric / antisymmetric pair operators, then diagonal ladders), rescaled
from the conventional trace-2 normalization to trace d.

With rho = d^-n sum_alpha r_alpha g_alpha, grouping squared coefficients by
the exact support S of alpha gives tr(P_S^2) = d^|S| * sum_{supp(alpha)=S}
r_alpha^2 -- the second, basis-dependent route to the numbers produced by
`weights.weight_distribution`.  The coefficients come from one BLAS matmul
per site against the (d^2, d^2) basis matrix, the leading site each time.
The grouping needs no per-coefficient support bitmask: whether a_j is 0 or
not is all that S records of party j, so each party's axis of the squared
tensor folds to two entries (identity, and the sum over the traceless
1..d^2-1), and the resulting (2,)*n tensor holds the 2^n support sums.
"""

from __future__ import annotations

import math

import numpy as np

from .states import StateVector
from .weights import WeightDistribution, bit_counts

_COEFF_SCALE = 10**7


def one_site_basis(d: int) -> np.ndarray:
    """Stack of d^2 Hermitian matrices, identity first, tr(g_a g_b) = d*delta_ab."""
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    g = np.zeros((d * d, d, d), dtype=np.complex128)
    g[0] = np.eye(d)
    a = 1
    s = math.sqrt(d / 2.0)
    for j in range(d):
        for k in range(j + 1, d):
            g[a, j, k] = s
            g[a, k, j] = s
            a += 1
            g[a, j, k] = -1j * s
            g[a, k, j] = 1j * s
            a += 1
    for l in range(1, d):
        c = math.sqrt(d / (l * (l + 1)))
        for j in range(l):
            g[a, j, j] = c
        g[a, l, l] = -l * c
        a += 1
    return g


def bloch_coefficients(state: StateVector) -> np.ndarray:
    """Coefficient tensor r[a_0, ..., a_{n-1}] = tr(rho * g_{a_0} x ... x g_{a_{n-1}}).

    Contracts the rank-1 density tensor against the basis one site at a time,
    keeping peak memory at two arrays of d^(2n) complex entries instead of the
    naive d^(3n).  rho is formed once with each site's row and column digits
    adjacent, site 0 leading.  Each site is then one BLAS matmul, which reads
    the transposed operand in place: the leading site's d^2 (row, column)
    entries are contracted with the (d^2, d^2) basis matrix, and its
    coefficient axis lands last, after those of the sites already contracted.
    Hermiticity makes every coefficient real; the imaginary parts are checked
    to be rounding noise and dropped.
    """
    n, d = state.n, state.d
    if d ** (2 * n) > _COEFF_SCALE:
        raise ValueError(f"coefficient tensor too large: d**(2n) = {d ** (2 * n)}")
    # basis[x * d + y, a] = g_a[y, x]: a row of (x, y) entries of rho maps to
    # sum_{x,y} rho[x, y] g_a[y, x], the trace over that site
    basis = one_site_basis(d).transpose(2, 1, 0).reshape(d * d, d * d)
    t = np.ascontiguousarray(state.site_tensor()).reshape(d**n)
    # rho with each site's (row, column) digits adjacent, site 0 leading: one
    # copy of the C-ordered np.outer, so no reshape below copies; a broadcast
    # product of the reversed-axis site tensor is not C-ordered, and raised
    # the peak by a third
    cur = np.ascontiguousarray(
        np.outer(t, t.conj())
        .reshape((d,) * (2 * n))
        .transpose([a for j in range(n) for a in (j, n + j)])
    )
    # cur holds (row and column digits of sites j..n-1, coefficient axes of
    # sites 0..j-1) before step j
    for _ in range(n):
        cur = cur.reshape(d * d, -1).T @ basis
    coeffs = cur.reshape((d * d,) * n)
    if float(np.abs(coeffs.imag).max()) > 1e-9:
        raise AssertionError("Bloch coefficients of a Hermitian matrix must be real")
    return np.ascontiguousarray(coeffs.real)


def weight_distribution_basis(state: StateVector) -> WeightDistribution:
    """Same contract as weights.weight_distribution, from squared coefficients."""
    n, d = state.n, state.d
    acc = np.square(bloch_coefficients(state))
    # fold each party's axis to (identity, sum over the traceless 1..d^2-1),
    # leading party first, so the folded axes collect at the end in party order
    for _ in range(n):
        acc = acc.reshape(d * d, -1)
        acc = np.stack([acc[0], acc[1:].sum(axis=0)], axis=-1)
    # axis j of the (2,)*n sums is bit j of the support mask
    acc = acc.reshape((2,) * n).transpose(tuple(range(n - 1, -1, -1))).reshape(-1)
    return WeightDistribution.from_masks(n, d, acc * d ** bit_counts(n))
