"""Hermitian one-site operator basis and coefficient-space weight traces.

Normalization: tr(g_a g_b) = d * delta_ab with g_0 the identity, so d = 2
gives exactly {I, X, Y, Z}.  Higher d follows the Gell-Mann pattern
(symmetric / antisymmetric pair operators, then diagonal ladders), rescaled
from the conventional trace-2 normalization to trace d.

With rho = d^-n sum_alpha r_alpha g_alpha, grouping squared coefficients by
the exact support S of alpha gives tr(P_S^2) = d^|S| * sum_{supp(alpha)=S}
r_alpha^2 -- the second, basis-dependent route to the numbers produced by
`weights.weight_distribution`.  The coefficients are contracted in blocks:
enough leading sites are split off that each block, the matrix the state
leaves on the trailing sites for one leading-site operator, fits the
oracle's stack budget `weights._STACK_ENTRIES`, so no complex tensor of
d^(2n) entries is formed, and the only array of that size is the float64
output.  Each block takes one BLAS matmul per trailing site against the
(d^2, d^2) basis matrix, the leading site each time.  The grouping needs
no per-coefficient support bitmask: whether a_j is 0 or not is all that S
records of party j, so each party's axis of the squared tensor, squared in
place, folds to two entries (identity, and the sum over the traceless
1..d^2-1), and the resulting (2,)*n tensor holds the 2^n support sums.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import weights
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

    Contracted in blocks over the leading sites: the fewest leading sites s
    are split off for which a trailing block of d^(2(n-s)) entries fits
    `weights._STACK_ENTRIES`, read at call time, so rho itself is formed only
    by a state small enough to be the single s = 0 block.  With the
    amplitudes as a d^s x d^(n-s) matrix T, the leading-site operator
    G = g_{a_0} x ... x g_{a_{s-1}} leaves the Hermitian d^(n-s) x d^(n-s)
    matrix M = T^T G^T conj(T), with
    r[a_0, ..., a_{n-1}] = tr(M * g_{a_s} x ... x g_{a_{n-1}}).  M is
    contracted against the basis one site at a time: formed once with each
    site's row and column digits adjacent, site s leading, each site is one
    BLAS matmul, which reads the transposed operand in place, contracts the
    leading site's d^2 (row, column) entries with the (d^2, d^2) basis matrix
    and puts its coefficient axis last, after those of the sites already
    contracted.  Hermiticity makes every coefficient real: each block's
    imaginary parts are checked to be rounding noise, and its real part is
    written into the one float64 output, the blocks in C order of the leading
    operators.  Besides the output, only a few complex arrays of one block's
    size are held at once.
    """
    n, d = state.n, state.d
    if d ** (2 * n) > _COEFF_SCALE:
        raise ValueError(f"coefficient tensor too large: d**(2n) = {d ** (2 * n)}")
    g = one_site_basis(d)
    # basis[x * d + y, a] = g_a[y, x]: a row of (x, y) entries of M maps to
    # sum_{x,y} M[x, y] g_a[y, x], the trace over that site
    basis = g.transpose(2, 1, 0).reshape(d * d, d * d)
    s = 0
    while s < n and d ** (2 * (n - s)) > weights._STACK_ENTRIES:
        s += 1
    k = n - s
    t = np.ascontiguousarray(state.site_tensor()).reshape(d**s, d**k)
    t_conj = t.conj()
    # M's row and column digits of each trailing site adjacent, site s leading
    order = [a for j in range(k) for a in (j, k + j)]
    out = np.empty(((d * d) ** s, (d * d) ** k))
    for block, ops in enumerate(itertools.product(g, repeat=s)):
        op = functools.reduce(np.kron, ops, np.ones((1, 1)))
        cur = np.ascontiguousarray(
            (t.T @ (op.T @ t_conj)).reshape((d,) * (2 * k)).transpose(order)
        )
        # cur holds (row and column digits of sites s+j..n-1, coefficient axes
        # of sites s..s+j-1) before step j
        for _ in range(k):
            cur = cur.reshape(d * d, -1).T @ basis
        if float(np.abs(cur.imag).max()) > 1e-9:
            raise AssertionError("Bloch coefficients of a Hermitian matrix must be real")
        out[block] = cur.real.reshape(-1)
    return out.reshape((d * d,) * n)


def weight_distribution_basis(state: StateVector) -> WeightDistribution:
    """Same contract as weights.weight_distribution, from squared coefficients."""
    n, d = state.n, state.d
    acc = bloch_coefficients(state)
    np.square(acc, out=acc)
    # fold each party's axis to (identity, sum over the traceless 1..d^2-1),
    # leading party first, so the folded axes collect at the end in party order
    for _ in range(n):
        acc = acc.reshape(d * d, -1)
        acc = np.stack([acc[0], acc[1:].sum(axis=0)], axis=-1)
    # axis j of the (2,)*n sums is bit j of the support mask
    acc = acc.reshape((2,) * n).transpose(tuple(range(n - 1, -1, -1))).reshape(-1)
    return WeightDistribution.from_masks(n, d, acc * d ** bit_counts(n))
