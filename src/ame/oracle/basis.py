"""Hermitian one-site operator basis and coefficient-space weight traces.

Normalization: tr(g_a g_b) = d * delta_ab with g_0 the identity, so d = 2
gives exactly {I, X, Y, Z}.  Higher d follows the Gell-Mann pattern
(symmetric / antisymmetric pair operators, then diagonal ladders), rescaled
from the conventional trace-2 normalization to trace d.

With rho = d^-n sum_alpha r_alpha g_alpha, grouping squared coefficients by
the exact support S of alpha gives tr(P_S^2) = d^|S| * sum_{supp(alpha)=S}
r_alpha^2 -- the second, basis-dependent route to the numbers produced by
`weights.weight_distribution`.  The coefficients are real, and are computed
in real arithmetic over the real basis h_a that `_real_basis` builds
directly, d(d-1)/2 real antisymmetric matrices and the rest real symmetric;
`one_site_basis` is g_a = -i*h_a for an antisymmetric h_a, g_a = h_a
otherwise, and with k the number of antisymmetric factors in alpha,
r_alpha = (-1)^floor(k/2) * tr((Re rho + Im rho) h_alpha).  They are
contracted in blocks: enough leading sites are split off that each block,
the real matrix N the state leaves on the trailing sites for one
leading-site operator, fits the oracle's stack budget
`weights._STACK_ENTRIES`, so no d^(2n) density tensor is formed, and the
only array of that size is the float64 output.  Each block takes one BLAS
matmul per trailing site against the real (d^2, d^2) basis matrix, the
leading site each time, and its signs as it is written.  The grouping
needs no per-coefficient support bitmask: whether a_j is 0 or not is all
that S records of party j, so each party's axis of the squared tensor,
squared in place, folds in place to two entries (identity, and the sum
over the traceless 1..d^2-1), and those entries of every axis, a (2,)*n
view, hold the 2^n support sums.
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


def _real_basis(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Real basis h_a, identity first, and which h_a are antisymmetric.

    For each level pair j < k the symmetric s(E_jk + E_kj), then the
    antisymmetric s(E_jk - E_kj), s = sqrt(d/2); then the diagonal ladders.
    """
    h = np.zeros((d * d, d, d))
    odd = np.zeros(d * d, dtype=bool)
    h[0] = np.eye(d)
    a = 1
    s = math.sqrt(d / 2.0)
    for j, k in itertools.combinations(range(d), 2):
        # entries (j, k) and (k, j) of h_a and h_{a+1}
        h[a : a + 2, [j, k], [k, j]] = [[s, s], [s, -s]]
        odd[a + 1] = True
        a += 2
    for l in range(1, d):
        c = math.sqrt(d / (l * (l + 1)))
        h[a, range(l + 1), range(l + 1)] = [c] * l + [-l * c]
        a += 1
    return h, odd


def one_site_basis(d: int) -> np.ndarray:
    """Stack of d^2 Hermitian matrices, identity first, tr(g_a g_b) = d*delta_ab.

    g_a = h_a of `_real_basis`, or -i*h_a for an antisymmetric h_a.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    h, odd = _real_basis(d)
    return np.where(odd[:, None, None], -1j * h, h)


def bloch_coefficients(state: StateVector) -> np.ndarray:
    """Coefficient tensor r[a_0, ..., a_{n-1}] = tr(rho * g_{a_0} x ... x g_{a_{n-1}}).

    Computed in float64 alone, real and complex states alike.  Each
    generator is real and symmetric or imaginary and antisymmetric, so
    h_a = g_a, respectively i*g_a, is a real basis, and g_alpha =
    (-i)^k h_alpha with k the number of antisymmetric factors in alpha.
    With rho = A + iB, A real symmetric and B real antisymmetric,
    tr(B h_alpha) = 0 for even k (h_alpha symmetric) and tr(A h_alpha) = 0
    for odd k (h_alpha antisymmetric), so

        r_alpha = (-1)^floor(k/2) * tr(C h_alpha),  C = Re rho + Im rho,

    exactly, for every state.

    Contracted in blocks over the leading sites: the fewest leading sites s
    are split off for which a trailing block of d^(2(n-s)) entries fits
    `weights._STACK_ENTRIES`, read at call time, so C itself is formed only
    by a state small enough to be the single s = 0 block.  With the
    amplitudes as a d^s x d^(n-s) matrix T = P + iQ, the leading-site
    operator H = h_{a_0} x ... x h_{a_{s-1}} leaves the real
    d^(n-s) x d^(n-s) block N = P^T H^T (P - Q) + Q^T H^T (Q + P), one
    matmul over the stacked [P; Q] (for a real state N = P^T H^T P), with
    tr(C h_alpha) = tr(N * h_{a_s} x ... x h_{a_{n-1}}).  N is contracted
    against the real basis one site at a time: each step moves the leading
    site's row and column digits together, a 4-axis copy, and is one BLAS
    matmul, which reads the transposed operand in place, contracts those
    d^2 (row, column) entries with the (d^2, d^2) basis matrix and puts the
    site's coefficient axis last, after those of the sites already
    contracted.  The sign (-1)^floor(k/2) is applied as each block is
    written into the one float64 output, the blocks in C order of the
    leading operators: k is the leading operator's count c plus the
    trailing index's, and since residues c and c + 2 differ by an overall
    sign, folded into H, two int8 sign tables of the block's size serve
    every block.  Besides the output, two float64 arrays of one block's
    size are held at once.
    """
    n, d = state.n, state.d
    if d ** (2 * n) > _COEFF_SCALE:
        raise ValueError(f"coefficient tensor too large: d**(2n) = {d ** (2 * n)}")
    h, odd = _real_basis(d)
    # basis[x * d + y, a] = h_a[y, x]: a row of (x, y) entries of N maps to
    # sum_{x,y} N[x, y] h_a[y, x], the trace over that site
    basis = h.transpose(2, 1, 0).reshape(d * d, d * d)
    s = 0
    while s < n and d ** (2 * (n - s)) > weights._STACK_ENTRIES:
        s += 1
    k = n - s
    t = np.ascontiguousarray(state.site_tensor()).reshape(d**s, d**k)
    lhs = np.concatenate([t.real, t.imag])
    rhs = np.stack([t.real - t.imag, t.imag + t.real])
    # the count of antisymmetric factors of each trailing index, in C order
    trail = np.zeros(1, dtype=np.int8)
    for _ in range(k):
        trail = (trail[:, None] + odd).reshape(-1)
    signs = [np.where((c + trail) // 2 % 2, np.int8(-1), np.int8(1)) for c in (0, 1)]
    out = np.empty(((d * d) ** s, (d * d) ** k))
    for block, lead in enumerate(itertools.product(range(d * d), repeat=s)):
        c = sum(odd[a] for a in lead)
        op = functools.reduce(np.kron, (h[a] for a in lead), np.full((1, 1), (-1.0) ** (c // 2)))
        cur = lhs.T @ (op.T @ rhs).reshape(2 * d**s, d**k)
        # cur holds (row digits of sites s+j..n-1, their column digits,
        # coefficient axes of sites s..s+j-1) before step j
        for j in range(k):
            cur = cur.reshape(d, d ** (k - 1 - j), d, -1).transpose(0, 2, 1, 3).reshape(d * d, -1)
            cur = cur.T @ basis
        np.multiply(cur.reshape(-1), signs[c % 2], out=out[block])
    return out.reshape((d * d,) * n)


def weight_distribution_basis(state: StateVector) -> WeightDistribution:
    """Same contract as weights.weight_distribution, from squared coefficients."""
    n, d = state.n, state.d
    acc = bloch_coefficients(state)
    np.square(acc, out=acc)
    # fold each party's axis to (identity, sum over the traceless 1..d^2-1)
    # in place, into its entry 1; the parties before it are folded already,
    # so only their entries 0 and 1 are read; the Ellipsis keeps a one-party
    # entry a 0-d view, not a scalar
    for j in range(n):
        lead = (slice(0, 2),) * j
        one = acc[lead + (1, ...)]
        for a in range(2, d * d):
            np.add(one, acc[lead + (a, ...)], out=one)
    # axis j of the (2,)*n sums is bit j of the support mask
    acc = acc[(slice(0, 2),) * n].transpose(tuple(range(n - 1, -1, -1))).reshape(-1)
    return WeightDistribution.from_masks(n, d, acc * d ** bit_counts(n))
