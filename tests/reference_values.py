"""Frozen reference data for the d=2 weight-trace table, and AME graphs.

Values were produced by the exact forward-substitution solver and
independently confirmed by the hypergeometric closed forms (the two never
call each other); they are integers, so equality below is exact.  Cell
(n=12, i=4) is -61440 = -2^12 * 15, consistent across both exact routes.
"""

QUBIT_TRACES = {
    2: {1: 12},
    3: {1: 4, 2: 32},
    4: {1: 24, 2: 48},
    5: {1: 8, 2: 48, 3: 192},
    6: {1: 48, 2: 0, 3: 1152},
    7: {1: 16, 2: 64, 3: 256, 4: 2816},
    8: {1: 96, 2: -192, 3: 2688, 4: 768},
    9: {1: 32, 2: 64, 3: 384, 4: 4864, 5: 11264},
    10: {1: 192, 2: -768, 3: 6912, 4: -12288, 5: 141312},
    11: {1: 64, 2: 0, 3: 768, 4: 8192, 5: 6144, 6: 294912},
    12: {1: 384, 2: -2304, 3: 18432, 4: -61440, 5: 405504, 6: -663552},
    13: {1: 128, 2: -256, 3: 2048, 4: 12288, 5: -12288, 6: 614400, 7: -98304},
}

# (n, d) pairs ruled out by a negative trace for d=2, n <= 13, with the
# weight offset of the first negative entry
QUBIT_RULED_OUT = {8: 2, 10: 2, 12: 2, 13: 2}


def reed_solomon_edges(n, p):
    """Weighted edges (u, v, w) of an AME(n, p) graph state, p prime, p >= n.

    The graph is [[0, A], [A^T, 0]] with the Cauchy matrix A_xy = 1/(x - y)
    over F_p, x < floor(n/2) <= y: every square submatrix of A is invertible,
    so its code is MDS and the graph state is AME (Helwig et al., PRA 86,
    052335 (2012)).
    """
    h = n // 2
    return [(x, y, pow(x - y, -1, p)) for x in range(h) for y in range(h, n)]
