"""Triangular weight-invariant systems of AME states and their closed forms.

For an n-party state with local dimension d, write m = floor(n/2).  When the
state is absolutely maximally entangled, the traces x_i = tr(P_{m+i}^2) of its
squared weight-(m+i) Bloch components satisfy a lower-triangular linear system
whose rows come from the purity of the (m+i)-party reductions; the eigenvalues
lam_{m+i} of those components satisfy a second triangular system with the same
right-hand side.  Both matrices are one unit-diagonal Pascal block
C(m+l, m+j) scaled by powers of d on its rows and columns, so one scale rule
gives their entries and an integer forward substitution that never divides,
and each explicit inverse is its system's entries times a sign and a power of
d; entries and substitution step one Pascal row to the next by additions
instead of computing a binomial per entry.  The substitution yields integer
rows one at a time, each with the sign of its solved value, so a caller that
needs only signs can stop early, and `solve` scales them to `Fraction`s.
Flavor A's scaled right-hand side is d^m times flavor B's, so its integer
solution is d^m times flavor B's: `solve_traces` substitutes once, on the
shorter flavor-B integers, and scales the result up to the traces.  Each
right-hand side and each scaling steps its power of d instead of raising d
afresh per row.  The hypergeometric closed forms for the same
quantities run on an independent code path: one integer sweep of Gauss's
contiguous relation gives the terminating 2F1 for every i of an (n, d), and
each closed-form body is formed from it once, as one `Fraction` per i, which
both the trace and the eigenvalue closed form read.  Forward substitution
and the closed forms never call each other and share nothing beyond
`binomial`; their bit-exact agreement is the package's central correctness
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import Iterable, Iterator, Literal

from .exact import as_index, binomial

Flavor = Literal["A", "B"]


@dataclass(frozen=True)
class SystemParams:
    """Party count and local dimension; m = floor(n/2) is derived on demand."""

    n: int
    d: int

    def __post_init__(self) -> None:
        # a numpy integer would run the solve in fixed width, and a float
        # equal to an integer would share its cache entries
        for field in ("n", "d"):
            value = as_index(getattr(self, field), field)
            if value < 2:
                raise ValueError(f"need {field} >= 2, got {field}={value}")
            object.__setattr__(self, field, value)

    @property
    def m(self) -> int:
        return self.n // 2

    @property
    def i_max(self) -> int:
        """Largest valid weight offset: i runs over 1..n-m, weight m+i_max = n."""
        return self.n - self.m


def _check_i_range(params: SystemParams, i: int) -> None:
    if i < 1 or params.m + i > params.n:
        raise ValueError(
            f"weight offset i={i} out of range 1..{params.i_max} for n={params.n}"
        )


# flavor -> (a, b): row l of the system carries d^-(a*m+l) and column j
# carries d^-(b*j) around the unit-diagonal Pascal block C(m+l, m+j)
_SCALE = {"A": (2, 1), "B": (1, 0)}


@dataclass(frozen=True)
class TriangularSystem:
    """Lower-triangular system over exact rationals, fixed by (params, flavor, size).

    Flavor "A" couples the squared-component traces x_j = tr(P_{m+j}^2);
    flavor "B" couples the eigenvalues lam_{m+j}.  Both share the right-hand
    side entries d^-(n-(m+l)) - d^-(m+l).  Row l, column j (1-based):

        A_lj = d^(-2m-l-j) * C(m+l, m+j)
        B_lj = d^(-m-l)    * C(m+l, m+j)

    that is, one Pascal block P_lj = C(m+l, m+j) scaled on both sides by the
    flavor's `_SCALE` rule.  `entries` and `rhs` are derived on first read;
    `rows` and `solve` form neither.
    """

    params: SystemParams
    flavor: Flavor
    size: int

    def __post_init__(self) -> None:
        _check_i_range(self.params, self.size)
        if self.flavor not in _SCALE:
            raise ValueError(f"flavor must be 'A' or 'B', got {self.flavor!r}")

    def _scaled_rhs(self) -> Iterator[int]:
        """Row l of the right-hand side times its row factor d^(a*m+l): an integer.

        That is d^((a+1)m+2l-n) - d^((a-1)m); n <= 2m+1, so both exponents
        are nonnegative.  The constant is formed once and the power is
        stepped by d^2 from row to row.
        """
        n, d, m = self.params.n, self.params.d, self.params.m
        a, _ = _SCALE[self.flavor]
        const, power = d ** ((a - 1) * m), d ** ((a + 1) * m + 2 - n)
        for _ in range(self.size):
            yield power - const
            power *= d * d

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        d, m, size = self.params.d, self.params.m, self.size
        a, b = _SCALE[self.flavor]
        powers = list(accumulate(repeat(d, a * m + (1 + b) * size), mul, initial=1))
        zeros = (Fraction(0),) * size
        # the block is 0 above the diagonal
        return tuple(
            tuple(Fraction(c, powers[a * m + l + b * j]) for j, c in enumerate(row, 1))
            + zeros[l:]
            for l, row in enumerate(_pascal_rows(m, size), 1)
        )

    @cached_property
    def rhs(self) -> tuple[Fraction, ...]:
        d, m = self.params.d, self.params.m
        a, _ = _SCALE[self.flavor]
        return tuple(Fraction(t, d ** (a * m + l)) for l, t in enumerate(self._scaled_rhs(), 1))

    def rows(self) -> Iterator[int]:
        """z_l on the unit-diagonal Pascal block, in integers, one row at a time.

        z_l = t_l - sum_j C(m+l, m+j) z_j, with t_l the scaled right-hand
        side, and x_l = d^(b*l) z_l, so z_l has the sign of the solved value.
        Each z_l costs l additions to step the Pascal row (`_pascal_rows`)
        and one dot product with the earlier z; the row ends in the diagonal
        1, which has no z yet, so the pairing of row and z stops there.  The
        rows are yielded lazily, so nothing is computed past the row the
        caller stops at.
        """
        zs: list[int] = []
        for t, row in zip(self._scaled_rhs(), _pascal_rows(self.params.m, self.size)):
            zs.append(t - sum(map(mul, row, zs)))
            yield zs[-1]

    def _scaled(self, zs: Iterable[int]) -> tuple[Fraction, ...]:
        """x_j = d^(b*j) z_j as `Fraction`s, the power of d stepped by d^b."""
        powers = accumulate(repeat(self.params.d ** _SCALE[self.flavor][1]), mul)
        return tuple(map(Fraction, map(mul, powers, zs)))

    def solve(self) -> tuple[Fraction, ...]:
        """Solve in integers: z on the unit-diagonal Pascal block, then x_j = d^(b*j) z_j.

        One walk of this system's own; `solve_traces` walks flavor B only
        and scales its z up to flavor A's instead.
        """
        return self._scaled(self.rows())


def _pascal_rows(m: int, size: int) -> Iterator[list[int]]:
    """Row l = 1..size of the Pascal block, C(m+l, m+j) for j = 1..l.

    One list is stepped to the next row in place by Pascal's rule, right to
    left; only the lead C(m+l, m), which lies outside the block, is stepped
    by an exact multiply and floor-divide, so no binomial is computed from
    scratch.  The same list is yielded every time: copy it to keep a row.
    """
    row: list[int] = []
    lead = m + 1
    for l in range(1, size + 1):
        row.append(1)
        yield row
        for k in range(l - 1, 0, -1):
            row[k] += row[k - 1]
        row[0] += lead
        lead = lead * (m + l + 1) // (l + 1)


def build_system(params: SystemParams, i: int, flavor: Flavor) -> TriangularSystem:
    """The flavor-A or flavor-B triangular system of size i.

    Diagonals are nonzero, so `solve` gives either flavor's unique solution;
    the entries are only formed when `entries` is read.
    """
    return TriangularSystem(params, flavor, i)


def explicit_inverse(system: TriangularSystem) -> tuple[tuple[Fraction, ...], ...]:
    """Closed-form inverse of the system matrix, lower triangular again.

    The signed Pascal block (-1)^(l+j) C(m+l, m+j) inverts P, so entry (l, j)
    is (-1)^(l+j) d^(b*l+a*m+j) C(m+l, m+j): flavor A gives
    (-1)^(l+j) d^(2m+l+j) C(m+l, m+j), flavor B (-1)^(l+j) d^(m+j) C(m+l, m+j).
    It is read off `system.entries`, whose entry (l, j) is d^-(a*m+l+b*j)
    C(m+l, m+j): the inverse's entry (l, j) is that entry times
    (-1)^(l+j) d^(2am+(1+b)(l+j)), a factor that depends on l+j only and is
    stepped once for every l+j, and its upper triangle is the system's own
    zeros.  Tests multiply the matrices and demand the exact identity, and
    compare the entries with these two formulas written out.
    """
    d, m, size = system.params.d, system.params.m, system.size
    a, b = _SCALE[system.flavor]
    # scales[t] = (-1)^t d^(2am+(1+b)t) for t = l+j
    scales = list(accumulate(repeat(-(d ** (1 + b)), 2 * size), mul, initial=d ** (2 * a * m)))
    return tuple(
        tuple(scales[l + j] * e for j, e in enumerate(row[:l], 1)) + row[l:]
        for l, row in enumerate(system.entries, 1)
    )


@dataclass(frozen=True)
class WeightTraceProfile:
    """Exact invariants indexed by i = 1..i_max (Bloch weight m+i).

    traces[i] and eigenvalues[i] are related by the exact factor d^(m+i).
    `solve_traces` derives both from one substitution, so tests check that
    relation against the flavor-A system's own `solve`.
    """

    params: SystemParams
    traces: dict[int, Fraction]
    eigenvalues: dict[int, Fraction]


def solve_traces(params: SystemParams) -> WeightTraceProfile:
    """Solve both full-size triangular systems by one forward substitution.

    Both flavors share one Pascal block, and flavor A's scaled right-hand
    side d^(3m+2l-n) - d^m is d^m times flavor B's d^(2m+2l-n) - 1, so
    their integer solutions satisfy z_A = d^m z_B exactly.  Only the
    flavor-B rows are walked; the eigenvalues are their z, and the traces
    are flavor A's own scaling of d^m z, that is d^(m+j) z_j.  This path
    never evaluates the hypergeometric closed forms; the closed forms are
    the independent route the tests compare against.
    """
    sys_a, sys_b = (build_system(params, params.i_max, flavor) for flavor in ("A", "B"))
    zs = list(sys_b.rows())
    return WeightTraceProfile(
        params=params,
        traces=dict(enumerate(sys_a._scaled(params.d**params.m * z for z in zs), 1)),
        eigenvalues=dict(enumerate(sys_b._scaled(zs), 1)),
    )


def _hyp2f1_sweep(params: SystemParams) -> Iterator[tuple[int, int]]:
    """(G_i, (c)_{i-1}) for i = 1..i_max, with F_i = 2F1(1, 1-i; c; d^2) = G_i / (c)_{i-1}.

    Gauss's contiguous relation in b (DLMF 15.5.11 with a and b swapped, a = 1),

        (c-b) F(b-1) + (2b-c+(1-b)z) F(b) + b(z-1) F(b+1) = 0,

    at b = 1-i, c = m+2, z = d^2 steps F_{i+1} from F_i and F_{i-1}, starting
    at F_1 = 1 and F_2 = 1 - z/c.  Multiplied through by the Pochhammer symbol
    (c)_i it runs on the integers G_i = (c)_{i-1} F_i without dividing, and
    the Pochhammer symbol is stepped alongside, so the sweep yields integers
    only; `hyp2f1_terminating` is the series it is tested against.
    """
    c, z = params.m + 2, params.d**2
    g_prev, g, poch = 0, 1, 1
    yield g, poch
    for i in range(1, params.i_max):
        g_prev, g = g, (2 * i + c - 2 - i * z) * g + (i - 1) * (z - 1) * (c + i - 2) * g_prev
        poch *= c + i - 1
        yield g, poch


@lru_cache(maxsize=1)
def _closed_form_bodies(params: SystemParams) -> tuple[Fraction, ...]:
    """(-1)^i C(i+m, 1+m) [1+m - d^(2(1+m)-n) (i+m) 2F1(1, 1-i; 2+m; d^2)] / (i+m).

    Entry i-1 is the value at i, for every i of an (n, d) from one sweep.
    With the 2F1 written as G_i / (m+2)_{i-1}, each value is one `Fraction`
    of two integers, so it is normalised once.  Both closed forms are this
    value times a power of d; one (n, d) is cached, so they share one sweep.
    """
    n, d, m = params.n, params.d, params.m
    scale = d ** (2 * (1 + m) - n)
    bodies = []
    for i, (g, poch) in enumerate(_hyp2f1_sweep(params), 1):
        sign = -1 if i % 2 else 1
        bracket = (1 + m) * poch - scale * (i + m) * g
        bodies.append(Fraction(sign * binomial(i + m, 1 + m) * bracket, (i + m) * poch))
    return tuple(bodies)


def trace_closed_form(params: SystemParams, i: int) -> Fraction:
    """tr(P_{m+i}^2) from the hypergeometric closed form, without any solve.

    Value: (-1)^i d^(i+m) C(i+m, 1+m)
           * [1+m - d^(2(1+m)-n) (i+m) 2F1(1, 1-i; 2+m; d^2)] / (i+m).
    """
    _check_i_range(params, i)
    return params.d ** (i + params.m) * _closed_form_bodies(params)[i - 1]


def trace_i2_specialization(params: SystemParams) -> Fraction:
    """tr(P_{m+2}^2) as the explicit parity-split polynomial in n and d.

    Odd n:  (d-1)/2   * d^((3+n)/2) * (2d^2 + 2d - 1 - n)
    Even n: (d^2-1)/2 * d^(2+n/2)   * (2d^2 - 2 - n)

    Its sign reproduces the classic size bound for AME existence, which is
    what makes i=2 the critical weight.
    """
    _check_i_range(params, 2)
    n, d = params.n, params.d
    if n % 2:
        return Fraction(d - 1, 2) * d ** ((3 + n) // 2) * (2 * d * d + 2 * d - 1 - n)
    return Fraction(d * d - 1, 2) * d ** (2 + n // 2) * (2 * d * d - 2 - n)


def eigenvalue_closed_form(params: SystemParams, i: int) -> Fraction:
    """Eigenvalue lam_{m+i} of the weight-(m+i) component, closed form.

    Identical to the trace closed form except for the overall d^(m+i); the
    factor relation traces[i] = d^(m+i) * eigenvalues[i] is asserted in tests
    rather than used here.
    """
    _check_i_range(params, i)
    return _closed_form_bodies(params)[i - 1]


def purity_identity_residual(params: SystemParams) -> Fraction:
    """Residual of the global purity decomposition on the solved traces.

    d^(-2n) [d^n + sum_i C(n, m+i) d^(n-(m+i)) traces[i]] - 1, which is
    exactly zero because the last system row encodes full-state purity.
    Only the traces enter, so only the flavor-A system is solved.
    """
    traces = build_system(params, params.i_max, "A").solve()
    n, d, m = params.n, params.d, params.m
    acc = d**n
    for i, trace in enumerate(traces, 1):
        acc += binomial(n, m + i) * d ** (n - (m + i)) * trace
    return acc / d ** (2 * n) - 1
