"""Exact Bloch-weight invariants of absolutely maximally entangled states.

Core layout: `exact` holds scalar rational arithmetic, `enumerator` the
triangular invariant systems and hypergeometric closed forms, `existence`
the negativity rule-outs, and `oracle` the dense-state numerics that confirm
the algebra on explicitly constructed states.  The `ame` console script in
`cli` fronts all of it.
"""

from .enumerator import (
    SystemParams,
    TriangularSystem,
    WeightTraceProfile,
    build_system,
    eigenvalue_closed_form,
    explicit_inverse,
    purity_identity_residual,
    solve_traces,
    trace_closed_form,
    trace_i2_specialization,
)
from .exact import binomial, hyp2f1_terminating
from .existence import (
    ExistenceVerdict,
    check,
    i2_counterexamples,
    satisfies_scott_bound,
    scan,
)

__all__ = [
    "ExistenceVerdict",
    "SystemParams",
    "TriangularSystem",
    "WeightTraceProfile",
    "binomial",
    "build_system",
    "check",
    "eigenvalue_closed_form",
    "explicit_inverse",
    "hyp2f1_terminating",
    "i2_counterexamples",
    "purity_identity_residual",
    "satisfies_scott_bound",
    "scan",
    "solve_traces",
    "trace_closed_form",
    "trace_i2_specialization",
]

__version__ = "0.1.0"
