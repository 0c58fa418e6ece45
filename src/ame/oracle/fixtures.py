"""Named example states.

bell(d) and ghz3(d) are textbook AME(2, d) / AME(3, d) states; ame43 is the
minimal-support four-qutrit state; ring5 is the five-qubit ring graph state;
ame62 is a six-qubit graph state discovered (and cached) by the exhaustive
search rather than hard-coded, so the fixture never drifts from the oracle.

`builtin_state` reads one registry of two private tables: the GHZ families,
which take a dimension argument, by party count, and the fixed states, which
take none.  `BUILTIN_NAMES` is built from the same tables, so a builtin is
added by one table entry and joins every loop over `BUILTIN_NAMES` by itself.
"""

from __future__ import annotations

import functools
import re

from .search import find_ame_graph
from .states import GraphSpec, StateVector, ame43, ghz, graph_state, ring_graph
from .weights import check_desk_scale

_NAME_RE = re.compile(r"^([a-z0-9]+)(?:\((\d+)\))?$")


def ring5() -> StateVector:
    """Five-qubit ring graph state, 2-uniform."""
    return graph_state(ring_graph(5, 2))


@functools.lru_cache(maxsize=1)
def ame62_graph() -> GraphSpec:
    """First six-vertex graph (in enumeration order) whose state is 3-uniform."""
    hits = find_ame_graph(6, 2, limit=1)
    if not hits:
        # the search is exhaustive, so reaching this would be a genuine bug
        raise RuntimeError("no 3-uniform six-qubit graph state found")
    return hits[0]


def ame62() -> StateVector:
    """Six-qubit AME graph state from the exhaustive search."""
    return graph_state(ame62_graph())


_GHZ = {"bell": 2, "ghz3": 3}  # bell(d) is the two-party GHZ state
_FIXED = {"ame43": ame43, "ring5": ring5, "ame62": ame62}

BUILTIN_NAMES = (*(f"{base}({d})" for base in _GHZ for d in (2, 3)), *_FIXED)


def builtin_state(name: str) -> StateVector:
    """Fixture lookup: bell(d), ghz3(d), ame43, ring5, ame62.

    bell and ghz3 default to qubits when no dimension argument is given; one
    past `DESK_SCALE` is refused before its amplitudes are formed.
    """
    match = _NAME_RE.match(name.strip())
    base, arg = match.groups() if match else (None, None)
    if base in _GHZ:
        n, d = _GHZ[base], int(arg or 2)
        check_desk_scale(n, d)
        return ghz(n, d)
    if base in _FIXED and arg is None:
        return _FIXED[base]()
    raise ValueError(f"unknown builtin state: {name!r}")
