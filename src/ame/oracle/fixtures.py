"""Named example states.

bell(d) and ghz3(d) are textbook AME(2, d) / AME(3, d) states; ame43 is the
minimal-support four-qutrit state; ring5 is the five-qubit ring graph state;
ame62 is a six-qubit graph state discovered (and cached) by the exhaustive
search rather than hard-coded, so the fixture never drifts from the oracle.
"""

from __future__ import annotations

import functools
import re

from .search import find_ame_graph
from .states import GraphSpec, StateVector, ame43, ghz, graph_state, ring_graph
from .weights import check_desk_scale

BUILTIN_NAMES = ("bell(2)", "bell(3)", "ghz3(2)", "ghz3(3)", "ame43", "ring5", "ame62")

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


def builtin_state(name: str) -> StateVector:
    """Fixture lookup: bell(d), ghz3(d), ame43, ring5, ame62.

    bell and ghz3 default to qubits when no dimension argument is given; one
    past `DESK_SCALE` is refused before its amplitudes are formed.
    """
    match = _NAME_RE.match(name.strip())
    if match is None:
        raise ValueError(f"unknown builtin state: {name!r}")
    base, arg = match.group(1), match.group(2)
    if base in ("bell", "ghz3"):
        # bell(d) is the two-party GHZ state
        n, d = (2 if base == "bell" else 3), int(arg or 2)
        check_desk_scale(n, d)
        return ghz(n, d)
    if arg is None:
        if base == "ame43":
            return ame43()
        if base == "ring5":
            return ring5()
        if base == "ame62":
            return ame62()
    raise ValueError(f"unknown builtin state: {name!r}")
