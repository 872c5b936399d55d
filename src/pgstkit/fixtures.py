"""Named example graphs with their designated cospectral pairs.

Four fixtures, all unweighted and potential free:

* G_A: a path on eight vertices with one pendant; the cospectral pair
  sits at distance three inside the path. Degrees and traces of the
  relative factors balance, so a bare pair potential is not enough and
  the path constructions are the interesting route.
* G_B: a triangle and a pentagon sharing a vertex, decorated with two
  pendants. The pair is cospectral but not strongly cospectral until a
  pair potential is added; degrees of the relative factors differ.
* G_C: an eight-cycle with two hubs, each adjacent to four rim vertices
  in an asymmetric pattern. The hubs are cospectral; attaching one apex
  vertex to both creates the singleton part the equitable certificate
  needs.
* G_D: a hexagon with two pendant paths of length two. The pair is
  blocked: both relative factors have degree five and equal traces, so
  the parity obstruction proves no pair potential can ever give PGST.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .graphs import Graph


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Graph
    u: int
    v: int
    description: str


def _cycle(k: int) -> list[tuple[int, int, int]]:
    return [(i, (i + 1) % k, 1) for i in range(k)]


_G_A = Graph(
    9,
    [(i, i + 1, 1) for i in range(7)] + [(5, 8, 1)],
    labels=[str(i) for i in range(9)],
)

_G_B = Graph(
    9,
    [
        (0, 1, 1),
        (1, 2, 1),
        (2, 0, 1),
        (0, 3, 1),
        (3, 4, 1),
        (4, 5, 1),
        (5, 6, 1),
        (6, 0, 1),
        (3, 7, 1),
        (4, 8, 1),
        (5, 8, 1),
    ],
    labels=[str(i) for i in range(9)],
)

_G_C = Graph(
    10,
    _cycle(8)
    + [(8, 0, 1), (8, 1, 1), (8, 2, 1), (8, 5, 1)]
    + [(9, 3, 1), (9, 4, 1), (9, 6, 1), (9, 7, 1)],
    labels=[f"o{i}" for i in range(8)] + ["u", "v"],
)

_G_D = Graph(
    10,
    _cycle(6) + [(0, 6, 1), (6, 7, 1), (3, 8, 1), (8, 9, 1)],
    labels=[f"h{i}" for i in range(6)] + ["a1", "a2", "b1", "b2"],
)

CATALOG: dict[str, Fixture] = {
    "G_A": Fixture(
        "G_A",
        _G_A,
        u=3,
        v=6,
        description="pendant path; balanced degrees and traces at the pair",
    ),
    "G_B": Fixture(
        "G_B",
        _G_B,
        u=1,
        v=8,
        description="triangle-pentagon with pendants; unbalanced relative degrees",
    ),
    "G_C": Fixture(
        "G_C",
        _G_C,
        u=8,
        v=9,
        description="eight-cycle with two asymmetric hubs; equitable route after an apex",
    ),
    "G_D": Fixture(
        "G_D",
        _G_D,
        u=1,
        v=4,
        description="hexagon with two pendant paths; parity-blocked pair",
    ),
}


def get_fixture(name: str) -> Fixture:
    """Look up a fixture by name; a leading @ and case are ignored."""
    key = name.lstrip("@").upper()
    if key in CATALOG:
        return CATALOG[key]
    raise DomainError(f"unknown fixture {name!r}; available: {', '.join(sorted(CATALOG))}")
