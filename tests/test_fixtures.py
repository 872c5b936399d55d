"""Embedded catalog sanity checks."""

from __future__ import annotations

import itertools

import pytest

from pgstkit import (
    CATALOG,
    DomainError,
    charpoly,
    get_fixture,
    graph_digest,
    is_cospectral,
    parse_graph_text,
    serialize_graph_text,
    to_matrix,
)


def test_catalog_contents():
    assert set(CATALOG) == {"G_A", "G_B", "G_C", "G_D"}
    fa = get_fixture("G_A")
    assert fa.graph.n == 9 and (fa.u, fa.v) == (3, 6)
    fb = get_fixture("G_B")
    assert fb.graph.n == 9 and (fb.u, fb.v) == (1, 8)
    fc = get_fixture("G_C")
    assert fc.graph.n == 10 and (fc.u, fc.v) == (8, 9)
    fd = get_fixture("G_D")
    assert fd.graph.n == 10 and (fd.u, fd.v) == (1, 4)
    assert fd.graph.labels[fd.u] == "h1"
    assert fd.graph.labels[fd.v] == "h4"


def test_lookup_is_forgiving():
    assert get_fixture("@g_b").name == "G_B"
    assert get_fixture("G_B").name == "G_B"
    with pytest.raises(DomainError):
        get_fixture("@nope")


def test_designated_pairs_are_cospectral():
    # every pair of every fixture against the definition: equal charpolys
    # of the two vertex-deleted matrices
    for name in CATALOG:
        f = get_fixture(name)
        m = to_matrix(f.graph)
        deleted = [charpoly(m.delete([x])) for x in range(m.dimension)]
        for u, v in itertools.combinations(range(m.dimension), 2):
            assert is_cospectral(m, u, v) == (deleted[u] == deleted[v]), (name, u, v)
        assert is_cospectral(m, f.u, f.v)


def test_text_round_trip_bit_exact():
    for name in CATALOG:
        g = get_fixture(name).graph
        text = serialize_graph_text(g)
        assert serialize_graph_text(parse_graph_text(text)) == text


def test_digests_are_stable():
    frozen = {
        "G_A": "35fdf670de2e",
        "G_B": "37f8fb7f373f",
        "G_C": "38b29cb9bd6e",
        "G_D": "f9453493fd7e",
    }
    for name, digest in frozen.items():
        assert graph_digest(get_fixture(name).graph) == digest
