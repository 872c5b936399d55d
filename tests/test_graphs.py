"""Graph container, text format, gluing, and equitable partition tests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pgstkit import (
    StructuralError,
    DomainError,
    Graph,
    ParseError,
    Partition,
    SparsePoly,
    add_apex,
    add_potential,
    charpoly,
    coarsest_equitable_refinement,
    get_fixture,
    glue,
    glue_path,
    graph_digest,
    parse_graph_text,
    path_graph,
    serialize_graph_text,
    to_matrix,
    verify_equitable,
)

from conftest import quotient_matrix, random_graph


def test_graph_basics():
    g = Graph(3, {(0, 1): Fraction(1), (1, 2): Fraction(3, 2)})
    assert g.n == 3
    assert g.edges[(1, 2)] == Fraction(3, 2)
    m = to_matrix(g)
    assert m.entry(0, 1) == SparsePoly.one()
    assert m.entry(2, 1) == SparsePoly.const(Fraction(3, 2))
    assert m.entry(0, 0).is_zero()


def test_edge_merge_and_zero_drop():
    g = Graph(2, [(0, 1, Fraction(1)), (1, 0, Fraction(-1))])
    assert not g.edges  # weights cancelled exactly
    g = Graph(2, [(0, 1, 1), (0, 1, 2)])
    assert g.edges[(0, 1)] == Fraction(3)


def test_edges_sum_in_order_and_are_stored_as_fractions():
    # parallel and reversed edges add; an edge whose weights cancel, or whose
    # weight is 0, is dropped, and one that returns after a cancellation is
    # stored again, last
    g = Graph(
        3,
        [
            (0, 2, 0), (0, 1, 1), (1, 0, 2), (1, 2, Fraction(1, 2)), (2, 1, -0.5),
            (2, 0, 1), (0, 2, -1), (2, 0, Fraction(5)), (1, 2, 0),
        ],
    )
    assert list(g.edges.items()) == [((0, 1), 3), ((0, 2), 5)]
    for edges in (g.edges, Graph(3, {(2, 0): 0.25, (1, 2): 2, (0, 1): True}).edges):
        assert all(type(w) is Fraction for w in edges.values())
    assert Graph(3, {(2, 0): 0.25, (1, 0): 0}).edges == {(0, 2): Fraction(1, 4)}


def test_loops_rejected():
    with pytest.raises(StructuralError):
        Graph(2, {(1, 1): Fraction(1)})


def test_potentials_on_matrix_diagonal():
    q = SparsePoly.sym("Q")
    g = Graph(2, {(0, 1): Fraction(1)}, {0: q})
    m = to_matrix(g)
    assert m.entry(0, 0) == q
    assert m.entry(1, 1).is_zero()
    g2 = add_potential(g, 0, SparsePoly.const(2))
    assert to_matrix(g2).entry(0, 0) == q + SparsePoly.const(2)


def test_delete_vertices():
    m = to_matrix(path_graph(4))
    d = m.delete((0, 3))
    assert d.dimension == 2
    assert d.entry(0, 1) == SparsePoly.one()
    assert charpoly(d) == SparsePoly.parse("t^2 - 1")


# ---------------------------------------------------------------------------
# text format


def test_parse_basic_text():
    g = parse_graph_text(
        """
        # a triangle with a potential
        n 3
        e 0 1
        e 1 2 3/2
        e 0 2
        p 2 Q + 1
        """
    )
    assert g.n == 3
    assert g.edges[(1, 2)] == Fraction(3, 2)
    assert g.potentials[2] == SparsePoly.parse("Q + 1")


def test_parse_errors():
    bad_inputs = [
        "e 0 1",  # edge before n
        "n 2\nn 3",  # duplicate n
        "n 2\ne 0 2",  # vertex out of range
        "n 2\ne 0 0",  # loop
        "n 2\np 0 1\np 0 2",  # duplicate potential
        "n 2\nq 0 1",  # unknown statement
        "n -1",
        "n 2\ne 0 1 x",  # bad weight
    ]
    for text in bad_inputs:
        with pytest.raises(ParseError):
            parse_graph_text(text)


@pytest.mark.parametrize(
    "weight, value",
    [("2", 2), ("-3", -3), ("+7", 7), ("007", 7), ("1/2", Fraction(1, 2)), ("0.5", Fraction(1, 2)),
     ("1e3", 1000), ("-1/2", Fraction(-1, 2)), ("\u0663", 3)],
)
def test_parse_weights(weight, value):
    (w,) = parse_graph_text(f"n 2\ne 0 1 {weight}\n").edges.values()
    assert type(w) is Fraction and w == value


@pytest.mark.parametrize(
    "weight, message",
    [
        ("abc", "line 2: Invalid literal for Fraction: 'abc'"),
        ("1/0", "line 2: Fraction(1, 0)"),
        ("-", "line 2: Invalid literal for Fraction: '-'"),
        ("+-1", "line 2: Invalid literal for Fraction: '+-1'"),
    ],
)
def test_parse_weight_errors(weight, message):
    with pytest.raises(ParseError) as info:
        parse_graph_text(f"n 2\ne 0 1 {weight}\n")
    assert str(info.value) == message


def test_round_trip_fixtures_bit_exact():
    for name in ("G_A", "G_B", "G_C", "G_D"):
        g = get_fixture(name).graph
        text = serialize_graph_text(g)
        again = serialize_graph_text(parse_graph_text(text))
        assert text == again
        back = parse_graph_text(text)
        assert (back.n, back.edges, back.potentials) == (g.n, g.edges, g.potentials)


def test_round_trip_random_graphs():
    rng = random.Random(101)
    for _ in range(100):
        g = random_graph(rng, weighted=True, with_potentials=True)
        back = parse_graph_text(serialize_graph_text(g))
        assert back == g


def test_digest_stable_and_sensitive():
    a = path_graph(3)
    assert graph_digest(a) == graph_digest(path_graph(3))
    b = add_potential(a, 1, SparsePoly.const(1))
    assert graph_digest(a) != graph_digest(b)


# ---------------------------------------------------------------------------
# gluing


def test_glue_counts_and_weights():
    g1 = path_graph(4)  # endpoints 0, 3
    g2 = path_graph(3)  # endpoints 0, 2
    glued = glue(g1, 0, 3, g2, 0, 2)
    assert glued.n == 4 + 3 - 2
    # doubled edge when both graphs carry the same edge across the pair
    k2a = Graph(2, {(0, 1): Fraction(1)})
    k2b = Graph(2, {(0, 1): Fraction(1)})
    doubled = glue(k2a, 0, 1, k2b, 0, 1)
    assert doubled.n == 2
    assert doubled.edges[(0, 1)] == Fraction(2)


def test_glue_adds_potentials_at_identified_vertices():
    q = SparsePoly.sym("Q")
    g1 = Graph(2, {(0, 1): Fraction(1)}, {0: q})
    g2 = Graph(3, {(0, 1): Fraction(1), (1, 2): Fraction(1)}, {0: SparsePoly.const(2), 1: SparsePoly.const(5)})
    glued = glue(g1, 0, 1, g2, 0, 2)
    assert glued.potentials[0] == q + SparsePoly.const(2)
    assert glued.potentials[2] == SparsePoly.const(5)


def test_glue_drops_an_edge_and_a_potential_that_cancel():
    q = SparsePoly.sym("Q")
    g1 = Graph(3, {(0, 1): Fraction(1), (1, 2): Fraction(2)}, {0: q, 1: SparsePoly.const(3)})
    g2 = Graph(3, {(0, 2): Fraction(-1), (1, 2): Fraction(1)}, {0: -q, 2: SparsePoly.const(-3)})
    glued = glue(g1, 0, 1, g2, 0, 2)
    assert glued.n == 4
    assert glued.edges == {(1, 2): Fraction(2), (1, 3): Fraction(1)}
    assert glued.potentials == {}
    assert glued == Graph(4, [(1, 2, 2), (3, 1, 1)], labels=["0", "1", "2", "1'"])


def test_add_potential_at_a_pair_is_one_rebuild_of_two_single_ones():
    q = SparsePoly.sym("Q")
    rng = random.Random(71)
    for _ in range(10):
        g = random_graph(rng, n=rng.randint(3, 6), weighted=True, with_potentials=True)
        u, v = rng.sample(range(g.n), 2)
        for value in (q, SparsePoly.const(Fraction(-2, 3)), -g.potential(u), 4):
            assert add_potential(g, (u, v), value) == add_potential(add_potential(g, u, value), v, value)
        assert add_potential(g, (u, u), q) == add_potential(add_potential(g, u, q), u, q)
        assert add_potential(g, [], q) == g
    g = path_graph(3)
    with pytest.raises(StructuralError, match="vertex 3 out of range"):
        add_potential(g, (0, 3), "not a potential")
    with pytest.raises(StructuralError, match="bad potential value"):
        add_potential(g, (0, 2), "not a potential")
    with pytest.raises(StructuralError, match="involves t"):
        add_potential(g, (0, 2), SparsePoly.t())


def test_glue_charpoly_commutes():
    rng = random.Random(67)
    for _ in range(10):
        g1 = random_graph(rng, n=rng.randint(3, 5), weighted=True, with_potentials=True)
        g2 = random_graph(rng, n=rng.randint(3, 5), weighted=True)
        a = glue(g1, 0, g1.n - 1, g2, 0, g2.n - 1)
        b = glue(g2, 0, g2.n - 1, g1, 0, g1.n - 1)
        assert charpoly(to_matrix(a)) == charpoly(to_matrix(b))


def test_glue_label_freshening():
    g1 = path_graph(3)
    g2 = path_graph(3)
    glued = glue(g1, 0, 2, g2, 0, 2)
    assert len(set(glued.labels)) == glued.n


def test_glue_path_small_cases():
    g = path_graph(3)
    assert glue_path(g, 0, 2, 0) == g
    one = glue_path(g, 0, 2, 1)
    assert one.edges[(0, 2)] == Fraction(1)
    two = glue_path(g, 0, 2, 2)
    assert two.n == 4


def test_add_apex():
    g = path_graph(2)
    aug, w = add_apex(g, 0, 1)
    assert aug.n == 3 and w == 2
    assert aug.edges[(0, 2)] == Fraction(1)
    assert aug.edges[(1, 2)] == Fraction(1)
    assert aug.labels[w] == "w"


# ---------------------------------------------------------------------------
# partitions and equitability


def test_partition_validation():
    with pytest.raises(StructuralError):
        Partition(3, [[0, 1]])  # not a cover
    with pytest.raises(StructuralError):
        Partition(3, [[0, 1], [1, 2]])  # overlap
    with pytest.raises(StructuralError):
        Partition(3, [[0, 1, 2], []])  # empty part
    p = Partition(3, [[2], [0, 1]])
    assert p.parts == ((0, 1), (2,))


def test_verify_equitable_examples():
    fc = get_fixture("G_C")
    caption = Partition(fc.graph.n, [list(range(8)), [8, 9]])
    assert verify_equitable(fc.graph, caption)
    wrong = Partition(fc.graph.n, [[8, 9], [0, 1, 2, 5], [3, 4, 6, 7]])
    assert not verify_equitable(fc.graph, wrong)


def _intertwines(g, partition) -> bool:
    """M P = P B for the partition's indicator matrix P and quotient B."""
    qm = quotient_matrix(g, partition)
    m = to_matrix(g)
    part_of = {x: k for k, part in enumerate(qm.parts) for x in part}
    return all(
        sum((m.entry(i, y) for y in part), SparsePoly.zero()) == qm.entries[part_of[i]][j]
        for i in range(g.n)
        for j, part in enumerate(qm.parts)
    )


def test_quotient_matrix_and_intertwining():
    fc = get_fixture("G_C")
    caption = Partition(fc.graph.n, [list(range(8)), [8, 9]])
    qm = quotient_matrix(fc.graph, caption)
    assert [[str(e) for e in row] for row in qm.entries] == [["2", "1"], ["4", "0"]]
    assert _intertwines(fc.graph, caption)
    with pytest.raises(DomainError):
        quotient_matrix(fc.graph, Partition(fc.graph.n, [[8, 9], [0, 1, 2, 5], [3, 4, 6, 7]]))


def test_quotient_includes_potentials():
    q = SparsePoly.sym("Q")
    g = Graph(2, {(0, 1): Fraction(1)}, {0: q, 1: q})
    part = Partition(2, [[0, 1]])
    assert verify_equitable(g, part)
    qm = quotient_matrix(g, part)
    assert qm.entries[0][0] == q + SparsePoly.one()


def test_coarsest_refinement_on_path():
    g = path_graph(4)
    ref = coarsest_equitable_refinement(g, Partition(4, [[0, 1, 2, 3]]))
    assert ref.parts == ((0, 3), (1, 2))
    assert verify_equitable(g, ref)


def test_coarsest_refinement_is_idempotent_and_equitable():
    rng = random.Random(71)
    for _ in range(20):
        g = random_graph(rng, weighted=True, with_potentials=True)
        seed = Partition(g.n, [list(range(g.n))])
        ref = coarsest_equitable_refinement(g, seed)
        assert verify_equitable(g, ref)
        assert coarsest_equitable_refinement(g, ref) == ref
        assert _intertwines(g, ref)


def test_refinement_refines_the_seed():
    g = get_fixture("G_C").graph
    seed = Partition(g.n, [[8, 9], list(range(8))])
    ref = coarsest_equitable_refinement(g, seed)
    assert ref.parts == (tuple(range(8)), (8, 9))


def _dense_refinement(g: Graph, seed: Partition) -> Partition:
    """Reference: split parts by row sums read off the dense matrix until
    no part splits."""
    m = to_matrix(g)
    parts = [list(part) for part in seed.parts]
    while True:
        split = []
        for part in parts:
            groups: dict[tuple, list[int]] = {}
            for x in part:
                sums = tuple(sum((m.entry(x, y) for y in p), SparsePoly.zero()) for p in parts)
                groups.setdefault(sums, []).append(x)
            split.extend(groups.values())
        if len(split) == len(parts):
            return Partition(g.n, parts)
        parts = split


def _lifted_graph(rng: random.Random) -> tuple[Graph, int]:
    """A cyclic lift of a random weighted graph, and the number of copies:
    vertex x lies over base vertex x // copies, so the rotation of the copies
    is an automorphism unless a potential breaks it, and equitable partitions
    other than the discrete one exist. Potentials are rational or symbolic,
    in up to two symbols."""
    base, copies = rng.randint(1, 5), rng.choice([1, 2, 2, 3])
    n = base * copies
    weights = [1, 2, 3, Fraction(1, 2), -1]
    q, r = SparsePoly.sym("Q"), SparsePoly.sym("R")
    values = [Fraction(1), Fraction(-1, 2), 2, q, q + 1, 2 * q, r, q + r]
    edges = {}
    for i in range(base):
        for j in range(i, base):
            for shift in range(copies):  # one weight on a whole orbit of edges
                if rng.random() < 0.35:
                    w = rng.choice(weights)
                    for c in range(copies):
                        a, b = i * copies + c, j * copies + (c + shift) % copies
                        if a != b:
                            edges[(min(a, b), max(a, b))] = w
    potentials = {}
    for i in range(base):
        if rng.random() < 0.5:
            value = rng.choice(values)
            for c in range(copies):
                potentials[i * copies + c] = value
    for _ in range(rng.choice([0, 0, 1])):  # sometimes break the symmetry
        potentials[rng.randrange(n)] = rng.choice(values)
    return Graph(n, edges, potentials), copies


def test_refinement_and_quotient_equal_a_dense_reference():
    rng = random.Random(1804)
    for _ in range(200):
        g, copies = _lifted_graph(rng) if rng.random() < 0.7 else (random_graph(rng, weighted=True), 1)
        if rng.random() < 0.3:
            g = add_potential(g, rng.sample(range(g.n), rng.randint(1, g.n)), SparsePoly.sym("Q"))
        count = rng.randint(1, 4)
        labels = [rng.randrange(count) for _ in range(g.n)]
        if rng.random() < 0.5:  # a seed that the rotation of the copies keeps
            labels = [labels[x // copies] for x in range(g.n)]
        seed = Partition(g.n, [[x for x in range(g.n) if labels[x] == k] for k in set(labels)])
        ref = _dense_refinement(g, seed)
        assert coarsest_equitable_refinement(g, seed) == ref
        assert verify_equitable(g, seed) == (ref == seed)
        m = to_matrix(g)
        qm = quotient_matrix(g, ref)
        assert qm.parts == ref.parts
        for i, part in enumerate(ref.parts):
            for x in part:
                for j, other in enumerate(ref.parts):
                    assert qm.entries[i][j] == sum((m.entry(x, y) for y in other), SparsePoly.zero())
