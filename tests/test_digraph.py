import heapq
import itertools

import numpy as np
import pytest

from zpencil.digraph import (
    ClassPartition,
    Digraph,
    access_set,
    classes,
    digraph_of,
    digraph_to_dot,
    reduced_graph,
    reduced_graph_to_dot,
    union,
)
from zpencil.linalg import DEFAULT_TOL
from zpencil.testkit import GenConfig, gen_pencil


def cycle(n: int) -> Digraph:
    return Digraph.from_edges(n, ((v, v % n + 1) for v in range(1, n + 1)))


class TestDigraphOf:
    def test_zero_matrix(self):
        g = digraph_of(np.zeros((3, 3)))
        assert g.n == 3 and g.edges == frozenset()

    def test_single_edge(self, ex3):
        assert digraph_of(ex3.A).edges == frozenset({(1, 2)})

    def test_4x4_pattern(self, ex2):
        expected = {(1, 1), (1, 3), (2, 2), (2, 4), (3, 1), (3, 3), (4, 2), (4, 4)}
        assert digraph_of(ex2.B).edges == frozenset(expected)

    def test_floor_threshold(self):
        g = digraph_of(np.array([[0.0, 1e-14], [1e-12, 0.0]]))
        assert g.edges == frozenset({(2, 1)})

    def test_edge_range_checked(self):
        with pytest.raises(ValueError):
            Digraph.from_edges(2, {(1, 3)})


class TestUnion:
    def test_with_edgeless(self):
        g = cycle(4)
        assert union(g, Digraph.from_edges(4, ())) == g

    def test_golden_union(self, ex3):
        got = union(digraph_of(ex3.A), digraph_of(ex3.B))
        assert got.edges == frozenset({(1, 1), (1, 2), (2, 2)})

    def test_idempotent(self):
        g = cycle(5)
        assert union(g, g) == g

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            union(cycle(2), cycle(3))


class TestClasses:
    def test_edgeless_singletons(self):
        part = classes(Digraph.from_edges(3, ()))
        assert part.classes == ((1,), (2,), (3,))

    def test_golden_two_classes(self, ex2):
        part = classes(union(digraph_of(ex2.A), digraph_of(ex2.B)))
        assert set(part.classes) == {(1, 3), (2, 4)}
        # the condensation edge {2,4} -> {1,3} (A[2,1] = 1) puts {2,4} first
        assert part.classes == ((2, 4), (1, 3))

    def test_cycle_single_class(self):
        assert classes(cycle(5)).classes == ((1, 2, 3, 4, 5),)

    def test_topological_tie_break(self):
        # two sources 1 and 3, both feeding 2: ties go to the smaller vertex
        g = Digraph.from_edges(3, {(1, 2), (3, 2)})
        assert classes(g).classes == ((1,), (3,), (2,))

    def test_relabel_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            X = (rng.random((n, n)) < 0.3).astype(float)
            g = digraph_of(X)
            perm = rng.permutation(n)  # perm[old] = new - 1
            relabelled = Digraph.from_edges(
                n, ((int(perm[j - 1]) + 1, int(perm[k - 1]) + 1) for j, k in g.edges))
            base = {frozenset(c) for c in classes(g).classes}
            mapped = {
                frozenset(int(perm[v - 1]) + 1 for v in c) for c in base
            }
            got = {frozenset(c) for c in classes(relabelled).classes}
            assert got == mapped

    def test_partition_invariants_checked(self):
        with pytest.raises(ValueError):
            ClassPartition(((1, 2), (2, 3)))
        with pytest.raises(ValueError):
            ClassPartition(((1,), (3,)))


class TestReducedGraph:
    def test_edgeless(self):
        assert reduced_graph(Digraph.from_edges(3, ())).edges == frozenset()

    def test_golden_access_direction(self, ex2):
        # A[2,1] = 1 gives {2,4} access to {1,3}; nothing accesses {2,4}
        red = reduced_graph(union(digraph_of(ex2.A), digraph_of(ex2.B)))
        i24 = red.partition.class_of(2)
        i13 = red.partition.class_of(1)
        assert (i24, i13) in red.edges
        assert (i13, i24) not in red.edges

    def test_chain(self, ex3):
        red = reduced_graph(digraph_of(ex3.A))
        assert red.partition.classes == ((1,), (2,))
        assert red.edges == frozenset({(0, 1)})

    def test_transitively_closed_and_antisymmetric(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            X = (rng.random((n, n)) < 0.25).astype(float)
            red = reduced_graph(digraph_of(X))
            edges = red.edges
            for (a, b) in edges:
                assert (b, a) not in edges  # acyclic condensation
                for (c, d) in edges:
                    if b == c:
                        assert (a, d) in edges

    def test_accesses_is_reflexive(self):
        red = reduced_graph(Digraph.from_edges(2, ()))
        assert red.accesses(0, 0) and red.accesses(1, 1)
        assert not red.accesses(0, 1)


class TestAccessSet:
    def test_edgeless(self):
        assert access_set(Digraph.from_edges(3, ()), (2,)) == (2,)

    def test_single_edge(self, ex3):
        assert access_set(digraph_of(ex3.A), (2,)) == (1, 2)

    def test_golden_closed_class(self, ex2):
        g = union(digraph_of(ex2.A), digraph_of(ex2.B))
        assert access_set(g, (2, 4)) == (2, 4)

    def test_matches_reduced_graph(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            X = (rng.random((n, n)) < 0.3).astype(float)
            g = digraph_of(X)
            red = reduced_graph(g)
            for j, cls in enumerate(red.partition.classes):
                expected = set()
                for k, other in enumerate(red.partition.classes):
                    if red.accesses(k, j):
                        expected |= set(other)
                assert set(access_set(g, cls)) == expected


def _oracle(n: int, edges):
    """Classes, their order, reduced-graph edges and access by definition:
    the closure ``(I + adjacency)^n > 0``, classes as mutually reachable
    sets, and the documented order by Kahn's algorithm with a heap keyed
    on each class's smallest vertex."""
    adj = np.eye(n)
    for j, k in edges:
        adj[j - 1, k - 1] = 1.0
    reach = np.linalg.matrix_power(adj, n) > 0
    mutual = reach & reach.T
    comps = sorted({tuple(int(w) + 1 for w in np.flatnonzero(row)) for row in mutual})
    cls_of = {v: i for i, c in enumerate(comps) for v in c}
    succ = [set() for _ in comps]
    for j, k in edges:
        if cls_of[j] != cls_of[k]:
            succ[cls_of[j]].add(cls_of[k])
    indeg = [0] * len(comps)
    for out in succ:
        for b in out:
            indeg[b] += 1
    heap = [(comps[i][0], i) for i, d in enumerate(indeg) if d == 0]
    heapq.heapify(heap)
    ordered = []
    while heap:
        _, a = heapq.heappop(heap)
        ordered.append(comps[a])
        for b in succ[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, (comps[b][0], b))
    red = frozenset(
        (a, b) for a, ca in enumerate(ordered) for b, cb in enumerate(ordered)
        if a != b and reach[ca[0] - 1, cb[0] - 1]
    )
    return tuple(ordered), red, reach


def _oracle_graphs():
    rng = np.random.default_rng(2024)
    for n in range(1, 15):
        yield Digraph.from_edges(n, ())
        yield Digraph.from_edges(n, ((j, k) for j in range(1, n + 1)
                                     for k in range(1, n + 1)))
        for density in (0.05, 0.1, 0.2, 0.3, 0.5):
            for _ in range(12):
                X = rng.random((n, n)) < density
                yield digraph_of(X.astype(float))


class TestAgainstDefinition:
    """classes, reduced_graph and access_set against _oracle on seeded
    random digraphs of order 1-14, edgeless and complete ones included."""

    def test_classes_and_their_order(self):
        for g in _oracle_graphs():
            ordered, _, _ = _oracle(g.n, g.edges)
            assert classes(g).classes == ordered, sorted(g.edges)

    def test_reduced_graph_edges(self):
        for g in _oracle_graphs():
            ordered, red, _ = _oracle(g.n, g.edges)
            got = reduced_graph(g)
            assert got.partition.classes == ordered
            assert got.edges == red, sorted(g.edges)

    def test_access_sets(self):
        rng = np.random.default_rng(7)
        for g in _oracle_graphs():
            _, _, reach = _oracle(g.n, g.edges)
            for _ in range(3):
                J = rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
                expected = tuple(int(v) + 1 for v in np.flatnonzero(reach[:, J].any(axis=1)))
                assert access_set(g, (J + 1).tolist()) == expected, sorted(g.edges)


def _girth_oracle(g: Digraph) -> int:
    """The least k <= n for which the k-th boolean power of the adjacency
    matrix has a nonzero diagonal, n + 1 when there is none."""
    adj = np.zeros((g.n, g.n), dtype=int)
    for j, k in g.edges:
        adj[j - 1, k - 1] = 1
    power = np.eye(g.n, dtype=int)
    for k in range(1, g.n + 1):
        power = (power @ adj > 0).astype(int)
        if power.diagonal().any():
            return k
    return g.n + 1


def _girth_graphs():
    # Random digraphs with their loops removed have girths above 1; the
    # ones with loops keep them.
    rng = np.random.default_rng(2026)
    for n in range(1, 13):
        yield Digraph.from_edges(n, ())
        yield cycle(n)
        everything = np.ones((n, n))
        yield digraph_of(everything)
        yield digraph_of(everything - np.eye(n))
        for density in (0.05, 0.1, 0.2, 0.3, 0.5):
            for loops in (False, False, True):
                X = (rng.random((n, n)) < density).astype(float)
                if not loops:
                    np.fill_diagonal(X, 0.0)
                yield digraph_of(X)


class TestRepresentation:
    """The successor bitmasks against the edge form and the definitions."""

    def test_girth_against_definition(self):
        girths = set()
        for g in _girth_graphs():
            assert g.girth == _girth_oracle(g), sorted(g.edges)
            girths.add(g.girth)
        assert girths >= set(range(1, 14))

    def test_from_edges_round_trip(self):
        for g in itertools.chain(_oracle_graphs(), _girth_graphs()):
            assert Digraph.from_edges(g.n, g.edges) == g

    def test_digraph_of_edges_by_definition(self):
        rng = np.random.default_rng(31)
        floor = DEFAULT_TOL.abs_floor
        for n in range(1, 15):
            X = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
            # entries on either side of the floor, of either sign
            X[rng.random((n, n)) < 0.2] = floor
            X[rng.random((n, n)) < 0.2] = -np.nextafter(floor, 1.0)
            expected = {(j + 1, k + 1) for j in range(n) for k in range(n)
                        if abs(X[j, k]) > floor}
            assert digraph_of(X).edges == frozenset(expected)

    def test_rows_checked(self):
        assert Digraph(2, (0b11, 0b10)).edges == frozenset({(1, 1), (1, 2), (2, 2)})
        for rows in ((0,), (0, 0, 0), (0b100, 0), (0, -1)):
            with pytest.raises(ValueError):
                Digraph(2, rows)

    def test_rows_are_python_ints(self):
        # _bits needs int.bit_length, which numpy integers lack; Python
        # ints also hold more than 64 vertices
        g = digraph_of(np.ones((70, 70)))
        assert all(type(r) is int for r in g.rows)
        assert g.rows[0] == 2 ** 70 - 1 and g.girth == 1
        h = Digraph(2, (np.int64(2), np.uint8(1)))
        assert all(type(r) is int for r in h.rows)
        assert h.edges == frozenset({(1, 2), (2, 1)}) and h.girth == 2


class TestLemma4Surrogate:
    def test_member_classes_match_union_classes(self):
        # off-diagonal cancellation cannot occur for t in (0, 1), so the
        # classes of t*B - A equal the classes of the union digraph
        for seed in range(20):
            p = gen_pencil(GenConfig(n=5, seed=seed, density=0.4))
            expected = classes(union(digraph_of(p.A), digraph_of(p.B)))
            for t in (0.1, 0.3, 0.5, 0.7, 0.9):
                assert classes(digraph_of(p.matrix_at(t))) == expected


class TestDot:
    def test_digraph_dot(self, ex3):
        dot = digraph_to_dot(digraph_of(ex3.A))
        assert "digraph pencil {" in dot
        assert "  v1 -> v2;" in dot
        assert dot.count("v2;") >= 1

    def test_reduced_dot(self, ex3):
        dot = reduced_graph_to_dot(reduced_graph(digraph_of(ex3.A)))
        assert 'C1 [label="C1 = {1}"];' in dot
        assert "C1 -> C2;" in dot


def test_classes_cover_every_vertex():
    rng = np.random.default_rng(272)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        pairs = rng.integers(1, n + 1, size=(int(rng.integers(0, n * n + 1)), 2))
        part = classes(Digraph.from_edges(n, pairs))
        seen = sorted(v for c in part.classes for v in c)
        assert seen == list(range(1, n + 1))
