"""Digraphs of matrices, classes (strongly connected components), reduced
graphs carrying the access relation, and DOT export.

A :class:`Digraph` is its successor bitmasks, and every question asked of
it is answered on them: its girth, and reachability through one closure,
:attr:`Digraph.reach`, built once and cached.  Classes are sets of
mutually reachable vertices, the reduced graph is reach between class
representatives, and an access set is the vertices whose reach meets it.

Vertices are 1-based.  Class indices are 0-based positions into a
partition's class list; they surface as labels ``C1..Ck`` only in DOT and
CLI output.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .linalg import DEFAULT_TOL, TolerancePolicy, as_square, index_set

__all__ = [
    "Digraph",
    "ClassPartition",
    "ReducedGraph",
    "digraph_of",
    "union",
    "classes",
    "reduced_graph",
    "access_set",
    "digraph_to_dot",
    "reduced_graph_to_dot",
]


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertices ``1..n``; loops allowed, no multi-edges.

    Held as successor bitmasks: bit ``w - 1`` of ``rows[v - 1]`` marks the
    edge (v, w).  The rows are Python ints, so ``n`` is not capped.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("digraph needs at least one vertex")
        rows = tuple(map(operator.index, self.rows))
        # a negative row has a bit at every position
        if len(rows) != self.n or any(r >> self.n for r in rows):
            raise ValueError(f"need {self.n} rows, each below 2**{self.n}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Digraph:
        """The digraph on ``1..n`` with the given 1-based edges."""
        rows = [0] * n
        for j, k in edges:
            if not (1 <= j <= n and 1 <= k <= n):
                raise ValueError(f"edge ({j},{k}) out of range 1..{n}")
            rows[j - 1] |= 1 << (int(k) - 1)
        return cls(n, tuple(rows))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges (v, w), 1-based."""
        return frozenset((v + 1, w + 1) for v, r in enumerate(self.rows)
                         for w in _bits(r))

    @cached_property
    def reach(self) -> tuple[int, ...]:
        """Reachability closure: bit ``w - 1`` of ``reach[v - 1]`` is set
        when a path of length zero or more runs from v to w, so every
        vertex reaches itself.  Warshall's algorithm on the rows: once
        vertex v is allowed as an intermediate, every row that reaches v
        takes v's row."""
        rows = [r | 1 << v for v, r in enumerate(self.rows)]
        for v in range(self.n):
            bit, via = 1 << v, rows[v]
            rows = [r | via if r & bit else r for r in rows]
        return tuple(rows)

    @cached_property
    def girth(self) -> int:
        """Length of a shortest cycle (a loop has length 1), ``n + 1`` if
        there is none.  A breadth-first search from v, with the vertices
        below v already seen, finds the shortest cycle whose least vertex
        is v."""
        girth = self.n + 1
        for v in range(self.n):
            frontier, seen, length = 1 << v, (2 << v) - 1, 0
            while frontier and length + 1 < girth:
                length += 1
                step = 0
                for w in _bits(frontier):
                    step |= self.rows[w]
                if step >> v & 1:
                    girth = length
                frontier = step & ~seen
                seen |= step
        return girth


def digraph_of(X, tol: TolerancePolicy = DEFAULT_TOL) -> Digraph:
    """Digraph of a square matrix: edge (j, k) wherever ``|x_jk|`` exceeds
    the absolute floor (loops included)."""
    m = as_square(X)
    packed = np.packbits(np.abs(m) > tol.abs_floor, axis=1, bitorder="little")
    return Digraph(m.shape[0], tuple(int.from_bytes(row.tobytes(), "little")
                                     for row in packed))


def union(g1: Digraph, g2: Digraph) -> Digraph:
    """Edge-set union of two digraphs on the same vertex set."""
    if g1.n != g2.n:
        raise ValueError(f"vertex counts differ: {g1.n} vs {g2.n}")
    return Digraph(g1.n, tuple(a | b for a, b in zip(g1.rows, g2.rows)))


@dataclass(frozen=True)
class ClassPartition:
    """Ordered, pairwise disjoint classes covering ``1..n``."""

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for c in self.classes:
            if not c:
                raise ValueError("empty class")
            if seen & set(c):
                raise ValueError("classes overlap")
            seen |= set(c)
        if seen != set(range(1, len(seen) + 1)):
            raise ValueError("classes must cover 1..n exactly")

    @cached_property
    def vertex_to_class(self) -> dict[int, int]:
        return {v: i for i, c in enumerate(self.classes) for v in c}

    def class_of(self, v: int) -> int:
        """0-based position of the class containing vertex ``v``."""
        return self.vertex_to_class[v]


def _bits(mask: int) -> Iterator[int]:
    # The positions of the set bits of mask, in increasing order.
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def classes(g: Digraph) -> ClassPartition:
    """Partition into strongly connected classes: vertices v and w share a
    class when each reaches the other.

    Ordering is deterministic: Kahn's topological order of the condensation
    (edges run from earlier to later classes), taking among the ready
    classes the one with the smallest vertex first.  A single vertex
    without a loop is a class.
    """
    reach = g.reach
    index = [-1] * g.n
    comps: list[tuple[int, ...]] = []
    for v in range(g.n):
        if index[v] < 0:
            members = tuple(w for w in _bits(reach[v]) if reach[w] >> v & 1)
            for w in members:
                index[w] = len(comps)
            comps.append(members)
    # comps runs in increasing smallest vertex, so the lowest bit of ready
    # is the ready class with the smallest vertex.  later[a] lists every
    # class that class a reaches, directly or not; a class is ready once
    # no unplaced class reaches it, which waiting counts.  At most k^2 steps.
    firsts = sum(1 << c[0] for c in comps)
    later = [[index[w] for w in _bits(reach[c[0]] & firsts) if w != c[0]]
             for c in comps]
    waiting = [0] * len(comps)
    for succ in later:
        for b in succ:
            waiting[b] += 1
    ready = sum(1 << b for b, count in enumerate(waiting) if not count)
    ordered: list[tuple[int, ...]] = []
    while ready:
        a = (ready & -ready).bit_length() - 1
        ready ^= 1 << a
        ordered.append(tuple(w + 1 for w in comps[a]))
        for b in later[a]:
            waiting[b] -= 1
            if not waiting[b]:
                ready |= 1 << b
    return ClassPartition(tuple(ordered))


@dataclass(frozen=True)
class ReducedGraph:
    """Access relation between classes.

    Edge ``(i, j)`` means class ``i`` has access to class ``j`` (some
    vertex of ``i`` reaches some vertex of ``j``).  Stored transitively
    closed; reflexive access is implicit, so only distinct pairs appear.
    """

    partition: ClassPartition
    edges: frozenset[tuple[int, int]]

    def accesses(self, i: int, j: int) -> bool:
        return i == j or (i, j) in self.edges


def reduced_graph(g: Digraph) -> ReducedGraph:
    """Condense ``g`` to its classes; access between two classes is reach
    between their smallest vertices, which is already transitively
    closed."""
    part = classes(g)
    reach = g.reach
    firsts = sum(1 << (c[0] - 1) for c in part.classes)
    return ReducedGraph(part, frozenset(
        (a, part.class_of(w + 1))
        for a, c in enumerate(part.classes)
        for w in _bits(reach[c[0] - 1] & firsts) if w != c[0] - 1
    ))


def access_set(g: Digraph, J: Iterable[int]) -> tuple[int, ...]:
    """All vertices with access to some vertex of ``J``, including ``J``
    itself: access is reflexive even without loops."""
    targets = sum(1 << (v - 1) for v in index_set(J, g.n))
    return tuple(v + 1 for v, r in enumerate(g.reach) if r & targets)


def digraph_to_dot(g: Digraph, name: str = "pencil") -> str:
    """DOT text with stable vertex labels ``v1..vn``."""
    lines = [f"digraph {name} {{"]
    lines += [f"  v{v};" for v in range(1, g.n + 1)]
    lines += [f"  v{j} -> v{k};" for j, k in sorted(g.edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def reduced_graph_to_dot(r: ReducedGraph, name: str = "classes") -> str:
    """DOT text with stable class labels ``C1..Ck`` (members listed in the
    node label); edges are the stored access closure."""
    lines = [f"digraph {name} {{"]
    for i, c in enumerate(r.partition.classes):
        members = ",".join(str(v) for v in c)
        lines.append(f'  C{i + 1} [label="C{i + 1} = {{{members}}}"];')
    lines += [f"  C{a + 1} -> C{b + 1};" for a, b in sorted(r.edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"
