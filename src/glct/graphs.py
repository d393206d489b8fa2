"""Undirected weighted graphs, shift operators, and Cartesian products.

Conventions
-----------
- Edges are stored as (i, j, w) with 0 <= i < j < n and finite w > 0; graphs are
  undirected with no self-loops, so the adjacency matrix is symmetric with
  zero diagonal. A vertex index is an integer (or a float of integral value),
  a weight a real number (an integer or a float), neither ever a bool or a
  string, and no weighted degree exceeds :data:`MAX_DEGREE`.
- Vertices of a product graph are tuples (i_1, ..., i_m) linearized with the
  first index varying fastest, so a 2-D signal matrix X of shape (N_1, N_2)
  linearizes as X.flatten(order="F"). All Kronecker-structured operators in
  this package follow that convention.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError

Edge = tuple[int, int, float]

#: Largest weighted degree d a vertex may have. Eigendecomposing a shift
#: operator forms (Z + Z^T) / 2, whose entries reach 2d; its eigenvalues reach
#: 2d and its reconstruction residual 3d. Up to a quarter of the largest float
#: all of them stay finite.
MAX_DEGREE = sys.float_info.max / 4


class GsoKind(enum.Enum):
    """Which matrix acts as the graph shift operator."""

    LAPLACIAN = "laplacian"
    ADJACENCY = "adjacency"

    @classmethod
    def _missing_(cls, value):
        raise ValidationError(f"unknown shift operator {value!r}; choose laplacian or adjacency")


def _vertex_index(v) -> int:
    """``v`` as a vertex index: an integer or a float of integral value, never a bool."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, (float, np.floating)) and float(v).is_integer():
        return int(v)
    raise ValidationError(f"vertex index must be an integer, got {v!r}")


def _edge_weight(w) -> float:
    """``w`` as an edge weight: an integer or a float, never a bool; an
    integer beyond the float range becomes an infinity, which Graph rejects."""
    if isinstance(w, (int, float, np.integer, np.floating)) and not isinstance(w, bool):
        try:
            return float(w)
        except OverflowError:
            return math.inf if w > 0 else -math.inf
    raise ValidationError(f"edge weight must be a real number, got {w!r}")


@dataclass(frozen=True)
class Graph:
    """Immutable undirected weighted graph on vertices 0..n-1."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValidationError(f"vertex count must be a positive integer, got {self.n!r}")
        seen: set[tuple[int, int]] = set()
        degree: dict[int, float] = {}
        norm: list[Edge] = []
        for e in self.edges:
            if len(e) != 3:
                raise ValidationError(f"edge must be (i, j, w), got {e!r}")
            i, j, w = _vertex_index(e[0]), _vertex_index(e[1]), _edge_weight(e[2])
            if not (0 <= i < j < self.n):
                raise ValidationError(f"edge ({i}, {j}) out of range for n={self.n} (need i < j)")
            if not 0 < w < math.inf:
                raise ValidationError(f"edge weight must be positive and finite, got {w} on ({i}, {j})")
            if (i, j) in seen:
                raise ValidationError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            norm.append((i, j, w))
            for v in (i, j):
                degree[v] = degree.get(v, 0.0) + w  # a float sum overflows to inf, silently
        for v, d in degree.items():
            if not d <= MAX_DEGREE:
                raise ValidationError(f"weighted degree {d} of vertex {v} exceeds {MAX_DEGREE:.4g}: "
                                      "the shift operator's eigenvalues would overflow")
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            a[i, j] = w
            a[j, i] = w
        return a


@dataclass(frozen=True)
class ProductGraph:
    """Cartesian product of one or more factor graphs."""

    factors: tuple[Graph, ...]

    def __post_init__(self) -> None:
        if len(self.factors) < 1:
            raise ValidationError("a product graph needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(g.n for g in self.factors)

    @property
    def n(self) -> int:
        return int(np.prod(self.shape))


def cartesian_product(factors: Sequence[Graph]) -> ProductGraph:
    """Bundle factor graphs into a product graph (no matrices materialized)."""
    return ProductGraph(tuple(factors))


def gso(g: Graph, kind: GsoKind = GsoKind.LAPLACIAN) -> np.ndarray:
    """Return the shift operator of ``g``: combinatorial Laplacian or adjacency.
    ``kind`` is a :class:`GsoKind` or its value."""
    a = g.adjacency()
    if GsoKind(kind) is GsoKind.ADJACENCY:
        return a
    deg = a.sum(axis=1)
    np.fill_diagonal(np.subtract(0.0, a, out=a), deg)  # in a's buffer, bit for bit np.diag(deg) - a
    return a


def kronecker_sum(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker sum of square matrices under the fastest-first vec convention.

    The returned matrix acts on vectors indexed by (i_1, ..., i_m) with i_1
    fastest; the term for factor k is I x ... x Z_k x ... x I with Z_k in the
    k-th slot counted from the fast end.
    """
    mats = [np.asarray(m) for m in mats]
    if not mats:
        raise ValidationError("kronecker_sum needs at least one matrix")
    sizes = [m.shape[0] for m in mats]
    for m in mats:
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("kronecker_sum expects square matrices")
    total = None
    for k, z in enumerate(mats):
        before = int(np.prod(sizes[:k])) if k > 0 else 1
        after = int(np.prod(sizes[k + 1 :])) if k + 1 < len(sizes) else 1
        term = np.kron(np.eye(after), np.kron(z, np.eye(before)))
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# graph families


def make_ring(n: int) -> Graph:
    """Cycle graph with unit weights."""
    if n < 3:
        raise ValidationError(f"ring graph requires n >= 3, got {n}")
    edges = [(i, i + 1, 1.0) for i in range(n - 1)] + [(0, n - 1, 1.0)]
    return Graph(n, tuple(edges))


def make_path(n: int) -> Graph:
    """Path graph with unit weights."""
    if n < 2:
        raise ValidationError(f"path graph requires n >= 2, got {n}")
    return Graph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def make_complete(n: int) -> Graph:
    """Fully connected graph with unit weights."""
    if n < 2:
        raise ValidationError(f"complete graph requires n >= 2, got {n}")
    return Graph(n, tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)))


def make_comet(n: int, head: int | None = None) -> Graph:
    """Comet graph: a star of ``head`` leaves on vertex 0 plus a path tail.

    Vertex 0 is the center, vertices 1..head are leaves, and vertices
    head+1..n-1 form a path attached to vertex 0. Default head is
    ceil((n - 1) / 2).
    """
    if n < 3:
        raise ValidationError(f"comet graph requires n >= 3, got {n}")
    if head is None:
        head = n // 2
    if not (1 <= head <= n - 1):
        raise ValidationError(f"comet head must satisfy 1 <= head <= n-1, got {head}")
    edges = [(0, k, 1.0) for k in range(1, head + 1)]
    if head + 1 < n:
        edges.append((0, head + 1, 1.0))
        edges.extend((k, k + 1, 1.0) for k in range(head + 1, n - 1))
    return Graph(n, tuple(edges))


def make_low_stretch_tree(n: int) -> Graph:
    """Low-stretch spanning tree of the sqrt(n) x sqrt(n) grid.

    Built by recursive quadrant subdivision: each region is split in half
    along each axis longer than 1 and its sub-regions are built recursively,
    then joined in a fixed order. A column split joins the top row band's
    left and right regions by the edge on that band's first row; a row split
    joins each column band's upper and lower regions by the edge on that
    band's first column. Grid vertex (r, c) has index r * sqrt(n) + c.
    """
    s = math.isqrt(n)
    if n < 4 or s * s != n:
        raise ValidationError(f"low-stretch tree requires a perfect square n >= 4, got {n}")
    edges: list[Edge] = []

    def build(r0: int, r1: int, c0: int, c1: int) -> None:
        nr, nc = r1 - r0, c1 - c0
        if nr == 1 and nc == 1:
            return
        rm, cm = r0 + nr // 2, c0 + nc // 2
        rbands = [(r0, r1)] if nr == 1 else [(r0, rm), (rm, r1)]
        cbands = [(c0, c1)] if nc == 1 else [(c0, cm), (cm, c1)]
        for a0, a1 in rbands:
            for b0, b1 in cbands:
                build(a0, a1, b0, b1)
        if nc > 1:
            edges.append((r0 * s + cm - 1, r0 * s + cm, 1.0))
        if nr > 1:
            edges.extend(((rm - 1) * s + b0, rm * s + b0, 1.0) for b0, _ in cbands)

    build(0, s, 0, s)
    return Graph(n, tuple(edges))


GRAPH_FAMILIES = ("ring", "path", "complete", "comet", "lowstretch")


def make_family(family: str, n: int, head: int | None = None) -> Graph:
    """Construct a graph from one of the named families; only comet takes ``head``."""
    if head is not None and family != "comet":
        raise ValidationError(f"only comet graphs take a head size, got head={head} for {family!r}")
    if family == "ring":
        return make_ring(n)
    if family == "path":
        return make_path(n)
    if family == "complete":
        return make_complete(n)
    if family == "comet":
        return make_comet(n, head)
    if family == "lowstretch":
        return make_low_stretch_tree(n)
    raise ValidationError(f"unknown graph family {family!r}; choose from {GRAPH_FAMILIES}")


def bipolar_rect_signal(n: int) -> np.ndarray:
    """Rectangular +1/-1 signal: +1 on vertices 0..ceil(n/2)-1, -1 on the rest."""
    if n < 2:
        raise ValidationError(f"bipolar rectangular signal requires n >= 2, got {n}")
    out = np.ones(n)
    out[(n + 1) // 2 :] = -1.0
    return out
