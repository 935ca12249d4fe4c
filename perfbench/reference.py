"""Independent answers to check the program's outputs against.

Computed with numpy/scipy straight from the CSR edge list; nothing here
calls the program's own algorithms or references.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

UNVISITED = np.uint64(0xFFFFFFFFFFFFFFFF)


class Graph:
    """A CSR graph as plain arrays, with the adjacency matrix scipy needs."""

    def __init__(self, offsets: np.ndarray, targets: np.ndarray):
        self.indptr = np.asarray(offsets, dtype=np.int64)
        self.dst = np.asarray(targets, dtype=np.int64)
        self.n = len(self.indptr) - 1
        self.deg = np.diff(self.indptr)
        self.src = np.repeat(np.arange(self.n), self.deg)

    @cached_property
    def matrix(self) -> csr_matrix:
        return csr_matrix(
            (np.ones(len(self.dst), dtype=np.int8), self.dst, self.indptr),
            shape=(self.n, self.n))

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        return np.unique(self.src * self.n + self.dst)

    def distances(self, sources) -> np.ndarray:
        """Hop distances (inf where unreachable), one row per source."""
        return shortest_path(self.matrix, method="D", directed=True,
                             unweighted=True, indices=sources)

    def has_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        keys = np.asarray(a, dtype=np.int64) * self.n + np.asarray(b, dtype=np.int64)
        pos = np.searchsorted(self._edge_keys, keys)
        pos = np.minimum(pos, len(self._edge_keys) - 1)
        return self._edge_keys[pos] == keys


def pagerank(g: Graph, iterations: int, damping: float = 0.85) -> np.ndarray:
    """The engine's push semantics: every vertex pushes in the first
    superstep, afterwards only the vertices that received updates; a vertex
    that receives nothing keeps its value."""
    rank = np.full(g.n, 1.0 / g.n)
    pushing = np.ones(g.n, dtype=bool)
    for _ in range(iterations):
        live = pushing[g.src]
        src, dst = g.src[live], g.dst[live]
        sums = np.bincount(dst, weights=rank[src] / g.deg[src], minlength=g.n)
        received = np.bincount(dst, minlength=g.n) > 0
        rank = np.where(received, (1 - damping) / g.n + damping * sums, rank)
        pushing = received
    return rank


def min_reaching_label(g: Graph) -> np.ndarray:
    """For every vertex, the smallest id among the vertices that reach it
    (itself included), as a fixed point over the edge list."""
    labels = np.arange(g.n, dtype=np.int64)
    while True:
        new = labels.copy()
        np.minimum.at(new, g.dst, labels[g.src])
        if np.array_equal(new, labels):
            return labels
        labels = new


def bfs_parent_errors(g: Graph, root: int, parents: np.ndarray,
                      dist: np.ndarray) -> list[str]:
    """Graph500-style validation of a BFS parent array against distances."""
    errors = []
    visited = parents != UNVISITED
    reachable = np.isfinite(dist)
    if not np.array_equal(visited, reachable):
        errors.append(f"visited set differs from reachable set in "
                      f"{int((visited != reachable).sum())} vertices")
        return errors
    if int(parents[root]) != root:
        errors.append(f"root {root} has parent {int(parents[root])}")
    v = np.flatnonzero(visited)
    v = v[v != root]
    p = parents[v].astype(np.int64)
    if (p < 0).any() or (p >= g.n).any():
        errors.append("parent id out of range")
        return errors
    if not np.array_equal(dist[p], dist[v] - 1):
        errors.append(f"{int((dist[p] != dist[v] - 1).sum())} parents are not "
                      f"one level shallower")
    if not g.has_edges(p, v).all():
        errors.append(f"{int((~g.has_edges(p, v)).sum())} parent links are "
                      f"not edges")
    return errors


def close(a: np.ndarray, b: np.ndarray) -> bool:
    """Float results: summation order may differ from the reference's."""
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=1e-9, atol=0.0))
