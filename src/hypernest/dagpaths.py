"""Path structure of containment DAGs: transitive reduction and the heights
of paths starting from root hyperedges.

Long root-to-leaf paths mean containment is deep (a chain of intermediate
hyperedges of every size), while short paths mean it only links two sizes
at a time. Longest paths are the same in a DAG and in its transitive
reduction, so heights are read from the containment DAG directly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from functools import cached_property
from graphlib import TopologicalSorter
from pathlib import Path

import numpy as np

from .hypergraph import Hypergraph
from .linegraph import HyperedgeDag


def transitive_reduction(dag: HyperedgeDag) -> HyperedgeDag:
    """Remove every edge implied by a longer path; unique for a DAG.

    An edge (u, w) is redundant exactly when w is a descendant of another
    out-neighbor of u, so each vertex keeps the out-neighbors not reachable
    through its siblings. Descendant sets are accumulated children first;
    a cycle raises ``graphlib.CycleError``, a ``ValueError``.
    """
    out_adj = dag.out_adj
    descendants: list[frozenset[int]] = [frozenset()] * len(out_adj)
    for v in TopologicalSorter(dict(enumerate(out_adj))).static_order():
        descendants[v] = frozenset(out_adj[v]).union(*(descendants[w] for w in out_adj[v]))
    reduced = []
    for children in out_adj:
        indirect = frozenset().union(*(descendants[v] for v in children))
        reduced.append([w for w in children if w not in indirect])
    return HyperedgeDag.from_rows(reduced)


@dataclass(frozen=True)
class RootHeightRecord:
    root_id: int
    size: int
    dag_degree: int
    max_height: int
    norm_degree: float
    norm_height: float


@dataclass
class RootedHeightReport:
    """Per-root columns, one entry per root in ascending root id, in the
    field order of ``RootHeightRecord``; ``records`` is the row view, built
    on first read."""

    root_ids: np.ndarray
    sizes: np.ndarray
    dag_degrees: np.ndarray
    heights: np.ndarray
    norm_degrees: np.ndarray
    norm_heights: np.ndarray

    @property
    def num_roots(self) -> int:
        return self.root_ids.size

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.root_ids, self.sizes, self.dag_degrees, self.heights, self.norm_degrees,
                self.norm_heights)

    @cached_property
    def records(self) -> list[RootHeightRecord]:
        return list(map(RootHeightRecord, *(col.tolist() for col in self.columns())))

    def height_distribution(self) -> dict[int, int]:
        return dict(zip(*(col.tolist() for col in np.unique(self.heights, return_counts=True))))

    def max_height(self) -> int:
        return int(self.heights.max()) if self.num_roots else 0

    def write_csv(self, path: str | Path) -> None:
        ints = (col.tolist() for col in self.columns()[:4])
        floats = (map("{:.6g}".format, col.tolist()) for col in self.columns()[4:])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(f.name for f in fields(RootHeightRecord))
            writer.writerows(zip(*ints, *floats))


def max_root_out_degree(size: int, singletons_present: bool) -> int:
    """Largest possible containment out-degree of a size-``size`` hyperedge:
    the number of proper non-empty subsets, excluding single nodes when the
    dataset has no 1-node hyperedges at all."""
    full = 2**size - 2
    return full if singletons_present else full - size


def rooted_heights(dag: HyperedgeDag, h: Hypergraph) -> RootedHeightReport:
    """Per-root (out-degree, longest path) pairs of the containment DAG,
    raw and normalized by their maxima; a root has no parent and some child.
    An edge implied by a longer path is never on a longest one, so heights
    equal those of the transitive reduction. The height of a size-k root can
    never exceed k - 1 since each step descends at least one size."""
    out_ptr, out_idx, n = dag.out_ptr, dag.out_idx, dag.num_vertices
    degree = np.diff(out_ptr)
    parents = np.flatnonzero(degree)
    longest = np.zeros(n, dtype=np.int64)
    # each round fixes one more level; every edge descends in size, so
    # heights stay below max_size and max height + 1 rounds suffice
    for _ in range(h.max_size if parents.size else 0):
        nxt = np.zeros_like(longest)
        nxt[parents] = np.maximum.reduceat(longest[out_idx], out_ptr[parents]) + 1
        if np.array_equal(nxt, longest):
            break
        longest = nxt
    roots = parents[np.bincount(out_idx, minlength=n)[parents] == 0]
    sizes, degrees, heights = h.sizes[roots], degree[roots], longest[roots]
    singletons = h.has_singletons()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = np.ldexp(1.0, sizes) - 2 - (0 if singletons else sizes)
        norm_degrees = np.where(bound > 0, degrees / bound, np.nan)
        norm_heights = np.where(sizes > 1, heights / (sizes - 1), np.nan)
    # past 2^53 the float bound is rounded: divide those as Python ints
    for k in np.flatnonzero(sizes > 53).tolist():
        norm_degrees[k] = int(degrees[k]) / max_root_out_degree(int(sizes[k]), singletons)
    return RootedHeightReport(roots, sizes, degrees, heights, norm_degrees, norm_heights)
