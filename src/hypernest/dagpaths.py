"""Path structure of containment DAGs: transitive reduction and the heights
of paths starting from root hyperedges.

Long root-to-leaf paths mean containment is deep (a chain of intermediate
hyperedges of every size), while short paths mean it only links two sizes
at a time. Longest paths are the same in a DAG and in its transitive
reduction, so heights are read from the containment DAG directly. Both
work on the DAG's CSR arrays: heights by one ``maximum.reduceat`` per
level, the reduction on int64 pair keys ``u * n + w``, one per edge.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .hypergraph import Hypergraph, gather_rows
from .linegraph import HyperedgeDag


def transitive_reduction(dag: HyperedgeDag) -> HyperedgeDag:
    """Remove every edge implied by a longer path; unique for a DAG.

    With edges as keys ``u * n + w`` (A), the closure C grows from A by the
    paths A.C until it stops growing: for each edge (u, v), row v of C is
    gathered as keys of u. An edge (u, w) is redundant exactly when w is
    reachable through another out-neighbor of u, that is when it is in A.C.
    A transitively closed DAG, as every containment DAG is, stops after one
    step. A cycle shows as a pair (v, v) in C and raises a ``ValueError``.
    """
    n = dag.num_vertices
    edges = dag.sources * n + dag.out_idx
    closure = edges
    while True:
        implied = gather_rows(np.searchsorted(closure, np.arange(n + 1) * n), closure % n,
                              edges, n, n)
        grown = np.union1d(closure, implied)
        if grown.size == closure.size:
            break
        closure = grown
    if np.any(closure // n == closure % n):
        raise ValueError("transitive reduction of a graph with a cycle")
    return dag.restrict(~np.isin(edges, implied))


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
    field order of ``RootHeightRecord``; the two normalized columns and
    ``records``, the row view, are built on first read. ``singletons`` says
    whether the hypergraph has 1-node hyperedges (``max_root_out_degree``)."""

    root_ids: np.ndarray
    sizes: np.ndarray
    dag_degrees: np.ndarray
    heights: np.ndarray
    singletons: bool

    @property
    def num_roots(self) -> int:
        return self.root_ids.size

    @cached_property
    def norm_degrees(self) -> np.ndarray:
        """Out-degree over ``max_root_out_degree``, NaN where that is 0."""
        sizes, degrees = self.sizes, self.dag_degrees
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bound = np.ldexp(1.0, sizes) - 2 - (0 if self.singletons else sizes)
            norm = np.where(bound > 0, degrees / bound, np.nan)
        # past 2^53 the float bound is rounded: divide those as Python ints
        for k in np.flatnonzero(sizes > 53).tolist():
            norm[k] = int(degrees[k]) / max_root_out_degree(int(sizes[k]), self.singletons)
        return norm

    @cached_property
    def norm_heights(self) -> np.ndarray:
        """Height over its bound size - 1, NaN for a 1-node root."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.sizes > 1, self.heights / (self.sizes - 1), np.nan)

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
        """One CSV line per root, as ``csv.writer`` writes them: no field
        needs quoting, each float is ``"{:.6g}"``, lines end in CRLF."""
        line = "{},{},{},{},{:.6g},{:.6g}\r\n".format
        lines = map(line, *(col.tolist() for col in self.columns()))
        text = ",".join(f.name for f in fields(RootHeightRecord)) + "\r\n" + "".join(lines)
        with open(path, "w", newline="") as fh:
            fh.write(text)


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
    return RootedHeightReport(roots, h.sizes[roots], degree[roots], longest[roots],
                              h.has_singletons())
