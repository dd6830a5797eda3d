"""Path structure of containment DAGs: transitive reduction and the heights
of paths starting from root hyperedges.

Long root-to-leaf paths mean containment is deep (a chain of intermediate
hyperedges of every size), while short paths mean it only links two sizes
at a time. Longest paths are the same in a DAG and in its transitive
reduction, so heights are read from the containment DAG directly.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, fields
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
    records: list[RootHeightRecord]

    def height_distribution(self) -> dict[int, int]:
        return dict(sorted(Counter(rec.max_height for rec in self.records).items()))

    def max_height(self) -> int:
        return max((rec.max_height for rec in self.records), default=0)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(f.name for f in fields(RootHeightRecord))
            for rec in self.records:
                writer.writerow([rec.root_id, rec.size, rec.dag_degree, rec.max_height,
                                 f"{rec.norm_degree:.6g}", f"{rec.norm_height:.6g}"])


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
    singletons = h.has_singletons()
    records = []
    # Python ints: the degree bound 2^size - 2 passes int64 at size 63
    for r, size, deg, height in zip(roots.tolist(), h.sizes[roots].tolist(),
                                    degree[roots].tolist(), longest[roots].tolist()):
        max_deg = max_root_out_degree(size, singletons)
        norm_degree = deg / max_deg if max_deg > 0 else float("nan")
        norm_height = height / (size - 1) if size > 1 else float("nan")
        records.append(RootHeightRecord(r, size, deg, height, norm_degree, norm_height))
    return RootedHeightReport(records=records)
