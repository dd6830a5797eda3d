"""Path structure of containment DAGs: transitive reduction and the heights
of paths starting from root hyperedges.

Long root-to-leaf paths mean containment is deep (a chain of intermediate
hyperedges of every size), while short paths mean it only links two sizes
at a time. Longest paths are the same in a DAG and in its transitive
reduction, so heights are read from the containment DAG directly.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .hypergraph import Hypergraph
from .linegraph import HyperedgeDag


def topological_order(out_adj: list[list[int]]) -> list[int]:
    """Kahn's algorithm; raises if the graph has a cycle."""
    n = len(out_adj)
    in_deg = [0] * n
    for nbrs in out_adj:
        for b in nbrs:
            in_deg[b] += 1
    queue = deque(i for i in range(n) if in_deg[i] == 0)
    order: list[int] = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in out_adj[v]:
            in_deg[w] -= 1
            if in_deg[w] == 0:
                queue.append(w)
    if len(order) != n:
        raise ValueError("graph contains a cycle; expected a DAG")
    return order


def transitive_reduction(dag: HyperedgeDag) -> HyperedgeDag:
    """Remove every edge implied by a longer path; unique for a DAG.

    An edge (u, w) is redundant exactly when w is a descendant of another
    out-neighbor of u, so each vertex keeps the out-neighbors not reachable
    through its siblings. Descendant sets are accumulated in reverse
    topological order.
    """
    out_adj = dag.out_adj
    n = len(out_adj)
    order = topological_order(out_adj)
    descendants: list[frozenset[int]] = [frozenset()] * n
    for v in reversed(order):
        if out_adj[v]:
            acc: set[int] = set(out_adj[v])
            for w in out_adj[v]:
                acc |= descendants[w]
            descendants[v] = frozenset(acc)
    reduced: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        children = out_adj[u]
        if len(children) <= 1:
            reduced[u] = list(children)
            continue
        indirect: set[int] = set()
        for v in children:
            indirect |= descendants[v]
        reduced[u] = [w for w in children if w not in indirect]
    return HyperedgeDag(out_adj=reduced)


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
        dist: dict[int, int] = {}
        for rec in self.records:
            dist[rec.max_height] = dist.get(rec.max_height, 0) + 1
        return dict(sorted(dist.items()))

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
    out_adj = dag.out_adj
    longest = [0] * len(out_adj)
    # every edge descends in size, so ascending size is a reverse topological order
    for v in np.argsort(h.sizes, kind="stable").tolist():
        if out_adj[v]:
            longest[v] = 1 + max(longest[w] for w in out_adj[v])
    has_parent = {b for nbrs in out_adj for b in nbrs}
    singletons = h.has_singletons()
    records = []
    for r, children in enumerate(out_adj):
        if not children or r in has_parent:
            continue
        size = int(h.sizes[r])
        degree = len(children)
        height = longest[r]
        max_deg = max_root_out_degree(size, singletons)
        norm_degree = degree / max_deg if max_deg > 0 else float("nan")
        norm_height = height / (size - 1) if size > 1 else float("nan")
        records.append(RootHeightRecord(r, size, degree, height, norm_degree, norm_height))
    return RootedHeightReport(records=records)
