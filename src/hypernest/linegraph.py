"""Line-graph representations of a hypergraph.

Two hyperedges can be compared as sets, which yields two complementary
line graphs over hyperedge ids: a DAG of strict-containment relations
(larger hyperedge points to each smaller hyperedge it fully contains) and
an undirected intersection graph weighted by shared-node counts. Both are
built with the same candidate-gathering pass: for each hyperedge, every
hyperedge sharing at least one node is found through the node->hyperedge
membership index, never by an all-pairs scan, so construction cost is
bounded by (number of hyperedges) x (max hyperedge size) x (max node
degree). The DAG build also tallies the overlap graph's totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from pathlib import Path

import numpy as np

from .hypergraph import DatasetStats, Hypergraph, projected_density


@dataclass
class HyperedgeDag:
    """Directed acyclic line graph over hyperedge ids.

    ``out_adj[i]`` lists the hyperedges i points to, ascending; its
    transpose ``in_adj`` is built on first read, for reverse traversal
    during contagion updates. ``build_encapsulation_dag`` also records how
    many (hyperedge, shared-node, neighbor) encounters it inspected, for
    checking the complexity bound, and the overlap graph's edge count and
    total weight.
    """

    out_adj: list[list[int]]
    candidate_visits: int = 0
    overlap_edges: int = 0
    overlap_weight: int = 0

    @cached_property
    def in_adj(self) -> list[list[int]]:
        in_adj: list[list[int]] = [[] for _ in self.out_adj]
        for a, nbrs in enumerate(self.out_adj):
            for b in nbrs:
                in_adj[b].append(a)
        return in_adj

    @property
    def num_vertices(self) -> int:
        return len(self.out_adj)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.out_adj)

    def edge_set(self) -> set[tuple[int, int]]:
        return {(i, j) for i, nbrs in enumerate(self.out_adj) for j in nbrs}

    def out_degree(self, i: int) -> int:
        return len(self.out_adj[i])

    def in_degree(self, i: int) -> int:
        return len(self.in_adj[i])


@dataclass
class OverlapGraph:
    """Undirected line graph weighted by intersection size.

    ``adj[i]`` maps each neighbor j (sharing >= 1 node with i) to
    ``|e_i ∩ e_j|``; the mapping is symmetric. The normalized weight
    ``|e_i ∩ e_j| / min(|e_i|, |e_j|)`` is derived on demand.
    """

    adj: list[dict[int, int]]
    sizes: np.ndarray = field(repr=False)

    @property
    def num_vertices(self) -> int:
        return len(self.adj)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    @property
    def total_weight(self) -> int:
        return sum(sum(nbrs.values()) for nbrs in self.adj) // 2

    def weight(self, i: int, j: int) -> int:
        return self.adj[i].get(j, 0)

    def normalized_weight(self, i: int, j: int) -> float:
        w = self.weight(i, j)
        return w / min(int(self.sizes[i]), int(self.sizes[j])) if w else 0.0

    def edge_set(self) -> set[tuple[int, int]]:
        return {(i, j) for i, nbrs in enumerate(self.adj) for j in nbrs if i < j}


def _shared_edge_counts(h: Hypergraph, eid: int) -> tuple[np.ndarray, np.ndarray, int]:
    """All hyperedges sharing a node with ``eid`` and the shared-node counts.

    Returns (candidate ids ascending, counts, raw encounters inspected).
    ``eid`` itself appears among the candidates with count = its size.
    """
    parts = [h.memberships[u] for u in h.edges[eid]]
    cand = parts[0] if len(parts) == 1 else np.concatenate(parts)
    uniq, cnt = np.unique(cand, return_counts=True)
    return uniq, cnt, cand.size


def build_encapsulation_dag(h: Hypergraph) -> HyperedgeDag:
    """DAG of strict containment: edge i->j iff e_j is a proper subset of e_i.

    A candidate j shares ``cnt`` nodes with i; it is contained in i exactly
    when ``cnt`` equals its own size, and strictness requires it to be
    smaller than i. Acyclicity follows from the size ordering. Every
    candidate other than i itself is an overlap neighbor sharing ``cnt``
    nodes; summed over i, each overlap edge and its weight count twice.
    """
    m = h.m
    sizes = h.sizes
    out_adj: list[list[int]] = [[] for _ in range(m)]
    visits = twice_edges = twice_weight = 0
    for a in range(m):
        uniq, cnt, seen = _shared_edge_counts(h, a)
        visits += seen
        twice_edges += uniq.size - 1  # drop self
        twice_weight += seen - int(sizes[a])
        contained = uniq[(cnt == sizes[uniq]) & (sizes[uniq] < sizes[a])]
        out_adj[a] = contained.tolist()
    return HyperedgeDag(out_adj=out_adj, candidate_visits=visits,
                        overlap_edges=twice_edges // 2, overlap_weight=twice_weight // 2)


def build_overlap_graph(h: Hypergraph) -> OverlapGraph:
    m = h.m
    adj: list[dict[int, int]] = [{} for _ in range(m)]
    for a in range(m):
        uniq, cnt, _ = _shared_edge_counts(h, a)
        nbrs = {int(b): int(c) for b, c in zip(uniq.tolist(), cnt.tolist()) if b != a}
        adj[a] = nbrs
    return OverlapGraph(adj=adj, sizes=h.sizes)


def build_overlap_dag(g: OverlapGraph, h: Hypergraph) -> HyperedgeDag:
    """Drop same-size overlap edges and direct the rest from larger to
    smaller hyperedge; the strict size ordering makes the result acyclic."""
    sizes = h.sizes
    out_adj = [sorted(b for b in nbrs if sizes[a] > sizes[b]) for a, nbrs in enumerate(g.adj)]
    return HyperedgeDag(out_adj=out_adj)


def adjacent_layer_dag(dag: HyperedgeDag, h: Hypergraph) -> HyperedgeDag:
    """Restriction of a containment DAG to edges whose size difference is
    exactly one; this is the substrate the contagion engine spreads over."""
    sizes = h.sizes
    out_adj = [
        [b for b in nbrs if sizes[a] - sizes[b] == 1] for a, nbrs in enumerate(dag.out_adj)
    ]
    return HyperedgeDag(out_adj=out_adj)


@dataclass
class EncapsulationCounts:
    """Containment tallies per (larger size n, smaller size m) pair.

    ``pair_counts`` holds the number of DAG edges from size-n to size-m
    hyperedges; ``size_counts`` the number of hyperedges of each size;
    ``histograms`` one entry per size-n hyperedge giving its count of
    contained size-m hyperedges divided by the maximum possible, C(n, m),
    in hyperedge-id order.
    """

    pair_counts: dict[tuple[int, int], int]
    size_counts: dict[int, int]
    histograms: dict[tuple[int, int], list[float]]

    def normalized_pair_counts(self) -> dict[tuple[int, int], float]:
        """Containment count per size-n hyperedge, for each (n, m) pair."""
        return {
            (n, m): c / self.size_counts[n] for (n, m), c in self.pair_counts.items()
        }

    def to_json_dict(self, normalized: bool = True, histograms: bool = False) -> dict:
        norm = self.normalized_pair_counts() if normalized else None
        pairs = {}
        for (n, m), count in sorted(self.pair_counts.items()):
            entry: dict = {"count": count, "size_n_edges": self.size_counts[n]}
            if normalized:
                entry["per_size_n_edge"] = norm[(n, m)]
            if histograms:
                entry["histogram"] = self.histograms[(n, m)]
            pairs[f"{n},{m}"] = entry
        return {"sizes": {str(k): v for k, v in sorted(self.size_counts.items())}, "pairs": pairs}


def encapsulation_counts(h: Hypergraph, dag: HyperedgeDag) -> EncapsulationCounts:
    """Tally DAG edges by (container size, contained size) with per-hyperedge
    normalized histograms; covers every size pair present in the data."""
    sizes = h.sizes
    size_counts: dict[int, int] = {}
    for s in sizes.tolist():
        size_counts[s] = size_counts.get(s, 0) + 1
    present = sorted(size_counts)
    pair_counts: dict[tuple[int, int], int] = {}
    histograms: dict[tuple[int, int], list[float]] = {}
    for n in present:
        for m_ in present:
            if m_ < n:
                pair_counts[(n, m_)] = 0
                histograms[(n, m_)] = []
    for a in range(h.m):
        n = int(sizes[a])
        by_size: dict[int, int] = {}
        for b in dag.out_adj[a]:
            s = int(sizes[b])
            by_size[s] = by_size.get(s, 0) + 1
        for m_ in present:
            if m_ >= n:
                break
            c = by_size.get(m_, 0)
            pair_counts[(n, m_)] += c
            histograms[(n, m_)].append(c / comb(n, m_))
    return EncapsulationCounts(
        pair_counts=pair_counts, size_counts=size_counts, histograms=histograms
    )


def compute_dataset_stats(h: Hypergraph) -> DatasetStats:
    dag = build_encapsulation_dag(h)
    return DatasetStats(
        n=h.n,
        m=h.m,
        projected_density=projected_density(h),
        dag_edge_count=dag.edge_count,
    )


def write_dag_edge_list(dag: HyperedgeDag, path: str | Path) -> None:
    with open(path, "w") as fh:
        for i, nbrs in enumerate(dag.out_adj):
            for j in nbrs:
                fh.write(f"{i} {j}\n")


def write_overlap_edge_list(g: OverlapGraph, path: str | Path) -> None:
    with open(path, "w") as fh:
        for i, nbrs in enumerate(g.adj):
            for j in sorted(nbrs):
                if i < j:
                    fh.write(f"{i} {j} {nbrs[j]}\n")
