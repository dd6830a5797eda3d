"""Line-graph representations of a hypergraph.

Two hyperedges can be compared as sets, which yields two complementary
line graphs over hyperedge ids: a DAG of strict-containment relations
(larger hyperedge points to each smaller hyperedge it fully contains) and
an undirected intersection graph weighted by shared-node counts. Both are
built by the same array kernel, ``hypergraph.co_member_pairs``: every
(hyperedge a, node u in a, hyperedge b containing u) encounter becomes one
integer key for the pair (a, b), found through the node->hyperedge
membership index, never by an all-pairs scan. That is sum_u deg(u)^2
keys, sorted in chunks of whole rows a of bounded size, so memory stays
bounded while the per-call overhead is paid per chunk, not per hyperedge.
The DAG build also tallies the overlap graph's totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import comb
from typing import Iterator

import numpy as np

from .hypergraph import DatasetStats, Hypergraph, co_member_pairs, projected_density


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


def _row_spans(kept: np.ndarray, a: np.ndarray) -> Iterator[tuple[int, int]]:
    """(start, end) in ``kept``, a sorted subset of a chunk's row ids ``a``,
    of each row of the chunk in turn."""
    ends = np.searchsorted(kept, np.arange(a[0], a[-1] + 1), "right").tolist()
    return zip([0] + ends, ends)


def build_encapsulation_dag(h: Hypergraph) -> HyperedgeDag:
    """DAG of strict containment: edge i->j iff e_j is a proper subset of e_i.

    A candidate j shares ``cnt`` nodes with i; it is contained in i exactly
    when ``cnt`` equals its own size, and strictness requires it to be
    smaller than i. Acyclicity follows from the size ordering. Every
    candidate other than i itself is an overlap neighbor; node u yields
    deg(u)^2 encounters, deg(u) of them self pairs, so the visits and the
    overlap weight have closed forms.
    """
    m = h.m
    sizes = h.sizes
    out_adj: list[list[int]] = []
    pairs = 0
    for a, b, cnt in co_member_pairs(h.edge_ptr, h.edge_nodes, h.memb_ptr, h.memb_ids):
        pairs += a.size
        keep = (cnt == sizes[b]) & (sizes[b] < sizes[a])
        tails = b[keep].tolist()
        out_adj.extend(tails[p:q] for p, q in _row_spans(a[keep], a))
    deg = h.degrees
    visits = int(deg @ deg)
    return HyperedgeDag(out_adj=out_adj, candidate_visits=visits,
                        overlap_edges=(pairs - m) // 2,
                        overlap_weight=(visits - int(sizes.sum())) // 2)


def build_overlap_graph(h: Hypergraph) -> OverlapGraph:
    adj: list[dict[int, int]] = []
    for a, b, cnt in co_member_pairs(h.edge_ptr, h.edge_nodes, h.memb_ptr, h.memb_ids):
        other = a != b
        nbrs, weights = b[other].tolist(), cnt[other].tolist()
        adj.extend(dict(zip(nbrs[p:q], weights[p:q])) for p, q in _row_spans(a[other], a))
    return OverlapGraph(adj=adj, sizes=h.sizes)


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
    present, counts = np.unique(sizes, return_counts=True)
    size_code = np.searchsorted(present, sizes)
    heads = np.repeat(np.arange(h.m), [len(nbrs) for nbrs in dag.out_adj])
    tails = np.fromiter(chain.from_iterable(dag.out_adj), dtype=np.int64, count=heads.size)
    pair_counts: dict[tuple[int, int], int] = {}
    histograms: dict[tuple[int, int], list[float]] = {}
    for i, n in enumerate(present.tolist()):
        # per size-n hyperedge, in id order, how many of each smaller size it contains
        members = sizes == n
        mine = members[heads]
        contained = np.zeros((counts[i], i), dtype=np.int64)
        np.add.at(contained, ((np.cumsum(members) - 1)[heads[mine]], size_code[tails[mine]]), 1)
        for j, m_ in enumerate(present[:i].tolist()):
            col, k = contained[:, j].tolist(), comb(n, m_)
            pair_counts[(n, m_)] = sum(col)
            # Python int division: C(n, m) may pass int64 and 2^53
            histograms[(n, m_)] = [c / k for c in col]
    return EncapsulationCounts(pair_counts=pair_counts,
                               size_counts=dict(zip(present.tolist(), counts.tolist())),
                               histograms=histograms)


def compute_dataset_stats(h: Hypergraph) -> DatasetStats:
    dag = build_encapsulation_dag(h)
    return DatasetStats(
        n=h.n,
        m=h.m,
        projected_density=projected_density(h),
        dag_edge_count=dag.edge_count,
    )
