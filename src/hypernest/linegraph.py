"""Line-graph representations of a hypergraph.

Two hyperedges can be compared as sets, which yields two complementary
line graphs over hyperedge ids: a DAG of strict-containment relations
(larger hyperedge points to each smaller hyperedge it fully contains) and
an undirected intersection graph weighted by shared-node counts. Both are
built by the same array kernel: every (hyperedge a, node u in a,
hyperedge b containing u) encounter becomes one integer key for the pair
(a, b), found through the node->hyperedge membership index, never by an
all-pairs scan. That is sum_u deg(u)^2 keys, sorted in chunks of whole rows
a of bounded size, so memory stays bounded while the per-call overhead is
paid per chunk, not per hyperedge. The DAG build also tallies the overlap
graph's totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import comb
from pathlib import Path
from typing import Iterator

import numpy as np

from .hypergraph import DatasetStats, Hypergraph, projected_density

# encounters sorted at once by the line-graph kernel: each of its transient
# int64 arrays is 64 KB, and together they stay well under 1 MB
_CHUNK_ENCOUNTERS = 1 << 13


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


def _shared_node_pairs(h: Hypergraph) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every (a, b) pair of hyperedges sharing a node, with the shared-node
    count, ascending by (a, b) and yielded in chunks of whole rows ``a``.

    Each (hyperedge a, node u in a, hyperedge b containing u) encounter is
    one key ``(a - a0) * m + b``; a chunk holds about ``_CHUNK_ENCOUNTERS``
    of them (a row larger than that is a chunk of its own), and one sort per
    chunk turns runs of equal keys into pairs and counts. Every row holds
    the pair (a, a) with count ``|a|``.
    """
    m = h.m
    if m == 0:
        return
    edge_nodes = np.fromiter(chain.from_iterable(h.edges), dtype=np.int64,
                             count=int(h.sizes.sum()))
    memb_ids = np.concatenate(h.memberships)
    deg = np.fromiter(map(len, h.memberships), dtype=np.int64, count=h.n)
    memb_ptr = np.concatenate(([0], np.cumsum(deg)))
    edge_ptr = np.concatenate(([0], np.cumsum(h.sizes)))
    # encounters before each row: row a spans work[a]:work[a + 1]
    work = np.concatenate(([0], np.cumsum(deg[edge_nodes])))[edge_ptr]
    a0 = 0
    while a0 < m:
        a1 = max(int(np.searchsorted(work, work[a0] + _CHUNK_ENCOUNTERS, "right")) - 1, a0 + 1)
        nodes = edge_nodes[edge_ptr[a0]:edge_ptr[a1]]
        per_node = deg[nodes]
        total = int(work[a1] - work[a0])
        # each node's run of encounters walks its membership list
        at = np.repeat(memb_ptr[nodes] - (np.cumsum(per_node) - per_node), per_node)
        at += np.arange(total)
        keys = memb_ids[at]
        del at
        keys += np.repeat(np.repeat(np.arange(a1 - a0) * m, h.sizes[a0:a1]), per_node)
        keys.sort()
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        counts = np.diff(np.append(starts, total))
        rows, b = np.divmod(keys[starts], m)
        yield rows + a0, b, counts
        a0 = a1


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
    for a, b, cnt in _shared_node_pairs(h):
        pairs += a.size
        keep = (cnt == sizes[b]) & (sizes[b] < sizes[a])
        tails = b[keep].tolist()
        out_adj.extend(tails[p:q] for p, q in _row_spans(a[keep], a))
    visits = sum(ids.size ** 2 for ids in h.memberships)
    return HyperedgeDag(out_adj=out_adj, candidate_visits=visits,
                        overlap_edges=(pairs - m) // 2,
                        overlap_weight=(visits - int(sizes.sum())) // 2)


def build_overlap_graph(h: Hypergraph) -> OverlapGraph:
    adj: list[dict[int, int]] = []
    for a, b, cnt in _shared_node_pairs(h):
        other = a != b
        nbrs, weights = b[other].tolist(), cnt[other].tolist()
        adj.extend(dict(zip(nbrs[p:q], weights[p:q])) for p, q in _row_spans(a[other], a))
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
