"""Line-graph representations of a hypergraph.

Two hyperedges can be compared as sets, which yields two complementary
line graphs over hyperedge ids: a DAG of strict-containment relations
(larger hyperedge points to each smaller hyperedge it fully contains) and
an undirected intersection graph weighted by shared-node counts. All are
built by the same array kernel, ``hypergraph.co_member_pairs``: every
(hyperedge a, node u in a, hyperedge b containing u) encounter becomes one
integer key for the pair (a, b), found through the node->hyperedge
membership index, never by an all-pairs scan. The keys are sorted in
chunks of whole rows a of bounded size, so memory stays bounded while the
per-call overhead is paid per chunk, not per hyperedge. The overlap graph
walks every membership row whole, sum_u deg(u)^2 encounters. The DAG
builds list each node's hyperedges by size and walk only a window of that
list: the full DAG the hyperedges up to a in (size, id) order, which also
yields the overlap graph's totals, and the adjacent-layer DAG only those
one size smaller than a.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import comb
from typing import Callable, Sequence

import numpy as np

from .hypergraph import Hypergraph, co_member_pairs, split_rows, transpose, whole_rows


@dataclass
class HyperedgeDag:
    """Directed acyclic line graph over hyperedge ids, stored as CSR.

    Vertex i points to ``out_idx[out_ptr[i]:out_ptr[i + 1]]``, ascending.
    The transpose ``in_csr`` (``in_ptr``, ``in_idx``) and the row list
    ``out_adj`` are built on first read. A build records how many
    (hyperedge, shared-node, candidate) encounters it gathered, for checking
    the complexity bound; ``build_encapsulation_dag`` also records the
    overlap graph's edge count and total weight.
    """

    out_ptr: np.ndarray
    out_idx: np.ndarray
    candidate_visits: int = 0
    overlap_edges: int = 0
    overlap_weight: int = 0

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> HyperedgeDag:
        """The graph in which vertex i points to each vertex of ``rows[i]``."""
        ptr = np.concatenate(([0], np.cumsum([len(r) for r in rows], dtype=np.int64)))
        idx = np.fromiter(chain.from_iterable(map(sorted, rows)), dtype=np.int32)
        return cls(ptr, idx)

    @cached_property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        return transpose(self.out_ptr, self.out_idx, self.num_vertices)

    @cached_property
    def out_adj(self) -> list[list[int]]:
        return split_rows(self.out_ptr, self.out_idx)

    @property
    def num_vertices(self) -> int:
        return self.out_ptr.size - 1

    @property
    def edge_count(self) -> int:
        return int(self.out_ptr[-1])

    @property
    def sources(self) -> np.ndarray:
        """The vertex each entry of ``out_idx`` points from."""
        return np.repeat(np.arange(self.num_vertices), np.diff(self.out_ptr))

    def restrict(self, keep: np.ndarray) -> HyperedgeDag:
        """The subgraph of the edges whose ``out_idx`` entries mask ``keep`` marks."""
        ptr = np.concatenate(([0], np.cumsum(keep)))[self.out_ptr]
        return HyperedgeDag(ptr, self.out_idx[keep])


@dataclass
class OverlapGraph:
    """Undirected line graph weighted by intersection size, stored as CSR.

    Hyperedge i shares ``weights[k]`` nodes with each neighbor
    ``nbrs[k]``, for k in ``ptr[i]:ptr[i + 1]``, neighbors ascending; every
    edge is listed from both ends.
    """

    ptr: np.ndarray
    nbrs: np.ndarray
    weights: np.ndarray


def _size_windows(h: Hypergraph, adjacent: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``tidx``, ``lo``, ``hi`` for ``co_member_pairs`` over ``h.edge_ptr``:
    ``tidx`` lists each node's hyperedges by (size, id), and entry i of
    ``h.edge_nodes`` (node u of hyperedge a) gathers the slice of u's list
    that runs up to a itself or, when ``adjacent``, the hyperedges of u one
    size smaller than a. Each slice is contiguous because the list is
    size-ordered."""
    total, sizes = h.edge_nodes.size, h.sizes
    pos = np.int32 if total < 2**31 else np.int64
    count = np.bincount(sizes)
    present = np.flatnonzero(count)
    layers = present.size
    layer = (np.cumsum(count > 0, dtype=np.int32) - 1)[sizes]
    # one sort of (node, size layer, entry) keys orders every node's list;
    # a run of equal (node, layer) is one size class of one node's list
    bits = total.bit_length()
    if (h.n * layers) << bits > np.iinfo(np.int64).max:
        raise ValueError(f"{h.n} nodes in {layers} sizes overflow the membership sort keys")
    key = h.edge_nodes * layers
    key += np.repeat(layer, sizes)
    key <<= bits
    key |= np.arange(total)
    key.sort()
    # entry stays an index array (intp): NumPy would copy a narrower one to
    # index with it; every other array of one entry per incidence is freed
    # once read, 11-22 MB each at 1M
    entry = key & ((1 << bits) - 1)
    if adjacent:
        key >>= bits
        starts = np.flatnonzero(np.concatenate((key[:1] == key[:1], key[1:] != key[:-1])))
        group = key[starts]
    del key
    tidx = np.repeat(np.arange(h.m, dtype=pos), sizes)[entry]
    if not adjacent:
        hi = np.empty(total, dtype=pos)
        hi[entry] = np.arange(1, total + 1, dtype=pos)
        return tidx, h.memb_ptr.astype(pos)[h.edge_nodes], hi
    # a run gathers the run before it when that holds the same node's
    # hyperedges one size smaller
    step = np.zeros(layers, dtype=bool)
    step[1:] = present[1:] - present[:-1] == 1
    below = np.diff(group) == 1
    below &= step[group[1:] % layers]
    del group
    lengths = np.diff(starts, append=total)
    starts = starts.astype(pos)
    lo_run = starts.copy()
    below = np.flatnonzero(below) + 1
    lo_run[below] = starts[below - 1]
    lo = np.empty(total, dtype=pos)
    lo[entry] = np.repeat(lo_run, lengths)
    del lo_run
    hi = np.empty(total, dtype=pos)
    hi[entry] = np.repeat(starts, lengths)
    return tidx, lo, hi


def _kept_pairs(h: Hypergraph, windows: tuple, keep: Callable[..., np.ndarray]) -> tuple:
    """CSR ``ptr``/``idx`` (int32) of the pairs (a, b) that hyperedge a
    gathers through ``windows`` (``tidx``, ``lo``, ``hi`` of
    ``co_member_pairs``) and ``keep(a, b, cnt)`` marks, their shared-node
    counts, the number of all pairs gathered and of all encounters."""
    per_row, idx, shared = [], [], []
    pairs = visits = 0
    for a0, a1, a, b, cnt in co_member_pairs(h.edge_ptr, *windows):
        pairs += a.size
        visits += int(cnt.sum())
        sel = keep(a, b, cnt)
        per_row.append(np.bincount(a[sel] - a0, minlength=a1 - a0))
        idx.append(b[sel].astype(np.int32))
        shared.append(cnt[sel].astype(np.int32))
    ptr = np.cumsum(np.concatenate([[0], *per_row]), dtype=np.int64)
    none = np.empty(0, dtype=np.int32)
    return ptr, np.concatenate([none, *idx]), np.concatenate([none, *shared]), pairs, visits


def build_encapsulation_dag(h: Hypergraph) -> HyperedgeDag:
    """DAG of strict containment: edge i->j iff e_j is a proper subset of e_i.

    A candidate j shares ``cnt`` nodes with i; it is contained in i exactly
    when ``cnt`` equals its own size, and strictness requires it to be
    smaller than i. Acyclicity follows from the size ordering. Hyperedge i
    gathers only the candidates up to itself in (size, id) order, so each
    overlapping pair is gathered once, besides the m self pairs; node u is
    in deg(u) hyperedges, so the overlap weight has a closed form.
    """
    sizes = h.sizes
    ptr, idx, _, pairs, visits = _kept_pairs(
        h, _size_windows(h, adjacent=False),
        lambda a, b, cnt: (cnt == sizes[b]) & (sizes[b] < sizes[a]))
    deg = h.degrees
    return HyperedgeDag(ptr, idx, candidate_visits=visits, overlap_edges=pairs - h.m,
                        overlap_weight=(int(deg @ deg) - int(sizes.sum())) // 2)


def build_overlap_graph(h: Hypergraph) -> OverlapGraph:
    windows = (h.memb_ids, *whole_rows(h.edge_nodes, h.memb_ptr))
    ptr, nbrs, weights, _, _ = _kept_pairs(h, windows, lambda a, b, cnt: a != b)
    return OverlapGraph(ptr, nbrs, weights)


def adjacent_layer_dag(h: Hypergraph) -> HyperedgeDag:
    """The containment DAG restricted to edges whose size difference is
    exactly one, the substrate the contagion engine spreads over, built
    directly: each hyperedge gathers only the hyperedges one size smaller."""
    sizes = h.sizes
    ptr, idx, _, _, visits = _kept_pairs(h, _size_windows(h, adjacent=True),
                                         lambda a, b, cnt: cnt == sizes[b])
    return HyperedgeDag(ptr, idx, candidate_visits=visits)


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
    heads, tails = dag.sources, dag.out_idx
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
