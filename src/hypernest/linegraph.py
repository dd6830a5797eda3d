"""Line-graph representations of a hypergraph.

Two hyperedges can be compared as sets, which yields two complementary
line graphs over hyperedge ids: a DAG of strict-containment relations
(larger hyperedge points to each smaller hyperedge it fully contains) and
an undirected intersection graph weighted by shared-node counts. All are
built by the same array kernel, ``hypergraph.co_member_pairs``: every
(hyperedge a, node u in a, hyperedge b containing u) encounter becomes one
int64 key ``((a - a0) << shift) | b`` for the pair (a, b), with ``a0`` the
first row of its chunk and ``shift`` the bit length of m - 1, found
through the node->hyperedge membership index, never by an all-pairs scan.
The keys are sorted in chunks of whole rows a of bounded size, so memory
stays bounded while the per-call overhead is paid per chunk, not per
hyperedge; a run of equal keys is one pair, its length |a & b|. The
overlap graph walks every membership row whole, sum_u deg(u)^2
encounters, and decodes each run with ``>>`` and ``&``. The DAG builds
list each node's hyperedges by size and walk only a window of that list:
the full DAG the hyperedges before a in (size, id) order, so no pair
(a, a) is gathered and the distinct keys are the overlap graph's edges,
and the adjacent-layer DAG only those one size smaller than a. Both read
containment straight off the sorted keys: b is in a iff its run is |b|
keys long, which a run never exceeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .hypergraph import (Hypergraph, co_member_pairs, count_runs, pair_shift, transpose,
                         whole_rows)


@dataclass
class HyperedgeDag:
    """Directed acyclic line graph over hyperedge ids, stored as CSR.

    Vertex i points to ``out_idx[out_ptr[i]:out_ptr[i + 1]]``, ascending,
    with ``out_ptr`` int64 and ``out_idx`` int32. The transpose ``in_csr``
    (``in_ptr``, ``in_idx``) is built on first read. ``candidate_visits``,
    for checking the complexity bound, is |a & b| summed over the pairs of
    hyperedges (a, b) with b at or before a in (size, id) order (a = b
    included, though no build gathers it) for ``build_encapsulation_dag``,
    and over those with |b| = |a| - 1 for ``adjacent_layer_dag``.
    ``build_encapsulation_dag`` also records the overlap graph's edge count
    and total weight.
    """

    out_ptr: np.ndarray
    out_idx: np.ndarray
    candidate_visits: int = 0
    overlap_edges: int = 0
    overlap_weight: int = 0

    @cached_property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        return transpose(self.out_ptr, self.out_idx, self.num_vertices)

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
    that ends just before a itself or, when ``adjacent``, the hyperedges of
    u one size smaller than a. Each slice is contiguous because the list is
    size-ordered. A ValueError if the sort keys could pass int64: if n *
    (largest size + 1) * 2^(bit length of the entry count) > 2^63 - 1."""
    total, sizes = h.edge_nodes.size, h.sizes
    pos = np.int32 if total < 2**31 else np.int64
    width = int(sizes.max(initial=0)) + 1
    bits = total.bit_length()
    if (h.n * width) << bits > np.iinfo(np.int64).max:
        raise ValueError(f"{h.n} nodes and sizes up to {width - 1} overflow the sort keys")
    # one sort of ((u * width + |a|) << bits) | i keys orders every list; a
    # run of equal u * width + |a| is one size class of u's list, and runs of
    # two nodes differ by at least 2, as every size is at least 1
    key = h.edge_nodes * width
    key += np.repeat(sizes, sizes)
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
        below = np.flatnonzero(np.diff(key[starts]) == 1) + 1
    del key
    tidx = np.repeat(np.arange(h.m, dtype=pos), sizes)[entry]
    hi = np.empty(total, dtype=pos)
    if not adjacent:
        hi[entry] = np.arange(total, dtype=pos)
        return tidx, h.memb_ptr.astype(pos)[h.edge_nodes], hi
    lengths = np.diff(starts, append=total)
    starts = starts.astype(pos)
    hi[entry] = np.repeat(starts, lengths)
    # a run gathers the run before it when they differ by 1: the same node's
    # hyperedges one size smaller
    starts[below] = starts[below - 1]
    lo = np.empty(total, dtype=pos)
    lo[entry] = np.repeat(starts, lengths)
    return tidx, lo, hi


def _csr(per_row: list, *columns: list) -> tuple:
    """CSR ``ptr`` of the per-chunk row counts ``per_row``, then each of
    ``columns`` joined into one int32 array."""
    none = np.empty(0, dtype=np.int32)
    return (np.cumsum(np.concatenate([[0], *per_row]), dtype=np.int64),
            *(np.concatenate([none, *col]) for col in columns))


def _kept_pairs(h: Hypergraph, windows: tuple) -> tuple:
    """CSR ``ptr``/``idx`` (int32) of the pairs (a, b) with b a subset of a
    that hyperedge a gathers through ``windows`` (``tidx``, ``lo``, ``hi`` of
    ``co_member_pairs``), the number of distinct pairs gathered and of
    encounters. No window may gather a itself, which would pass as its own
    subset.

    Containment is read off each chunk's sorted keys: a run of equal keys is
    one pair, as long as |a & b| and so never longer than |b|, so encounter
    i starts a run of exactly |b| keys iff ``keys[i + |b| - 1]`` equals
    ``keys[i]``. The kernel's ``max_size`` sentinels keep that read inside
    the chunk's buffer and unequal to any key."""
    shift = pair_shift(h.m)
    mask, last = (1 << shift) - 1, h.sizes - 1
    per_row, idx = [], []
    pairs = visits = 0
    for a0, a1, keys, total in co_member_pairs(h.edge_ptr, *windows):
        run = keys[:total]
        b = run & mask
        at = last[b]
        at += np.arange(total)
        hit = np.flatnonzero(keys[at] == run)
        per_row.append(np.bincount(run[hit] >> shift, minlength=a1 - a0))
        idx.append(b[hit].astype(np.int32))
        pairs += count_runs(run)
        visits += total
    return *_csr(per_row, idx), pairs, visits


def build_encapsulation_dag(h: Hypergraph) -> HyperedgeDag:
    """DAG of strict containment: edge i->j iff e_j is a proper subset of e_i.

    Hyperedge i gathers only the candidates before itself in (size, id)
    order, so each overlapping pair is gathered once and never (i, i). A
    candidate j is at most as large as i and differs from it, so it is
    contained in i only strictly, and acyclicity follows from the size
    ordering. Node u is in deg(u) hyperedges, so the overlap weight has a
    closed form.
    """
    sizes = h.sizes
    ptr, idx, pairs, visits = _kept_pairs(h, _size_windows(h, adjacent=False))
    deg = h.degrees
    return HyperedgeDag(ptr, idx, candidate_visits=visits + h.edge_nodes.size,
                        overlap_edges=pairs,
                        overlap_weight=(int(deg @ deg) - int(sizes.sum())) // 2)


def build_overlap_graph(h: Hypergraph) -> OverlapGraph:
    shift = pair_shift(h.m)
    per_row, nbrs, weights = [], [], []
    windows = whole_rows(h.edge_nodes, h.memb_ptr)
    for a0, a1, keys, total in co_member_pairs(h.edge_ptr, h.memb_ids, *windows):
        run = keys[:total]
        starts = np.flatnonzero(np.concatenate((run[:1] == run[:1], run[1:] != run[:-1])))
        pair = run[starts]
        a, b = pair >> shift, pair & ((1 << shift) - 1)
        keep = a + a0 != b
        per_row.append(np.bincount(a[keep], minlength=a1 - a0))
        nbrs.append(b[keep].astype(np.int32))
        weights.append(np.diff(starts, append=total)[keep].astype(np.int32))
    return OverlapGraph(*_csr(per_row, nbrs, weights))


def adjacent_layer_dag(h: Hypergraph) -> HyperedgeDag:
    """The containment DAG restricted to edges whose size difference is
    exactly one, the substrate the contagion engine spreads over, built
    directly: each hyperedge gathers only the hyperedges one size smaller."""
    ptr, idx, _, visits = _kept_pairs(h, _size_windows(h, adjacent=True))
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
