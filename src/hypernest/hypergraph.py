"""Simple hypergraph data model, dataset ingestion, and preprocessing."""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

Label = Hashable

# encounters sorted at once by the co-membership kernel: each of its transient
# int64 arrays is 64 KB, and together they stay well under 1 MB
_CHUNK_ENCOUNTERS = 1 << 13


class FormatError(ValueError):
    """Raised when an input file does not conform to its declared format."""


class RepeatedNodeError(ValueError):
    """A hyperedge lists one node twice; ``row`` is its index among the rows."""

    def __init__(self, row: int, labels: tuple[Label, ...]):
        super().__init__(f"duplicate node within hyperedge {labels!r}")
        self.row, self.labels = row, labels


def split_rows(ptr: np.ndarray, idx: np.ndarray) -> list[list[int]]:
    """The rows of the CSR array ``ptr``/``idx`` as Python lists."""
    flat, bounds = idx.tolist(), ptr.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def _sort_rows(sizes: np.ndarray, nodes: np.ndarray, n: int) -> np.ndarray:
    """``nodes`` (ids below ``n``, in rows of ``sizes``) with each row ascending."""
    base = np.repeat(np.arange(sizes.size, dtype=np.int64) * n, sizes)
    return np.sort(base + nodes) - base


def _first_rows(ptr: np.ndarray, nodes: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mask of the rows (each ascending) that repeat no earlier row."""
    keep = np.ones(sizes.size, dtype=bool)
    for s in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == s)
        if rows.size > 1:
            mat = nodes[ptr[rows, None] + np.arange(s)]
            # a stable sort: equal rows stay in input order
            order = np.lexsort(mat.T[::-1])
            mat = mat[order]
            keep[rows[order[1:][(mat[1:] == mat[:-1]).all(axis=1)]]] = False
    return keep


def _label_order(labels: Sequence[Label]) -> np.ndarray | None:
    """Indices of ``labels`` in label order; None when they do not compare."""
    try:
        return np.asarray(sorted(range(len(labels)), key=labels.__getitem__), dtype=np.int64)
    except TypeError:
        return None


class Hypergraph:
    """A simple (multiedge-free) hypergraph stored as CSR incidence arrays.

    Nodes are relabeled to ``0..n-1`` in order of first appearance and the
    original labels are kept, in that order, in ``labels``. Hyperedge ``e``
    holds the node ids ``edge_nodes[edge_ptr[e]:edge_ptr[e + 1]]``, in
    ascending order; its size is ``sizes[e]``. The transpose lists the
    hyperedges of node ``u`` as ``memb_ids[memb_ptr[u]:memb_ptr[u + 1]]``,
    ascending. Duplicate hyperedges are collapsed to the first occurrence.
    ``edges`` (tuples of ids), ``edge_sets``, ``label_index`` and the
    label-ordered rows behind ``iter_label_edges`` are views built on first
    use. Instances are immutable after construction and safe to share
    read-only across parallel workers.
    """

    def __init__(self, raw_edges: Iterable[Iterable[Label]]):
        flat: list[Label] = []
        lengths: list[int] = []
        for raw in raw_edges:
            start = len(flat)
            flat += raw
            lengths.append(len(flat) - start)
        index: dict[Label, int] = {}
        ids = np.array([index.setdefault(lab, len(index)) for lab in flat], dtype=np.int64)
        sizes = np.asarray(lengths, dtype=np.int64)
        if sizes.size and int(sizes.min()) == 0:
            raise ValueError("hyperedges must be non-empty")
        ptr = np.concatenate(([0], np.cumsum(sizes)))
        nodes = _sort_rows(sizes, ids, len(index))
        repeat = nodes[1:] == nodes[:-1]
        repeat[ptr[1:-1] - 1] = False  # pairs across a row boundary
        if repeat.any():
            r = int(np.searchsorted(ptr, repeat.argmax(), "right")) - 1
            raise RepeatedNodeError(r, tuple(flat[ptr[r]:ptr[r + 1]]))
        keep = _first_rows(ptr, nodes, sizes)
        self._set_rows(np.concatenate(([0], np.cumsum(sizes[keep]))),
                       ids[np.repeat(keep, sizes)], list(index))

    @classmethod
    def from_arrays(cls, edge_ptr: np.ndarray, nodes: np.ndarray,
                    labels: Sequence[Label]) -> Hypergraph:
        """Hypergraph of distinct rows of ids into ``labels``, without hashing
        a label: nodes are renumbered by first appearance in ``nodes`` (row
        by row, in the given within-row order) and each row is sorted."""
        h = cls.__new__(cls)
        h._set_rows(edge_ptr, nodes, labels)
        return h

    def _set_rows(self, edge_ptr: np.ndarray, nodes: np.ndarray, labels: Sequence[Label]) -> None:
        n, total = len(labels), nodes.size
        # the position where each label id first appears, then those ids in order
        first = np.full(n, total)
        np.minimum.at(first, nodes, np.arange(total))
        at_first = np.zeros(total, dtype=bool)
        at_first[first[first < total]] = True
        kept = nodes[at_first]
        new_id = np.empty(n, dtype=np.int64)
        new_id[kept] = np.arange(kept.size)
        self.labels = tuple(map(labels.__getitem__, kept.tolist()))
        self.edge_ptr = edge_ptr
        self.sizes = np.diff(edge_ptr)
        self.edge_nodes = _sort_rows(self.sizes, new_id[nodes], kept.size)
        m = self.sizes.size
        # one sort of (node, hyperedge) keys lists each node's hyperedges in order
        key = np.sort(self.edge_nodes * m + np.repeat(np.arange(m, dtype=np.int64), self.sizes))
        self.memb_ids = key % max(m, 1)
        degrees = np.bincount(self.edge_nodes, minlength=kept.size)
        self.memb_ptr = np.concatenate(([0], np.cumsum(degrees)))

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Hyperedges as tuples of ascending internal ids."""
        return tuple(map(tuple, split_rows(self.edge_ptr, self.edge_nodes)))

    @cached_property
    def edge_sets(self) -> tuple[frozenset[int], ...]:
        """Hyperedges as frozensets of internal ids."""
        return tuple(map(frozenset, self.edges))

    @cached_property
    def label_index(self) -> dict[Label, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def label_rows(self) -> np.ndarray:
        """``edge_nodes`` with each row in label order; a row whose labels do
        not compare (mixed int/str) keeps id order."""
        labels = self.labels
        by_label = _label_order(labels)
        if by_label is None:
            def ordered(row: list[int]) -> list[int]:
                try:
                    return sorted(row, key=labels.__getitem__)
                except TypeError:
                    return row
            rows = split_rows(self.edge_ptr, self.edge_nodes)
            return np.asarray(list(chain.from_iterable(map(ordered, rows))), dtype=np.int64)
        rank = np.empty(self.n, dtype=np.int64)
        rank[by_label] = np.arange(self.n)
        return by_label[_sort_rows(self.sizes, rank[self.edge_nodes], self.n)]

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return self.sizes.size

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.memb_ptr)

    @property
    def max_size(self) -> int:
        return int(self.sizes.max()) if self.m else 0

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    def has_singletons(self) -> bool:
        return bool(self.m) and int(self.sizes.min()) == 1

    def edge_labels(self, eid: int) -> tuple[Label, ...]:
        """Original labels of one hyperedge, sorted when labels are orderable."""
        row = self.label_rows[self.edge_ptr[eid]:self.edge_ptr[eid + 1]]
        return tuple(map(self.labels.__getitem__, row.tolist()))

    def label_sets(self) -> frozenset[frozenset[Label]]:
        """Hyperedges as a set of original-label sets (order-insensitive view)."""
        return frozenset(frozenset(self.labels[u] for u in e) for e in self.edges)

    def subhypergraph(self, edge_ids: Iterable[int]) -> Hypergraph:
        """Sub-hypergraph induced by the given hyperedges, original id order.

        Nodes only present in dropped hyperedges disappear; remaining nodes
        are re-indexed densely, by first appearance over the kept rows in
        label order, while keeping their original labels.
        """
        if not isinstance(edge_ids, np.ndarray):
            edge_ids = np.fromiter(edge_ids, dtype=np.int64)
        chosen = np.zeros(self.m, dtype=bool)
        chosen[edge_ids] = True
        ids = np.flatnonzero(chosen)
        sizes = self.sizes[ids]
        ptr = np.concatenate(([0], np.cumsum(sizes)))
        at = np.repeat(self.edge_ptr[ids] - ptr[:-1], sizes) + np.arange(ptr[-1])
        return Hypergraph.from_arrays(ptr, self.label_rows[at], self.labels)

    def iter_label_edges(self) -> Iterator[tuple[Label, ...]]:
        labels = self.labels
        for row in split_rows(self.edge_ptr, self.label_rows):
            yield tuple(map(labels.__getitem__, row))


def co_member_pairs(ptr: np.ndarray, idx: np.ndarray, tptr: np.ndarray,
                    tidx: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every (a, b) pair of rows of the CSR array ``ptr``/``idx`` sharing an
    entry, with the count of shared entries, ascending by (a, b) and yielded
    in chunks of whole rows ``a``; ``tptr``/``tidx`` is the transpose.

    Each (row a, entry u of a, row b holding u) encounter is one key
    ``(a - a0) * m + b``; a chunk holds about ``_CHUNK_ENCOUNTERS`` of them
    (a row larger than that is a chunk of its own), and one sort per chunk
    turns runs of equal keys into pairs and counts. Every row holds the pair
    (a, a) with count ``|a|``.
    """
    m = ptr.size - 1
    if m == 0:
        return
    sizes, deg = np.diff(ptr), np.diff(tptr)
    # encounters before each row: row a spans work[a]:work[a + 1]
    work = np.concatenate(([0], np.cumsum(deg[idx])))[ptr]
    a0 = 0
    while a0 < m:
        a1 = max(int(np.searchsorted(work, work[a0] + _CHUNK_ENCOUNTERS, "right")) - 1, a0 + 1)
        nodes = idx[ptr[a0]:ptr[a1]]
        per_node = deg[nodes]
        total = int(work[a1] - work[a0])
        # each entry's run of encounters walks its transpose row
        at = np.repeat(tptr[nodes] - (np.cumsum(per_node) - per_node), per_node)
        at += np.arange(total)
        keys = tidx[at]
        del at
        keys += np.repeat(np.repeat(np.arange(a1 - a0) * m, sizes[a0:a1]), per_node)
        keys.sort()
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        counts = np.diff(np.append(starts, total))
        rows, b = np.divmod(keys[starts], m)
        yield rows + a0, b, counts
        a0 = a1


@dataclass(frozen=True)
class DatasetStats:
    """Top-line measurements for one dataset: node/hyperedge counts, the
    fraction of node pairs co-occurring in at least one hyperedge, and the
    number of strict-containment relations between hyperedges."""

    n: int
    m: int
    projected_density: float
    dag_edge_count: int


def ingest_simplex(nverts: Iterable[int], flat_nodes: Iterable[Label]) -> Hypergraph:
    """Build a hypergraph from the simplex-list dataset format.

    ``nverts`` gives the size of each record and ``flat_nodes`` the
    concatenated node ids; record ``i`` consumes ``nverts[i]`` consecutive
    entries. Records repeating the same node are malformed; records equal as
    sets are collapsed to one hyperedge.
    """
    sizes = list(nverts)
    nodes = list(flat_nodes)
    total = sum(sizes)
    if total != len(nodes):
        raise FormatError(
            f"record sizes sum to {total} but {len(nodes)} node entries were given"
        )
    for k, size in enumerate(sizes):
        if size <= 0:
            raise FormatError(f"record {k} has non-positive size {size}")
    try:
        return Hypergraph(nodes[end - size:end] for size, end in zip(sizes, accumulate(sizes)))
    except RepeatedNodeError as exc:
        raise FormatError(f"record {exc.row} repeats a node: {list(exc.labels)}") from None


def _read_int_column(path: Path) -> list[int]:
    try:
        return [int(tok) for tok in path.read_text().split()]
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer entry ({exc})") from exc


def resolve_simplex_prefix(path: str | Path) -> Path:
    """Accepts a dataset prefix, an ``…-nverts.txt`` file, or a directory
    holding exactly one such file; returns the prefix path."""
    p = Path(path)
    if p.is_dir():
        hits = sorted(p.glob("*-nverts.txt"))
        if len(hits) != 1:
            raise FormatError(f"{p}: expected exactly one *-nverts.txt, found {len(hits)}")
        p = hits[0]
    name = p.name
    if name.endswith("-nverts.txt"):
        return p.with_name(name[: -len("-nverts.txt")])
    return p


def load_simplex_dataset(path: str | Path) -> Hypergraph:
    """Load the two-file (optionally three, with ignored timestamps) simplex
    format: ``<prefix>-nverts.txt`` and ``<prefix>-simplices.txt`` of
    newline-separated ASCII integers."""
    prefix = resolve_simplex_prefix(path)
    nverts_path = prefix.parent / (prefix.name + "-nverts.txt")
    simplices_path = prefix.parent / (prefix.name + "-simplices.txt")
    for req in (nverts_path, simplices_path):
        if not req.is_file():
            raise FormatError(f"missing dataset file {req}")
    # A <prefix>-times.txt may sit alongside; interactions are aggregated
    # into one static hypergraph, so timestamps are not read.
    return ingest_simplex(_read_int_column(nverts_path), _read_int_column(simplices_path))


def parse_plain(lines: Iterable[str]) -> Hypergraph:
    """Parse the plain format: one hyperedge per line, whitespace-separated
    labels, ``#`` lines ignored. Numeric tokens become ints."""
    line_of = array("q")  # the line of each hyperedge, without an int object each

    def rows() -> Iterator[list[Label]]:
        for ln, line in enumerate(lines, start=1):
            tokens = line.split()
            if tokens and not tokens[0].startswith("#"):
                line_of.append(ln)
                try:
                    row = list(map(int, tokens))
                except ValueError:
                    row = list(map(_plain_label, tokens))
                yield row

    try:
        h = Hypergraph(rows())
    except RepeatedNodeError as exc:
        text = " ".join(map(str, exc.labels))
        raise FormatError(f"line {line_of[exc.row]}: repeated node in hyperedge {text!r}") from None
    if not line_of:
        raise FormatError("no hyperedges found in input")
    return h


def _plain_label(token: str) -> Label:
    try:
        return int(token)
    except ValueError:
        return token


def load_plain(path: str | Path) -> Hypergraph:
    with open(path) as fh:
        return parse_plain(fh)


def write_plain(h: Hypergraph, path: str | Path) -> None:
    """One line per hyperedge, in id order, its labels in label order."""
    words = [str(lab) for lab in h.labels]
    tokens = list(map(words.__getitem__, h.label_rows.tolist()))
    seps = [" "] * len(tokens)
    for end in (h.edge_ptr[1:] - 1).tolist():
        seps[end] = "\n"
    with open(path, "w") as fh:
        fh.write("".join(chain.from_iterable(zip(tokens, seps))))


def load_auto(path: str | Path) -> Hypergraph:
    """Load either format, detecting the simplex layout from the path."""
    p = Path(path)
    if p.is_dir() or p.name.endswith("-nverts.txt"):
        return load_simplex_dataset(p)
    if (p.parent / (p.name + "-nverts.txt")).is_file():
        return load_simplex_dataset(p)
    return load_plain(p)


def filter_by_size(h: Hypergraph, max_size: int) -> Hypergraph:
    """Drop hyperedges larger than ``max_size`` (and any node left isolated)."""
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    keep = h.sizes <= max_size
    if keep.all():
        return h
    return h.subhypergraph(np.flatnonzero(keep))


def component_labels(h: Hypergraph) -> np.ndarray:
    """Per node, the smallest node id of its component under shared-hyperedge
    adjacency. Each round every node, and every node named as a label, takes
    the smallest label among its hyperedges (min-label propagation with
    hooking), then labels jump to their label's label until stable."""
    comp = np.arange(h.n)
    if h.m == 0:
        return comp
    while True:
        held = comp[h.edge_nodes]
        edge_min = np.minimum.reduceat(held, h.edge_ptr[:-1])
        nxt = np.minimum.reduceat(edge_min[h.memb_ids], h.memb_ptr[:-1])
        np.minimum.at(nxt, held, np.repeat(edge_min, h.sizes))
        # every label is a node of the same component, at most its holder
        while not np.array_equal(nxt[nxt], nxt):
            nxt = nxt[nxt]
        if np.array_equal(nxt, comp):
            return comp
        comp = nxt


def is_connected(h: Hypergraph) -> bool:
    return h.n > 0 and not component_labels(h).any()


def largest_connected_component(h: Hypergraph) -> Hypergraph:
    """Sub-hypergraph induced by the largest node component; ties broken by
    the smallest minimum original node label, int labels before str ones."""
    if h.m == 0:
        raise ValueError("empty hypergraph has no components")
    comp = component_labels(h)
    counts = np.bincount(comp)
    tied = counts == counts.max()
    best = int(counts.argmax())
    if np.count_nonzero(tied) > 1:
        labels = h.labels
        first = min(np.flatnonzero(tied[comp]).tolist(),
                    key=lambda u: (isinstance(labels[u], str), labels[u]))
        best = int(comp[first])
    # every node of a hyperedge shares that hyperedge, so the component of
    # one node decides the whole edge
    keep = comp[h.edge_nodes[h.edge_ptr[:-1]]] == best
    if keep.all():
        return h
    return h.subhypergraph(np.flatnonzero(keep))


def projected_density(h: Hypergraph) -> float:
    """Fraction of node pairs co-occurring in at least one hyperedge: pairs
    of rows of the transposed incidence sharing an entry, less the n pairs
    (u, u)."""
    if h.n < 2:
        raise ValueError(f"projected density needs at least 2 nodes, got {h.n}")
    n = h.n
    pairs = sum(u.size for u, _, _ in co_member_pairs(h.memb_ptr, h.memb_ids,
                                                      h.edge_ptr, h.edge_nodes))
    return (pairs - n) // 2 / (n * (n - 1) // 2)


def preprocess(h: Hypergraph, max_size: int | None = 25, lcc: bool = False) -> Hypergraph:
    """Canonical preprocessing pipeline: dedup (at construction), then size
    filter, then largest connected component."""
    if max_size is not None:
        h = filter_by_size(h, max_size)
    if lcc:
        h = largest_connected_component(h)
    return h
