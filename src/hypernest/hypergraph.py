"""Simple hypergraph data model, dataset ingestion, and preprocessing."""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

Label = Hashable


class FormatError(ValueError):
    """Raised when an input file does not conform to its declared format."""


class Hypergraph:
    """A simple (multiedge-free) hypergraph with dense integer indexing.

    Nodes are relabeled to ``0..n-1`` in order of first appearance and the
    original labels are kept for output. Hyperedges are tuples of internal
    node ids in ascending order; the hyperedge id is its position in
    ``edges``. Duplicate hyperedges are collapsed to the first occurrence.
    Instances are immutable after construction and safe to share read-only
    across parallel workers.
    """

    __slots__ = ("edges", "labels", "label_index", "memberships", "sizes", "_edge_sets")

    def __init__(self, raw_edges: Iterable[Iterable[Label]]):
        labels: list[Label] = []
        label_index: dict[Label, int] = {}
        edges: list[tuple[int, ...]] = []
        seen: set[frozenset[int]] = set()
        for raw in raw_edges:
            members: list[int] = []
            for lab in raw:
                i = label_index.get(lab)
                if i is None:
                    i = len(labels)
                    label_index[lab] = i
                    labels.append(lab)
                members.append(i)
            if not members:
                raise ValueError("hyperedges must be non-empty")
            key = frozenset(members)
            if len(key) != len(members):
                raise ValueError(f"duplicate node within hyperedge {tuple(raw)!r}")
            if key in seen:
                continue
            seen.add(key)
            edges.append(tuple(sorted(members)))

        memb: list[list[int]] = [[] for _ in range(len(labels))]
        for eid, edge in enumerate(edges):
            for u in edge:
                memb[u].append(eid)

        self.edges: tuple[tuple[int, ...], ...] = tuple(edges)
        self.labels: tuple[Label, ...] = tuple(labels)
        self.label_index: dict[Label, int] = label_index
        # memberships[u] lists hyperedge ids in ascending order
        self.memberships: tuple[np.ndarray, ...] = tuple(
            np.asarray(ids, dtype=np.int64) for ids in memb
        )
        self.sizes: np.ndarray = np.asarray([len(e) for e in edges], dtype=np.int64)
        self._edge_sets: tuple[frozenset[int], ...] | None = None

    @property
    def edge_sets(self) -> tuple[frozenset[int], ...]:
        """Hyperedges as frozensets of internal ids (built on first use)."""
        if self._edge_sets is None:
            self._edge_sets = tuple(frozenset(e) for e in self.edges)
        return self._edge_sets

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def max_size(self) -> int:
        return int(self.sizes.max()) if self.m else 0

    @property
    def max_degree(self) -> int:
        return max((len(ids) for ids in self.memberships), default=0)

    def has_singletons(self) -> bool:
        return bool(self.m) and int(self.sizes.min()) == 1

    def edge_labels(self, eid: int) -> tuple[Label, ...]:
        """Original labels of one hyperedge, sorted when labels are orderable."""
        labs = [self.labels[u] for u in self.edges[eid]]
        try:
            return tuple(sorted(labs))
        except TypeError:
            return tuple(labs)

    def label_sets(self) -> frozenset[frozenset[Label]]:
        """Hyperedges as a set of original-label sets (order-insensitive view)."""
        return frozenset(frozenset(self.labels[u] for u in e) for e in self.edges)

    def subhypergraph(self, edge_ids: Iterable[int]) -> Hypergraph:
        """Sub-hypergraph induced by the given hyperedges, original id order.

        Nodes only present in dropped hyperedges disappear; remaining nodes
        are re-indexed densely while keeping their original labels.
        """
        ids = sorted(set(edge_ids))
        return Hypergraph([self.edge_labels(i) for i in ids])

    def iter_label_edges(self) -> Iterator[tuple[Label, ...]]:
        for eid in range(self.m):
            yield self.edge_labels(eid)


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
    edges: list[list[Label]] = []
    pos = 0
    for k, size in enumerate(sizes):
        if size <= 0:
            raise FormatError(f"record {k} has non-positive size {size}")
        chunk = nodes[pos : pos + size]
        if len(set(chunk)) != size:
            raise FormatError(f"record {k} repeats a node: {chunk}")
        edges.append(chunk)
        pos += size
    return Hypergraph(edges)


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
    edges: list[list[Label]] = []
    for ln, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        labs: list[Label] = []
        for tok in tokens:
            try:
                labs.append(int(tok))
            except ValueError:
                labs.append(tok)
        if len(set(labs)) != len(labs):
            raise FormatError(f"line {ln}: repeated node in hyperedge {stripped!r}")
        edges.append(labs)
    if not edges:
        raise FormatError("no hyperedges found in input")
    return Hypergraph(edges)


def load_plain(path: str | Path) -> Hypergraph:
    with open(path) as fh:
        return parse_plain(fh)


def write_plain(h: Hypergraph, path: str | Path) -> None:
    with open(path, "w") as fh:
        for edge in h.iter_label_edges():
            fh.write(" ".join(str(lab) for lab in edge) + "\n")


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
    keep = [i for i in range(h.m) if len(h.edges[i]) <= max_size]
    if len(keep) == h.m:
        return h
    return h.subhypergraph(keep)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def connected_components(h: Hypergraph) -> list[list[int]]:
    """Node components under shared-hyperedge adjacency (internal node ids)."""
    uf = _UnionFind(h.n)
    for edge in h.edges:
        first = edge[0]
        for u in edge[1:]:
            uf.union(first, u)
    groups: dict[int, list[int]] = {}
    for u in range(h.n):
        groups.setdefault(uf.find(u), []).append(u)
    return list(groups.values())


def is_connected(h: Hypergraph) -> bool:
    return h.n > 0 and len(connected_components(h)) == 1


def largest_connected_component(h: Hypergraph) -> Hypergraph:
    """Sub-hypergraph induced by the largest node component; ties broken by
    the smallest minimum original node label, int labels before str ones."""
    if h.m == 0:
        raise ValueError("empty hypergraph has no components")
    comps = connected_components(h)
    best_size = max(len(c) for c in comps)
    tied = [c for c in comps if len(c) == best_size]
    best = min(tied, key=lambda c: min((isinstance(h.labels[u], str), h.labels[u]) for u in c))
    members = set(best)
    # every node of a hyperedge shares that hyperedge, so membership of one
    # node decides the whole edge
    keep = [i for i in range(h.m) if h.edges[i][0] in members]
    if len(keep) == h.m:
        return h
    return h.subhypergraph(keep)


def projected_density(h: Hypergraph) -> float:
    """Fraction of node pairs co-occurring in at least one hyperedge."""
    if h.n < 2:
        raise ValueError(f"projected density needs at least 2 nodes, got {h.n}")
    pairs: set[int] = set()
    n = h.n
    for edge in h.edges:
        for u, v in combinations(edge, 2):
            pairs.add(u * n + v)
    return len(pairs) / (n * (n - 1) // 2)


def preprocess(h: Hypergraph, max_size: int | None = 25, lcc: bool = False) -> Hypergraph:
    """Canonical preprocessing pipeline: dedup (at construction), then size
    filter, then largest connected component."""
    if max_size is not None:
        h = filter_by_size(h, max_size)
    if lcc:
        h = largest_connected_component(h)
    return h
