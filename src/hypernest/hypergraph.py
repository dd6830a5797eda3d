"""Simple hypergraph data model, dataset ingestion, and preprocessing."""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Iterable, Iterator, Sequence
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


def pair_shift(m: int) -> int:
    """The bits of the low field of a pair key ``(high << shift) | low`` of
    low ids below ``m``: ``key >> shift`` and ``key & ((1 << shift) - 1)``
    decode it, and keys sort by (high, low)."""
    return max(m - 1, 0).bit_length()


def transpose(ptr: np.ndarray, idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The transpose of the CSR array ``ptr``/``idx`` of entries below ``n``:
    row u lists, ascending, the rows holding u."""
    m = ptr.size - 1
    shift = pair_shift(m)
    # one sort of (entry, row) keys lists each entry's rows in order
    key = idx.astype(np.int64) << shift
    key |= np.repeat(np.arange(m, dtype=np.int64), np.diff(ptr))
    key.sort()
    key &= (1 << shift) - 1
    return np.concatenate(([0], np.cumsum(np.bincount(idx, minlength=n)))), key


def gather_rows(ptr: np.ndarray, idx: np.ndarray, keys: np.ndarray, width: int,
                out_width: int) -> np.ndarray:
    """The rows of ``ptr``/``idx`` named by keys ``run * width + row``, each
    entry as the key ``run * out_width + entry``, row after row."""
    run, row = np.divmod(keys, width)
    lengths = ptr[row + 1] - ptr[row]
    ends = np.cumsum(lengths)
    at = np.repeat(ptr[row] - ends + lengths, lengths)
    at += np.arange(at.size)
    # in place from here: a contagion round's largest arrays are these, one key each
    out = idx.take(at).astype(np.int64, copy=False)
    del at
    out += np.repeat(run * out_width, lengths)
    return out


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
    ``edges`` (tuples of ids) and the label-ordered rows behind
    ``iter_label_edges`` are views built on first use. Instances are
    immutable after construction and safe to share read-only across
    parallel workers.
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
        # a dropped row repeats a kept one: the ids follow first appearance
        self._set_rows(np.concatenate(([0], np.cumsum(sizes[keep]))),
                       nodes[np.repeat(keep, sizes)], tuple(index))

    @classmethod
    def from_arrays(cls, edge_ptr: np.ndarray, nodes: np.ndarray,
                    labels: Sequence[Label]) -> Hypergraph:
        """Hypergraph of distinct rows of ids into ``labels``, without hashing
        a label: nodes are renumbered by first appearance in ``nodes`` (row
        by row, in the given within-row order) and each row is sorted."""
        n, total = len(labels), nodes.size
        # the position where each label id first appears, then those ids in order
        first = np.full(n, total)
        np.minimum.at(first, nodes, np.arange(total))
        at_first = np.zeros(total, dtype=bool)
        at_first[first[first < total]] = True
        kept = nodes[at_first]
        new_id = np.empty(n, dtype=np.int64)
        new_id[kept] = np.arange(kept.size)
        h = cls.__new__(cls)
        h._set_rows(edge_ptr, _sort_rows(np.diff(edge_ptr), new_id[nodes], kept.size),
                    tuple(map(labels.__getitem__, kept.tolist())))
        return h

    def _set_rows(self, edge_ptr: np.ndarray, nodes: np.ndarray, labels: tuple[Label, ...]) -> None:
        """Take rows of ids into ``labels``, each ascending, as the hyperedges."""
        self.labels = labels
        self.edge_ptr = edge_ptr
        self.sizes = np.diff(edge_ptr)
        self.edge_nodes = nodes
        self.memb_ptr, self.memb_ids = transpose(edge_ptr, nodes, len(labels))

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Hyperedges as tuples of ascending internal ids."""
        return tuple(map(tuple, split_rows(self.edge_ptr, self.edge_nodes)))

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

    def has_singletons(self) -> bool:
        return bool(self.m) and int(self.sizes.min()) == 1

    def subhypergraph(self, ids: np.ndarray) -> Hypergraph:
        """Sub-hypergraph induced by the hyperedges ``ids``, ascending and
        distinct (as ``np.flatnonzero`` gives them).

        Nodes only present in dropped hyperedges disappear; remaining nodes
        are re-indexed densely, by first appearance over the kept rows in
        label order, while keeping their original labels.
        """
        sizes = self.sizes[ids]
        ptr = np.concatenate(([0], np.cumsum(sizes)))
        at = np.repeat(self.edge_ptr[ids] - ptr[:-1], sizes) + np.arange(ptr[-1])
        return Hypergraph.from_arrays(ptr, self.label_rows[at], self.labels)

    def iter_label_edges(self) -> Iterator[tuple[Label, ...]]:
        labels = self.labels
        for row in split_rows(self.edge_ptr, self.label_rows):
            yield tuple(map(labels.__getitem__, row))


def co_member_pairs(
    ptr: np.ndarray, tidx: np.ndarray, lo: np.ndarray, hi: np.ndarray,
) -> Iterator[tuple[int, int, np.ndarray, int]]:
    """Every (a, b) pair that the rows of ``ptr`` gather, in chunks of whole
    rows, yielded as ``(a0, a1, keys, total)`` for rows ``a0 <= a < a1``.

    Row a holds the entries ``ptr[a]:ptr[a + 1]``, at least one, and entry
    i gathers the window ``tidx[lo[i]:hi[i]]`` of ids below ``ptr.size - 1``.
    With whole windows (``whole_rows``) these are the pairs of rows of a CSR
    array sharing an entry, counted once per shared entry; every row then
    holds the pair (a, a). Each (row a, entry, gathered b) encounter is one
    int64 key ``((a - a0) << pair_shift(m)) | b``. ``keys[:total]`` holds the
    chunk's keys sorted, so a run of equal keys is one pair and its length
    the number of entries a shares with b; one sentinel -1 per entry of the
    longest row follows them, so a caller may read up to that far past any
    key without a bounds check. A chunk holds about ``_CHUNK_ENCOUNTERS``
    keys (a row gathering more is a chunk of its own), possibly none.
    """
    m = ptr.size - 1
    shift = pair_shift(m)
    pad = int(np.diff(ptr).max()) if m else 0
    # encounters before each row: row a spans work[a]:work[a + 1]; a row's
    # windows lie in its entries' rows of tidx, so its total fits their dtype
    work = np.zeros(m + 1, dtype=np.int64)
    per_entry = hi - lo
    np.cumsum(np.add.reduceat(per_entry, ptr[:-1], dtype=per_entry.dtype), out=work[1:])
    del per_entry
    a0 = 0
    while a0 < m:
        a1 = max(int(np.searchsorted(work, work[a0] + _CHUNK_ENCOUNTERS, "right")) - 1, a0 + 1)
        e0, e1 = ptr[a0], ptr[a1]
        per = hi[e0:e1] - lo[e0:e1]
        total = int(work[a1] - work[a0])
        # each entry's run of encounters walks its window
        at = np.repeat(lo[e0:e1] - (np.cumsum(per) - per), per)
        at += np.arange(total)
        keys = np.empty(total + pad, dtype=np.int64)
        keys[total:] = -1
        rows = np.repeat(np.arange(a1 - a0, dtype=np.int64) << shift, np.diff(work[a0:a1 + 1]))
        np.bitwise_or(rows, tidx[at], out=keys[:total])
        del at, rows
        keys[:total].sort()
        yield a0, a1, keys, total
        a0 = a1


def count_runs(keys: np.ndarray) -> int:
    """The number of runs of equal values in ``keys``."""
    return keys.size - int(np.count_nonzero(keys[1:] == keys[:-1]))


def whole_rows(idx: np.ndarray, tptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lo``/``hi`` for ``co_member_pairs`` by which each entry u of ``idx``
    gathers all of row u of the transpose ``tptr``."""
    return tptr[idx], tptr[1:][idx]


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


def dataset_files(path: str | Path, fmt: str = "auto") -> list[Path]:
    """The files that the dataset ``path`` names in format ``fmt``: the path
    itself as a plain file, or a simplex dataset's ``<prefix>-nverts.txt``
    and ``<prefix>-simplices.txt``. A simplex path is the prefix, its
    ``-nverts.txt`` file or a directory holding exactly one such file;
    ``auto`` takes any path so named, or the prefix of an existing
    ``-nverts.txt`` file, as simplex and every other path as plain."""
    p = Path(path)
    if fmt == "auto":
        simplex = p.is_dir() or p.name.endswith("-nverts.txt") or (
            p.parent / (p.name + "-nverts.txt")).is_file()
        fmt = "simplex" if simplex else "plain"
    if fmt == "plain":
        return [p]
    if p.is_dir():
        hits = sorted(p.glob("*-nverts.txt"))
        if len(hits) != 1:
            raise FormatError(f"{p}: expected exactly one *-nverts.txt, found {len(hits)}")
        p = hits[0]
    prefix = p.name.removesuffix("-nverts.txt")
    return [p.parent / (prefix + suffix) for suffix in ("-nverts.txt", "-simplices.txt")]


def load_auto(path: str | Path, fmt: str = "auto") -> Hypergraph:
    """Load the dataset ``path`` in format ``fmt`` (``auto`` detects the
    simplex layout from the path; see ``dataset_files``): a plain file, or
    the two-file simplex format, ``<prefix>-nverts.txt`` and
    ``<prefix>-simplices.txt`` of newline-separated ASCII integers."""
    files = dataset_files(path, fmt)
    if len(files) == 1:
        return load_plain(files[0])
    for req in files:
        if not req.is_file():
            raise FormatError(f"missing dataset file {req}")
    # A <prefix>-times.txt may sit alongside; interactions are aggregated
    # into one static hypergraph, so timestamps are not read.
    return ingest_simplex(*map(_read_int_column, files))


def load_simplex_dataset(path: str | Path) -> Hypergraph:
    return load_auto(path, "simplex")


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
    pairs = sum(count_runs(keys[:total]) for _, _, keys, total in co_member_pairs(
        h.memb_ptr, h.edge_nodes, *whole_rows(h.memb_ids, h.edge_ptr)))
    return (pairs - n) // 2 / (n * (n - 1) // 2)


def preprocess(h: Hypergraph, max_size: int | None = 25, lcc: bool = False) -> Hypergraph:
    """Canonical preprocessing pipeline: dedup (at construction), then size
    filter, then largest connected component. A ValueError if no hyperedge
    is left to analyse."""
    if max_size is not None:
        h = filter_by_size(h, max_size)
    if h.m == 0:
        raise ValueError(f"no hyperedges of at most {max_size} nodes" if max_size
                         else "hypergraph has no hyperedges")
    if lcc:
        h = largest_connected_component(h)
    return h
