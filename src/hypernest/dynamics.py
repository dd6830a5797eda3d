"""Hyperedge contagion processes.

The main process spreads activation upward through containment: an
inactive hyperedge activates once enough of the hyperedges one size below
it that it contains are active. Individual nodes matter only as explicit
1-node hyperedges ("strict"), or additionally as virtual 1-node hyperedges
influencing 2-node hyperedges ("non-strict"). A relaxed variant lets each
hyperedge be influenced by the largest-size hyperedges it actually
contains, whatever that size is ("empirical-adjacent"). A conventional
node-counting threshold process is included for comparison ("threshold").

The variants differ only in who influences whom and how many active
influencers a hyperedge needs, so each is an ``Influence`` map of CSR
arrays, built once per hypergraph by ``build_influence`` and run by the
one array engine ``spread``, which advances a batch of runs together (a
single run is a batch of one). It reads one array, the runs x m bool mask
of each run's seed hyperedges, and returns one: per run and hyperedge, the
round it activated in (0 for the seeds, -1 for never). Steps, final counts
and ``trajectory``'s ids per round all derive from it. Runs proceed in
synchronous rounds and are deterministic once the seed hyperedges are
fixed; activation is monotone, so a run stops at the first round with no
change (or after ``max_steps`` rounds). ``pick_seeds`` draws the seed mask
of a batch's runs under one of ``STRATEGIES``, a generator a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import STRATEGIES, VARIANTS
from .hypergraph import Hypergraph, gather_rows
from .linegraph import adjacent_layer_dag, build_encapsulation_dag

# keys one batch of runs may hold: its per-run flags and counts (m + n
# entries a run) and any one round's int64 gather stay within this many,
# near 1 MB, however many runs a grid has
_BATCH_KEYS = 1 << 17


@dataclass(frozen=True)
class DynamicsConfig:
    """Knobs of one simulation run.

    ``tau`` is the activation threshold: a hyperedge needs at least that
    many active influencers (``comparison`` flips it to strictly more
    than); the containment variants need ``tau >= 1``. For the threshold
    process ``tau`` is instead the number of member nodes allowed to still
    be inactive, and ``comparison`` is ignored.
    """

    variant: str = "strict"
    tau: int = 1
    max_steps: int = 25
    comparison: str = ">="

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.comparison not in (">=", ">"):
            raise ValueError(f"comparison must be '>=' or '>', got {self.comparison!r}")
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if self.tau < 1 and self.variant != "threshold":
            raise ValueError("containment contagion needs tau >= 1")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


def activation_proportion(m: int, seed_count: int, final_active: int) -> float:
    """Activated share of the non-seed hyperedges; 1.0 by convention when
    everything was seeded."""
    remaining = m - seed_count
    return (final_active - seed_count) / remaining if remaining else 1.0


def _smallest(keys: np.ndarray, count: int) -> np.ndarray:
    """Per row of ``keys``, a mask of its ``count`` smallest keys, ties going
    to the lower id (the first ``count`` of a stable argsort, as a set), in
    O(m) a row: every key below the row's ``count``-th smallest, then the
    lowest ids equal to it."""
    if not count:
        return np.zeros(keys.shape, dtype=bool)
    kth = np.partition(keys, count - 1, axis=1)[:, count - 1:count]
    below = keys < kth
    tied = keys == kth
    # the ties fill what the keys below leave, lowest ids first
    free = count - np.count_nonzero(below, axis=1, keepdims=True)
    below |= tied & (np.cumsum(tied, axis=1) <= free)
    return below


def pick_seeds(h: Hypergraph, strategy: str, count: int,
               gens: Sequence[np.random.Generator]) -> np.ndarray:
    """The draws of ``count`` distinct seed hyperedges of ``h``, one row per
    generator of the runs x m mask ``spread`` reads (``[r, e]`` true when
    hyperedge e seeds run r), the rows' keys selected together.

    uniform: uniformly at random. size-biased / inverse-size-biased:
    successive draws proportional to size or its inverse (realized with
    exponential sort keys, which is distribution-identical). smallest-first:
    ascending size with ties in random order.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown seed strategy {strategy!r}")
    if not 0 <= count <= h.m:
        raise ValueError(f"seed count {count} outside 0..{h.m}")
    runs, seeds = len(gens), np.zeros((len(gens), h.m), dtype=bool)
    if strategy == "uniform":
        picked = np.array([gen.choice(h.m, count, replace=False) for gen in gens], np.int64)
        np.put_along_axis(seeds, picked.reshape(runs, count), True, axis=1)
        return seeds
    if strategy == "smallest-first":
        shuffled = np.array([gen.permutation(h.m) for gen in gens], np.int64).reshape(runs, h.m)
        # the mask over each row's shuffled order, put back in id order
        np.put_along_axis(seeds, shuffled, _smallest(h.sizes[shuffled], count), axis=1)
        return seeds
    weights = h.sizes.astype(float)
    if strategy == "inverse-size-biased":
        weights = 1.0 / weights
    keys = np.array([gen.standard_exponential(h.m) for gen in gens]).reshape(runs, h.m)
    return _smallest(keys / weights, count)


@dataclass(frozen=True)
class Influence:
    """Who counts toward whom in one variant, as CSR ``(ptr, idx)`` pairs:
    an active hyperedge ``b`` counts toward each hyperedge in
    ``idx[ptr[b]:ptr[b + 1]]`` of ``edges``, and an active node ``u``
    toward row ``u`` of ``nodes`` (nodes count toward nothing when
    ``nodes`` is None)."""

    edges: tuple[np.ndarray, np.ndarray]
    nodes: tuple[np.ndarray, np.ndarray] | None = None

    def batch_runs(self, h: Hypergraph) -> int:
        """Runs one ``spread`` call may hold within ``_BATCH_KEYS``: a run
        keeps m + n flags and counts, gathers each influence row at most
        once, and each hyperedge's members once when nodes count."""
        keys = [h.m + h.n, self.edges[1].size]
        if self.nodes is not None:
            keys += [self.edges[1].size + self.nodes[1].size, h.edge_nodes.size]
        return max(1, _BATCH_KEYS // max(*keys, 1))


def build_influence(h: Hypergraph, variant: str) -> Influence:
    """The influence map of ``variant`` on ``h``, built from the one line
    graph it reads: ``strict`` and ``non-strict`` the adjacent-layer DAG
    (built directly, not cut from the full one), ``empirical-adjacent`` the
    full containment DAG, and the threshold process none."""
    if variant == "strict":
        return Influence(adjacent_layer_dag(h).in_csr)
    if variant == "non-strict":
        # 2-node hyperedges hear their member nodes instead of their singletons
        adjacent = adjacent_layer_dag(h)
        in_pair = h.sizes[h.memb_ids] == 2
        per_node = np.bincount(np.repeat(np.arange(h.n), h.degrees)[in_pair], minlength=h.n)
        pairs = (np.concatenate(([0], np.cumsum(per_node))), h.memb_ids[in_pair])
        return Influence(adjacent.restrict(h.sizes[adjacent.sources] != 2).in_csr, pairs)
    if variant == "empirical-adjacent":
        # a hyperedge hears only the contained hyperedges of the largest size
        full = build_encapsulation_dag(h)
        parents, child_size = full.sources, h.sizes[full.out_idx]
        largest = np.zeros(h.m, dtype=np.int64)
        np.maximum.at(largest, parents, child_size)
        return Influence(full.restrict(child_size == largest[parents]).in_csr)
    if variant == "threshold":
        return Influence((np.zeros(h.m + 1, dtype=np.int64), np.empty(0, dtype=np.int64)),
                         (h.memb_ptr, h.memb_ids))
    raise ValueError(f"unknown variant {variant!r}")


def _need(h: Hypergraph, config: DynamicsConfig) -> np.ndarray:
    """Active influencers each hyperedge needs to activate."""
    if config.variant != "threshold":
        return np.full(h.m, config.tau + (config.comparison == ">"))
    # a tau of at least the largest size leaves every need <= 0 either way
    return h.sizes - min(config.tau, h.max_size)


def _tally(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``keys``, ascending, and how often each occurs,
    from one sort of ``keys`` in place (``np.unique`` copies, and asked for
    the values alone it hashes, several times slower at these sizes)."""
    keys.sort()
    starts = np.flatnonzero(np.concatenate((keys[:1] == keys[:1], keys[1:] != keys[:-1])))
    return keys[starts], np.diff(np.append(starts, keys.size))


def _mask_keys(mask, runs: int, width: int, what: str) -> np.ndarray:
    """The ascending keys ``run * width + id`` of a ``runs x width`` bool mask."""
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (runs, width)):
        raise ValueError(f"{what} must be a bool array of shape ({runs}, {width})")
    return np.flatnonzero(mask)


def _influenced(influence: Influence, edges: np.ndarray, nodes: np.ndarray, m: int,
                n: int) -> np.ndarray:
    """One key ``run * m + hyperedge`` per (newly active influencer, hyperedge
    it influences) pair of the newly active ``edges`` and ``nodes``."""
    hits = gather_rows(*influence.edges, edges, m, m)
    if influence.nodes is None:
        return hits
    by_node = gather_rows(*influence.nodes, nodes, n, m)
    return np.concatenate((hits, by_node)) if hits.size else by_node


def trajectory(row: np.ndarray) -> list[list[int]]:
    """One run's newly active hyperedge ids per round, ascending, from its row
    of ``spread``: round 0 the seeds, up to its last activating round. A run's
    activating rounds are 1 .. its largest, so one stable sort splits them."""
    order = np.argsort(row, kind="stable")
    bounds = np.searchsorted(row[order], np.arange(row.max(initial=0) + 2)).tolist()
    return [order[a:b].tolist() for a, b in zip(bounds, bounds[1:])]


def spread(
    h: Hypergraph,
    influence: Influence,
    config: DynamicsConfig,
    seeds: np.ndarray,
    seed_nodes: np.ndarray | None = None,
) -> np.ndarray:
    """Run one contagion per row of ``seeds``, the runs x m bool mask of
    each run's seed hyperedges (``pick_seeds`` draws one), with the
    pre-activated nodes of its row of the runs x n bool mask ``seed_nodes``,
    if given, all runs together. Anything but bool arrays of exactly those
    shapes is a ValueError, so an id list is never read as a mask.

    Each round, the hyperedges and nodes activated in the previous round add
    one to the count of every inactive hyperedge they influence; a touched
    hyperedge activates once its count reaches its need, and activating a
    hyperedge activates its member nodes. Hyperedges needing nothing are
    candidates in the first round. Run r keeps its state at keys
    ``r * m + hyperedge`` and ``r * n + node`` of flat arrays, so a round
    of every run is one CSR gather and one sort; a run that has stopped
    gathers nothing.

    Returns the runs x m round in which each hyperedge activated: 0 for the
    seeds, -1 for never. Only a round that activates something writes, so
    every entry is at most ``min(max_steps, m)``, and a run's activating
    rounds are 1 .. its largest entry (``trajectory`` lists them).
    """
    m, n = h.m, h.n
    runs = len(seeds) if isinstance(seeds, np.ndarray) and seeds.ndim else 0
    new_edges = _mask_keys(seeds, runs, m, "seeds")
    new_nodes = (np.empty(0, dtype=np.int64) if seed_nodes is None
                 else _mask_keys(seed_nodes, runs, n, "seed_nodes"))
    need = _need(h, config)
    activated = np.full(runs * m, -1, dtype=np.int32)
    count = np.zeros(runs * m, dtype=np.int32)
    activated[new_edges] = 0
    if influence.nodes is not None:
        node_active = np.zeros(runs * n, dtype=bool)
        members = gather_rows(h.edge_ptr, h.edge_nodes, new_edges, m, n)
        new_nodes = _tally(np.concatenate((members, new_nodes)))[0]
        node_active[new_nodes] = True
    zero_need = np.flatnonzero(need <= 0)
    first = (np.arange(runs)[:, None] * m + zero_need).ravel()

    for step in range(config.max_steps):
        hits = _influenced(influence, new_edges, new_nodes, m, n)
        hits = hits[activated[hits] < 0]
        touched, times = _tally(hits)
        del hits  # so no round holds two gathers at once
        count[touched] += times
        if step == 0 and first.size:
            touched = _tally(np.concatenate((touched, first[activated[first] < 0])))[0]
        new_edges = touched[count[touched] >= need[touched % m]]
        if not new_edges.size:
            break
        # a run's activating rounds are contiguous: after one adds nothing it gathers nothing
        activated[new_edges] = step + 1
        if influence.nodes is not None:
            members = gather_rows(h.edge_ptr, h.edge_nodes, new_edges, m, n)
            new_nodes = _tally(members[~node_active[members]])[0]
            node_active[new_nodes] = True
            del members
    return activated.reshape(runs, m)
