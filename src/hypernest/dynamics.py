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
one array engine ``spread``, which advances a batch of runs together and
returns their ``Batch`` (a single run is a batch of one). Runs proceed in
synchronous rounds and are deterministic once the seed hyperedges are
fixed; activation is monotone, so a run stops at the first round with no
change (or after ``max_steps`` rounds). ``pick_seeds`` draws the seed
hyperedges of a batch's runs under one of ``STRATEGIES``, a generator a run.
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
    """Per row of ``keys``, the ids of its ``count`` smallest keys, ascending,
    ties going to the lower id (the first ``count`` of a stable argsort, as a
    set), in O(m) a row: every key below the row's ``count``-th smallest,
    then the lowest ids equal to it."""
    runs, m = keys.shape
    if count in (0, m):
        return np.broadcast_to(np.arange(count), (runs, count))
    kth = np.partition(keys, count - 1, axis=1)[:, count - 1:count]
    below = keys < kth
    tied = keys == kth
    # the ties fill what the keys below leave, lowest ids first
    free = count - np.count_nonzero(below, axis=1, keepdims=True)
    below |= tied & (np.cumsum(tied, axis=1) <= free)
    return np.nonzero(below)[1].reshape(runs, count)


def pick_seeds(h: Hypergraph, strategy: str, count: int,
               gens: Sequence[np.random.Generator]) -> np.ndarray:
    """The draws of ``count`` distinct seed hyperedges of ``h``, one row of
    ascending ids per generator, the rows' keys selected together.

    uniform: uniformly at random. size-biased / inverse-size-biased:
    successive draws proportional to size or its inverse (realized with
    exponential sort keys, which is distribution-identical). smallest-first:
    ascending size with ties in random order.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown seed strategy {strategy!r}")
    if not 0 <= count <= h.m:
        raise ValueError(f"seed count {count} outside 0..{h.m}")
    runs = len(gens)
    if strategy == "uniform":
        picked = np.array([gen.choice(h.m, size=count, replace=False) for gen in gens])
        return np.sort(picked.reshape(runs, count), axis=1)
    if strategy == "smallest-first":
        shuffled = np.array([gen.permutation(h.m) for gen in gens]).reshape(runs, h.m)
        picked = np.take_along_axis(shuffled, _smallest(h.sizes[shuffled], count), axis=1)
        return np.sort(picked, axis=1)
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


def _flat_keys(rows: Sequence[Sequence[int]], width: int, what: str) -> np.ndarray:
    """Per-run id rows (arrays or lists) as ascending keys ``run * width +
    id``, each id once."""
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    # the leading empty array allows no rows. Empty rows are left out, as
    # NumPy reads an empty list as float64; any other float id is an error
    try:
        ids = np.concatenate((np.empty(0, np.int64), *(row for row in rows if len(row))),
                             dtype=np.int64, casting="same_kind")
    except TypeError:
        raise ValueError(f"{what} ids must be integers") from None
    if ids.size and not 0 <= ids.min() <= ids.max() < width:
        raise ValueError(f"{what} ids out of range")
    ids += np.repeat(np.arange(len(rows), dtype=np.int64) * width, lengths)
    return _tally(ids)[0]


def _influenced(influence: Influence, edges: np.ndarray, nodes: np.ndarray, m: int,
                n: int) -> np.ndarray:
    """One key ``run * m + hyperedge`` per (newly active influencer, hyperedge
    it influences) pair of the newly active ``edges`` and ``nodes``."""
    hits = gather_rows(*influence.edges, edges, m, m)
    if influence.nodes is None:
        return hits
    by_node = gather_rows(*influence.nodes, nodes, n, m)
    return np.concatenate((hits, by_node)) if hits.size else by_node


@dataclass
class Batch:
    """Outcome of runs made together. ``rounds[k]`` holds the hyperedges
    newly active in round k (round 0: the seeds) of every run, as ascending
    keys ``run * m + hyperedge``; ``edge_active`` is the final runs x m
    activation matrix. Per run, ``num_steps`` counts the rounds that
    activated something (a run's first round without activation is its
    last) and ``final_active`` the hyperedges active at the end."""

    rounds: list[np.ndarray]
    edge_active: np.ndarray
    num_steps: np.ndarray
    final_active: np.ndarray

    @property
    def m(self) -> int:
        return self.edge_active.shape[1]

    def steps(self, run: int) -> list[list[int]]:
        """Run ``run``'s newly active hyperedge ids per round, round 0 the
        seeds, up to its last round that activated something."""
        lo, hi = run * self.m, (run + 1) * self.m
        steps = []
        for keys in self.rounds:
            mine = keys[np.searchsorted(keys, lo):np.searchsorted(keys, hi)] - lo
            if steps and not mine.size:
                break
            steps.append(mine.tolist())
        return steps


def spread(
    h: Hypergraph,
    influence: Influence,
    config: DynamicsConfig,
    seeds: Sequence[Sequence[int]],
    seed_nodes: Sequence[Sequence[int]] = (),
) -> Batch:
    """Run one contagion per entry of ``seeds`` (that run's seed hyperedges,
    plus the pre-activated nodes of its entry of ``seed_nodes``, if any), all
    runs together.

    Each round, the hyperedges and nodes activated in the previous round add
    one to the count of every inactive hyperedge they influence; a touched
    hyperedge activates once its count reaches its need, and activating a
    hyperedge activates its member nodes. Hyperedges needing nothing are
    candidates in the first round. Run r keeps its state at keys
    ``r * m + hyperedge`` and ``r * n + node`` of flat arrays, so a round
    of every run is one CSR gather and one sort; a run that has stopped
    gathers nothing.
    """
    m, n, runs = h.m, h.n, len(seeds)
    need = _need(h, config)
    edge_active = np.zeros(runs * m, dtype=bool)
    count = np.zeros(runs * m, dtype=np.int32)
    new_edges = _flat_keys(seeds, m, "seed")
    new_nodes = _flat_keys(seed_nodes, n, "seed node")
    edge_active[new_edges] = True
    rounds = [new_edges]
    num_steps = np.zeros(runs, dtype=np.int64)
    if influence.nodes is not None:
        node_active = np.zeros(runs * n, dtype=bool)
        members = gather_rows(h.edge_ptr, h.edge_nodes, new_edges, m, n)
        new_nodes = _tally(np.concatenate((members, new_nodes)))[0]
        node_active[new_nodes] = True
    zero_need = np.flatnonzero(need <= 0)
    first = (np.arange(runs)[:, None] * m + zero_need).ravel()

    for step in range(config.max_steps):
        hits = _influenced(influence, new_edges, new_nodes, m, n)
        hits = hits[~edge_active[hits]]
        touched, times = _tally(hits)
        del hits  # so no round holds two gathers at once
        count[touched] += times
        if step == 0 and first.size:
            touched = _tally(np.concatenate((touched, first[~edge_active[first]])))[0]
        new_edges = touched[count[touched] >= need[touched % m]]
        if not new_edges.size:
            break
        edge_active[new_edges] = True
        rounds.append(new_edges)
        # a run's activating rounds are contiguous: after one adds nothing it gathers nothing
        num_steps[new_edges // m] = step + 1
        if influence.nodes is not None:
            members = gather_rows(h.edge_ptr, h.edge_nodes, new_edges, m, n)
            new_nodes = _tally(members[~node_active[members]])[0]
            node_active[new_nodes] = True
            del members
    edge_active = edge_active.reshape(runs, m)
    return Batch(rounds, edge_active, num_steps, np.count_nonzero(edge_active, axis=1))
