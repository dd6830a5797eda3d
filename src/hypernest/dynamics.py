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
influencers a hyperedge needs, so each is an ``Influence`` map run by the
one round loop ``spread``. Runs proceed in synchronous rounds and are
deterministic once the seed hyperedges are fixed; activation is monotone,
so a run stops at the first round with no change (or after ``max_steps``
rounds).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .hypergraph import Hypergraph, split_rows
from .linegraph import HyperedgeDag
from .rng import RngLike, as_rng

VARIANTS = ("strict", "non-strict", "empirical-adjacent", "threshold")
STRATEGIES = ("uniform", "size-biased", "inverse-size-biased", "smallest-first")


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


@dataclass
class Trajectory:
    """Outcome of one run: per-round newly activated hyperedge ids (round 0
    holds the seeds) and the final activation vectors."""

    steps: list[list[int]]
    edge_active: list[bool]
    node_active: list[bool]

    @property
    def num_steps(self) -> int:
        return len(self.steps) - 1

    @property
    def seed_count(self) -> int:
        return len(self.steps[0])

    @property
    def final_active(self) -> int:
        return sum(self.edge_active)

    @property
    def non_seed_active(self) -> int:
        return self.final_active - self.seed_count

    def activation_proportion(self) -> float:
        """Activated share of the non-seed hyperedges; 1.0 by convention when
        everything was seeded."""
        remaining = len(self.edge_active) - self.seed_count
        if remaining == 0:
            return 1.0
        return self.non_seed_active / remaining

    def to_json_dict(self) -> dict:
        return {"steps": self.steps, "final_active": self.final_active}

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")


def select_seeds(h: Hypergraph, strategy: str, count: int, rng: RngLike) -> list[int]:
    """Choose ``count`` distinct seed hyperedges.

    uniform: uniformly at random. size-biased / inverse-size-biased:
    successive draws proportional to size or its inverse (realized with
    exponential sort keys, which is distribution-identical). smallest-first:
    ascending size with ties in random order.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown seed strategy {strategy!r}")
    if not 0 <= count <= h.m:
        raise ValueError(f"seed count {count} outside 0..{h.m}")
    gen = as_rng(rng)
    if strategy == "uniform":
        picked = gen.choice(h.m, size=count, replace=False)
    elif strategy == "smallest-first":
        shuffled = gen.permutation(h.m)
        order = shuffled[np.argsort(h.sizes[shuffled], kind="stable")]
        picked = order[:count]
    else:
        weights = h.sizes.astype(float)
        if strategy == "inverse-size-biased":
            weights = 1.0 / weights
        keys = gen.standard_exponential(h.m) / weights
        picked = np.argsort(keys, kind="stable")[:count]
    return sorted(int(i) for i in picked)


@dataclass(frozen=True)
class Influence:
    """Who counts toward whom in one variant: an active hyperedge ``b``
    counts toward each hyperedge in ``edges[b]``, and an active node ``u``
    toward each hyperedge in ``nodes[u]`` (nodes count toward nothing when
    ``nodes`` is None)."""

    edges: Sequence[Sequence[int]]
    nodes: Sequence[Sequence[int]] | None = None


def build_influence(
    h: Hypergraph, variant: str, full_dag: HyperedgeDag, adjacent_dag: HyperedgeDag
) -> Influence:
    """The influence map of ``variant``; ``full_dag`` is the containment DAG
    and ``adjacent_dag`` its restriction to size differences of one."""
    sizes = h.sizes.tolist()
    if variant == "strict":
        return Influence(adjacent_dag.in_adj)
    if variant == "non-strict":
        # 2-node hyperedges hear their member nodes instead of their singletons
        in_pair = h.sizes[h.memb_ids] == 2
        per_node = np.bincount(np.repeat(np.arange(h.n), h.degrees)[in_pair], minlength=h.n)
        pairs = split_rows(np.concatenate(([0], np.cumsum(per_node))), h.memb_ids[in_pair])
        edges = [[a for a in parents if sizes[a] != 2] for parents in adjacent_dag.in_adj]
        return Influence(edges, pairs)
    if variant == "empirical-adjacent":
        largest = [max((sizes[b] for b in children), default=0) for children in full_dag.out_adj]
        return Influence([
            [a for a in parents if largest[a] == sizes[b]]
            for b, parents in enumerate(full_dag.in_adj)
        ])
    if variant == "threshold":
        return Influence([()] * h.m, split_rows(h.memb_ptr, h.memb_ids))
    raise ValueError(f"unknown variant {variant!r}")


def _need(h: Hypergraph, config: DynamicsConfig) -> list[int]:
    """Active influencers each hyperedge needs to activate."""
    if config.variant != "threshold":
        return [config.tau + (config.comparison == ">")] * h.m
    if h.m and config.tau >= int(h.sizes.min()):
        warnings.warn(
            f"tau={config.tau} >= smallest hyperedge size {int(h.sizes.min())}: "
            "such hyperedges self-activate with no active nodes",
            stacklevel=3,
        )
    return (h.sizes - config.tau).tolist()


def _activate_nodes(h: Hypergraph, edge_ids: Iterable[int], node_active: list[bool]) -> list[int]:
    newly = []
    for eid in edge_ids:
        for u in h.edges[eid]:
            if not node_active[u]:
                node_active[u] = True
                newly.append(u)
    return newly


def _check_seeds(h: Hypergraph, seeds: Sequence[int]) -> list[int]:
    ids = sorted(set(int(s) for s in seeds))
    if ids and not 0 <= ids[0] <= ids[-1] < h.m:
        raise ValueError("seed ids out of range")
    return ids


def spread(
    h: Hypergraph,
    influence: Influence,
    config: DynamicsConfig,
    seeds: Sequence[int],
    seed_nodes: Sequence[int] = (),
) -> Trajectory:
    """Run one contagion from ``seeds`` (plus pre-activated ``seed_nodes``).

    Each round, the hyperedges and nodes activated in the previous round add
    one to the count of every inactive hyperedge they influence; a touched
    hyperedge activates once its count reaches its need, and activating a
    hyperedge activates its member nodes. Hyperedges needing nothing are
    candidates in the first round.
    """
    m = h.m
    need = _need(h, config)
    edge_active = [False] * m
    node_active = [False] * h.n
    count = [0] * m

    new_edges = _check_seeds(h, seeds)
    for eid in new_edges:
        edge_active[eid] = True
    new_nodes = _activate_nodes(h, new_edges, node_active)
    for u in seed_nodes:
        if not node_active[u]:
            node_active[u] = True
            new_nodes.append(u)
    steps = [list(new_edges)]
    touched = {eid for eid in range(m) if need[eid] <= 0 and not edge_active[eid]}

    for _ in range(config.max_steps):
        reached = [influence.edges[b] for b in new_edges]
        if influence.nodes is not None:
            reached += [influence.nodes[u] for u in new_nodes]
        for targets in reached:
            for alpha in targets:
                if not edge_active[alpha]:
                    count[alpha] += 1
                    touched.add(alpha)
        new_edges = [alpha for alpha in sorted(touched) if count[alpha] >= need[alpha]]
        if not new_edges:
            break
        for eid in new_edges:
            edge_active[eid] = True
        new_nodes = _activate_nodes(h, new_edges, node_active)
        steps.append(new_edges)
        touched = set()
    return Trajectory(steps=steps, edge_active=edge_active, node_active=node_active)
