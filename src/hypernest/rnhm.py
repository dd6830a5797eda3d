"""Random nested hypergraph generator.

Start from a fixed number of maximum-size hyperedges sampled uniformly,
add every subset of each with at least two nodes (plus single nodes when
requested), then rewire each subset edge of size s with probability
1 - eps_s. With eps at 1 everywhere the result is fully nested (every
subset relation present); lowering eps for a size progressively destroys
the containment relations involving that size. Disconnected samples are
rejected and redrawn.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Mapping

import numpy as np

from .hypergraph import Hypergraph, is_connected


# subset hyperedges a sample may enumerate: the 1M-hyperedge scale of the
# largest datasets (coauth-MAG)
MAX_SUBSETS = 1_000_000
# draws of replacement nodes before a rewire gives up
MAX_REWIRE_DRAWS = 100
# samples drawn before generation gives up
MAX_ATTEMPTS = 100


class GenerationError(RuntimeError):
    """Generation could not produce a valid sample within the retry budget."""


class RewireInfeasibleError(GenerationError):
    """A rewire had no room to draw replacement nodes or a fresh edge."""


@dataclass(frozen=True)
class RnhmParams:
    """Generator parameters.

    ``keep_probs[s]`` is the probability that a size-s subset edge is kept
    as is; it is rewired with the complementary probability. Sizes absent
    from the mapping default to keep probability 1.
    """

    num_nodes: int
    max_size: int
    num_max_edges: int
    keep_probs: Mapping[int, float] = field(default_factory=dict)
    include_singletons: bool = False

    def __post_init__(self):
        if not 2 <= self.max_size <= self.num_nodes:
            raise ValueError(f"need 2 <= max_size <= num_nodes, got {self.max_size}/{self.num_nodes}")
        if self.num_nodes > 2**63 - 1:  # node ids are drawn as int64
            raise ValueError(f"num_nodes must be at most 2**63 - 1, got {self.num_nodes}")
        if self.num_max_edges < 1:
            raise ValueError(f"num_max_edges must be >= 1, got {self.num_max_edges}")
        # past size 20 the count exceeds the limit anyway; the cap keeps a
        # huge max_size from building a huge integer
        subsets = self.num_max_edges * ((1 << min(self.max_size, 64)) - 2)
        if subsets > MAX_SUBSETS:
            raise ValueError(
                f"{self.num_max_edges} hyperedges of size {self.max_size} have more than "
                f"{MAX_SUBSETS:,} subsets to enumerate"
            )
        if comb(self.num_nodes, self.max_size) < self.num_max_edges:
            raise ValueError(
                f"cannot sample {self.num_max_edges} distinct hyperedges of size "
                f"{self.max_size} from {self.num_nodes} nodes"
            )
        for s, eps in self.keep_probs.items():
            if not 1 < s < self.max_size:
                raise ValueError(f"keep probability given for size {s}, outside 2..{self.max_size - 1}")
            if not 0.0 <= eps <= 1.0:
                raise ValueError(f"keep probability for size {s} must be in [0, 1], got {eps}")

    def keep_prob(self, size: int) -> float:
        return float(self.keep_probs.get(size, 1.0))


@dataclass
class RnhmSample:
    hypergraph: Hypergraph
    rewired_edges: int
    connectivity_rejections: int
    rewire_rejections: int


def rewire_edge(
    edge: tuple[int, ...],
    superset_nodes: set[int],
    existing: set[tuple[int, ...]],
    num_nodes: int,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Keep one pivot node of ``edge`` and replace the rest with nodes drawn
    uniformly from outside every current superset of the edge, redrawing
    until the result is not already a hyperedge. Edges are ascending tuples
    of node ids: ``edge``, each member of the set ``existing`` and the
    returned edge."""
    size = len(edge)
    pivot = edge[int(rng.integers(size))]
    # draws index the ascending pool of nodes outside the supersets without
    # building it: index i is node i + (excluded nodes below it), and below[j]
    # counts the pool nodes under the j-th excluded node
    excluded = sorted(v for v in superset_nodes if 0 <= v < num_nodes)
    below = [v - j for j, v in enumerate(excluded)]
    pool_size = num_nodes - len(excluded)
    if pool_size < size - 1:
        raise RewireInfeasibleError(
            f"rewiring a size-{size} edge needs {size - 1} replacement nodes "
            f"but only {pool_size} are outside its supersets"
        )
    for _ in range(MAX_REWIRE_DRAWS):
        replacement = rng.choice(pool_size, size=size - 1, replace=False)
        drawn = [int(i) + bisect_right(below, int(i)) for i in replacement]
        candidate = tuple(sorted([pivot] + drawn))
        if candidate not in existing:
            return candidate
    raise RewireInfeasibleError(
        f"no unused replacement for edge {edge} after {MAX_REWIRE_DRAWS} draws"
    )


def _sample_max_edges(params: RnhmParams, gen) -> list[tuple[int, ...]]:
    chosen: dict[tuple[int, ...], None] = {}
    tries = 0
    while len(chosen) < params.num_max_edges:
        if tries > 100 * params.num_max_edges:
            raise GenerationError("could not sample distinct maximum-size hyperedges")
        tries += 1
        draw = gen.choice(params.num_nodes, size=params.max_size, replace=False)
        chosen[tuple(sorted(int(v) for v in draw))] = None
    return list(chosen)


def generate(params: RnhmParams, rng: np.random.Generator) -> RnhmSample:
    """Draw one connected sample; rejects disconnected draws and samples
    where a rewire became infeasible, up to ``MAX_ATTEMPTS`` times. Every
    edge is an ascending tuple of node ids, from the sampled maximum edges
    through their subsets to the rewired edges."""
    connectivity_rejections = 0
    rewire_rejections = 0
    for _ in range(MAX_ATTEMPTS):
        max_edges = _sample_max_edges(params, rng)
        subsets_by_size: dict[int, list[tuple[int, ...]]] = {
            s: [] for s in range(2, params.max_size)
        }
        current = set(max_edges)
        for parent in max_edges:
            for s in range(params.max_size - 1, 1, -1):
                for sub in combinations(parent, s):
                    if sub not in current:
                        current.add(sub)
                        subsets_by_size[s].append(sub)

        # node -> the maximum and rewired edges holding it. A current superset
        # of a subset is one of these or an unrewired subset, which lies in a
        # maximum edge that holds the subset too, so the indexed edges common
        # to all the subset's nodes span every superset node
        holding: dict[int, set[tuple[int, ...]]] = {}
        for parent in max_edges:
            for u in parent:
                holding.setdefault(u, set()).add(parent)
        rewired = 0
        try:
            # largest sizes first, creation order within a size
            for s in range(params.max_size - 1, 1, -1):
                keep = params.keep_prob(s)
                for edge in subsets_by_size[s]:
                    if rng.random() >= 1.0 - keep:
                        continue
                    superset_nodes = set().union(*set.intersection(*(holding[u] for u in edge)))
                    new_edge = rewire_edge(edge, superset_nodes, current, params.num_nodes, rng)
                    current.remove(edge)
                    current.add(new_edge)
                    for u in new_edge:
                        holding.setdefault(u, set()).add(new_edge)
                    rewired += 1
        except RewireInfeasibleError:
            rewire_rejections += 1
            continue

        if params.include_singletons:
            current |= {(u,) for e in current for u in e}
        h = Hypergraph(sorted(current, key=lambda e: (len(e), e)))
        if is_connected(h):
            return RnhmSample(
                hypergraph=h,
                rewired_edges=rewired,
                connectivity_rejections=connectivity_rejections,
                rewire_rejections=rewire_rejections,
            )
        connectivity_rejections += 1
    raise GenerationError(
        f"no connected sample within {MAX_ATTEMPTS} attempts "
        f"({connectivity_rejections} disconnected, {rewire_rejections} rewire-infeasible); "
        "the parameter combination may make connectivity too unlikely"
    )
