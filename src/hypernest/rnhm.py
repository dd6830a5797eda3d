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

from .hypergraph import Hypergraph, is_connected
from .rng import RngLike, as_rng


# subset hyperedges a sample may enumerate: the 1M-hyperedge scale of the
# largest datasets (coauth-MAG)
MAX_SUBSETS = 1_000_000


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
    existing: set[frozenset[int]],
    num_nodes: int,
    rng: RngLike,
    max_tries: int = 100,
) -> tuple[int, ...]:
    """Keep one pivot node of ``edge`` and replace the rest with nodes drawn
    uniformly from outside every current superset of the edge, redrawing
    until the result is not already a hyperedge."""
    gen = as_rng(rng)
    size = len(edge)
    pivot = edge[int(gen.integers(size))]
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
    for _ in range(max_tries):
        replacement = gen.choice(pool_size, size=size - 1, replace=False)
        drawn = [int(i) + bisect_right(below, int(i)) for i in replacement]
        candidate = tuple(sorted([pivot] + drawn))
        if frozenset(candidate) not in existing:
            return candidate
    raise RewireInfeasibleError(
        f"no unused replacement for edge {edge} after {max_tries} draws"
    )


def _sample_max_edges(params: RnhmParams, gen) -> list[tuple[int, ...]]:
    edges: list[tuple[int, ...]] = []
    chosen: set[frozenset[int]] = set()
    tries = 0
    while len(edges) < params.num_max_edges:
        if tries > 100 * params.num_max_edges:
            raise GenerationError("could not sample distinct maximum-size hyperedges")
        tries += 1
        draw = gen.choice(params.num_nodes, size=params.max_size, replace=False)
        edge = tuple(sorted(int(v) for v in draw))
        if frozenset(edge) in chosen:
            continue
        chosen.add(frozenset(edge))
        edges.append(edge)
    return edges


def generate(params: RnhmParams, rng: RngLike, max_attempts: int = 100) -> RnhmSample:
    """Draw one connected sample; rejects disconnected draws and samples
    where a rewire became infeasible, up to ``max_attempts`` times."""
    gen = as_rng(rng)
    connectivity_rejections = 0
    rewire_rejections = 0
    for _ in range(max_attempts):
        max_edges = _sample_max_edges(params, gen)
        subsets_by_size: dict[int, list[tuple[int, ...]]] = {
            s: [] for s in range(2, params.max_size)
        }
        current: set[frozenset[int]] = {frozenset(e) for e in max_edges}
        for parent in max_edges:
            for s in range(params.max_size - 1, 1, -1):
                for sub in combinations(parent, s):
                    if frozenset(sub) not in current:
                        current.add(frozenset(sub))
                        subsets_by_size[s].append(sub)

        # node -> the current edges holding it, so an edge's supersets are
        # the larger edges common to all its nodes
        holding: dict[int, set[frozenset[int]]] = {}
        for key in current:
            for u in key:
                holding.setdefault(u, set()).add(key)
        rewired = 0
        try:
            # largest sizes first, creation order within a size
            for s in range(params.max_size - 1, 1, -1):
                keep = params.keep_prob(s)
                for edge in subsets_by_size[s]:
                    if gen.random() >= 1.0 - keep:
                        continue
                    edge_key = frozenset(edge)
                    # the current edges holding all its nodes: itself and its supersets
                    superset_nodes = set().union(*set.intersection(*(holding[u] for u in edge)))
                    new_edge = rewire_edge(edge, superset_nodes, current, params.num_nodes, gen)
                    new_key = frozenset(new_edge)
                    current.remove(edge_key)
                    current.add(new_key)
                    for u in edge:
                        holding[u].remove(edge_key)
                    for u in new_edge:
                        holding.setdefault(u, set()).add(new_key)
                    rewired += 1
        except RewireInfeasibleError:
            rewire_rejections += 1
            continue

        final_edges = sorted(tuple(sorted(e)) for e in current)
        if params.include_singletons:
            appearing = sorted({u for e in final_edges for u in e})
            final_edges = [(u,) for u in appearing] + final_edges
        final_edges.sort(key=lambda e: (len(e), e))
        h = Hypergraph(final_edges)
        if is_connected(h):
            return RnhmSample(
                hypergraph=h,
                rewired_edges=rewired,
                connectivity_rejections=connectivity_rejections,
                rewire_rejections=rewire_rejections,
            )
        connectivity_rejections += 1
    raise GenerationError(
        f"no connected sample within {max_attempts} attempts "
        f"({connectivity_rejections} disconnected, {rewire_rejections} rewire-infeasible); "
        "the parameter combination may make connectivity too unlikely"
    )
