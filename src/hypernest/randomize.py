"""Layer randomization null model.

All hyperedges of one size form a layer. Shuffling node labels uniformly
within each layer (independently across layers) preserves the hyperedge
size distribution, each layer's node set, and each layer's unlabeled
degree multiset, while destroying cross-size containment and overlap
structure. Comparing line-graph quantities before and after tells how much
of that structure is non-random.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .hypergraph import Hypergraph
from .linegraph import build_encapsulation_dag
from .rng import RngLike, as_rng, spawn_rng


def layer_randomize(h: Hypergraph, rng: RngLike) -> Hypergraph:
    """Apply an independent uniform node-label permutation to each size layer.

    The permutation domain of a layer is the set of node labels appearing in
    it. Hyperedge ids keep their original order; since a permutation is a
    bijection, distinct hyperedges stay distinct, but the result is rebuilt
    with simple-hypergraph semantics regardless.
    """
    gen = as_rng(rng)
    by_size: dict[int, list[int]] = {}
    for eid in range(h.m):
        by_size.setdefault(int(h.sizes[eid]), []).append(eid)
    new_edges: list[tuple | None] = [None] * h.m
    for size in sorted(by_size):
        ids = by_size[size]
        layer_nodes = sorted({u for eid in ids for u in h.edges[eid]})
        perm = gen.permutation(len(layer_nodes))
        mapping = {layer_nodes[k]: layer_nodes[int(perm[k])] for k in range(len(layer_nodes))}
        for eid in ids:
            new_edges[eid] = tuple(h.labels[mapping[u]] for u in h.edges[eid])
    return Hypergraph(new_edges)


def layer_samples(h: Hypergraph, k: int, seed: int) -> Iterator[Hypergraph]:
    """The ``k`` layer randomizations of ``h`` under master seed ``seed``;
    sample i draws from stream ("layer-randomization", i), so every command
    sees the same null-model samples."""
    for i in range(k):
        yield layer_randomize(h, spawn_rng(seed, "layer-randomization", i))


@dataclass
class LayerRandomizationReport:
    """Observed line-graph quantities and the proportion retained in each
    randomization sample; 0/0 ratios are reported as 1.0 and flagged.
    ``randomized`` keeps the sampled hypergraphs, in stream order, so they
    can be written without drawing them again; they are not serialized."""

    observed: dict[str, float]
    samples: list[dict[str, float]]
    means: dict[str, float]
    seed: int
    degenerate_ratios: list[str] = field(default_factory=list)
    randomized: list[Hypergraph] = field(default_factory=list, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "observed": self.observed,
            "samples": self.samples,
            "means": self.means,
            "seed": self.seed,
            "degenerate_ratios": self.degenerate_ratios,
        }


_QUANTITIES = ("dag_edges", "overlap_edges", "overlap_weight")


def _line_graph_quantities(h: Hypergraph) -> dict[str, float]:
    dag = build_encapsulation_dag(h)
    return {
        "dag_edges": float(dag.edge_count),
        "overlap_edges": float(dag.overlap_edges),
        "overlap_weight": float(dag.overlap_weight),
    }


def retention_report(h: Hypergraph, samples: int, master_seed: int) -> LayerRandomizationReport:
    """Rebuild the containment DAG and overlap graph on ``samples``
    randomizations and report each quantity as a proportion of its observed
    value, plus the mean across samples."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    observed = _line_graph_quantities(h)
    degenerate = sorted(name for name in _QUANTITIES if observed[name] == 0)
    rows: list[dict[str, float]] = []
    randomized = list(layer_samples(h, samples, master_seed))
    for sample in randomized:
        values = _line_graph_quantities(sample)
        rows.append(
            {name: values[name] / observed[name] if observed[name] else 1.0 for name in _QUANTITIES}
        )
    means = {name: sum(r[name] for r in rows) / samples for name in _QUANTITIES}
    return LayerRandomizationReport(
        observed=observed,
        samples=rows,
        means=means,
        seed=master_seed,
        degenerate_ratios=degenerate,
        randomized=randomized,
    )
