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

import numpy as np

from .hypergraph import Hypergraph
from .linegraph import build_encapsulation_dag
from .rng import RngLike, as_rng, spawn_rng


def layer_randomize(h: Hypergraph, rng: RngLike) -> Hypergraph:
    """Apply an independent uniform node-label permutation to each size layer.

    The permutation domain of a layer is the set of nodes appearing in it;
    layers draw in ascending size order, each over its ascending node ids.
    Hyperedge ids keep their original order, and since a permutation is a
    bijection, distinct hyperedges stay distinct. Nodes of the result are
    numbered by first appearance over the mapped rows.
    """
    gen = as_rng(rng)
    entry_size = np.repeat(h.sizes, h.sizes)
    order = np.argsort(entry_size, kind="stable")
    mapped = h.edge_nodes.copy()
    for at in np.split(order, np.flatnonzero(np.diff(entry_size[order])) + 1):
        nodes, rank = np.unique(h.edge_nodes[at], return_inverse=True)
        mapped[at] = nodes[gen.permutation(nodes.size)][rank]
    return Hypergraph.from_arrays(h.edge_ptr, mapped, h.labels)


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
