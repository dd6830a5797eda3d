"""Layer randomization null model.

All hyperedges of one size form a layer. Shuffling node labels uniformly
within each layer (independently across layers) preserves the hyperedge
size distribution, each layer's node set, and each layer's unlabeled
degree multiset, while destroying cross-size containment and overlap
structure. Comparing line-graph quantities before and after tells how much
of that structure is non-random.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .hypergraph import Hypergraph
from .linegraph import build_encapsulation_dag
from .rng import spawn_rng


def layer_randomize(h: Hypergraph, rng: np.random.Generator) -> Hypergraph:
    """Apply an independent uniform node-label permutation to each size layer.

    The permutation domain of a layer is the set of nodes appearing in it;
    layers draw in ascending size order, each over its ascending node ids.
    Hyperedge ids keep their original order, and since a permutation is a
    bijection, distinct hyperedges stay distinct. Nodes of the result are
    numbered by first appearance over the mapped rows.
    """
    entry_size = np.repeat(h.sizes, h.sizes)
    order = np.argsort(entry_size, kind="stable")
    mapped = h.edge_nodes.copy()
    for at in np.split(order, np.flatnonzero(np.diff(entry_size[order])) + 1):
        nodes, rank = np.unique(h.edge_nodes[at], return_inverse=True)
        mapped[at] = nodes[rng.permutation(nodes.size)][rank]
    return Hypergraph.from_arrays(h.edge_ptr, mapped, h.labels)


def layer_samples(h: Hypergraph, k: int, seed: int) -> Iterator[Hypergraph]:
    """The ``k`` layer randomizations of ``h`` under master seed ``seed``;
    sample i draws from stream ("layer-randomization", i), so every command
    sees the same null-model samples."""
    for i in range(k):
        yield layer_randomize(h, spawn_rng(seed, "layer-randomization", i))


_QUANTITIES = ("dag_edges", "overlap_edges", "overlap_weight")


def _line_graph_quantities(h: Hypergraph) -> dict[str, float]:
    dag = build_encapsulation_dag(h)
    return {
        "dag_edges": float(dag.edge_count),
        "overlap_edges": float(dag.overlap_edges),
        "overlap_weight": float(dag.overlap_weight),
    }


def retention_report(h: Hypergraph, randomized: Iterable[Hypergraph], master_seed: int) -> dict:
    """The document ``hypernest randomize`` prints: the observed line-graph
    quantities of ``h``, each randomized sample's as a proportion of them
    (0/0 reads 1.0 and is flagged in ``degenerate_ratios``), and their means.
    The samples are read once, in order, so a generator is never held whole;
    ``master_seed`` is the seed they were drawn under."""
    observed = _line_graph_quantities(h)
    rows = []
    for sample in randomized:
        values = _line_graph_quantities(sample)
        rows.append(
            {name: values[name] / observed[name] if observed[name] else 1.0 for name in _QUANTITIES}
        )
    if not rows:
        raise ValueError("retention_report needs at least one sample")
    return {
        "observed": observed,
        "samples": rows,
        "means": {name: sum(r[name] for r in rows) / len(rows) for name in _QUANTITIES},
        "seed": master_seed,
        "degenerate_ratios": sorted(name for name in _QUANTITIES if observed[name] == 0),
    }
