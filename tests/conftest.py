from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from hypernest import Hypergraph, dynamics

settings.register_profile("hypernest", deadline=None)
settings.load_profile("hypernest")

DATA_ENV = "HYPERNEST_DATA"


def dataset_prefix(name: str) -> Path:
    """Locate an empirical dataset or skip; see README for the download step."""
    root = Path(os.environ.get(DATA_ENV, Path(__file__).resolve().parents[1] / "data"))
    for prefix in (root / name / name, root / name):
        if (prefix.parent / f"{name}-nverts.txt").is_file():
            return prefix
    pytest.skip(
        f"dataset {name!r} not found under {root} "
        f"(download it manually and point ${DATA_ENV} at the directory)"
    )


@st.composite
def hypergraphs(draw, max_nodes: int = 12, max_edges: int = 60, min_edge_size: int = 1):
    """Random small hypergraphs; node labels are 0..n-1, edges deduplicated."""
    n = draw(st.integers(min_value=max(min_edge_size, 1), max_value=max_nodes))
    edges = draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=min_edge_size, max_size=n).map(sorted),
            min_size=1,
            max_size=max_edges,
        )
    )
    return Hypergraph(edges)


@st.composite
def random_dags(draw, max_vertices: int = 60):
    """Random DAG adjacency lists; edges only go from lower to higher index."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    out_adj: list[list[int]] = [[] for _ in range(n)]
    if n > 1:
        pairs = draw(
            st.sets(
                st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(
                    lambda p: p[0] < p[1]
                ),
                max_size=min(4 * n, 200),
            )
        )
        for u, v in sorted(pairs):
            out_adj[u].append(v)
    return out_adj


def overlap_entries(g) -> dict[tuple[int, int], int]:
    """Every (i, j) -> weight entry of an overlap graph's CSR rows; each edge
    appears from both ends."""
    ptr, nbrs, weights = g.ptr.tolist(), g.nbrs.tolist(), g.weights.tolist()
    return {(i, nbrs[k]): weights[k]
            for i in range(len(ptr) - 1) for k in range(ptr[i], ptr[i + 1])}


def pick_seeds(h, strategy, count, gen) -> list[int]:
    """The ``count`` seed hyperedges that ``strategy`` draws from ``gen``."""
    return dynamics.pick_seeds(h, strategy, count, [gen])[0].tolist()


def run_once(h, influence, config, seeds, seed_nodes=()):
    """One contagion run of ``config.variant`` on ``h`` under its influence
    map, from the seed hyperedges and pre-activated nodes, as a batch of one."""
    return dynamics.spread(h, influence, config, [seeds], [seed_nodes])


@pytest.fixture
def chain_hypergraph() -> Hypergraph:
    return Hypergraph([[1, 2, 3], [1, 2], [1]])


@pytest.fixture
def disconnected_pairs() -> Hypergraph:
    return Hypergraph([[1, 2], [3, 4]])
