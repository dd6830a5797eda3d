from __future__ import annotations

import os
from itertools import combinations
from pathlib import Path

import numpy as np
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
def nested_rows(draw, max_nodes: int = 8, max_size: int = 5) -> list[list[int]]:
    """Rows with deep containment: one to three random maximal sets of 3 to
    ``max_size`` nodes, each of their proper subsets kept with one drawn
    probability, in a shuffled order, then up to three random rows."""
    n = draw(st.integers(max_size, max_nodes))
    tops = draw(st.lists(st.sampled_from(range(max_size, 2, -1)).flatmap(
        lambda k: st.sets(st.integers(0, n - 1), min_size=k, max_size=k).map(sorted)),
        min_size=1, max_size=3))
    keep, rnd = draw(st.sampled_from([1.0, 0.8, 0.5])), draw(st.randoms(use_true_random=True))
    subsets = sorted({sub for top in tops for k in range(1, len(top))
                      for sub in combinations(top, k)})
    rows = [*map(tuple, tops), *(sub for sub in subsets if rnd.random() < keep)]
    rnd.shuffle(rows)
    extra = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=max_size)
                          .map(sorted), max_size=3))
    return [list(row) for row in rows] + extra


def nested_hypergraphs():
    """``nested_rows`` as hypergraphs, whose contagion runs reach deep rounds."""
    return nested_rows().map(Hypergraph)


def any_hypergraphs(**kwargs):
    """``nested_hypergraphs()`` or ``hypergraphs(**kwargs)``."""
    return st.one_of(nested_hypergraphs(), hypergraphs(**kwargs))


@st.composite
def seed_ids(draw, m: int) -> list[int]:
    """Distinct seed ids below ``m`` in a random order, a drawn share of all
    m (rounded, so possibly none), so that runs often seed enough subsets of
    one hyperedge to start a cascade, and sometimes only a few."""
    share = draw(st.sampled_from([0.5, 0.8, 0.2, 0.05]))
    rnd = draw(st.randoms(use_true_random=True))
    return rnd.sample(range(m), round(share * m))


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


def seed_mask(rows, width: int) -> np.ndarray:
    """Id rows as the runs x ``width`` bool mask ``spread`` reads, row r true
    at the ids of ``rows[r]``."""
    mask = np.zeros((len(rows), width), dtype=bool)
    for r, ids in enumerate(rows):
        mask[r, list(ids)] = True
    return mask


def pick_seeds(h, strategy, count, gen) -> list[int]:
    """The ``count`` seed hyperedges that ``strategy`` draws from ``gen``,
    ascending."""
    return np.flatnonzero(dynamics.pick_seeds(h, strategy, count, [gen])[0]).tolist()


def run_once(h, influence, config, seeds, seed_nodes=()):
    """One contagion run of ``config.variant`` on ``h`` under its influence
    map, from the seed hyperedge and pre-activated node ids, run as a batch
    of one: its row of ``spread``, the round each hyperedge activated in."""
    return dynamics.spread(h, influence, config, seed_mask([seeds], h.m),
                           seed_mask([seed_nodes], h.n))[0]


def final_active(row) -> int:
    """Hyperedges that one run's activation row shows active at the end."""
    return int(np.count_nonzero(row >= 0))


@pytest.fixture
def chain_hypergraph() -> Hypergraph:
    return Hypergraph([[1, 2, 3], [1, 2], [1]])


@pytest.fixture
def disconnected_pairs() -> Hypergraph:
    return Hypergraph([[1, 2], [3, 4]])
