"""Brute-force reference implementations used to check the fast paths.

These stay deliberately naive (all-pairs scans, per-pair BFS) so they are
independent of the construction code they verify.
"""

from __future__ import annotations

import hashlib
from collections import deque
from graphlib import TopologicalSorter
from itertools import chain, combinations
from math import sqrt

import numpy as np

from hypernest import ExperimentGrid, Hypergraph, build_influence, rnhm, run_experiment
from hypernest.hypergraph import is_connected, split_rows
from hypernest.linegraph import HyperedgeDag


def edge_sets(h: Hypergraph) -> list[frozenset[int]]:
    """Hyperedges as frozensets of ids."""
    return [frozenset(e) for e in h.edges]


def label_sets(h: Hypergraph) -> frozenset[frozenset]:
    """Hyperedges as a set of label sets (order-insensitive)."""
    return frozenset(frozenset(h.labels[u] for u in e) for e in h.edges)


def dag_edges(dag) -> set[tuple[int, int]]:
    """The (i, j) pairs that the CSR rows of a ``HyperedgeDag`` list."""
    ptr, idx = dag.out_ptr.tolist(), dag.out_idx.tolist()
    return {(i, idx[k]) for i in range(len(ptr) - 1) for k in range(ptr[i], ptr[i + 1])}


def dag_from_rows(rows: list[list[int]]) -> HyperedgeDag:
    """The DAG in which vertex i points to each vertex of ``rows[i]``."""
    ptr = np.concatenate(([0], np.cumsum([len(r) for r in rows], dtype=np.int64)))
    idx = np.fromiter(chain.from_iterable(map(sorted, rows)), dtype=np.int32)
    return HyperedgeDag(ptr, idx)


def out_rows(dag) -> list[list[int]]:
    """The out-neighbor rows of a ``HyperedgeDag`` as Python lists."""
    return split_rows(dag.out_ptr, dag.out_idx)


def encapsulation_edges(h: Hypergraph) -> set[tuple[int, int]]:
    """All ordered pairs (i, j) with e_j a proper subset of e_i."""
    sets, out = edge_sets(h), set()
    for i in range(h.m):
        for j in range(h.m):
            if i != j and sets[j] < sets[i]:
                out.add((i, j))
    return out


def overlap_weights(h: Hypergraph) -> dict[tuple[int, int], int]:
    """Intersection sizes for all unordered pairs with i < j."""
    sets, out = edge_sets(h), {}
    for i in range(h.m):
        for j in range(i + 1, h.m):
            w = len(sets[i] & sets[j])
            if w:
                out[(i, j)] = w
    return out


def gathered_encounters(h: Hypergraph, adjacent: bool = False) -> int:
    """Shared-node encounters a windowed DAG build gathers: |a & b| summed
    over the pairs (a, b) with b at or before a in (size, id) order, or,
    when ``adjacent``, with |b| = |a| - 1."""
    sets, total = edge_sets(h), 0
    for a in range(h.m):
        for b in range(h.m):
            if adjacent:
                partner = len(sets[b]) == len(sets[a]) - 1
            else:
                partner = (len(sets[b]), b) <= (len(sets[a]), a)
            if partner:
                total += len(sets[a] & sets[b])
    return total


def reachable_from(out_adj: list[list[int]], src: int) -> set[int]:
    seen: set[int] = set()
    queue = deque(out_adj[src])
    while queue:
        v = queue.popleft()
        if v in seen:
            continue
        seen.add(v)
        queue.extend(out_adj[v])
    return seen


def reachability(out_adj: list[list[int]]) -> dict[int, set[int]]:
    return {v: reachable_from(out_adj, v) for v in range(len(out_adj))}


def transitive_reduction(out_adj: list[list[int]]) -> list[list[int]]:
    """Each vertex's out-neighbors not reachable through its siblings, from
    frozenset descendant sets accumulated children first; a cycle raises
    ``graphlib.CycleError``, a ``ValueError``."""
    descendants: list[frozenset[int]] = [frozenset()] * len(out_adj)
    for v in TopologicalSorter(dict(enumerate(out_adj))).static_order():
        descendants[v] = frozenset(out_adj[v]).union(*(descendants[w] for w in out_adj[v]))
    reduced = []
    for children in out_adj:
        indirect = frozenset().union(*(descendants[v] for v in children))
        reduced.append(sorted(w for w in children if w not in indirect))
    return reduced


def longest_path_from(out_adj: list[list[int]], src: int) -> int:
    """Edge count of the longest path from ``src`` in a DAG: the last step k
    at which some vertex is reached by a walk of exactly k edges."""
    frontier, steps = {src}, 0
    while True:
        frontier = {w for v in frontier for w in out_adj[v]}
        if not frontier:
            return steps
        steps += 1


def contagion_steps(h: Hypergraph, config, seeds, seed_nodes=()) -> list[list[int]]:
    """Per-round newly activated hyperedges, recounting every inactive
    hyperedge's influence from ``edge_sets(h)`` each round with the variant
    definitions: strict counts active proper subsets one size smaller;
    non-strict does the same except that a 2-node hyperedge counts its
    active member nodes; empirical-adjacent counts active subsets of the
    largest size it contains; threshold activates a hyperedge once at most
    ``tau`` of its member nodes are inactive."""
    sets = edge_sets(h)
    subsets = [[j for j in range(h.m) if sets[j] < sets[i]] for i in range(h.m)]
    active = set(seeds)
    nodes = set(seed_nodes).union(*(sets[i] for i in active))
    steps = [sorted(active)]
    for _ in range(config.max_steps):
        new = []
        for i in sorted(set(range(h.m)) - active):
            size = len(sets[i])
            if config.variant == "threshold":
                if len(sets[i] - nodes) <= config.tau:
                    new.append(i)
                continue
            if config.variant == "non-strict" and size == 2:
                count = len(sets[i] & nodes)
            else:
                if config.variant == "empirical-adjacent":
                    size = max((len(sets[j]) for j in subsets[i]), default=0) + 1
                count = sum(1 for j in subsets[i] if len(sets[j]) == size - 1 and j in active)
            if count > config.tau or (count == config.tau and config.comparison == ">="):
                new.append(i)
        if not new:
            break
        active.update(new)
        nodes.update(*(sets[i] for i in new))
        steps.append(new)
    return steps


def label_rows(rows) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """(labels, edges) a simple hypergraph on ``rows`` must have: labels in
    order of first appearance, each row as its ascending ids, a row equal
    as a set to an earlier one dropped."""
    index: dict = {}
    edges, seen = [], set()
    for row in rows:
        ids = [index.setdefault(lab, len(index)) for lab in row]
        if frozenset(ids) not in seen:
            seen.add(frozenset(ids))
            edges.append(tuple(sorted(ids)))
    return tuple(index), tuple(edges)


def sorted_labels(h: Hypergraph, eid: int) -> list:
    """Labels of one hyperedge, sorted when they compare, else in id order."""
    labs = [h.labels[u] for u in h.edges[eid]]
    try:
        return sorted(labs)
    except TypeError:
        return labs


def components(h: Hypergraph) -> list[set[int]]:
    """Node components by breadth-first search over shared hyperedges."""
    nbrs: list[set[int]] = [set() for _ in range(h.n)]
    for e in edge_sets(h):
        for u in e:
            nbrs[u] |= e
    seen: set[int] = set()
    comps = []
    for src in range(h.n):
        if src in seen:
            continue
        comp, queue = {src}, deque([src])
        while queue:
            for w in nbrs[queue.popleft()] - comp:
                comp.add(w)
                queue.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def layer_randomize(h: Hypergraph, gen) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """(labels, edges) of a layer randomization drawn from ``gen``: per size,
    ascending, one permutation of the layer's sorted node ids, applied to
    every row of the layer in id order, then a rebuild from label rows."""
    mapped = [None] * h.m
    for size in sorted(set(h.sizes.tolist())):
        ids = [e for e in range(h.m) if len(h.edges[e]) == size]
        nodes = sorted({u for e in ids for u in h.edges[e]})
        perm = gen.permutation(len(nodes))
        image = {nodes[k]: nodes[int(perm[k])] for k in range(len(nodes))}
        for e in ids:
            mapped[e] = [h.labels[image[u]] for u in h.edges[e]]
    return label_rows(mapped)


def seed_sequence_rng(master_seed: int, *path) -> np.random.Generator:
    """The stream of (master seed, path parts) from NumPy's own
    ``SeedSequence``: an int part is the spawn-key word ``part % 2**32``, any
    other part the first four bytes of the SHA-256 of its text."""
    key = [int(part) % 2**32 if isinstance(part, (int, np.integer))
           else int.from_bytes(hashlib.sha256(str(part).encode()).digest()[:4], "little")
           for part in path]
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def sorted_seeds(h: Hypergraph, strategy: str, count: int, gen) -> list[int]:
    """Seeds of ``strategy`` drawn from ``gen`` by a stable argsort of all m
    keys: uniform by ``choice``, smallest-first by the sizes of one
    permutation, the biased strategies by exponential keys over size or its
    inverse."""
    if strategy == "uniform":
        picked = gen.choice(h.m, size=count, replace=False)
    elif strategy == "smallest-first":
        shuffled = gen.permutation(h.m)
        picked = shuffled[np.argsort(h.sizes[shuffled], kind="stable")[:count]]
    else:
        weights = h.sizes.astype(float)
        if strategy == "inverse-size-biased":
            weights = 1.0 / weights
        picked = np.argsort(gen.standard_exponential(h.m) / weights, kind="stable")[:count]
    return sorted(picked.tolist())


def rnhm_generate(params, rng) -> rnhm.RnhmSample:
    """An RNHM sample drawn from ``rng`` with every current hyperedge kept as
    a frozenset, and each node indexed to all the current hyperedges holding
    it: the rewired ones are dropped from that index and the new ones added.
    The draws follow ``rnhm.generate``; ``rewire_edge`` is given the current
    hyperedges as ascending tuples."""
    connectivity_rejections = rewire_rejections = 0
    for _ in range(rnhm.MAX_ATTEMPTS):
        max_edges, chosen, tries = [], set(), 0
        while len(max_edges) < params.num_max_edges:
            if tries > 100 * params.num_max_edges:
                raise rnhm.GenerationError("could not sample distinct maximum-size hyperedges")
            tries += 1
            draw = rng.choice(params.num_nodes, size=params.max_size, replace=False)
            edge = tuple(sorted(int(v) for v in draw))
            if frozenset(edge) not in chosen:
                chosen.add(frozenset(edge))
                max_edges.append(edge)
        subsets_by_size = {s: [] for s in range(2, params.max_size)}
        current = {frozenset(e) for e in max_edges}
        for parent in max_edges:
            for s in range(params.max_size - 1, 1, -1):
                for sub in combinations(parent, s):
                    if frozenset(sub) not in current:
                        current.add(frozenset(sub))
                        subsets_by_size[s].append(sub)
        holding: dict[int, set[frozenset[int]]] = {}
        for key in current:
            for u in key:
                holding.setdefault(u, set()).add(key)
        rewired = 0
        try:
            for s in range(params.max_size - 1, 1, -1):
                keep = params.keep_prob(s)
                for edge in subsets_by_size[s]:
                    if rng.random() >= 1.0 - keep:
                        continue
                    superset_nodes = set().union(*set.intersection(*(holding[u] for u in edge)))
                    existing = {tuple(sorted(e)) for e in current}
                    new_edge = rnhm.rewire_edge(edge, superset_nodes, existing, params.num_nodes, rng)
                    current.remove(frozenset(edge))
                    current.add(frozenset(new_edge))
                    for u in edge:
                        holding[u].remove(frozenset(edge))
                    for u in new_edge:
                        holding.setdefault(u, set()).add(frozenset(new_edge))
                    rewired += 1
        except rnhm.RewireInfeasibleError:
            rewire_rejections += 1
            continue
        final_edges = sorted(tuple(sorted(e)) for e in current)
        if params.include_singletons:
            appearing = sorted({u for e in final_edges for u in e})
            final_edges = [(u,) for u in appearing] + final_edges
        final_edges.sort(key=lambda e: (len(e), e))
        h = Hypergraph(final_edges)
        if is_connected(h):
            return rnhm.RnhmSample(h, rewired, connectivity_rejections, rewire_rejections)
        connectivity_rejections += 1
    hints = [hint for count, hint in (
        (connectivity_rejections, "the parameter combination may make connectivity too unlikely"),
        (rewire_rejections, "rewires found no room outside their supersets")) if count]
    raise rnhm.GenerationError(
        f"no connected sample within {rnhm.MAX_ATTEMPTS} attempts "
        f"({connectivity_rejections} disconnected, {rewire_rejections} rewire-infeasible)"
        + "".join(f"; {hint}" for hint in hints)
    )


def mean_stderr(values: list[float]) -> tuple[float, float]:
    """Mean and standard error of the mean (0.0 for one value), summed in
    list order."""
    mean = sum(values) / len(values)
    if len(values) == 1:
        return mean, 0.0
    return mean, sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1) / len(values))


def sweep_cells(hypergraphs, grid, runs: int, master_seed: int) -> list[tuple[float, float]]:
    """The per-cell pooling of ``experiments.pooled_cells`` done one cell at a
    time: per cell, one one-cell ``run_experiment`` on each hypergraph k (master
    seed ``master_seed + k``, seed count clamped to its m), its final counts
    turned into proportions here and pooled hypergraph-major into one mean and
    standard error."""
    pooled = []
    for strategy, count in grid.cells():
        props = []
        for k, h in enumerate(hypergraphs):
            seeded = min(count, h.m)
            one_cell = ExperimentGrid(grid.config, (strategy,), (seeded,))
            finals = run_experiment(h, build_influence(h, grid.config.variant), one_cell, runs,
                                    master_seed + k)[1, 0].tolist()
            props += [(final - seeded) / (h.m - seeded) if h.m > seeded else 1.0
                      for final in finals]
        pooled.append(mean_stderr(props))
    return pooled
