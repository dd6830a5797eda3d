"""Brute-force reference implementations used to check the fast paths.

These stay deliberately naive (all-pairs scans, per-pair BFS) so they are
independent of the construction code they verify.
"""

from __future__ import annotations

from collections import deque

from hypernest import Hypergraph


def encapsulation_edges(h: Hypergraph) -> set[tuple[int, int]]:
    """All ordered pairs (i, j) with e_j a proper subset of e_i."""
    out = set()
    for i in range(h.m):
        for j in range(h.m):
            if i != j and h.edge_sets[j] < h.edge_sets[i]:
                out.add((i, j))
    return out


def overlap_weights(h: Hypergraph) -> dict[tuple[int, int], int]:
    """Intersection sizes for all unordered pairs with i < j."""
    out = {}
    for i in range(h.m):
        for j in range(i + 1, h.m):
            w = len(h.edge_sets[i] & h.edge_sets[j])
            if w:
                out[(i, j)] = w
    return out


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
    hyperedge's influence from ``h.edge_sets`` each round with the variant
    definitions: strict counts active proper subsets one size smaller;
    non-strict does the same except that a 2-node hyperedge counts its
    active member nodes; empirical-adjacent counts active subsets of the
    largest size it contains; threshold activates a hyperedge once at most
    ``tau`` of its member nodes are inactive."""
    sets = h.edge_sets
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
    for e in h.edge_sets:
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
