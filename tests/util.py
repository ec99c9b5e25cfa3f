"""Independent oracles and corpus builders for the test suite.

Everything here recomputes library answers from the raw definitions,
deliberately avoiding the library's pruned algorithms: claim sets by
enumerating all edge subsets, tree classes by trying all permutations,
extremal values by scanning the whole powerset.  Test modules compare the
fast implementations against these on small inputs.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional, Sequence

from beslab import (
    Hypergraph,
    build,
    family_queries,
    family_violation_containing,
)


# ---------------------------------------------------------------------------
# Claim sets and configurations, straight from the definitions


def naive_claim_set(F: Hypergraph, u: int, v: int, cap: int) -> set[int]:
    """All i in [0, cap] such that some i edges of F plus {u, v} fit in
    r*i - 2*i + 2 vertices.  0 is always in."""
    out = {0}
    r = F.r
    vertex_sets = [set(e) for e in F.edges]
    for i in range(1, cap + 1):
        budget = r * i - 2 * i + 2
        for subset in itertools.combinations(vertex_sets, i):
            span = {u, v}
            for s in subset:
                span |= s
            if len(span) <= budget:
                out.add(i)
                break
    return out


def naive_find_config(F: Hypergraph, k: int, s: int) -> Optional[tuple[int, ...]]:
    """The first k edge indices, in itertools.combinations order, that span
    at most s vertices, or None."""
    vertex_sets = [set(e) for e in F.edges]
    for subset in itertools.combinations(range(len(vertex_sets)), k):
        span: set[int] = set()
        for i in subset:
            span |= vertex_sets[i]
        if len(span) <= s:
            return subset
    return None


def naive_family_free(F: Hypergraph, k: int) -> bool:
    for q in family_queries(F.r, k):
        if naive_find_config(F, q.edge_count, q.max_vertices) is not None:
            return False
    return True


def naive_girth(F: Hypergraph, cap: int):
    """Least ell in [2, cap] with ell edges on (r-2)*ell + 2 or fewer
    vertices; the string 'above' when none exists (2-graphs always)."""
    if F.r <= 2:
        return "above"
    for ell in range(2, cap + 1):
        if naive_find_config(F, ell, (F.r - 2) * ell + 2) is not None:
            return ell
    return "above"


def naive_shadow(F: Hypergraph) -> set[tuple[int, int]]:
    out: set[tuple[int, int]] = set()
    for e in F.edges:
        for a, b in itertools.combinations(sorted(e), 2):
            out.add((a, b))
    return out


# ---------------------------------------------------------------------------
# Tree / path classification by brute force over edge orders


def naive_tree_kind(F: Hypergraph) -> str:
    """'path', 'tree', or 'none', trying every insertion order."""
    m = len(F.edges)
    if m == 0:
        return "none"
    if m == 1:
        return "path"
    vertex_sets = [set(e) for e in F.edges]
    is_tree = False
    for perm in itertools.permutations(range(m)):
        union = set(vertex_sets[perm[0]])
        ok_tree = True
        ok_path = True
        for pos in range(1, m):
            e = vertex_sets[perm[pos]]
            inter = e & union
            if len(inter) != 2 or not any(
                inter <= vertex_sets[perm[j]] for j in range(pos)
            ):
                ok_tree = False
                break
            fresh = inter <= vertex_sets[perm[pos - 1]] and not any(
                inter <= vertex_sets[perm[j]] for j in range(pos - 1)
            )
            if not fresh:
                ok_path = False
            union |= e
        if ok_tree:
            is_tree = True
            if ok_path:
                return "path"
    return "tree" if is_tree else "none"


def naive_two_plus(F: Hypergraph, u: int, v: int) -> bool:
    """Does some 3-edge sub-tree of F 2-claim the pair (u, v)?"""
    for subset in itertools.combinations(range(len(F.edges)), 3):
        sub = F.subgraph(subset)
        if naive_tree_kind(sub) in ("tree", "path") and 2 in naive_claim_set(
            sub, u, v, 2
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Extremal values by full powerset scan (tiny n only)


def naive_turan_plain(r: int, n: int, s: int, k: int) -> int:
    cands = list(itertools.combinations(range(n), r))
    best = 0
    for size in range(len(cands), best, -1):
        for subset in itertools.combinations(cands, size):
            F = build(r, n, subset)
            if naive_find_config(F, k, s) is None:
                return size
    return 0


def naive_turan_family(r: int, n: int, k: int) -> int:
    cands = list(itertools.combinations(range(n), r))
    for size in range(len(cands), 0, -1):
        for subset in itertools.combinations(cands, size):
            F = build(r, n, subset)
            if naive_family_free(F, k):
                return size
    return 0


def naive_enumerate_S(K: Hypergraph, e: int, d: int) -> list[tuple[int, ...]]:
    out = []
    vertex_sets = [set(x) for x in K.edges]
    for subset in itertools.combinations(range(len(vertex_sets)), e):
        span: set[int] = set()
        for i in subset:
            span |= vertex_sets[i]
        if K.r * e - len(span) == d:
            out.append(subset)
    return out


def naive_conflicts(H, e1: int, d1: int, e2: int, d2: int, no_isolated: bool):
    """Reference matcher for one conflict family over a PackingPairGraph."""

    def has_isolated(K: Hypergraph, subset: Sequence[int]) -> bool:
        vs = [set(K.edges[i]) for i in subset]
        for i, own in enumerate(vs):
            rest: set[int] = set()
            for j, other in enumerate(vs):
                if j != i:
                    rest |= other
            if not own & rest:
                return True
        return False

    def extends(K: Hypergraph, base: frozenset[int]) -> bool:
        for S in naive_enumerate_S(K, e1, d1):
            if base <= set(S) and not (no_isolated and has_isolated(K, S)):
                return True
        return False

    found = set()
    for host_is_k1 in (True, False):
        host = H.k1 if host_is_k1 else H.k2
        other = H.k2 if host_is_k1 else H.k1
        for members in naive_enumerate_S(host, e2, d2):
            partner_sets = []
            for c in members:
                if host_is_k1:
                    partner_sets.append([j for (i, j) in H.edges if i == c])
                else:
                    partner_sets.append([i for (i, j) in H.edges if j == c])
            for picks in itertools.product(*partner_sets):
                if len(set(picks)) != len(picks):
                    continue
                if extends(other, frozenset(picks)):
                    if host_is_k1:
                        found.add(frozenset(zip(members, picks)))
                    else:
                        found.add(frozenset(zip(picks, members)))
    return sorted(tuple(sorted(fs)) for fs in found)


# ---------------------------------------------------------------------------
# Random graph generation with admissibility rejection


def random_free_graph(
    rng: random.Random,
    r: int,
    k: int,
    n: int,
    attempts: int = 60,
) -> Hypergraph:
    """Randomized edge addition, rejecting edges that break admissibility."""
    cands = list(itertools.combinations(range(n), r))
    rng.shuffle(cands)
    edges: list[tuple[int, ...]] = []
    for e in cands[:attempts]:
        trial = sorted(edges + [e])
        G = build(r, n, trial)
        if family_violation_containing(G, k, trial.index(e)) is None:
            edges = trial
    return build(r, n, edges)


def random_hypergraph(rng: random.Random, r: int, n: int, max_edges: int) -> Hypergraph:
    """Arbitrary (possibly inadmissible) graph for fuzzing."""
    cands = list(itertools.combinations(range(n), r))
    rng.shuffle(cands)
    count = rng.randint(0, min(max_edges, len(cands)))
    return build(r, n, cands[:count])


# ---------------------------------------------------------------------------
# Isomorphism-reduced exhaustive corpora


def canonical_form(G: Hypergraph) -> tuple:
    """Canonical edge tuple: minimum relabeling over invariant-respecting
    permutations of the support (isolated vertices cannot affect it)."""
    support = sorted({v for e in G.edges for v in e})
    if not support:
        return (G.r, G.n, ())
    deg: dict[int, int] = {v: 0 for v in support}
    codeg: dict[int, dict[int, int]] = {v: {} for v in support}
    for e in G.edges:
        for v in e:
            deg[v] += 1
        for a, b in itertools.combinations(e, 2):
            codeg[a][b] = codeg[a].get(b, 0) + 1
            codeg[b][a] = codeg[b].get(a, 0) + 1
    inv = {
        v: (deg[v], tuple(sorted(codeg[v].values()))) for v in support
    }
    classes: dict[tuple, list[int]] = {}
    for v in support:
        classes.setdefault(inv[v], []).append(v)
    # class order fixed by invariant; target ids assigned contiguously
    blocks = [members for _, members in sorted(classes.items())]
    starts = []
    acc = 0
    for b in blocks:
        starts.append(acc)
        acc += len(b)
    best: Optional[tuple] = None
    for perm_choice in itertools.product(
        *(itertools.permutations(b) for b in blocks)
    ):
        mapping: dict[int, int] = {}
        for start, members in zip(starts, perm_choice):
            for offset, v in enumerate(members):
                mapping[v] = start + offset
        mapped = tuple(
            sorted(tuple(sorted(mapping[v] for v in e)) for e in G.edges)
        )
        if best is None or mapped < best:
            best = mapped
    return (G.r, G.n, best)


def iso_free_corpus(r: int, k: int, n: int) -> list[Hypergraph]:
    """Every admissible graph on n labeled vertices, one per isomorphism
    class, by breadth-first edge addition with canonical deduplication."""
    empty = build(r, n, [])
    seen = {canonical_form(empty)}
    frontier = [empty]
    out = [empty]
    all_edges = list(itertools.combinations(range(n), r))
    while frontier:
        nxt: list[Hypergraph] = []
        for G in frontier:
            existing = set(G.edges)
            for e in all_edges:
                if e in existing:
                    continue
                trial = sorted(existing | {e})
                G2 = build(r, n, trial)
                if family_violation_containing(G2, k, trial.index(e)) is not None:
                    continue
                key = canonical_form(G2)
                if key in seen:
                    continue
                seen.add(key)
                nxt.append(G2)
                out.append(G2)
        frontier = nxt
    return out


def relabel(G: Hypergraph, perm: Sequence[int]) -> Hypergraph:
    """Apply a vertex permutation (perm[v] is the new name of v)."""
    return build(G.r, G.n, [[perm[v] for v in e] for e in G.edges])
