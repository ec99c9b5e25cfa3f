"""Independent oracles and corpus builders for the test suite.

Everything here recomputes library answers from the raw definitions,
deliberately avoiding the library's pruned algorithms: claim sets by
enumerating all edge subsets, tree classes by trying all permutations,
extremal values by scanning the whole powerset.  Test modules compare the
fast implementations against these on small inputs.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Optional, Sequence

from beslab import (
    RULE_11,
    RULE_12,
    RULE_2PLUS,
    RULE_3PLUS,
    ClaimProfile,
    Cluster,
    ConfigQuery,
    DuplicateEdge,
    Hypergraph,
    MergeRule,
    Pair,
    Partition,
    VertexOutOfRange,
    WrongArity,
    build,
    f63,
    family_queries,
    family_violation_containing,
    merging,
    trivial_partition,
    weights,
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


def naive_claim_profile(F: Hypergraph, cap: int) -> ClaimProfile:
    """``claim_profile`` from every subset of at most ``cap`` edges: i edges
    spanning (r-2)*i + 2 - slack vertices claim every pair for slack >= 2,
    every pair at one of their vertices for slack 1, and every pair among
    their vertices for slack 0."""
    all_bits = 0
    vertex_bits: dict[int, int] = {}
    pair_bits: dict[Pair, int] = {}
    vertex_sets = [set(e) for e in F.edges]
    for i in range(1, cap + 1):
        bit = 1 << i
        for subset in itertools.combinations(vertex_sets, i):
            span = set().union(*subset)
            slack = (F.r - 2) * i + 2 - len(span)
            if slack >= 2:
                all_bits |= bit
            elif slack == 1:
                for v in span:
                    vertex_bits[v] = vertex_bits.get(v, 0) | bit
            elif slack == 0:
                for a, b in itertools.combinations(sorted(span), 2):
                    pair_bits[Pair(a, b)] = pair_bits.get(Pair(a, b), 0) | bit
    return ClaimProfile(all_bits, vertex_bits, pair_bits)


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


def naive_violation_containing(
    F: Hypergraph, k: int, forced: int
) -> Optional[tuple[tuple[int, ...], ConfigQuery]]:
    """(witness, query): the first query, in ``family_queries`` order,
    with a configuration that contains edge ``forced``, and the first such
    configuration in itertools.combinations order; None when no query has
    one."""
    queries = family_queries(F.r, k)
    if not 0 <= forced < len(F.edges):
        raise IndexError(f"edge index {forced} out of range")
    vertex_sets = [set(e) for e in F.edges]
    for q in queries:
        for subset in itertools.combinations(range(len(vertex_sets)), q.edge_count):
            if forced not in subset:
                continue
            if len(set().union(*(vertex_sets[i] for i in subset))) <= q.max_vertices:
                return subset, q
    return None


def naive_family_free(F: Hypergraph, k: int) -> bool:
    for q in family_queries(F.r, k):
        if naive_find_config(F, q.edge_count, q.max_vertices) is not None:
            return False
    return True


def naive_build(r: int, n: int, raw_edges) -> Hypergraph:
    """Reference for ``build``'s checks, their order and their messages:
    edges in the given order, each checked for arity, then range, then
    repetition, with its distinct vertices sorted."""
    if r < 2:
        raise WrongArity(f"uniformity must be at least 2, got {r}")
    if n < 0:
        raise VertexOutOfRange(f"vertex count must be non-negative, got {n}")
    seen: set[tuple[int, ...]] = set()
    edges: list[tuple[int, ...]] = []
    for raw in raw_edges:
        vs = list(raw)
        distinct = sorted(set(vs))
        if len(vs) != len(distinct) or len(distinct) != r:
            raise WrongArity(
                f"edge {sorted(vs)!r} does not have exactly {r} distinct vertices"
            )
        if distinct[0] < 0 or distinct[-1] >= n:
            raise VertexOutOfRange(f"edge {distinct!r} has vertices outside [0, {n})")
        e = tuple(distinct)
        if e in seen:
            raise DuplicateEdge(f"edge {e!r} appears more than once")
        seen.add(e)
        edges.append(e)
    edges.sort()
    return Hypergraph(r=r, n=n, edges=tuple(edges))


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


def naive_deficit_pair(c: Cluster) -> Optional[Pair]:
    """``weights._deficit_pair`` from the definitions: for a 3- or 4-edge
    tree cluster, the smallest pair of V(F) that F 2-claims but does not
    1-claim and that the whole rest of the ambient graph neither 1- nor
    2-claims."""
    part = c.part
    if len(part.edges) not in (3, 4) or naive_tree_kind(part) == "none":
        return None
    G = c.ambient
    rest = G.subgraph(i for i in range(len(G.edges)) if i not in c.edge_indices)
    for u, v in itertools.combinations(part.vertices(), 2):
        if naive_claim_set(part, u, v, 2) & {1, 2} != {2}:
            continue
        if not naive_claim_set(rest, u, v, 2) & {1, 2}:
            return Pair(u, v)
    return None


def replay_trace(start: Partition, cluster: Cluster) -> frozenset[int]:
    """Edge indices a cluster's merge trace builds from ``start``: each
    event unites two live parts under a new id."""
    live = {c.id: frozenset(c.edge_indices) for c in start.clusters}
    for ev in cluster.trace:
        live[ev.new_id] = live.pop(ev.left) | live.pop(ev.right)
    return live[cluster.id]


@functools.lru_cache(maxsize=4096)
def _naive_claims(F: Hypergraph, cap: int) -> dict[Pair, frozenset[int]]:
    """``naive_claim_set`` of every pair below ``F.n``."""
    return {
        Pair(u, v): frozenset(naive_claim_set(F, u, v, cap))
        for u, v in itertools.combinations(range(F.n), 2)
    }


@functools.lru_cache(maxsize=4096)
def _naive_two_plus(F: Hypergraph, pair: Pair) -> bool:
    return naive_two_plus(F, pair.u, pair.v)


def naive_witness(
    G: Hypergraph, P: Sequence[int], Q: Sequence[int], rule: MergeRule
) -> Optional[tuple[Pair, str]]:
    """The smallest (pair, direction) letting parts P and Q (edge indices
    of G) merge under ``rule``, from the claim definitions, over every pair
    below n; None when no pair does.

    The rules as the paper states them: ``sets`` wants the pair A-claimed
    by one part and B-claimed by the other; ``two_plus`` wants it 1-claimed
    by one part and 2-claimed by a 3-edge subtree of the other;
    ``three_plus`` wants {1}|{3,4} or {1,2}|{3}.  ``left`` means P holds
    the first half of the rule.
    """
    FP, FQ = G.subgraph(P), G.subgraph(Q)
    found = []
    if rule.kind == "two_plus":
        cp, cq = _naive_claims(FP, 1), _naive_claims(FQ, 1)
        for pair in cp:
            if 1 in cp[pair] and _naive_two_plus(FQ, pair):
                found.append((pair, "left_1"))
            if 1 in cq[pair] and _naive_two_plus(FP, pair):
                found.append((pair, "right_1"))
        return min(found, default=None)
    if rule.kind == "sets":
        halves = [(rule.A, rule.B, "A")]
    else:
        halves = [({1}, {3, 4}, "1_34"), ({1, 2}, {3}, "12_3")]
    cap = max(max(a | b) for a, b, _ in halves)
    cp, cq = _naive_claims(FP, cap), _naive_claims(FQ, cap)
    for pair in cp:
        for a, b, tag in halves:
            if a <= cp[pair] and b <= cq[pair]:
                found.append((pair, "left_" + tag))
            if b <= cp[pair] and a <= cq[pair]:
                found.append((pair, "right_" + tag))
    return min(found, default=None)


def naive_sets_witness(sp, sq, a_bits: int, b_bits: int, n: int, tags: tuple[str, str]):
    """``merging._sets_witness`` by scanning every vertex pair below ``n``."""
    best = None
    left_tag, right_tag = tags
    for u, v in itertools.combinations(range(n), 2):
        bits_p = sp.bits(u, v)
        bits_q = sq.bits(u, v)
        if bits_p & a_bits == a_bits and bits_q & b_bits == b_bits:
            cand = (Pair(u, v), left_tag)
            if best is None or cand < best:
                best = cand
        if bits_p & b_bits == b_bits and bits_q & a_bits == a_bits:
            cand = (Pair(u, v), right_tag)
            if best is None or cand < best:
                best = cand
    return best


def naive_merge(G: Hypergraph, start: Partition, rule: MergeRule, rng=None) -> Partition:
    """``merging.merge`` checking every pair of parts up front and every
    new part against all others, with no index."""
    parts = {c.id: (tuple(sorted(c.edge_indices)), c.trace) for c in start.clusters}
    states = {cid: merging._make_state(G, edges, rule) for cid, (edges, _) in parts.items()}
    next_id = max(states, default=-1) + 1
    cands = {}
    ids = sorted(states)
    for pos, i in enumerate(ids):
        for j in ids[pos + 1 :]:
            w = merging._mergeable(states[i], states[j], rule, G.n)
            if w is not None:
                cands[(i, j)] = w
    while cands:
        if rng is None:
            key = min(cands, key=lambda k: (k[0], k[1], cands[k][0], cands[k][1]))
        else:
            keys = sorted(cands)
            key = keys[rng.randrange(len(keys))]
        i, j = key
        pair, direction = cands[key]
        (ei, ti), (ej, tj) = parts.pop(i), parts.pop(j)
        del states[i], states[j]
        for other_key in [k for k in cands if i in k or j in k]:
            del cands[other_key]
        event = merging.MergeEvent(next_id, i, j, pair, direction)
        edges = tuple(sorted(ei + ej))
        parts[next_id] = (edges, ti + tj + (event,))
        merged = states[next_id] = merging._make_state(G, edges, rule)
        for other in sorted(states):
            if other != next_id:
                w = merging._mergeable(states[other], merged, rule, G.n)
                if w is not None:
                    cands[(other, next_id)] = w
        next_id += 1
    rule_stack = start.rule_stack + (rule,)
    stage = merging._STAGE_NAMES.get(rule_stack, "custom")
    ordered = sorted(parts.items(), key=lambda kv: kv[1][0][0] if kv[1][0] else -1)
    clusters = tuple(
        Cluster(cid, edges, trace, stage, G) for cid, (edges, trace) in ordered
    )
    return Partition(G, clusters, rule_stack, stage)


# Each stage's rules on top of its base stage, as ``merging.STAGES`` runs them.
NAIVE_STAGE_RULES = {
    "m11": (RULE_11,),
    "m12": (RULE_11, RULE_12),
    "m2plus": (RULE_11, RULE_2PLUS),
    "m3plus": (RULE_11, RULE_12, RULE_3PLUS),
}


def naive_stage(G: Hypergraph, stage: str, rng=None) -> Partition:
    """A stage of ``merging.STAGES`` built with :func:`naive_merge`; only the
    last round gets ``rng``, as in the library."""
    rules = NAIVE_STAGE_RULES[stage]
    p = trivial_partition(G)
    for pos, rule in enumerate(rules):
        p = naive_merge(G, p, rule, rng if pos == len(rules) - 1 else None)
    return p


def naive_certify(G: Hypergraph, rule: weights.WeightRule) -> tuple:
    """``weights.certify`` on a free graph, summing its pair weights in
    ``Fraction`` arithmetic one addition at a time: (per_cluster,
    per_pair, edge_bound, certified)."""
    info = weights._CASES[rule.case]
    coeff = info.coefficient(rule.r)
    per_cluster: dict = {}
    per_pair: dict = {}
    for c in merging.STAGES[rule.stage](G).clusters:
        pw = weights._pair_weight_map(c, rule)
        w = sum(pw.values(), Fraction(0))
        per_cluster[c.id] = (w, info.lambda_scale * (w - len(c.part.edges) / coeff))
        for p, val in pw.items():
            per_pair[p] = per_pair.get(p, Fraction(0)) + val
    edge_bound = coeff * Fraction(G.n * (G.n - 1), 2)
    certified = (
        all(lam >= 0 for _, lam in per_cluster.values())
        and all(total <= 1 for total in per_pair.values())
        and len(G.edges) <= edge_bound
    )
    return per_cluster, per_pair, edge_bound, certified


def f63_copies(c: int) -> Hypergraph:
    """``c`` vertex-disjoint copies of ``f63()``."""
    F = f63()
    return build(3, F.n * c, [tuple(v + F.n * i for v in e) for i in range(c) for e in F.edges])


def wide_probe(n: int, tail: int = 2) -> Hypergraph:
    """K4^(3) on {0, 1, 2, 3} plus a tight path of ``tail`` edges
    (3, 4, 5), (4, 5, 6), ... on ``n`` vertices.

    At ``m3plus`` the K4^(3) part 3-claims every pair at its vertices and
    4-claims every pair (wide evidence).  The path part shares no key pair
    with it, yet they merge through (3, 4).  The K4^(3) part enters
    ``m3plus`` with the larger id for ``tail`` = 2 and the smaller for 4.
    """
    k4 = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return build(3, n, k4 + [(3 + i, 4 + i, 5 + i) for i in range(tail)])


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


def naive_first_optimum(
    r: int, n: int, cands: Sequence[tuple[int, ...]], bans: Sequence[tuple[int, int]]
) -> tuple[tuple[int, ...], ...]:
    """The first largest subset of ``cands``, in itertools.combinations
    order over the given candidate order, on which no (k, s) ban finds k
    edges spanning at most s vertices."""
    for size in range(len(cands), 0, -1):
        for subset in itertools.combinations(cands, size):
            F = build(r, n, subset)
            if all(naive_find_config(F, k, s) is None for k, s in bans):
                return subset
    return ()


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
