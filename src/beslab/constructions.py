"""Lower-bound constructions and their verifiers.

Deterministic generators (single edge, diamond stars, the 63-vertex graph),
an exact ratio checker, and the randomized two-sided clique-packing pipeline
with its conflict bookkeeping.  Randomness is reproducible: every stage draws
from its own SHA-256-derived substream of the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import Unknown
from .hypergraphs import (
    ConfigQuery,
    FreenessResult,
    Hypergraph,
    Pair,
    _config_search,
    _fitting_subsets,
    _mask,
    _require_free,
    build,
    find_configuration,
    graph_doc,
    pairs_claimed_upto,
    shadow,
)
from .weights import limit_table


def single_edge(r: int) -> Hypergraph:
    """One r-edge on r vertices."""
    if r < 3:
        raise ValueError(f"uniformity must be at least 3, got {r}")
    return build(r, r, [range(r)])


def diamond_star(t: int) -> Hypergraph:
    """``t`` diamonds all sharing the tip pair {0, 1}.

    Diamond ``i`` sits on vertices ``{2+2i, 3+2i}`` plus the tips: edges
    ``{x_i, y_i, 0}`` and ``{x_i, y_i, 1}``.  2t+2 vertices, 2t edges.
    """
    if t < 1:
        raise ValueError(f"need at least one diamond, got t={t}")
    edges = []
    for i in range(t):
        x, y = 2 + 2 * i, 3 + 2 * i
        edges.append((x, y, 0))
        edges.append((x, y, 1))
    return build(3, 2 * t + 2, edges)


def f63() -> Hypergraph:
    """The 61-edge graph on 63 vertices with pair ratio 61/330.

    Layout: central edge {0,1,2}; for each center index i two first-level
    diamonds on the other two centers (fresh tip pairs); then, for each of
    the twelve center-tip pairs that become 3-claimed, two vertex-disjoint
    second-level diamonds hanging on that pair.
    """
    centers = [0, 1, 2]
    nxt = 3
    edges: list[tuple[int, ...]] = [tuple(centers)]
    attach_pairs: list[tuple[int, int]] = []
    for i in range(3):
        s, t = (j for j in range(3) if j != i)
        for _ in range(2):
            a, b = nxt, nxt + 1
            nxt += 2
            edges.append((a, b, centers[s]))
            edges.append((a, b, centers[t]))
            attach_pairs.append((centers[i], a))
            attach_pairs.append((centers[i], b))
    for u, v in attach_pairs:
        for _ in range(2):
            c, d = nxt, nxt + 1
            nxt += 2
            edges.append((c, d, u))
            edges.append((c, d, v))
    assert nxt == 63 and len(edges) == 61
    return build(3, 63, edges)


def lower_bound_ratio(F: Hypergraph, k: int) -> tuple[Fraction, set[Pair]]:
    """Edge count against twice the pairs claimed with index <= floor(k/2).

    Verifies freeness first and raises :class:`NotFree` otherwise; the
    returned pair set is the denominator's support.
    """
    _require_free(F, k)
    if not F.edges:
        return Fraction(0), set()
    pset = pairs_claimed_upto(F, k // 2)
    return Fraction(len(F.edges), 2 * len(pset)), pset


# ---------------------------------------------------------------------------
# Sparse-subgraph and conflict enumeration over clique packings


def enumerate_S(K: Hypergraph, e: int, d: int) -> list[tuple[int, ...]]:
    """All e-edge subgraphs of the packing ``K`` with defect exactly ``d``.

    Defect ``u*|S| - |V(S)|`` (``u`` = K's uniformity) never decreases as
    edges are added, so an answer spans exactly ``u*e - d`` vertices and
    each of its prefixes at most that many: the answers are the e-subsets
    within that budget whose union has exactly ``u*e - d`` vertices.
    """
    if e < 1:
        raise ValueError(f"need at least one edge, got e={e}")
    if d < 0:
        raise ValueError(f"defect must be non-negative, got d={d}")
    size = K.r * e - d
    return [S for S, union in _fitting_subsets(K.edge_masks, e, size) if union.bit_count() == size]


def _has_isolated_edge(masks: Sequence[int], subset: Iterable[int]) -> bool:
    idx = list(subset)
    for i in idx:
        others = 0
        for j in idx:
            if j != i:
                others |= masks[j]
        if masks[i] & others == 0:
            return True
    return False


@dataclass(frozen=True)
class PackingPairGraph:
    """A bipartite relation between the cliques of two packings.

    ``edges`` holds (index into k1, index into k2) pairs.
    """

    k1: Hypergraph
    k2: Hypergraph
    edges: frozenset[tuple[int, int]]


# (e1, d1, e2, d2, require-no-isolated-edge-on-the-extended-side)
_CONFLICT_FAMILIES: dict[str, tuple[int, int, int, int, bool]] = {
    "C(3,3;2,1)": (3, 3, 2, 1, False),
    "C(4,4;3,2)": (4, 4, 3, 2, False),
    "C(4,5;2,1)": (4, 5, 2, 1, False),
    "C(5,7;2,1)": (5, 7, 2, 1, False),
    "C'(4,3;3,3)": (4, 3, 3, 3, True),
}


def conflict_family_ids() -> list[str]:
    return list(_CONFLICT_FAMILIES)


def enumerate_conflicts(H: PackingPairGraph, family: str) -> list[tuple[tuple[int, int], ...]]:
    """All conflicts of one family: matchings in ``H`` pairing an (e2, d2)
    subgraph of one packing with cliques extending to an (e1, d1) subgraph
    of the other.  Symmetric in the two sides; each conflict is returned
    once, as a sorted tuple of (k1 index, k2 index) pairs.  The walk is
    :func:`_conflict_walk`'s, keeping every conflict.
    """
    if family not in _CONFLICT_FAMILIES:
        raise Unknown(f"unknown conflict family {family!r}")
    return _conflict_walk(H, [family], H.edges)[family][1]


def _conflict_walk(
    H: PackingPairGraph, families: Sequence[str], keep: Iterable[tuple[int, int]]
) -> dict[str, tuple[int, list[tuple[tuple[int, int], ...]]]]:
    """Per family: how many conflicts ``H`` has, and the sorted list of
    those whose pairs all lie in ``keep``.

    Works from the matchings outward, and is exact for two reasons.  The
    host sets are enumerated only over cliques with a partner in ``H``:
    the defect ``u*|S| - |V(S)|`` depends on S alone, so these are exactly
    the (e2, d2) sets all of whose members can be matched.  Each injective
    pick of partners is then extended by the other packing's remaining
    cliques.  Adding clique K to union U changes the defect by
    ``u - |K - U| >= 0``, so the defect never falls: an extension spans
    exactly ``u*e1 - d1`` vertices with the picks, and so the search asks
    for the subsets within that budget whose union has exactly that many.
    For the same reason a pick tuple grows one member at a time and is
    dropped as soon as the picks alone exceed the budget.

    Each (host set, picks) gives a different matching, so a side's
    matchings are counted, never stored.  The second side skips the
    matchings the first side found: those whose picks are an (e2, d2) set
    of their own packing and whose members extend.  The first side's walk
    met every such pick set as a host set, so its memo already says
    whether the members extend.  The adjacency, the active-clique
    subgraphs and the host sets are built once for all the families.
    """
    adjs: tuple[dict[int, list[int]], dict[int, list[int]]] = ({}, {})
    for i, j in sorted(H.edges):
        adjs[0].setdefault(i, []).append(j)
        adjs[1].setdefault(j, []).append(i)
    kept_adjs: tuple[dict[int, set[int]], dict[int, set[int]]] = ({}, {})
    for i, j in keep:
        kept_adjs[0].setdefault(i, set()).add(j)
        kept_adjs[1].setdefault(j, set()).add(i)
    packs = (H.k1, H.k2)
    actives = [sorted(adj) for adj in adjs]
    subs = [packs[s].subgraph(actives[s]) for s in (0, 1)]
    hosts: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}
    out = {}
    for family in families:
        e1, d1, e2, d2, no_isolated = _CONFLICT_FAMILIES[family]
        count = 0
        kept: list[tuple[tuple[int, int], ...]] = []
        extends: tuple[dict[frozenset[int], bool], ...] = ({}, {})
        for s in (0, 1):
            other = packs[1 - s]
            u = other.r
            size = u * e1 - d1
            if math.comb(size, u) < e1:
                continue  # e1 distinct u-cliques do not fit on u*e1 - d1 vertices
            masks = other.edge_masks
            adj, kept_adj, memo, active = adjs[s], kept_adjs[s], extends[s], actives[s]
            if (s, e2, d2) not in hosts:
                hosts[s, e2, d2] = enumerate_S(subs[s], e2, d2)
            for S in hosts[s, e2, d2]:
                members = [active[x] for x in S]
                found_first = s == 1 and extends[0].get(frozenset(members), False)
                chosen = [kept_adj.get(v) for v in members]
                if not all(chosen):
                    chosen = None
                picked: list[tuple[tuple[int, ...], int]] = [((), 0)]
                for v in members:
                    picked = [
                        (picks + (c,), grown)
                        for picks, base in picked
                        for c in adj[v]
                        if c not in picks and (grown := base | masks[c]).bit_count() <= size
                    ]
                for picks, base in picked:
                    key = frozenset(picks)
                    ext = memo.get(key)
                    if ext is None:
                        ext = memo[key] = any(
                            union.bit_count() == size
                            and key.isdisjoint(T)
                            and not (no_isolated and _has_isolated_edge(masks, key.union(T)))
                            for T, union in _fitting_subsets(masks, e1 - e2, size, base)
                        )
                    if not ext:
                        continue
                    # the picks are the first packing's cliques here
                    if found_first and u * e2 - base.bit_count() == d2:
                        continue
                    count += 1
                    if chosen and all(p in c for p, c in zip(picks, chosen)):
                        pairs = zip(members, picks) if s == 0 else sorted(zip(picks, members))
                        kept.append(tuple(pairs))
        out[family] = (count, sorted(kept))
    return out


# ---------------------------------------------------------------------------
# Randomized two-sided packing construction


@dataclass(frozen=True)
class RandomParams:
    """Knobs of the randomized construction.

    ``alpha`` and ``mu`` are exact fractions in (0, 1); the first-side
    density is ``alpha**(3/4)`` (floated only at the sampling comparison).
    """

    r: int
    m: int
    alpha: Fraction
    mu: Fraction
    girth_cap: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.r < 4:
            raise ValueError(f"the pipeline needs r >= 4, got {self.r}")
        if self.m < self.r:
            raise ValueError(f"need at least r={self.r} vertices, got m={self.m}")
        for name in ("alpha", "mu"):
            val = getattr(self, name)
            if not isinstance(val, Fraction):
                object.__setattr__(self, name, Fraction(val))
            val = getattr(self, name)
            if not 0 < val < 1:
                raise ValueError(f"{name} must lie strictly between 0 and 1")
        if self.girth_cap < 2:
            raise ValueError(f"girth cap must be at least 2, got {self.girth_cap}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class ConstructionReport:
    """What the construction produced and which checks it passed."""

    F: Hypergraph
    freeness_facts: dict[tuple[int, int], FreenessResult]
    shadow_size: int
    p_le_3_size: int
    ratio: Fraction
    aux: dict = field(default_factory=dict)


def _substream(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _cliques(adj: list[set[int]], m: int, size: int) -> list[tuple[int, ...]]:
    """All cliques of the given order, in lexicographic vertex order."""
    out: list[tuple[int, ...]] = []

    def grow(clique: list[int], common: set[int]) -> None:
        if len(clique) == size:
            out.append(tuple(clique))
            return
        for v in sorted(common):
            if v > clique[-1]:
                grow(clique + [v], common & adj[v])

    for v in range(m):
        grow([v], adj[v])
    return out


def _packing_girth_ok(
    masks: list[int], new_mask: int, u: int, cap: int
) -> bool:
    """Would adding the new clique keep hypergraph girth above ``cap``?

    Checks every ell in [2, cap] for ell cliques (including the new one)
    on at most (u-2)*ell + 2 vertices, up to ell = len(masks) + 1, all the
    cliques there are.  Vacuous for 2-uniform packings.
    """
    if u <= 2:
        return True
    for ell in range(2, min(cap, len(masks) + 1) + 1):
        if _config_search(masks, ell - 1, (u - 2) * ell + 2, base=new_mask) is not None:
            return False
    return True


def _cross_relation(
    packing: Sequence[tuple[int, ...]], rows: Sequence[int]
) -> list[tuple[int, int]]:
    """The pairs (i, j) of cliques with every cross pair (a in clique i,
    b in clique j) in G3, in (i, j) order.  ``rows[a]`` is the mask of the
    side-2 vertices joined to a, so the rows of clique i's vertices AND to
    its common cross neighbourhood, and j is related when its vertex mask
    lies inside it."""
    masks = [_mask(K) for K in packing]
    out: list[tuple[int, int]] = []
    for i, K in enumerate(packing):
        common = -1
        for a in K:
            common &= rows[a]
        out.extend((i, j) for j, mj in enumerate(masks) if mj & common == mj)
    return out


def random_packing_construction(params: RandomParams) -> ConstructionReport:
    """Run the full randomized pipeline and verify the outcome.

    Stages: sample side graph G1 (density alpha**(3/4)) and mirror it; pack
    edge-disjoint (r-2)-cliques greedily with girth above the cap; sample
    the bipartite cross graph G3 (density alpha); relate cliques across
    sides when all (r-2)^2 cross pairs are present (one G3 row mask per
    side-1 vertex, see :func:`_cross_relation`); select relations with
    probability mu/d where d = alpha^((r-2)^2) * t; drop selections that
    overlap or fully realize a conflict; blow each survivor up into two
    r-edges through a fresh vertex pair.

    The conflict counts in ``aux`` come without listing the conflicts: one
    :func:`_conflict_walk` over H counts all five families and, in the same
    pass, lists only the fully chosen conflicts (all pairs selected).

    Sampling is bit-exact: each stage draws 53-bit-mantissa uniforms from
    its own substream in a fixed iteration order and accepts when the draw
    is strictly below the threshold (``beta`` floats alpha**0.75; the
    selection threshold is the float of the exact mu/d, both recorded in
    ``aux``).  ``d`` and all reported ratios stay exact rationals.
    """
    r, m = params.r, params.m
    u = r - 2
    beta = float(params.alpha) ** 0.75
    rng1 = _substream(params.seed, "G1")
    pairs = list(itertools.combinations(range(m), 2))
    g1_edges = [p for p in pairs if rng1.random() < beta]
    adj: list[set[int]] = [set() for _ in range(m)]
    for a, b in g1_edges:
        adj[a].add(b)
        adj[b].add(a)

    cliques = _cliques(adj, m, u)
    packing: list[tuple[int, ...]] = []
    packing_masks: list[int] = []
    # The girth check keeps the packing edge-disjoint: two cliques sharing a
    # pair lie on at most 2u - 2 vertices, which its ell = 2 query rejects
    # (the cap is at least 2), and distinct 2-cliques share no pair.
    for K in cliques:
        kmask = _mask(K)
        if not _packing_girth_ok(packing_masks, kmask, u, params.girth_cap):
            continue
        packing.append(K)
        packing_masks.append(kmask)
    t = len(packing)

    rng3 = _substream(params.seed, "G3")
    alpha_f = float(params.alpha)
    # rows[a]: the side-2 vertices b with (a, b) in G3, drawn in (a, b) order
    rows = [_mask(b for b in range(m) if rng3.random() < alpha_f) for _ in range(m)]
    h_edges = _cross_relation(packing, rows)

    d = params.alpha ** (u * u) * t
    if d > 0:
        select_threshold: Optional[Fraction] = params.mu / d
        thr_f = float(select_threshold)
    else:
        select_threshold = None
        thr_f = 0.0
    rng_h = _substream(params.seed, "Hselect")
    selected = [e for e in h_edges if rng_h.random() < thr_f]

    side1_count: dict[int, int] = {}
    side2_count: dict[int, int] = {}
    for i, j in selected:
        side1_count[i] = side1_count.get(i, 0) + 1
        side2_count[j] = side2_count.get(j, 0) + 1
    overlapping = {
        e for e in selected if side1_count[e[0]] > 1 or side2_count[e[1]] > 1
    }

    k_graph = build(u, m, packing)
    H = PackingPairGraph(k1=k_graph, k2=k_graph, edges=frozenset(h_edges))
    walk = _conflict_walk(H, conflict_family_ids(), selected)
    conflict_counts = {fam: count for fam, (count, _) in walk.items()}
    fully_chosen_counts = {fam: len(fully) for fam, (_, fully) in walk.items()}
    conflicted = {e for _, fully in walk.values() for c in fully for e in c}

    matches = [e for e in selected if e not in overlapping and e not in conflicted]
    n_out = 2 * m + 2 * len(matches)
    out_edges: list[tuple[int, ...]] = []
    for pos, (i, j) in enumerate(matches):
        x, y = 2 * m + 2 * pos, 2 * m + 2 * pos + 1
        out_edges.append(tuple(packing[i]) + (x, y))
        out_edges.append(tuple(v + m for v in packing[j]) + (x, y))
    F = build(r, n_out, out_edges)

    checks = [
        (2 * r - 3, 2),
        (3 * r - 5, 3),
        (3 * r - 4, 3),
        (4 * r - 7, 4),
        (5 * r - 8, 5),
        (6 * r - 11, 6),
        (7 * r - 12, 7),
    ]
    facts: dict[tuple[int, int], FreenessResult] = {}
    for s, kq in checks:
        w = find_configuration(F, ConfigQuery(kq, s))
        facts[(s, kq)] = FreenessResult(w is None, w, ConfigQuery(kq, s) if w else None)

    p1 = shadow(F)
    p_le3 = pairs_claimed_upto(F, 3) if F.edges else set()
    cross_ok = True
    for p in p_le3 - p1:
        a, b = p
        if not (a < m <= b < 2 * m and rows[a] >> (b - m) & 1):
            cross_ok = False
            break
    ratio = Fraction(len(F.edges), 2 * len(p_le3)) if p_le3 else Fraction(0)

    covered = t * (u * (u - 1) // 2)
    aux = {
        "beta": beta,
        "g1_edges": len(g1_edges),
        "g2_edges": len(g1_edges),
        "g3_edges": sum(row.bit_count() for row in rows),
        "k1_size": t,
        "k2_size": t,
        "coverage": str(Fraction(covered, len(g1_edges))) if g1_edges else "0",
        "h_edges": len(h_edges),
        "selected": len(selected),
        "overlap_removed": len(overlapping),
        "conflict_removed": len(conflicted),
        "m_size": len(matches),
        "m_expected": str(params.mu * len(h_edges) / d) if d > 0 else "0",
        "empty_packing": t == 0,
        "d": str(d),
        "select_threshold": str(select_threshold) if select_threshold is not None else None,
        "conflicts": conflict_counts,
        "fully_chosen_conflicts": fully_chosen_counts,
        "p_le3_minus_p1_in_g3": cross_ok,
    }
    return ConstructionReport(
        F=F,
        freeness_facts=facts,
        shadow_size=len(p1),
        p_le_3_size=len(p_le3),
        ratio=ratio,
        aux=aux,
    )


def construction_doc(rep: ConstructionReport) -> dict:
    """JSON-ready view of a construction report."""
    return {
        "graph": graph_doc(rep.F),
        "freeness": [
            {
                "edge_count": kq,
                "max_vertices": s,
                "free": res.free,
                "witness": list(res.witness) if res.witness is not None else None,
            }
            for (s, kq), res in sorted(rep.freeness_facts.items())
        ],
        "shadow_size": rep.shadow_size,
        "p_le_3_size": rep.p_le_3_size,
        "ratio": str(rep.ratio),
        "aux": rep.aux,
    }


# ---------------------------------------------------------------------------
# Derived limits for coloring thresholds


def gr_limit(p: int) -> Fraction:
    """Quadratic coloring-threshold limits for p in {12, 14, 16}."""
    if p not in (12, 14, 16):
        raise Unknown(f"no quadratic limit recorded for p={p}")
    return Fraction(1, 2) - limit_table(4, p // 2 - 1)


def gr_linear_bounds() -> dict[int, Fraction]:
    """Linear coloring-threshold lower bounds for p in {7, 8, 9}."""
    return {p: 1 - limit_table(3, p - 2) for p in (7, 8, 9)}
