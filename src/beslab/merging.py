"""Edge-set partitions refined by claim-based merging.

A partition of a graph's edge set is coarsened by repeatedly uniting two
parts that both claim a common vertex pair strongly enough for the active
rule.  Claims only grow under union, so the fixpoint is independent of the
merge order; the default schedule is deterministic so traces reproduce.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional

from .hypergraphs import (
    ClaimProfile,
    Hypergraph,
    Pair,
    _incidence,
    _mask_to_list,
    claim_profile,
)


@dataclass(frozen=True)
class MergeRule:
    """One merging criterion.

    ``sets(A, B)``: unite parts P, Q when some pair is A-claimed by one and
    B-claimed by the other (either orientation).  ``two_plus()``: one side
    1-claims the pair, the other has a 3-edge subtree 2-claiming it.
    ``three_plus()``: the pair is {1}|{3,4}- or {1,2}|{3}-claimed across the
    two sides (either orientation of either variant).
    """

    kind: str  # "sets" | "two_plus" | "three_plus"
    A: frozenset[int] = frozenset()
    B: frozenset[int] = frozenset()

    @staticmethod
    def sets(A: Iterable[int], B: Iterable[int]) -> "MergeRule":
        fa, fb = frozenset(A), frozenset(B)
        if not fa or not fb:
            raise ValueError("claim sets A and B must be non-empty")
        if min(fa) < 1 or min(fb) < 1:
            raise ValueError("claim indices in A and B must be positive")
        return MergeRule("sets", fa, fb)

    @staticmethod
    def two_plus() -> "MergeRule":
        return MergeRule("two_plus")

    @staticmethod
    def three_plus() -> "MergeRule":
        return MergeRule("three_plus")

    @cached_property
    def clauses(self) -> tuple[tuple[int, int, tuple[str, str]], ...]:
        """(A bits, B bits, direction tags) of each claim-set clause the rule
        tests, with bit i for claim index i; none for ``two_plus``."""
        if self.kind == "sets":
            a, b = (sum(1 << i for i in s) for s in (self.A, self.B))
            return ((a, b, ("left_A", "right_A")),)
        if self.kind == "three_plus":  # {1}|{3,4} and {1,2}|{3}
            return (
                (0b10, 0b11000, ("left_1_34", "right_1_34")),
                (0b110, 0b1000, ("left_12_3", "right_12_3")),
            )
        return ()

    @property
    def claim_cap(self) -> int:
        if self.kind == "sets":
            return max(max(self.A), max(self.B))
        if self.kind == "two_plus":
            return 1  # the 2+ side uses subtree evidence, not the profile
        return 4


RULE_11 = MergeRule.sets({1}, {1})
RULE_12 = MergeRule.sets({1}, {2})
RULE_2PLUS = MergeRule.two_plus()
RULE_3PLUS = MergeRule.three_plus()

_STAGE_NAMES: dict[tuple[MergeRule, ...], str] = {
    (): "trivial",
    (RULE_11,): "m11",
    (RULE_11, RULE_12): "m12",
    (RULE_11, RULE_2PLUS): "m2plus",
    (RULE_11, RULE_12, RULE_3PLUS): "m3plus",
}


class MergeEvent(NamedTuple):
    """One merge step: parts ``left`` and ``right`` became ``new_id``.

    ``pair`` is the witnessing vertex pair and ``direction`` records which
    side supplied which half of the rule (e.g. ``left_A`` means the left
    part A-claims the pair and the right part B-claims it).
    """

    new_id: int
    left: int
    right: int
    pair: Pair
    direction: str


@dataclass(frozen=True)
class Cluster:
    """One part of a partition, with the trace of merges that built it."""

    id: int
    edge_indices: tuple[int, ...]
    part: Hypergraph
    trace: tuple[MergeEvent, ...]
    stage: str
    ambient: Hypergraph


@dataclass(frozen=True)
class Partition:
    """A partition of the ambient graph's edge set into clusters."""

    ambient: Hypergraph
    clusters: tuple[Cluster, ...]
    rule_stack: tuple[MergeRule, ...]
    stage: str

    def cluster_of_edge(self, edge_index: int) -> Cluster:
        for c in self.clusters:
            if edge_index in c.edge_indices:
                return c
        raise KeyError(f"edge index {edge_index} not in any cluster")

    def edge_sets(self) -> set[frozenset[int]]:
        """The partition as a plain set of frozensets (order-free identity)."""
        return {frozenset(c.edge_indices) for c in self.clusters}


@dataclass(frozen=True)
class Composition:
    """Sizes of a cluster's pair-connected components, non-increasing."""

    sizes: tuple[int, ...]


def trivial_partition(G: Hypergraph) -> Partition:
    """Every edge in its own cluster; cluster id = edge index."""
    clusters = tuple(
        Cluster(
            id=i,
            edge_indices=(i,),
            part=G.subgraph([i]),
            trace=(),
            stage="trivial",
            ambient=G,
        )
        for i in range(len(G.edges))
    )
    return Partition(G, clusters, (), "trivial")


def tp_pair_set(F: Hypergraph) -> frozenset[Pair]:
    """Pairs 2-claimed by some 3-edge subtree of ``F``.

    Two edges of a 3-edge tree span 2r - 2 vertices when they share two
    (a diamond) and more otherwise, so the tree 2-claims exactly the pairs
    spanned by its diamonds.

    **Lemma.**  Let edges a and b share exactly two vertices.  Then
    {a, b, c} is a 3-edge tree exactly when c meets V(a) | V(b) in two
    vertices that lie both in a or both in b.  *Proof.*  If so, the order
    a, b, c grows the tree.  Conversely, a 3-edge tree spans 3r - 4
    vertices and a, b span 2r - 2, so c meets them in two vertices.  If c
    is the last edge of a growing order, the tree rule puts those two in a
    or in b.  If not, c shares exactly two vertices with the edge next to
    it in the order, which is a or b, and those are all of c's two.

    So the 2+ pairs are the pairs spanned by the diamonds that have such a
    third edge.
    """
    masks = F.edge_masks
    incidence = _incidence(F)
    out: set[Pair] = set()
    for a, ma in enumerate(masks):
        near = 0
        for v in F.edges[a]:
            near |= incidence[v]
        for b in _mask_to_list(near & -(2 << a)):  # the later edges that meet a
            mb = masks[b]
            if (ma & mb).bit_count() != 2:
                continue
            union = ma | mb
            vs = _mask_to_list(union)
            reach = 0
            for v in vs:
                reach |= incidence[v]
            meets = (masks[c] & union for c in _mask_to_list(reach & ~(1 << a | 1 << b)))
            if any(t.bit_count() == 2 and (t & ma == t or t & mb == t) for t in meets):
                out.update(Pair(x, y) for x, y in itertools.combinations(vs, 2))
    return frozenset(out)


@dataclass
class _PartState:
    edges: tuple[int, ...]
    trace: tuple[MergeEvent, ...]
    profile: ClaimProfile
    one_pairs: frozenset[Pair]
    tp_pairs: Optional[frozenset[Pair]]


def _make_state(
    G: Hypergraph,
    edges: tuple[int, ...],
    trace: tuple[MergeEvent, ...],
    rule: MergeRule,
) -> _PartState:
    if len(edges) == 1:
        # One edge spans (r-2)*1 + 2 vertices, so it 1-claims exactly its own
        # pairs, has no wide evidence and no 3-edge subtree: the profile
        # claim_profile would build, in closed form (every claim_cap >= 1).
        pair_bits = {Pair(u, v): 2 for u, v in itertools.combinations(G.edges[edges[0]], 2)}
        prof = ClaimProfile(
            r=G.r, n=G.n, cap=rule.claim_cap, edge_count=1, all_bits=0, vertex_bits={},
            pair_bits=pair_bits,
        )
        one = frozenset(pair_bits)
        tp = frozenset() if rule.kind == "two_plus" else None
        return _PartState(edges=tuple(edges), trace=trace, profile=prof, one_pairs=one, tp_pairs=tp)
    part = G.subgraph(edges)
    prof = claim_profile(part, rule.claim_cap)
    one = frozenset(p for p, b in prof.pair_bits.items() if b & 2)
    tp = tp_pair_set(part) if rule.kind == "two_plus" else None
    return _PartState(
        edges=tuple(sorted(edges)), trace=trace, profile=prof, one_pairs=one, tp_pairs=tp
    )


def _sets_witness(
    sp: _PartState, sq: _PartState, a_bits: int, b_bits: int, n: int, tags: tuple[str, str]
) -> Optional[tuple[Pair, str]]:
    """Smallest (pair, direction) making the two parts mergeable, if any.

    Only pairs inside T, the vertices either profile names in
    ``vertex_bits`` or ``pair_bits``, can have bits of their own: a pair
    (t, w) with w outside T has the bits of (t, w0) for w0 the smallest
    vertex outside T, and a pair with no vertex in T those of the two
    smallest vertices outside T.  So the wide scan covers T plus those two.
    """
    pp, qp = sp.profile, sq.profile
    if not (pp.has_wide_evidence or qp.has_wide_evidence):
        small, big = (pp, qp) if len(pp.pair_bits) <= len(qp.pair_bits) else (qp, pp)
        rows = [
            (pair, pp.pair_bits[pair], qp.pair_bits[pair])
            for pair in small.pair_bits
            if pair in big.pair_bits
        ]
    else:
        named = set(pp.vertex_bits) | set(qp.vertex_bits)
        for prof in (pp, qp):
            for pair in prof.pair_bits:
                named.update(pair)
        outside = itertools.islice((w for w in range(n) if w not in named), 2)
        rows = [
            (Pair(u, v), pp.bits(u, v), qp.bits(u, v))
            for u, v in itertools.combinations(sorted(named.union(outside)), 2)
        ]
    left_tag, right_tag = tags
    found = []
    for pair, bits_p, bits_q in rows:
        if bits_p & a_bits == a_bits and bits_q & b_bits == b_bits:
            found.append((pair, left_tag))
        if bits_p & b_bits == b_bits and bits_q & a_bits == a_bits:
            found.append((pair, right_tag))
    return min(found, default=None)


def _mergeable(
    sp: _PartState, sq: _PartState, rule: MergeRule, n: int
) -> Optional[tuple[Pair, str]]:
    """Witness (pair, direction) if the two parts merge under ``rule``."""
    if rule.kind == "two_plus":
        assert sp.tp_pairs is not None and sq.tp_pairs is not None
        found = [(pair, "left_1") for pair in sp.one_pairs & sq.tp_pairs]
        found += [(pair, "right_1") for pair in sq.one_pairs & sp.tp_pairs]
    else:
        found = [_sets_witness(sp, sq, a, b, n, tags) for a, b, tags in rule.clauses]
    return min((w for w in found if w is not None), default=None)


def merge(
    G: Hypergraph,
    start: Partition,
    rule: MergeRule,
    rng: Optional[random.Random] = None,
) -> Partition:
    """Coarsen ``start`` under ``rule`` until no two parts are mergeable.

    The default schedule always merges the candidate with the smallest
    (smaller id, larger id); passing ``rng`` picks a random candidate
    instead (the fixpoint partition is the same either way).  Candidates
    wait in a heap, and one that names an already merged part is dropped
    when it comes up.

    Two parts can only have a witness if they share a key pair (a pair in
    ``profile.pair_bits``, or in ``tp_pairs`` for ``two_plus``) or one of
    them has wide evidence, so parts are indexed by key pair and each new
    part is checked only against the parts sharing one of its keys plus the
    wide parts (a wide new part against all parts).  No part that
    ``certify`` builds is wide: a wide claim at index i needs i edges on at
    most (r-2)*i + 1 vertices, which one edge (r vertices) never fits and
    which for 2 <= i < k is a denser member of the family the graph is free
    of, and every ``rule_for`` case merges with claim caps at most k - 1.
    """
    if start.ambient != G:
        raise ValueError("start partition does not belong to this graph")
    states: dict[int, _PartState] = {}
    holders: dict[Pair, set[int]] = {}
    wide: set[int] = set()
    cands: list[tuple[int, int, Pair, str]] = []  # a heap of (i, j, pair, direction)

    def file(new: int, st: _PartState) -> None:
        # ``new`` exceeds every filed id, so candidate keys stay (smaller, larger).
        found: set[int] = set(wide)
        for pairs in (st.profile.pair_bits, st.tp_pairs or ()):
            for pair in pairs:
                ids = holders.get(pair)
                if ids is None:
                    holders[pair] = {new}
                else:
                    found |= ids
                    ids.add(new)
        if st.profile.has_wide_evidence:
            found = set(states)
            wide.add(new)
        found.discard(new)  # a pair in both key sets already holds ``new``
        for other in found:
            w = _mergeable(states[other], st, rule, G.n)
            if w is not None:
                heapq.heappush(cands, (other, new) + w)
        states[new] = st

    def unfile(old: int) -> _PartState:
        st = states.pop(old)
        for pairs in (st.profile.pair_bits, st.tp_pairs or ()):
            for pair in pairs:
                holders[pair].discard(old)
        wide.discard(old)
        return st

    for c in sorted(start.clusters, key=lambda c: c.id):
        file(c.id, _make_state(G, c.edge_indices, c.trace, rule))
    next_id = max(states, default=-1) + 1
    while True:
        if rng is None:
            while cands and not (cands[0][0] in states and cands[0][1] in states):
                heapq.heappop(cands)
            if not cands:
                break
            i, j, pair, direction = heapq.heappop(cands)
        else:
            cands = sorted(c for c in cands if c[0] in states and c[1] in states)
            if not cands:
                break
            i, j, pair, direction = cands[rng.randrange(len(cands))]
        si, sj = unfile(i), unfile(j)
        event = MergeEvent(next_id, i, j, pair, direction)
        merged = _make_state(
            G,
            tuple(sorted(si.edges + sj.edges)),
            si.trace + sj.trace + (event,),
            rule,
        )
        file(next_id, merged)
        next_id += 1
    rule_stack = start.rule_stack + (rule,)
    stage = _STAGE_NAMES.get(rule_stack, "custom")
    ordered = sorted(states.items(), key=lambda kv: kv[1].edges[0] if kv[1].edges else -1)
    clusters = tuple(
        Cluster(
            id=cid,
            edge_indices=st.edges,
            part=G.subgraph(st.edges),
            trace=st.trace,
            stage=stage,
            ambient=G,
        )
        for cid, st in ordered
    )
    return Partition(G, clusters, rule_stack, stage)


def m11(G: Hypergraph, rng: Optional[random.Random] = None) -> Partition:
    """Maximal parts connected through shared pairs: {1}|{1}-merging of edges."""
    return merge(G, trivial_partition(G), RULE_11, rng=rng)


def m12(G: Hypergraph, rng: Optional[random.Random] = None) -> Partition:
    """{1}|{2}-merging on top of :func:`m11`."""
    return merge(G, m11(G), RULE_12, rng=rng)


def m2plus(G: Hypergraph, rng: Optional[random.Random] = None) -> Partition:
    """{1}|2+-merging (subtree 2-claims) on top of :func:`m11`."""
    return merge(G, m11(G), RULE_2PLUS, rng=rng)


def m3plus(G: Hypergraph, rng: Optional[random.Random] = None) -> Partition:
    """{1}|{3,4}- and {1,2}|{3}-merging on top of :func:`m12`."""
    return merge(G, m12(G), RULE_3PLUS, rng=rng)


STAGES: dict[str, Callable[..., Partition]] = {
    "m11": m11,
    "m12": m12,
    "m2plus": m2plus,
    "m3plus": m3plus,
}


def composition(c: Cluster) -> Composition:
    """Sizes of the cluster's pair-connected components, largest first.

    For clusters built over an m11 base these components are exactly the
    original m11 constituents (edges in different constituents never share
    two vertices).
    """
    sizes = sorted((len(comp) for comp in _pair_components(c.part)), reverse=True)
    return Composition(tuple(sizes))


def _pair_components(F: Hypergraph) -> list[tuple[int, ...]]:
    """Index sets of F's pair-connected components (indices into F.edges)."""
    m = len(F.edges)
    masks = F.edge_masks
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(m):
        for b in range(a + 1, m):
            if (masks[a] & masks[b]).bit_count() >= 2:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for a in range(m):
        groups.setdefault(find(a), []).append(a)
    return [tuple(sorted(g)) for g in sorted(groups.values())]


def rule_doc(rule: MergeRule) -> dict:
    if rule.kind == "sets":
        return {"kind": "sets", "A": sorted(rule.A), "B": sorted(rule.B)}
    return {"kind": rule.kind}


def partition_report(p: Partition) -> dict:
    """Structured document describing a partition (stable field order)."""
    return {
        "stage": p.stage,
        "rule_stack": [rule_doc(r) for r in p.rule_stack],
        "ambient": {"r": p.ambient.r, "n": p.ambient.n, "edge_count": len(p.ambient.edges)},
        "clusters": [
            {
                "id": c.id,
                "edges": list(c.edge_indices),
                "composition": list(composition(c).sizes),
                "trace": [
                    {
                        "new": ev.new_id,
                        "left": ev.left,
                        "right": ev.right,
                        "pair": [ev.pair.u, ev.pair.v],
                        "direction": ev.direction,
                    }
                    for ev in c.trace
                ],
            }
            for c in sorted(p.clusters, key=lambda c: c.edge_indices)
        ],
    }
