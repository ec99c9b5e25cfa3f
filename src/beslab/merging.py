"""Edge-set partitions refined by claim-based merging.

A partition of a graph's edge set is coarsened by repeatedly uniting two
parts that both claim a common vertex pair strongly enough for the active
rule.  Claims only grow under union, so the fixpoint is independent of the
merge order; the default schedule is deterministic so traces reproduce.

An *i-tree* grows from one edge by edges that each meet the union so far
in exactly one pair, lying inside an earlier edge.  Edges are
*pair-connected* when linked through edges sharing at least two vertices.

**Tree lemma.**  m >= 1 edges form an i-tree exactly when they are
pair-connected and span (r-2)*m + 2 vertices.  *Proof.*  Order the edges
so that each edge after the first shares a pair with an earlier edge.
Each edge then adds at most r - 2 new vertices.  Equality holds exactly
when each edge meets the union so far in that pair alone, and then the
order grows an i-tree.  Conversely, a tree's growing order is such an
order, with equality.

**m11 corollary.**  In a graph free of the family for k, an m11 cluster
(a pair-connected component) has at most k - 1 edges and is a tree.  In
an order as above, the first j edges span at most (r-2)*j + 2 vertices:
fewer for 2 <= j < k would be a denser member, and j = k edges the main
configuration, so the lemma applies.  ``weights._deficit_pair`` decides
trees by it, and checks pair-connectedness too: ``merge`` labels the
``RULE_11`` closure of any start without rules "m11", and the Pasch
configuration {012, 034, 135, 245} spans (3-2)*4 + 2 vertices with no
two edges sharing a pair.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional

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
    two sides (either orientation of either variant).  Each rule is a list
    of such claim-bit clauses over the parts' states (see ``_make_state``).
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
        tests, with bit i for claim index i.  For ``two_plus`` bit 2 stands
        for the 2+ pairs (see ``_make_state``)."""
        if self.kind == "sets":
            a, b = (sum(1 << i for i in s) for s in (self.A, self.B))
            return ((a, b, ("left_A", "right_A")),)
        if self.kind == "two_plus":
            return ((0b10, 0b100, ("left_1", "right_1")),)
        return (  # {1}|{3,4} and {1,2}|{3}
            (0b10, 0b11000, ("left_1_34", "right_1_34")),
            (0b110, 0b1000, ("left_12_3", "right_12_3")),
        )

    @cached_property
    def claim_cap(self) -> int:
        if self.kind == "sets":
            return max(max(self.A), max(self.B))
        if self.kind == "two_plus":
            return 1  # bit 2 holds the 2+ pairs, not 2-claims
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
    trace: tuple[MergeEvent, ...]
    stage: str
    ambient: Hypergraph

    @cached_property
    def part(self) -> Hypergraph:
        """The cluster's edges as a graph of their own (same r and n)."""
        return self.ambient.subgraph(self.edge_indices)


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


def trivial_partition(G: Hypergraph) -> Partition:
    """Every edge in its own cluster; cluster id = edge index."""
    clusters = tuple(
        Cluster(
            id=i,
            edge_indices=(i,),
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


def _make_state(G: Hypergraph, edges: tuple[int, ...], rule: MergeRule) -> ClaimProfile:
    """The part's claim profile up to ``rule.claim_cap``, which is all that
    ``rule``'s clauses read.

    One edge spans (r-2)*1 + 2 vertices, so it 1-claims exactly its own
    pairs, and no edge is wide.  So a one-edge part, or any part under a
    cap-1 rule, has the profile of its shadow at index 1 (bit 1), the one
    ``claim_profile`` would build.

    Under ``two_plus`` (cap 1) bit 2 marks the 2+ pairs, ``tp_pair_set`` of
    the part, and no others.  It never claims too much: two edges of the
    3-edge subtree fit with such a pair in 2r - 2 vertices, so the part does
    2-claim it.  A 3-edge subtree needs three edges.
    """
    if len(edges) > 1 and rule.claim_cap > 1:
        return claim_profile(G.subgraph(edges), rule.claim_cap)
    pair_bits = {Pair(u, v): 2 for i in edges for u, v in itertools.combinations(G.edges[i], 2)}
    if rule.kind == "two_plus" and len(edges) >= 3:
        for pair in tp_pair_set(G.subgraph(edges)):
            pair_bits[pair] = pair_bits.get(pair, 0) | 4
    return ClaimProfile(0, {}, pair_bits)


def _sets_witness(
    pp: ClaimProfile, qp: ClaimProfile, a_bits: int, b_bits: int, n: int, tags: tuple[str, str]
) -> Optional[tuple[Pair, str]]:
    """Smallest (pair, direction) making the two parts mergeable, if any.

    Only pairs inside T, the vertices either profile names in
    ``vertex_bits`` or ``pair_bits``, can have bits of their own: a pair
    (t, w) with w outside T has the bits of (t, w0) for w0 the smallest
    vertex outside T, and a pair with no vertex in T those of the two
    smallest vertices outside T.  So the wide scan covers T plus those two.
    """
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
    pp: ClaimProfile, qp: ClaimProfile, rule: MergeRule, n: int
) -> Optional[tuple[Pair, str]]:
    """Witness (pair, direction) if the two parts merge under ``rule``."""
    found = [_sets_witness(pp, qp, a, b, n, tags) for a, b, tags in rule.clauses]
    return min((w for w in found if w is not None), default=None)


# A rule's candidate finder is given the start parts (id -> sorted edges) and
# ``push(i, j, witness)`` for i < j.  It pushes every mergeable pair of start
# parts and returns ``join(i, j, new, edges)``, which, once parts i and j
# have become ``new`` (the largest id yet) with ``edges``, pushes every
# live part mergeable with ``new``.  The aliases exist for type checkers
# only: built at run time, typing's cache would keep every re-import's
# classes (and modules) alive.
if TYPE_CHECKING:
    _Push = Callable[[int, int, tuple[Pair, str]], None]
    _Join = Callable[[int, int, int, tuple[int, ...]], None]


def _by_claims(
    G: Hypergraph, parts: dict[int, tuple[int, ...]], rule: MergeRule, push: _Push
) -> _Join:
    """Candidates by ``_mergeable``, against the parts sharing a key pair."""
    states: dict[int, ClaimProfile] = {}
    holders: dict[Pair, set[int]] = {}
    wide: set[int] = set()

    def file(new: int, edges: tuple[int, ...]) -> None:
        st = _make_state(G, edges, rule)
        found: set[int] = set(wide)
        for pair in st.pair_bits:
            ids = holders.get(pair)
            if ids is None:
                holders[pair] = {new}
            else:
                found |= ids
                ids.add(new)
        if st.has_wide_evidence:
            found = set(states)
            wide.add(new)
        for other in found:
            w = _mergeable(states[other], st, rule, G.n)
            if w is not None:
                push(other, new, w)
        states[new] = st

    def unfile(old: int) -> None:
        for pair in states.pop(old).pair_bits:
            holders[pair].discard(old)
        wide.discard(old)

    def join(i: int, j: int, new: int, edges: tuple[int, ...]) -> None:
        unfile(i)
        unfile(j)
        file(new, edges)

    for cid in sorted(parts):
        file(cid, parts[cid])
    return join


def _by_contraction(G: Hypergraph, parts: dict[int, tuple[int, ...]], push: _Push) -> _Join:
    """Candidates under ``RULE_11`` from the neighbour maps of the two halves."""
    holders: dict[tuple[int, int], list[int]] = {}  # shadow pair -> parts, ascending
    for cid in sorted(parts):
        for i in parts[cid]:
            for uv in itertools.combinations(G.edges[i], 2):
                ids = holders.get(uv)
                if ids is None:
                    holders[uv] = [cid]
                elif ids[-1] != cid:
                    ids.append(cid)
    near: dict[int, dict[int, Pair]] = {cid: {} for cid in parts}  # part -> neighbour -> witness
    for uv in sorted(uv for uv, ids in holders.items() if len(ids) > 1):
        pair = Pair(*uv)
        for a, b in itertools.combinations(holders[uv], 2):  # a < b
            if b not in near[a]:  # pairs come in order, so the first is the witness
                near[a][b] = near[b][a] = pair
                push(a, b, (pair, "left_A"))

    def join(i: int, j: int, new: int, edges: tuple[int, ...]) -> None:
        row, other = near.pop(i), near.pop(j)
        del row[j], other[i]
        if len(row) < len(other):
            row, other = other, row
        for o, pair in other.items():
            kept = row.get(o)
            if kept is None or pair < kept:
                row[o] = pair
        for o, pair in row.items():
            there = near[o]
            there.pop(i, None)
            there.pop(j, None)
            there[new] = pair
            push(o, new, (pair, "left_A"))
        near[new] = row

    return join


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
    when it comes up.  The random schedule keeps only the live candidates,
    in one sorted list, and drops a merged part's entries through an index
    of the entries that name each part.

    Two parts can only have a witness if they share a key pair (a pair in
    their profiles' ``pair_bits``) or one of them has wide evidence, so under every rule but ``RULE_11`` parts are
    indexed by key pair and each new part is checked only against the parts
    sharing one of its keys plus the wide parts (a wide new part against
    all parts).  No part that
    ``certify`` builds is wide: a wide claim at index i needs i edges on at
    most (r-2)*i + 1 vertices, which one edge (r vertices) never fits and
    which for 2 <= i < k is a denser member of the family the graph is free
    of, and every ``rule_for`` case merges with claim caps at most k - 1.

    **Contraction lemma.**  Under ``RULE_11`` a part's claims are exactly
    its shadow (its state at cap 1), and shadow(P | Q) = shadow(P) |
    shadow(Q).  So a part O can merge with P | Q exactly when it can merge
    with P or with Q, and the witness, the smallest shared pair, is the
    smaller of those two witnesses.  Both orientations hold for every
    shared pair, so the direction is always ``left_A``.  Under ``RULE_11``
    each live part therefore keeps a map from each neighbour to their
    witness, and a merge combines the two halves' maps, with no part state
    and no ``_mergeable`` call.
    """
    if start.ambient != G:
        raise ValueError("start partition does not belong to this graph")
    parts = {c.id: (tuple(sorted(c.edge_indices)), c.trace) for c in start.clusters}
    # (i, j, pair, direction) entries: a heap, or with ``rng`` a sorted list
    cands: list[tuple[int, int, Pair, str]] = []
    naming: dict[int, list[tuple[int, int, Pair, str]]] = {}  # part -> its entries

    def push(i: int, j: int, w: tuple[Pair, str]) -> None:
        entry = (i, j) + w
        if rng is None:
            heapq.heappush(cands, entry)
        else:
            bisect.insort(cands, entry)
            naming.setdefault(i, []).append(entry)
            naming.setdefault(j, []).append(entry)

    start_edges = {cid: edges for cid, (edges, _) in parts.items()}
    if rule == RULE_11:
        join = _by_contraction(G, start_edges, push)
    else:
        join = _by_claims(G, start_edges, rule, push)
    next_id = max(parts, default=-1) + 1
    while True:
        if rng is None:
            while cands and not (cands[0][0] in parts and cands[0][1] in parts):
                heapq.heappop(cands)
            if not cands:
                break
            i, j, pair, direction = heapq.heappop(cands)
        else:
            if not cands:
                break
            i, j, pair, direction = cands[rng.randrange(len(cands))]
            for entry in naming.pop(i) + naming.pop(j):
                at = bisect.bisect_left(cands, entry)
                if at < len(cands) and cands[at] == entry:
                    del cands[at]
        (ei, ti), (ej, tj) = parts.pop(i), parts.pop(j)
        edges = tuple(sorted(ei + ej))
        parts[next_id] = (edges, ti + tj + (MergeEvent(next_id, i, j, pair, direction),))
        join(i, j, next_id, edges)
        next_id += 1
    rule_stack = start.rule_stack + (rule,)
    stage = _STAGE_NAMES.get(rule_stack, "custom")
    ordered = sorted(parts.items(), key=lambda kv: kv[1][0][0] if kv[1][0] else -1)
    clusters = tuple(
        Cluster(
            id=cid,
            edge_indices=edges,
            trace=trace,
            stage=stage,
            ambient=G,
        )
        for cid, (edges, trace) in ordered
    )
    return Partition(G, clusters, rule_stack, stage)


def m11(G: Hypergraph, rng: Optional[random.Random] = None) -> Partition:
    """Maximal parts connected through shared pairs: {1}|{1}-merging of edges."""
    return merge(G, trivial_partition(G), RULE_11, rng=rng)


def m12(G: Hypergraph, rng: Optional[random.Random] = None) -> Partition:
    """{1}|{2}-merging on top of :func:`m11`; ``rng`` orders this round only."""
    return merge(G, m11(G), RULE_12, rng=rng)


def m2plus(G: Hypergraph, rng: Optional[random.Random] = None) -> Partition:
    """{1}|2+-merging (subtree 2-claims) on :func:`m11`; ``rng`` orders this round only."""
    return merge(G, m11(G), RULE_2PLUS, rng=rng)


def m3plus(G: Hypergraph, rng: Optional[random.Random] = None) -> Partition:
    """{1}|{3,4}- and {1,2}|{3}-merging on :func:`m12`; ``rng`` orders this round only."""
    return merge(G, m12(G), RULE_3PLUS, rng=rng)


STAGES: dict[str, Callable[..., Partition]] = {
    "m11": m11,
    "m12": m12,
    "m2plus": m2plus,
    "m3plus": m3plus,
}


def composition(c: Cluster) -> tuple[int, ...]:
    """Sizes of the cluster's pair-connected components, largest first.

    For clusters built over an m11 base these components are exactly the
    original m11 constituents (edges in different constituents never share
    two vertices).
    """
    return tuple(sorted((len(comp) for comp in _pair_components(c.part)), reverse=True))


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
                "composition": list(composition(c)),
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
