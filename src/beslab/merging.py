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
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import NotFree
from .hypergraphs import (
    ConfigQuery,
    Hypergraph,
    Pair,
    _fitting_subsets,
    _incidence,
    _mask_to_list,
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
    """One part of a partition, with the trace of merges that built it.

    ``state`` is the part's claim bits per key pair under the last rule of
    its stage (see ``_make_state``), as ``merge`` left them; ``None`` where
    no rule built one (``RULE_11`` merges by contraction) or the cluster was
    made by hand.  It takes no part in equality or hashing.
    """

    id: int
    edge_indices: tuple[int, ...]
    trace: tuple[MergeEvent, ...]
    stage: str
    ambient: Hypergraph
    state: Optional[dict[Pair, int]] = field(default=None, compare=False, repr=False)

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


def _claim_walk(
    G: Hypergraph,
    edges: Sequence[int],
    cap: int,
    seed: Optional[dict[Pair, int]] = None,
    start: int = 1,
) -> dict[Pair, int]:
    """The claim bits of the pairs inside the part of ``G`` with ``edges``,
    for the claim indices ``start..cap``, added to a copy of ``seed``.

    An i-subset of the part on exactly (r-2)*i + 2 vertices i-claims the
    pairs inside it, so it sets bit i on them.  One on fewer vertices is
    wide evidence: it claims pairs outside it too, and the walk raises
    :class:`NotFree` at the first one, naming it (ambient edge indices) and
    the query (i, (r-2)*i + 1).  As for ``claim_profile``, size i walks
    only the subsets within (r-2)*i + 2 vertices, in lexicographic order
    (``_fitting_subsets``), and the sizes go up.  So the first wide subset
    has the smallest wide size i, and is the first i-subset on at most
    (r-2)*i + 1 vertices, the one ``find_configuration`` names.
    """
    order = sorted(edges)
    masks = [G.edge_masks[j] for j in order]
    out = dict(seed) if seed else {}
    for i in range(start, min(cap, len(order)) + 1):
        bit = 1 << i
        budget = (G.r - 2) * i + 2
        for subset, union in _fitting_subsets(masks, i, budget):
            if union.bit_count() < budget:
                q = ConfigQuery(i, budget - 1)
                msg = f"a merged part contains {i} edges on at most {q.max_vertices} vertices"
                raise NotFree(msg, tuple(order[j] for j in subset), q)
            for a, b in itertools.combinations(_mask_to_list(union), 2):
                key = Pair(a, b)
                out[key] = out.get(key, 0) | bit
    return out


def _make_state(
    G: Hypergraph,
    edges: tuple[int, ...],
    rule: MergeRule,
    seed: Optional[dict[Pair, int]] = None,
    seed_cap: int = 0,
) -> dict[Pair, int]:
    """The part's claim bits per key pair, up to ``rule.claim_cap``, which is
    all that ``rule``'s clauses read, by ``_claim_walk``.  Raises
    :class:`NotFree` when the part has wide evidence (see ``merge``), at
    its first wide subset.

    **State lemma.**  Each claim index sets only its own bit, so a state at
    cap c is a deeper state with the bits above c cleared (and the pairs
    left without bits dropped).  Bit 1 marks exactly the shadow, and under
    ``two_plus`` bit 2 marks exactly the 2+ pairs (below).  So ``seed``,
    the part's state under a rule of cap ``seed_cap`` <= ``rule.claim_cap``,
    neither rule ``two_plus``, holds the sizes up to ``seed_cap``, and only
    the sizes above it are walked; it is copied, never changed.

    One edge spans (r-2)*1 + 2 vertices, so it 1-claims exactly its own
    pairs, and no edge is wide.  So a one-edge part, or any part under a
    cap-1 rule, has its shadow at index 1 (bit 1), the state the walk
    would build.

    Under ``two_plus`` (cap 1) bit 2 marks the 2+ pairs, ``tp_pair_set`` of
    the part, and no others.  It never claims too much: two edges of the
    3-edge subtree fit with such a pair in 2r - 2 vertices, so the part does
    2-claim it.  A 3-edge subtree needs three edges.

    **Union lemma.**  Let parts P and Q 1-claim no common pair, that is,
    share no shadow pair, and have narrow states under a rule of claim cap
    at most 2.  Then the state of P | Q is the bitwise union of theirs,
    pair by pair, and P | Q is narrow.  *Proof.*  A set S of edges with
    edges in both P and Q that is pair-connected has an edge of P sharing
    two vertices with an edge of Q, along any chain that links them, and
    those two vertices are a shadow pair of both.  So no pair-connected
    set crosses P and Q.  The state's bit 1 marks the shadow, which is
    the union of the two.  Bit 2 at cap 2 marks the pairs inside two edges
    on 2r - 2 vertices, and two edges on at most 2r - 2 vertices share at
    least two vertices, so they are pair-connected: each such pair of
    edges, and each wide one (on at most 2r - 3 vertices), lies in P or
    in Q.  Under ``two_plus`` bit 2 marks the pairs of the 3-edge
    subtrees, which are pair-connected too (the tree lemma of the
    module), so each lies in P or in Q.  This is the P | Q update with an
    empty cross term; caps above 2 have cross sets that are not
    pair-connected and are walked (``_join_state``).
    """
    if len(edges) > 1 and rule.claim_cap > 1:
        start = 1 if seed is None else seed_cap + 1
        return _claim_walk(G, edges, rule.claim_cap, seed, start)
    pair_bits = {Pair(u, v): 2 for i in edges for u, v in itertools.combinations(G.edges[i], 2)}
    if rule.kind == "two_plus" and len(edges) >= 3:
        for pair in tp_pair_set(G.subgraph(edges)):
            pair_bits[pair] = pair_bits.get(pair, 0) | 4
    return pair_bits


def _join_state(
    G: Hypergraph, edges: tuple[int, ...], rule: MergeRule, ps: dict[Pair, int], qs: dict[Pair, int]
) -> dict[Pair, int]:
    """The state of the part with ``edges`` that joins two parts with states
    ``ps`` and ``qs``: their bitwise union under a rule of claim cap at
    most 2 when no pair is 1-claimed by both (the union lemma of
    ``_make_state``), else ``_make_state``'s walk."""
    if rule.claim_cap <= 2:
        small, big = (ps, qs) if len(ps) <= len(qs) else (qs, ps)
        out = dict(big)
        for pair, b in small.items():
            c = out.get(pair)
            if c is None:
                out[pair] = b
            elif b & c & 2:
                break
            else:
                out[pair] = b | c
        else:
            return out
    return _make_state(G, edges, rule)


def _mergeable(
    ps: dict[Pair, int], qs: dict[Pair, int], rule: MergeRule
) -> Optional[tuple[Pair, str]]:
    """Smallest witness (pair, direction) if the two parts merge under
    ``rule``: a key pair of both states whose bits satisfy a clause."""
    small, big = (ps, qs) if len(ps) <= len(qs) else (qs, ps)
    found = []
    for pair in small:
        if pair in big:
            bits_p, bits_q = ps[pair], qs[pair]
            for a_bits, b_bits, (left_tag, right_tag) in rule.clauses:
                if bits_p & a_bits == a_bits and bits_q & b_bits == b_bits:
                    found.append((pair, left_tag))
                if bits_p & b_bits == b_bits and bits_q & a_bits == a_bits:
                    found.append((pair, right_tag))
    return min(found, default=None)


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
    G: Hypergraph, states: dict[int, dict[Pair, int]], rule: MergeRule, push: _Push
) -> _Join:
    """Candidates by ``_mergeable``, against the parts sharing a key pair.
    ``states`` holds the start parts' states; each join replaces its two
    parts' states by the new part's (``_join_state``)."""
    holders: dict[Pair, set[int]] = {}

    def file(new: int) -> None:
        st = states[new]
        found: set[int] = set()
        for pair in st:
            ids = holders.get(pair)
            if ids is None:
                holders[pair] = {new}
            else:
                found |= ids
                ids.add(new)
        for other in found:
            w = _mergeable(states[other], st, rule)
            if w is not None:
                push(other, new, w)

    def join(i: int, j: int, new: int, edges: tuple[int, ...]) -> None:
        ps, qs = states.pop(i), states.pop(j)
        for old, st in ((i, ps), (j, qs)):
            for pair in st:
                holders[pair].discard(old)
        states[new] = _join_state(G, edges, rule, ps, qs)
        file(new)

    for cid in sorted(states):
        file(cid)
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

    Two parts have a witness only on a key pair of both states, so under
    every rule but ``RULE_11`` parts are indexed by key pair and each new
    part is checked only against the parts sharing one of its keys.  The
    final parts keep their states as ``Cluster.state``, for the weights to
    read.  A start part's state seeds its new one when both rules read
    claim bits alone and the start's cap is at most the rule's (m3plus on
    m12 walks only sizes 3 and 4; see ``_make_state``'s state lemma).  A
    ``two_plus`` state seeds nothing: its bit 2 is the 2+ set, not the
    2-claims.  Under a rule of claim cap at most 2, a merged part's state
    is the union of its halves' when they share no shadow pair (the union
    lemma of ``_make_state``), as on every m11 start, whose parts are
    pair-connected components.

    **Refusal lemma.**  ``merge`` raises :class:`NotFree` when it would file
    a part with wide evidence, i edges on at most (r-2)*i + 1 vertices for
    some 2 <= i <= the claim cap, naming the smallest such i, the query
    (i, (r-2)*i + 1) and its lexicographically first configuration, where
    ``_claim_walk`` stops (ambient edge indices).  It refuses exactly when
    some fixpoint cluster is that dense, under every schedule.  *Proof.*
    Until it refuses, it merges as a merge honouring wide claims would,
    since between narrow parts a witness lies on a pair both list.  Every
    filed part, with its configuration, lies inside a cluster of that
    order-independent fixpoint, and every cluster is filed, as a start part
    or by the merge that completes it.  No part that ``certify`` builds is
    refused: one edge never fits r - 1 vertices, for 2 <= i < k the
    configuration is a denser member of the family the graph is free of, and
    every ``rule_for`` case has claim caps at most k - 1.

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
    states: Optional[dict[int, dict[Pair, int]]] = None  # none under RULE_11
    if rule != RULE_11:
        # (trivial and RULE_11 clusters have no state to seed with)
        last = start.rule_stack[-1] if start.rule_stack else RULE_11
        seeds = last.claim_cap <= rule.claim_cap and "two_plus" not in (last.kind, rule.kind)
        states = {}
        for c in sorted(start.clusters, key=lambda c: c.id):
            seed = c.state if seeds else None
            states[c.id] = _make_state(G, parts[c.id][0], rule, seed, last.claim_cap)
    return _coarsen(G, parts, states, start.rule_stack + (rule,), rng)


def _coarsen(
    G: Hypergraph,
    parts: dict[int, tuple[tuple[int, ...], tuple[MergeEvent, ...]]],
    states: Optional[dict[int, dict[Pair, int]]],
    rule_stack: tuple[MergeRule, ...],
    rng: Optional[random.Random],
) -> Partition:
    """``merge``'s schedule from start parts (id -> (sorted edges, trace))
    under ``rule_stack[-1]``, and from the start parts' ``states`` under any
    rule but ``RULE_11``; ``parts`` and ``states`` become the final ones."""
    rule = rule_stack[-1]
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

    if states is None:
        join = _by_contraction(G, {cid: edges for cid, (edges, _) in parts.items()}, push)
        states = {}
    else:
        join = _by_claims(G, states, rule, push)
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
    stage = _STAGE_NAMES.get(rule_stack, "custom")
    ordered = sorted(parts.items(), key=lambda kv: kv[1][0][0] if kv[1][0] else -1)
    clusters = tuple(
        Cluster(cid, edges, trace, stage, G, states.get(cid)) for cid, (edges, trace) in ordered
    )
    return Partition(G, clusters, rule_stack, stage)


def m11(G: Hypergraph, rng: Optional[random.Random] = None) -> Partition:
    """Maximal parts connected through shared pairs: {1}|{1}-merging of edges,
    from one start part per edge (id = edge index), as ``merge`` would
    from every edge in a cluster of its own."""
    parts = {i: ((i,), ()) for i in range(len(G.edges))}
    return _coarsen(G, parts, None, (RULE_11,), rng)


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
_STAGE_RULES = {name: stack for stack, name in _STAGE_NAMES.items()}


def _cluster_state(c: Cluster) -> dict[Pair, int]:
    """The state of a cluster of a named stage under the stage's last rule:
    the one ``merge`` kept, else built by ``_make_state``."""
    if c.state is not None:
        return c.state
    return _make_state(c.ambient, c.edge_indices, _STAGE_RULES[c.stage][-1])


def composition(c: Cluster) -> tuple[int, ...]:
    """Sizes of the cluster's pair-connected components, largest first.

    For clusters built over an m11 base these components are exactly the
    original m11 constituents (edges in different constituents never share
    two vertices).
    """
    masks = c.ambient.edge_masks
    comps = _pair_components([masks[i] for i in c.edge_indices])
    return tuple(sorted(map(len, comps), reverse=True))


def _pair_components(masks: Sequence[int]) -> list[tuple[int, ...]]:
    """Index sets of the pair-connected components of the edges with vertex
    masks ``masks`` (indices into ``masks``)."""
    m = len(masks)
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
