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
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

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
    its stage (see ``_make_state``), as ``merge`` left them, the shadow
    under ``RULE_11``; ``None`` only where the cluster was made by hand.
    It takes no part in equality or hashing.
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
    third edge.  The edges meeting a diamond are tried lowest first, up to
    the first third edge.
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
            reach &= ~(1 << a | 1 << b)
            while reach:
                low = reach & -reach
                t = masks[low.bit_length() - 1] & union
                if t.bit_count() == 2 and (t & ma == t or t & mb == t):
                    out.update(Pair(x, y) for x, y in itertools.combinations(vs, 2))
                    break
                reach ^= low
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
    not a ``two_plus`` state, holds the sizes up to ``seed_cap``, and only
    the sizes above it are walked; it is copied, never changed.

    One edge spans (r-2)*1 + 2 vertices, so it 1-claims exactly its own
    pairs, and no edge is wide.  So a one-edge part, or any part under a
    cap-1 rule, has its shadow at index 1 (bit 1), the state the walk
    would build, and a seed, which holds size 1, is that shadow.

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
    pair-connected and are walked (``_join_state``).  Under ``RULE_11`` the
    state is the shadow alone, and shadow(P | Q) = shadow(P) | shadow(Q),
    so there the union holds even when P and Q share shadow pairs.
    """
    if len(edges) > 1 and rule.claim_cap > 1:
        start = 1 if seed is None else seed_cap + 1
        return _claim_walk(G, edges, rule.claim_cap, seed, start)
    if seed is not None:
        pair_bits = dict(seed)
    else:
        pair_bits = {Pair(u, v): 2 for i in edges for u, v in itertools.combinations(G.edges[i], 2)}
    if rule.kind == "two_plus" and len(edges) >= 3:
        for pair in tp_pair_set(G.subgraph(edges)):
            pair_bits[pair] = pair_bits.get(pair, 0) | 4
    return pair_bits


def _join_state(
    G: Hypergraph, edges: tuple[int, ...], rule: MergeRule, ps: dict[Pair, int], qs: dict[Pair, int]
) -> dict[Pair, int]:
    """The state of the part with ``edges`` that joins two parts with states
    ``ps`` and ``qs``: their bitwise union under ``RULE_11``, and under
    another rule of claim cap at most 2 when no pair is 1-claimed by both
    (the union lemma of ``_make_state``), else ``_make_state``'s walk."""
    if rule == RULE_11:
        return ps | qs
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


def _scan(
    G: Hypergraph, parts: dict[int, tuple[tuple[int, ...], tuple[MergeEvent, ...]]]
) -> list[MergeEvent]:
    """``RULE_11``'s default schedule from start parts (id -> (sorted edges,
    trace)): its merges in order, by the scan lemma of ``merge``."""
    holders: dict[tuple[int, int], list[int]] = {}  # shadow pair -> holders, ascending
    for cid in sorted(parts):
        for i in parts[cid][0]:
            for uv in itertools.combinations(G.edges[i], 2):
                ids = holders.get(uv)
                if ids is None:
                    holders[uv] = [cid]
                elif ids[-1] != cid:
                    ids.append(cid)
    # the live holders of each pair that two parts share, and each part's such pairs
    lines = {uv: deque(ids) for uv, ids in holders.items() if len(ids) > 1}
    shared: dict[int, list[tuple[int, int]]] = {}
    for uv, line in lines.items():
        for cid in line:
            shared.setdefault(cid, []).append(uv)
    turns = sorted(shared)
    new = max(parts, default=-1) + 1
    events: list[MergeEvent] = []
    for p in turns:  # merged parts with a neighbour join the end
        mine = shared.pop(p, None)
        if mine is None:  # merged at an earlier turn
            continue
        q, witness = min([(lines[uv][1], uv) for uv in mine])
        theirs = shared.pop(q)
        for uv in mine:
            lines[uv].popleft()  # p heads its lines
        for uv in theirs:
            lines[uv].remove(q)
        kept = []
        for uv in mine + theirs:
            line = lines[uv]
            if line and line[-1] != new:  # still shared, and not yet seen
                line.append(new)
                kept.append(uv)
        if kept:
            shared[new] = kept
            turns.append(new)
        events.append(MergeEvent(new, p, q, Pair(*witness), "left_A"))
        new += 1
    return events


def merge(
    G: Hypergraph,
    start: Partition,
    rule: MergeRule,
    rng: Optional[random.Random] = None,
) -> Partition:
    """Coarsen ``start`` under ``rule`` until no two parts are mergeable.

    Both schedules keep the candidates, (smaller id, larger id, pair,
    direction) entries, in one sorted list.  The default schedule merges
    the first live entry, the smallest (smaller id, larger id), and drops
    only the stale entries ahead of it, those naming a merged part, so
    each entry is dropped once.  Passing ``rng`` draws a live entry at
    random instead, so there one pass after each merge drops every stale
    entry.  The fixpoint partition is the same either way.

    Two parts have a witness only on a key pair of both states, so parts
    are indexed by key pair and each new part is checked only against the
    parts sharing one of its keys.  The final parts keep their states as
    ``Cluster.state``, for the weights to read; under ``RULE_11`` the state
    is the shadow.  A start part's state seeds its new one when the start's
    cap is at most the rule's and it is not a ``two_plus`` state, whose bit
    2 is the 2+ set, not the 2-claims (``_make_state``'s state lemma).  So
    m12 walks only size 2 and m3plus sizes 3 and 4, and m2plus adds the 2+
    pairs to m11's shadows.  Under a rule of claim cap at most 2, a merged
    part's state is the union of its halves' when they share no shadow
    pair (the union lemma of ``_make_state``), as on every m11 start, whose
    parts are pair-connected components, and under ``RULE_11`` it is
    always the union of their shadows.

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

    **Scan lemma.**  Under ``RULE_11`` the default schedule is a scan over
    part ids in increasing order, each merged part's id appended as it is
    made: a live part at its turn merges with its smallest live neighbour,
    if any, with their smallest shared pair as the witness and ``left_A``
    as the direction (``_scan``).  *Proof.*  Under ``RULE_11`` a part's
    claims are its shadow (its state at cap 1), so neighbours are parts
    sharing a shadow pair, both orientations hold on each shared pair, and
    the witness is the smallest one, with ``left_A``.  Since shadow(P | Q)
    = shadow(P) | shadow(Q), a part is a neighbour of P | Q exactly when it
    is one of P or of Q, so a part with no live neighbour never gains one.
    The list holds every two live neighbours, so the smallest live
    candidate names the smallest i with a live neighbour, with that part's
    smallest live neighbour j > i.  Inductively, at p's turn no live part
    below p has a live neighbour, so if p has one the smallest live
    candidate is p with its smallest neighbour, and the new id, larger
    than every id yet, has a turn later.  ``_scan`` keeps, for each shadow
    pair that two live parts hold, its holders in id order.  At
    its turn a part heads each of its lists, and the entries after it are
    its neighbours, so j is the smallest second entry, on the smallest such
    pair.  A merge removes both halves and appends the new id to the lists
    another part still holds; a pair held by one part is never shared
    again.  The ids, traces and witnesses are the list's, with no part
    state and no ``_mergeable`` call.
    """
    if start.ambient != G:
        raise ValueError("start partition does not belong to this graph")
    parts = {c.id: (tuple(sorted(c.edge_indices)), c.trace) for c in start.clusters}
    states: Optional[dict[int, dict[Pair, int]]] = None  # RULE_11's scan reads none
    if rule != RULE_11 or rng is not None:
        cap = 0  # the start states' claim cap, when they seed
        if start.rule_stack:
            last = start.rule_stack[-1]
            if last.kind != "two_plus" and last.claim_cap <= rule.claim_cap:
                cap = last.claim_cap
        states = {}
        for c in sorted(start.clusters, key=lambda c: c.id):
            states[c.id] = _make_state(G, parts[c.id][0], rule, c.state if cap else None, cap)
    return _coarsen(G, parts, states, start.rule_stack + (rule,), rng)


def _coarsen(
    G: Hypergraph,
    parts: dict[int, tuple[tuple[int, ...], tuple[MergeEvent, ...]]],
    states: Optional[dict[int, dict[Pair, int]]],
    rule_stack: tuple[MergeRule, ...],
    rng: Optional[random.Random],
) -> Partition:
    """``merge``'s schedule from start parts (id -> (sorted edges, trace))
    under ``rule_stack[-1]``, and from the start parts' ``states``, which
    are ``None`` only for ``RULE_11``'s default schedule: that is
    ``_scan``, which reads no state, and each final part then gets its
    shadow.  ``parts`` and ``states`` become the final ones."""
    rule = rule_stack[-1]

    def join(ev: MergeEvent) -> tuple[int, ...]:
        (ei, ti), (ej, tj) = parts.pop(ev.left), parts.pop(ev.right)
        edges = tuple(sorted(ei + ej))
        parts[ev.new_id] = (edges, ti + tj + (ev,))
        return edges

    if states is None:
        for ev in _scan(G, parts):
            join(ev)
        states = {cid: _make_state(G, edges, rule) for cid, (edges, _) in parts.items()}
    else:
        cands: list[tuple[int, int, Pair, str]] = []  # (i, j, pair, direction), sorted
        holders: dict[Pair, set[int]] = {}  # key pair -> the live parts listing it

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
                    bisect.insort(cands, (other, new) + w)

        for cid in sorted(states):
            file(cid)
        next_id = max(parts, default=-1) + 1
        while True:
            if rng is None:  # drop the stale entries ahead of the first live one
                k = 0
                while k < len(cands) and not (cands[k][0] in parts and cands[k][1] in parts):
                    k += 1
                del cands[:k]
            else:  # a draw needs every entry live
                cands = [e for e in cands if e[0] in parts and e[1] in parts]
            if not cands:
                break
            i, j, pair, direction = cands[0 if rng is None else rng.randrange(len(cands))]
            edges = join(MergeEvent(next_id, i, j, pair, direction))
            ps, qs = states.pop(i), states.pop(j)
            for old, st in ((i, ps), (j, qs)):
                for key in st:
                    holders[key].discard(old)
            states[next_id] = _join_state(G, edges, rule, ps, qs)
            file(next_id)
            next_id += 1
    stage = _STAGE_NAMES.get(rule_stack, "custom")
    ordered = sorted(parts.items(), key=lambda kv: kv[1][0][0] if kv[1][0] else -1)
    clusters = tuple(
        Cluster(cid, edges, trace, stage, G, states[cid]) for cid, (edges, trace) in ordered
    )
    return Partition(G, clusters, rule_stack, stage)


def m11(G: Hypergraph, rng: Optional[random.Random] = None) -> Partition:
    """Maximal parts connected through shared pairs: {1}|{1}-merging of edges,
    from one start part per edge (id = edge index), as ``merge`` would
    from every edge in a cluster of its own."""
    parts = {i: ((i,), ()) for i in range(len(G.edges))}
    states = None if rng is None else {i: _make_state(G, (i,), RULE_11) for i in parts}
    return _coarsen(G, parts, states, (RULE_11,), rng)


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
    comps = _pair_components([c.ambient.edges[i] for i in c.edge_indices])
    return tuple(sorted(map(len, comps), reverse=True))


def _pair_components(edges: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Index sets of the pair-connected components of ``edges`` (sorted
    vertex tuples; indices into ``edges``).  Each edge joins, for each of
    its pairs, the first edge holding that pair, so the work is linear in
    the pairs of the edges."""
    parent = list(range(len(edges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first: dict[tuple[int, int], int] = {}  # pair -> the first edge holding it
    for a, e in enumerate(edges):
        for uv in itertools.combinations(e, 2):
            b = first.setdefault(uv, a)
            if b != a:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for a in range(len(edges)):
        groups.setdefault(find(a), []).append(a)
    return [tuple(g) for g in sorted(groups.values())]


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
