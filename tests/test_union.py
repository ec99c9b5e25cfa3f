"""Metamorphic relation: the disjoint union of two graphs free for k
(``util.disjoint_union``) is free, and its partitions and certificate are
the two pieces' side by side (the union lemma)."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from beslab import Pair, build, certify, composition, is_family_free, merging, rule_for

CASES = [(r, k) for r in (3, 4) for k in (5, 6, 7)]


@st.composite
def free_graphs(draw, r: int, k: int):
    """8 to 16 drawn candidate edges on r + 2 to 9 vertices, each kept
    when the graph stays free for k."""
    n = draw(st.integers(r + 2, 9))
    cands = list(itertools.combinations(range(n), r))
    edges: list[tuple[int, ...]] = []
    for e in draw(st.lists(st.sampled_from(cands), min_size=8, max_size=16, unique=True)):
        if is_family_free(build(r, n, edges + [e]), k).free:
            edges.append(e)
    return build(r, n, edges)


@st.composite
def free_pairs(draw):
    r, k = draw(st.sampled_from(CASES))
    return r, k, draw(free_graphs(r, k)), draw(free_graphs(r, k))


def _clusters(p, offset: int = 0) -> dict[frozenset[int], tuple[int, ...]]:
    """Each cluster's edge set, indices raised by ``offset``, with its
    composition."""
    return {frozenset(i + offset for i in c.edge_indices): composition(c) for c in p.clusters}


def test_union_shape():
    G = build(3, 4, [(0, 1, 2), (1, 2, 3)])
    H = build(3, 5, [(0, 1, 4)])
    U = util.disjoint_union(G, H)
    assert (U.r, U.n) == (3, 9)
    assert U.edges == ((0, 1, 2), (1, 2, 3), (4, 5, 8))
    with pytest.raises(ValueError):
        util.disjoint_union(G, build(4, 4, [(0, 1, 2, 3)]))


@settings(max_examples=40, deadline=None)
@given(free_pairs())
def test_union_of_free_graphs_is_free(case):
    r, k, G, H = case
    assert is_family_free(util.disjoint_union(G, H), k).free


@settings(max_examples=25, deadline=None)
@given(free_pairs())
def test_union_partitions_are_the_pieces(case):
    r, k, G, H = case
    U = util.disjoint_union(G, H)
    for stage, run in merging.STAGES.items():
        got = run(U)
        want = _clusters(run(G)) | _clusters(run(H), len(G.edges))
        assert _clusters(got) == want, (G.edges, H.edges, stage)


@settings(max_examples=30, deadline=None)
@given(free_pairs())
def test_union_certificate_is_the_pieces(case):
    r, k, G, H = case
    U = util.disjoint_union(G, H)
    rule = rule_for(r, k)
    rep, rep_g, rep_h = (certify(F, rule) for F in (U, G, H))
    pieces = [*rep_g.per_cluster.values(), *rep_h.per_cluster.values()]
    assert Counter(rep.per_cluster.values()) == Counter(pieces)
    totals = dict(rep_g.per_pair)
    totals.update((Pair(p.u + G.n, p.v + G.n), t) for p, t in rep_h.per_pair.items())
    assert rep.per_pair == totals
    # the verdict from the pieces' slacks and totals and the union's edge bound
    certified = (
        all(lam >= 0 for _, lam in pieces)
        and all(t <= 1 for t in totals.values())
        and len(U.edges) <= rep.edge_bound
    )
    assert rep.certified == certified
