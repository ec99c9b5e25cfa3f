"""Metamorphic relations: a 3-graph and its lift to r = 4..6 (``util.lift``)
give the same freeness answers, the same partitions at every stage and the
same claim sets for every pair of the 3-graph's vertices."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from beslab import (
    NotFree,
    Pair,
    build,
    claim_set,
    diamond_star,
    f63,
    is_family_free,
    m2plus,
    m3plus,
    m11,
    m12,
    partition_report,
)


def _freeness(G, k):
    res = is_family_free(G, k)
    return res.free, res.witness, res.query and res.query.edge_count


def _claims(G, vertices, cap):
    """Each pair of ``vertices`` with its claim set at ``cap``."""
    return {(u, v): claim_set(G, Pair(u, v), cap) for u, v in itertools.combinations(vertices, 2)}


def _report(stage, G):
    """The stage's report without ``ambient``, or the refusal's witness and
    query edge count."""
    try:
        doc = partition_report(stage(G))
    except NotFree as exc:
        return "refused", exc.witness, exc.query.edge_count
    del doc["ambient"]
    return doc


@st.composite
def three_graphs(draw):
    n = draw(st.integers(3, 9))
    cands = list(itertools.combinations(range(n), 3))
    return build(3, n, draw(st.lists(st.sampled_from(cands), max_size=9, unique=True)))


def test_lift_shape():
    F = build(3, 5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    L = util.lift(F, 5)
    assert L.r == 5 and L.n == 5 + 2 * 3
    assert L.edges == ((0, 1, 2, 5, 6), (0, 1, 3, 7, 8), (2, 3, 4, 9, 10))
    assert util.lift(F, 3) == F
    with pytest.raises(ValueError):
        util.lift(L, 6)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 6), st.sampled_from([5, 6, 7]), three_graphs())
def test_lift_keeps_freeness(r, k, F):
    assert _freeness(util.lift(F, r), k) == _freeness(F, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 6), three_graphs())
def test_lift_keeps_every_stage(r, F):
    # m3plus also refuses dense parts: the lift refuses with F's witness.
    L = util.lift(F, r)
    for stage in (m11, m12, m2plus, m3plus):
        assert _report(stage, L) == _report(stage, F), (F.edges, r, stage.__name__)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 6), three_graphs())
def test_lift_keeps_claim_sets(r, F):
    # Every pair of F's vertex ids, isolated ones too, at the cap that
    # reaches every edge count.
    cap = len(F.edges)
    assert _claims(util.lift(F, r), range(F.n), cap) == _claims(F, range(F.n), cap), (F.edges, r)


@pytest.mark.parametrize("r", [4, 5, 6])
def test_lifts_of_the_large_constructions(r):
    # f63 and diamond_star(8): every answer and report of the lift is the
    # 3-graph's, free or not (three diamonds are 6 edges on 8 vertices), and
    # so are the claim sets of diamond_star(8)'s pairs and of f63's pairs
    # within its first two edges.
    big, small = f63(), diamond_star(8)
    for F, vertices in ((big, sorted({*big.edges[0], *big.edges[1]})), (small, range(small.n))):
        L = util.lift(F, r)
        for k in (5, 6, 7):
            assert _freeness(L, k) == _freeness(F, k)
        for stage in (m11, m12, m2plus, m3plus):
            assert _report(stage, L) == _report(stage, F)
        assert _claims(L, vertices, 4) == _claims(F, vertices, 4)
