"""Core graph model: construction, claims, configurations, trees, text I/O."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from beslab import (
    ABOVE_CAP,
    ConfigQuery,
    DuplicateEdge,
    NOT_TREE,
    Pair,
    TreeClass,
    VertexOutOfRange,
    WrongArity,
    build,
    claim_profile,
    claim_set,
    claimed_pairs,
    classify_tree,
    defect,
    family_queries,
    family_violation_containing,
    find_configuration,
    find_configuration_containing,
    from_text,
    girth,
    graph_doc,
    is_family_free,
    one_bar_two,
    pairs_claimed_upto,
    shadow,
    to_text,
)


@st.composite
def graphs(draw, r=None, max_n=7, max_m=5):
    rr = r if r is not None else draw(st.sampled_from([3, 4]))
    n = draw(st.integers(min_value=rr, max_value=max_n))
    cands = list(itertools.combinations(range(n), rr))
    m = draw(st.integers(0, min(max_m, len(cands))))
    order = draw(st.permutations(range(len(cands))))
    return build(rr, n, [cands[i] for i in order[:m]])


# ---------------------------------------------------------------------------
# Construction and canonical form


class TestBuild:
    def test_edges_sorted_and_tupled(self):
        G = build(3, 6, [[5, 1, 3], (0, 2, 1)])
        assert G.edges == ((0, 1, 2), (1, 3, 5))

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            build(3, 5, [(0, 1)])
        with pytest.raises(WrongArity):
            build(3, 5, [(0, 1, 2, 3)])

    def test_repeated_vertex_in_edge(self):
        with pytest.raises(WrongArity):
            build(3, 5, [(0, 0, 1)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            build(3, 5, [(0, 1, 5)])
        with pytest.raises(VertexOutOfRange):
            build(3, 5, [(-1, 1, 2)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build(3, 5, [(0, 1, 2), (2, 1, 0)])

    def test_uniformity_floor(self):
        with pytest.raises(WrongArity):
            build(1, 5, [])
        build(2, 5, [(0, 1)])  # 2-graphs are allowed

    def test_errors_are_value_errors(self):
        for exc in (WrongArity, VertexOutOfRange, DuplicateEdge):
            assert issubclass(exc, ValueError)

    def test_vertices_and_counts(self):
        G = build(3, 9, [(0, 1, 2), (4, 5, 6)])
        assert list(G.vertices()) == [0, 1, 2, 4, 5, 6]
        assert G.vertex_count() == 6
        assert G.n == 9

    def test_subgraph(self):
        G = build(3, 6, [(0, 1, 2), (1, 2, 3), (3, 4, 5)])
        H = G.subgraph([2, 0])
        assert H.edges == ((0, 1, 2), (3, 4, 5))
        assert H.n == G.n and H.r == G.r

    def test_equality_is_structural(self):
        a = build(3, 5, [(0, 1, 2)])
        b = build(3, 5, [[2, 1, 0]])
        assert a == b and hash(a) == hash(b)


class TestPair:
    def test_normalized(self):
        assert Pair.of(4, 1) == Pair(1, 4)
        assert Pair.of(1, 4) == Pair(1, 4)

    def test_equal_vertices_rejected(self):
        with pytest.raises(ValueError):
            Pair.of(2, 2)


def test_shadow_matches_naive(fuzz_corpus):
    for G in fuzz_corpus:
        assert {(p.u, p.v) for p in shadow(G)} == util.naive_shadow(G)


# ---------------------------------------------------------------------------
# Claim sets


class TestClaimSet:
    def test_zero_always_member(self):
        G = build(3, 5, [])
        assert 0 in claim_set(G, Pair.of(0, 1), 3)

    def test_single_edge_pair_inside(self):
        G = build(3, 5, [(0, 1, 2)])
        cs = claim_set(G, Pair.of(0, 1), 1)
        assert set(cs.members) == {0, 1}

    def test_single_edge_pair_outside(self):
        G = build(3, 5, [(0, 1, 2)])
        assert set(claim_set(G, Pair.of(3, 4), 1).members) == {0}

    def test_out_of_range_vertices_cost_budget(self):
        # a 1-claim needs both endpoints inside the edge, so a foreign
        # endpoint kills it; at i = 2 one foreign endpoint can still fit
        G = build(3, 5, [(0, 1, 2)])
        assert 1 not in claim_set(G, Pair.of(0, 99), 1)
        G2 = build(4, 6, [(0, 1, 2, 3), (0, 1, 2, 4)])
        assert 2 in claim_set(G2, Pair.of(0, 99), 2)
        assert 2 not in claim_set(G2, Pair.of(98, 99), 2)

    def test_disconnected_witness_counts(self):
        # the claiming subset need not be pair-connected
        G = build(3, 6, [(0, 1, 2), (0, 2, 3), (1, 4, 5), (3, 4, 5)])
        assert 4 in claim_set(G, Pair.of(0, 4), 4)

    def test_matches_naive_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(120):
            r = rng.choice([3, 3, 4])
            n = rng.randint(r, 7)
            G = util.random_hypergraph(rng, r, n, 6)
            u, v = rng.sample(range(-2, n + 2), 2)
            cap = rng.randint(1, 4)
            got = set(claim_set(G, Pair.of(u, v), cap).members)
            assert got == util.naive_claim_set(G, u, v, cap), (G.edges, u, v, cap)

    def test_claimed_pairs_match_naive(self, fuzz_corpus):
        for G in fuzz_corpus:
            if len(G.edges) > 6:
                continue
            pairs = set(itertools.combinations(G.vertices(), 2))
            for i in (1, 2, 3):
                got = {(p.u, p.v) for p in claimed_pairs(G, i)}
                want = {
                    (u, v) for u, v in pairs if i in util.naive_claim_set(G, u, v, i)
                }
                assert got == want, (G.edges, i)

    def test_pairs_claimed_upto_matches_naive(self, fuzz_corpus):
        for G in fuzz_corpus:
            if len(G.edges) > 6:
                continue
            pairs = set(itertools.combinations(G.vertices(), 2))
            got = {(p.u, p.v) for p in pairs_claimed_upto(G, 3)}
            want = {
                (u, v)
                for u, v in pairs
                if util.naive_claim_set(G, u, v, 3) & {1, 2, 3}
            }
            assert got == want, G.edges

    def test_one_bar_two_matches_naive(self, fuzz_corpus):
        for G in fuzz_corpus:
            if len(G.edges) > 6:
                continue
            pairs = set(itertools.combinations(G.vertices(), 2))
            got = {(p.u, p.v) for p in one_bar_two(G)}
            want = set()
            for u, v in pairs:
                cs = util.naive_claim_set(G, u, v, 2)
                if 2 in cs and 1 not in cs:
                    want.add((u, v))
            assert got == want, G.edges

    def test_validation(self):
        G = build(3, 5, [(0, 1, 2)])
        with pytest.raises(ValueError):
            claimed_pairs(G, 0)
        with pytest.raises(ValueError):
            pairs_claimed_upto(G, 0)
        with pytest.raises(ValueError):
            claim_profile(G, -1)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_m=4), st.data())
    def test_relabel_invariance(self, G, data):
        perm = data.draw(st.permutations(range(G.n))) if G.n else []
        H = util.relabel(G, perm)
        verts = list(range(G.n))
        if len(verts) < 2:
            return
        u, v = verts[0], verts[-1] if verts[-1] != verts[0] else verts[1]
        a = claim_set(G, Pair.of(u, v), 3).members
        b = claim_set(H, Pair.of(perm[u], perm[v]), 3).members
        assert a == b


# ---------------------------------------------------------------------------
# Configuration search and the banned family


class TestConfigurations:
    def test_matches_naive(self):
        rng = random.Random(23)
        for _ in range(120):
            r = rng.choice([3, 4])
            n = rng.randint(r, 7)
            G = util.random_hypergraph(rng, r, n, 7)
            k = rng.randint(1, 4)
            s = rng.randint(2, 10)
            got = find_configuration(G, ConfigQuery(k, s))
            # the witness is the first hit in itertools.combinations order
            assert got == util.naive_find_config(G, k, s), (G.edges, k, s)

    def test_containing_forces_the_edge(self):
        rng = random.Random(29)
        for _ in range(80):
            r = rng.choice([3, 4])
            n = rng.randint(r, 7)
            G = util.random_hypergraph(rng, r, n, 6)
            if not G.edges:
                continue
            forced = rng.randrange(len(G.edges))
            k = rng.randint(1, 3)
            s = rng.randint(2, 9)
            got = find_configuration_containing(G, ConfigQuery(k, s), forced)
            naive = None
            for subset in itertools.combinations(range(len(G.edges)), k):
                if forced not in subset:
                    continue
                span = set()
                for i in subset:
                    span |= set(G.edges[i])
                if len(span) <= s:
                    naive = subset
                    break
            assert got == naive, (G.edges, forced, k, s)

    def test_containing_maps_indices_around_the_forced_edge(self):
        # Three edges on the four vertices 0..3, and one edge apart.
        G = build(3, 6, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (3, 4, 5)])
        q = ConfigQuery(3, 4)
        assert [find_configuration_containing(G, q, f) for f in range(5)] == [
            (0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 3), None
        ]
        assert find_configuration_containing(G, ConfigQuery(1, 3), 2) == (2,)
        assert find_configuration_containing(G, ConfigQuery(2, 5), 4) == (1, 4)

    def test_family_queries_shape(self):
        qs = family_queries(3, 5)
        assert qs == [
            ConfigQuery(2, 3),
            ConfigQuery(3, 4),
            ConfigQuery(4, 5),
            ConfigQuery(5, 7),
        ]
        qs = family_queries(4, 6)
        assert qs == [
            ConfigQuery(2, 5),
            ConfigQuery(3, 7),
            ConfigQuery(4, 9),
            ConfigQuery(5, 11),
            ConfigQuery(6, 14),
        ]
        # dense members ascend, the main query comes last
        for r in (3, 4, 5):
            for k in (2, 3, 5, 7):
                qs = family_queries(r, k)
                assert qs[-1] == ConfigQuery(k, r * k - 2 * k + 2)
                assert [q.edge_count for q in qs[:-1]] == list(range(2, k))

    def test_freeness_matches_naive(self, fuzz_corpus):
        for G in fuzz_corpus:
            if len(G.edges) > 7:
                continue
            for k in (5, 6, 7):
                res = is_family_free(G, k)
                assert bool(res) == util.naive_family_free(G, k), (G.edges, k)
                if not res:
                    span = set()
                    for i in res.witness:
                        span |= set(G.edges[i])
                    assert len(res.witness) == res.query.edge_count
                    assert len(span) <= res.query.max_vertices

    def test_violation_containing(self):
        rng = random.Random(31)
        for _ in range(60):
            G = util.random_hypergraph(rng, 3, rng.randint(4, 7), 7)
            if not G.edges:
                continue
            forced = rng.randrange(len(G.edges))
            got = family_violation_containing(G, 6, forced)
            if got is not None:
                w, q = got
                assert forced in w
                span = set()
                for i in w:
                    span |= set(G.edges[i])
                assert len(span) <= q.max_vertices and len(w) == q.edge_count
            else:
                # no violation through the forced edge, in any family query
                for q in family_queries(3, 6):
                    for subset in itertools.combinations(
                        range(len(G.edges)), q.edge_count
                    ):
                        if forced not in subset:
                            continue
                        span = set()
                        for i in subset:
                            span |= set(G.edges[i])
                        assert len(span) > q.max_vertices


# ---------------------------------------------------------------------------
# Girth, defect, trees


class TestGirthDefect:
    def test_matches_naive(self, fuzz_corpus):
        for G in fuzz_corpus:
            if len(G.edges) > 7:
                continue
            for cap in (2, 4, 6):
                g = girth(G, cap)
                ng = util.naive_girth(G, cap)
                if ng == "above":
                    assert g is ABOVE_CAP
                else:
                    assert g == ng

    def test_two_graphs_always_above(self):
        G = build(2, 4, [(0, 1), (1, 2), (0, 2)])
        assert girth(G, 10) is ABOVE_CAP

    def test_defect(self):
        assert defect(build(3, 5, [])) == 0 - 0
        assert defect(build(3, 5, [(0, 1, 2)])) == 0
        assert defect(build(3, 4, [(0, 1, 2), (0, 1, 3)])) == 2

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_m=5), st.data())
    def test_defect_monotone_under_addition(self, G, data):
        cands = [
            e
            for e in itertools.combinations(range(G.n), G.r)
            if e not in set(G.edges)
        ]
        if not cands:
            return
        e = data.draw(st.sampled_from(cands))
        G2 = build(G.r, G.n, list(G.edges) + [e])
        assert defect(G2) >= defect(G)


class TestTrees:
    def test_fixtures(self):
        assert classify_tree(build(3, 3, [])) is NOT_TREE
        assert classify_tree(build(3, 3, [(0, 1, 2)])) == TreeClass.path(1)
        sunflower = build(3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        assert classify_tree(sunflower) == TreeClass.tree(3)
        chain = build(3, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        assert classify_tree(chain) == TreeClass.path(3)
        diamond = build(3, 4, [(0, 1, 2), (0, 1, 3)])
        assert classify_tree(diamond) == TreeClass.path(2)
        disjoint = build(3, 6, [(0, 1, 2), (3, 4, 5)])
        assert classify_tree(disjoint) is NOT_TREE
        tight = build(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        assert classify_tree(tight) is NOT_TREE  # wrong vertex count

    def test_matches_naive(self, fuzz_corpus):
        for G in fuzz_corpus:
            if len(G.edges) > 5:
                continue
            tc = classify_tree(G)
            kind = util.naive_tree_kind(G)
            assert (kind == "none") == (not tc.is_tree), G.edges
            assert (kind == "path") == tc.is_path, G.edges
            if tc.is_tree:
                assert tc.size == len(G.edges)

    def test_random_graphs_match_naive(self):
        rng = random.Random(37)
        for _ in range(150):
            r = rng.choice([3, 4])
            G = util.random_hypergraph(rng, r, rng.randint(r, 8), 5)
            tc = classify_tree(G)
            kind = util.naive_tree_kind(G)
            assert (kind != "none") == tc.is_tree
            assert (kind == "path") == tc.is_path

    def test_long_tight_path_needs_no_recursion(self):
        # Deeper than the interpreter's recursion limit, in either edge order.
        edges = [(i, i + 1, i + 2) for i in range(1500)]
        assert classify_tree(build(3, 1502, edges)) == TreeClass.path(1500)
        assert classify_tree(build(3, 1502, edges[::-1])) == TreeClass.path(1500)


# ---------------------------------------------------------------------------
# Text format and documents


class TestText:
    def test_round_trip_fixture(self):
        G = build(3, 6, [(0, 1, 2), (1, 2, 3)])
        text = to_text(G)
        assert text == "3 6 2\n0 1 2\n1 2 3\n"
        assert from_text(text) == G

    def test_comments_and_blanks(self):
        G = from_text("# header\n\n3 5 1  # r n m\n0 1 2\n\n")
        assert G == build(3, 5, [(0, 1, 2)])

    def test_errors(self):
        with pytest.raises(ValueError):
            from_text("")
        with pytest.raises(ValueError):
            from_text("3 5\n")
        with pytest.raises(ValueError):
            from_text("3 5 2\n0 1 2\n")
        with pytest.raises(ValueError):
            from_text("3 5 1\n0 1\n")
        with pytest.raises(ValueError):
            from_text("3 5 one\n")
        with pytest.raises(DuplicateEdge):
            from_text("3 5 2\n0 1 2\n2 1 0\n")

    @settings(max_examples=100, deadline=None)
    @given(graphs())
    def test_round_trip(self, G):
        assert from_text(to_text(G)) == G

    def test_graph_doc(self):
        G = build(3, 5, [(0, 1, 2), (0, 1, 3)])
        assert graph_doc(G) == {
            "r": 3,
            "n": 5,
            "edge_count": 2,
            "edges": [[0, 1, 2], [0, 1, 3]],
        }
