"""Core graph model: construction, claims, configurations, trees, text I/O."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from beslab import (
    ConfigQuery,
    DuplicateEdge,
    Pair,
    VertexOutOfRange,
    WrongArity,
    build,
    claim_profile,
    claim_set,
    diamond_star,
    f63,
    family_queries,
    family_violation_containing,
    find_configuration,
    from_text,
    graph_doc,
    is_family_free,
    pairs_claimed_upto,
    shadow,
    to_text,
)
from beslab import hypergraphs
from beslab.hypergraphs import _first_containing
from beslab.merging import _pair_components


def containing(G, q, forced):
    """The first configuration for ``q`` that contains edge ``forced``."""
    hit = _first_containing(G, (q,), forced)
    return hit and hit[0]


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

    def test_matches_naive_build(self):
        # The first fault in edge order decides, and within an edge the
        # arity comes before the range: same class and message as the
        # edge-by-edge reference, and equal graphs on valid input.
        cases = [
            (3, 5, [(0, 1, 2), (2, 1, 0), (0, 1, 9)]),  # duplicate, then out of range
            (3, 5, [(0, 1, 9), (0, 1, 2), (2, 1, 0)]),  # out of range, then duplicate
            (3, 5, [(0, 1, 2), (1, 0, 2), (0, 1)]),  # duplicate, then wrong arity
            (3, 5, [(0, 1), (0, 1, 2), (1, 0, 2)]),  # wrong arity, then duplicate
            (3, 5, [(4, 4, 9)]),  # repeated vertex out of range
            (3, 5, [(-1, 2, 1)]),
            (3, 5, [()]),
            (3, 5, [(3, 2, 1, 0)]),
            (1, 5, [(0,)]),
            (3, -1, [(0, 1, 2)]),
            (3, 0, []),
            (2, 5, [[4, 0], (3, 1), range(0, 3, 2)]),
        ]
        rng = random.Random(53)
        for _ in range(300):
            r = rng.choice([2, 3, 4])
            n = rng.randint(r - 1, r + 4)
            edges = []
            for _ in range(rng.randint(0, 6)):
                size = r if rng.random() < 0.85 else rng.choice([r - 1, r + 1])
                edges.append([rng.randint(-1 if rng.random() < 0.05 else 0, n) for _ in range(size)])
            cases.append((r, n, edges))
        valid = 0
        for r, n, edges in cases:
            got, want = _outcome(build, r, n, edges), _outcome(util.naive_build, r, n, edges)
            assert got == want, (r, n, edges)
            valid += not isinstance(got, tuple)
        assert valid > 30


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
        assert cs == {0, 1}

    def test_degenerate_pair_rejected(self):
        # a Pair built directly, past Pair.of's check, names one vertex twice
        G = build(3, 4, [(0, 1, 2)])
        with pytest.raises(ValueError, match="two distinct vertices"):
            claim_set(G, Pair(1, 1), 1)

    def test_single_edge_pair_outside(self):
        G = build(3, 5, [(0, 1, 2)])
        assert claim_set(G, Pair.of(3, 4), 1) == {0}

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
            got = claim_set(G, Pair.of(u, v), cap)
            assert got == util.naive_claim_set(G, u, v, cap), (G.edges, u, v, cap)

    def test_pairs_claimed_upto_matches_naive(self, fuzz_corpus):
        for G in fuzz_corpus:
            if len(G.edges) > 6:
                continue
            pairs = set(itertools.combinations(G.vertices(), 2))
            for t in (1, 2, 3):
                got = {(p.u, p.v) for p in pairs_claimed_upto(G, t)}
                want = {
                    (u, v)
                    for u, v in pairs
                    if util.naive_claim_set(G, u, v, t) & set(range(1, t + 1))
                }
                assert got == want, (G.edges, t)

    def test_validation(self):
        G = build(3, 5, [(0, 1, 2)])
        with pytest.raises(ValueError):
            pairs_claimed_upto(G, 0)
        with pytest.raises(ValueError):
            claim_profile(G, -1)
        with pytest.raises(ValueError):
            claim_set(G, Pair.of(0, 1), -1)
        with pytest.raises(ValueError):
            find_configuration(G, ConfigQuery(0, 2))

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_m=4), st.data())
    def test_relabel_invariance(self, G, data):
        perm = data.draw(st.permutations(range(G.n))) if G.n else []
        H = util.relabel(G, perm)
        verts = list(range(G.n))
        if len(verts) < 2:
            return
        u, v = verts[0], verts[-1] if verts[-1] != verts[0] else verts[1]
        a = claim_set(G, Pair.of(u, v), 3)
        b = claim_set(H, Pair.of(perm[u], perm[v]), 3)
        assert a == b


class TestClaimProfile:
    @staticmethod
    def _graphs(fuzz_corpus, big_star):
        # (graph, largest cap checked): f63 stops at 4, where the naive scan
        # already walks C(61, 4) subsets.
        return [(G, 5) for G in fuzz_corpus] + [(util.wide_probe(12), 5), (big_star, 4)]

    def test_matches_naive(self, fuzz_corpus, big_star):
        for G, top in self._graphs(fuzz_corpus, big_star):
            for cap in range(top + 1):
                assert claim_profile(G, cap) == util.naive_claim_profile(G, cap), (G.edges, cap)

    def test_lower_cap_drops_the_top_bit(self, fuzz_corpus, big_star):
        def without(prof, i):
            keep = ~(1 << i)
            return (
                prof.all_bits & keep,
                {v: b & keep for v, b in prof.vertex_bits.items() if b & keep},
                {p: b & keep for p, b in prof.pair_bits.items() if b & keep},
            )

        for G, _ in self._graphs(fuzz_corpus, big_star):
            for cap in range(6):
                low = claim_profile(G, cap)
                assert (low.all_bits, low.vertex_bits, low.pair_bits) == without(
                    claim_profile(G, cap + 1), cap + 1
                ), (G.edges, cap)


# ---------------------------------------------------------------------------
# Configuration search and the banned family


class TestMeetLevels:
    """``hypergraphs._meet``, the one update of a ``meets`` level list, on
    random item masks against its definition: entry i holds the items
    meeting the vertex set in at least i vertices."""

    def test_matches_definition(self):
        rng = random.Random(41)
        for _ in range(400):
            n = rng.randint(1, 12)
            items = [rng.getrandbits(n) for _ in range(rng.randint(0, 24))]
            by_vertex = [sum(1 << h for h, m in enumerate(items) if m >> v & 1) for v in range(n)]
            incidence = rng.choice([by_vertex, dict(enumerate(by_vertex))])
            top = rng.randint(0, 6)
            vs = rng.sample(range(n), rng.randint(0, n))
            cut = rng.randint(0, len(vs))
            meets = [(1 << len(items)) - 1] + [0] * top
            hypergraphs._meet(meets, incidence, sum(1 << v for v in vs[:cut]))  # in two steps
            hypergraphs._meet(meets, incidence, sum(1 << v for v in vs[cut:]))
            vmask = sum(1 << v for v in vs)
            want = [
                sum(1 << h for h, m in enumerate(items) if (m & vmask).bit_count() >= i)
                for i in range(top + 1)
            ]
            assert meets == want, (items, vs, top)


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
            got = containing(G, ConfigQuery(k, s), forced)
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
        assert [containing(G, q, f) for f in range(5)] == [
            (0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 3), None
        ]
        assert containing(G, ConfigQuery(1, 3), 2) == (2,)
        assert containing(G, ConfigQuery(2, 5), 4) == (1, 4)

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
                assert (res.query, res.witness) == _first_violation(G, k), (G.edges, k)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([3, 4, 5]), st.integers(2, 7), st.data())
    def test_freeness_witness_is_the_first(self, r, k, data):
        # At least k edges on few vertices, so most graphs hold some member
        # and the witness comes from the fallback scan.
        n = data.draw(st.integers(r + 1, r + 3))
        cands = list(itertools.combinations(range(n), r))
        m = data.draw(st.integers(min(k, len(cands)), min(10, len(cands))))
        picks = data.draw(st.lists(st.sampled_from(cands), min_size=m, max_size=m, unique=True))
        G = build(r, n, picks)
        res = is_family_free(G, k)
        assert (res.query, res.witness) == _first_violation(G, k)
        assert res.free == (res.witness is None)

    def test_freeness_matches_the_subset_scan(self):
        # Sparse and dense random graphs against the lexicographic scan of
        # find_configuration, query by query; the first three graphs are
        # ones where a search branching on too few vertices of the union
        # misses the main-query configuration.
        graphs = [
            build(3, 9, [(0, 1, 4), (0, 3, 4), (2, 4, 8), (2, 5, 6), (3, 6, 8), (4, 6, 8)]),
            build(3, 8, [(0, 2, 4), (0, 2, 7), (1, 3, 7), (1, 5, 7), (3, 4, 7)]),
            build(3, 7, [(0, 2, 3), (0, 2, 5), (1, 4, 6), (3, 4, 6), (3, 5, 6)]),
        ]
        rng = random.Random(47)
        for _ in range(600):
            r = rng.choice([2, 3, 3, 4, 5])
            n = rng.randint(r, r + 6)
            graphs.append(util.random_hypergraph(rng, r, n, rng.choice([6, 10, 14])))
        for G in graphs:
            for k in range(2, 9):
                res = is_family_free(G, k)
                assert (res.query, res.witness) == _first_scan_hit(G, k), (G.edges, k)

    def test_freeness_matches_the_subset_scan_at_hubs(self, hub_graphs):
        # Diamond stars and f63 copies with extra edges: nodes at the hub
        # fit many edges, so the search branches under the child bound.
        hits = []
        for G, k in hub_graphs:
            res = is_family_free(G, k)
            want = _first_scan_hit(G, k)
            assert (res.query, res.witness) == want, (G.edges, k)
            hits.append(want[0] and want[0].edge_count)
        assert {None, 3, 4, 5, 6, 7} <= set(hits)

    def test_walking_edges_or_bounding_gives_the_same_answers(
        self, monkeypatch, fuzz_corpus, hub_graphs
    ):
        # Deciding a node by one walk over its fitting edges, the first from
        # the branch set (the few-node lemma), or branching under the child
        # bound and the bulk drop of hub edges is exact either way.
        rng = random.Random(67)
        cases = [(G, k) for G in fuzz_corpus for k in (5, 6, 7)] + list(hub_graphs)
        # bulk work that took edges meeting U twice for edges meeting it
        # once would lose this graph's configuration
        edges = [(0, 4, 5), (0, 6, 7), (1, 5, 6), (1, 6, 7), (4, 6, 9), (4, 7, 9)]
        cases.append((build(3, 11, edges), 7))
        for r, k in [(3, 5), (4, 5), (3, 6), (4, 6), (3, 7)]:
            for _ in range(6):
                G = util.random_free_graph(rng, r, k, rng.randint(r + 4, 11))
                cases += [(G, kk) for kk in range(4, 8)]
        want = [is_family_free(G, k) for G, k in cases]
        assert 0 < sum(res.free for res in want) < len(want)
        for one_by_one in (True, False):
            calls = []
            monkeypatch.setattr(
                hypergraphs, "_walks_edges", lambda *args: calls.append(args) or one_by_one
            )
            assert [is_family_free(G, k) for G, k in cases] == want, one_by_one
            assert len(calls) > 100

    def test_shared_state_answers_like_fresh_state(self, fuzz_corpus, hub_graphs):
        # The shared-state lemma of is_family_free: each query, run in
        # family order on one state of the graph, finds the anchor that a
        # run from state built afresh finds.  The state holds at most one
        # peel core per t (3 for the denser members, 2 for the main query),
        # and after the queries it is still the state built afresh.
        cases = [(G, k) for G in fuzz_corpus for k in (5, 6, 7)] + list(hub_graphs)
        anchors = []
        for G, k in cases:
            shared = hypergraphs._Shared(G)
            for ell, s in family_queries(G.r, k):
                got = hypergraphs._first_anchor(G, shared, ell, s)
                assert got == hypergraphs._first_anchor(G, hypergraphs._Shared(G), ell, s), (
                    G.edges, k, ell,
                )
                anchors.append(got)
                if got is not None:
                    break
            fresh = hypergraphs._Shared(G)
            assert set(shared._cores) <= {2, 3}
            assert all(shared.core(t) == fresh.core(t) for t in shared._cores), (G.edges, k)
            assert all(meets == fresh.root(a) for a, meets in shared._roots.items())
            assert all(
                keep == hypergraphs._partnered(G, fresh.incidence, v, j)
                for (v, j), keep in shared._partnered.items()
            )
        assert anchors.count(None) > 1000 and len(anchors) - anchors.count(None) > 500

    def test_every_edge_of_a_first_violation_meets_the_rest(self):
        # The lemma behind is_family_free: in the first query with a hit,
        # every configuration's edges each meet the others in at least 2
        # vertices (main query) or 3 (denser member), and so does every
        # proper part of it with the rest.
        rng = random.Random(41)
        hits = 0
        for _ in range(400):
            r = rng.choice([3, 3, 4, 5])
            G = util.random_hypergraph(rng, r, rng.randint(r + 1, r + 5), 9)
            k = rng.randint(2, 7)
            query, _ = _first_violation(G, k)
            if query is None:
                continue
            ell, s = query
            t = 2 if query == family_queries(r, k)[-1] else 3
            for combo in itertools.combinations(range(len(G.edges)), ell):
                if len(_span(G, combo)) > s:
                    continue
                hits += 1
                for size in range(1, ell):
                    for part in itertools.combinations(combo, size):
                        rest = [i for i in combo if i not in part]
                        shared = _span(G, part) & _span(G, rest)
                        assert len(shared) >= t, (G.edges, k, combo, part)
        assert hits > 300

    def test_large_graph_witnesses(self):
        # Two disjoint f63 copies, then one extra edge closing a member.
        F = f63()
        edges = [tuple(v + 63 * c for v in e) for c in range(2) for e in F.edges]
        G = build(3, 127, edges)
        assert is_family_free(G, 6) == (True, None, None)
        found = []
        for extra in [(0, 1, 126), (3, 4, 66), (5, 70, 126), (0, 3, 4), (1, 3, 5)]:
            H = build(3, 127, edges + [extra])
            res = is_family_free(H, 6)
            query = next((q for q in family_queries(3, 6) if find_configuration(H, q)), None)
            assert (res.query, res.witness) == (query, query and find_configuration(H, query))
            found.append(query and query.edge_count)
        assert found == [6, 6, None, 4, 5]

    def test_violation_containing(self, fuzz_corpus):
        # The first query with a configuration through the forced edge, and
        # the lexicographically first such configuration.
        rng = random.Random(59)
        cases = [(G, k) for G in fuzz_corpus for k in range(2, 8)]
        graphs = 0
        while graphs < 200:
            r = rng.choice([3, 4, 5])
            G = util.random_hypergraph(rng, r, rng.randint(r + 1, r + 3), 8)
            k = rng.randint(2, 7)
            if not is_family_free(G, k):
                cases.append((G, k))
                graphs += 1
        answers = []
        for G, k in cases:
            for forced in range(len(G.edges)):
                got = family_violation_containing(G, k, forced)
                assert got == util.naive_violation_containing(G, k, forced), (G.edges, k, forced)
                answers.append(got is None)
        assert answers.count(False) > 1000 and answers.count(True) > 200

    def test_violation_containing_refuses_like_naive(self):
        G = build(3, 5, [(0, 1, 2), (0, 1, 3)])
        for fn in (family_violation_containing, util.naive_violation_containing):
            for forced in (-1, 2):
                with pytest.raises(IndexError):
                    fn(G, 5, forced)
            for k in (1, 0):
                with pytest.raises(ValueError):
                    fn(G, k, 0)

    def test_long_tight_path_needs_no_recursion(self):
        # 1,200 edges on 1,202 vertices: deeper than the interpreter's
        # recursion limit.
        G = build(3, 1202, [(i, i + 1, i + 2) for i in range(1200)])
        assert find_configuration(G, ConfigQuery(1200, 1202)) == tuple(range(1200))
        assert find_configuration(G, ConfigQuery(1200, 1201)) is None


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the class and message it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _span(G, indices) -> set[int]:
    out: set[int] = set()
    for i in indices:
        out |= set(G.edges[i])
    return out


def _first_scan_hit(G, k):
    """(query, witness) of the first family query for which
    find_configuration finds a configuration, or (None, None)."""
    for q in family_queries(G.r, k):
        w = find_configuration(G, q)
        if w is not None:
            return q, w
    return None, None


def _with_extra_edges(rng, B):
    """``B`` plus one or two random edges, each on zero, one or two
    vertices of an edge of ``B`` and otherwise anywhere."""
    edges = set(B.edges)
    for _ in range(rng.randint(1, 2)):
        keep = rng.sample(rng.choice(B.edges), rng.randint(0, 2))
        others = [v for v in range(B.n) if v not in keep]
        edges.add(tuple(sorted(keep + rng.sample(others, B.r - len(keep)))))
    return build(B.r, B.n, edges)


def _random_hub_graph(rng):
    """A random graph on r + 3 to 13 vertices whose edges favour one or two
    hub vertices."""
    r = rng.choice([3, 3, 4])
    n = rng.randint(r + 3, 13)
    hubs = set(rng.sample(range(n), rng.randint(1, 2)))
    cands = list(itertools.combinations(range(n), r))
    weights = [4 if hubs & set(c) else 1 for c in cands]
    return build(r, n, set(rng.choices(cands, weights, k=rng.randint(4, 14))))


@pytest.fixture(scope="module")
def hub_graphs():
    """(graph, k) pairs: the hub-heavy constructions with extra edges, and
    random graphs around hubs."""
    rng = random.Random(61)
    bases = [
        (diamond_star(4), 5, 100),
        (diamond_star(8), 5, 100),
        (diamond_star(12), 5, 100),
        (diamond_star(10), 7, 100),
        (f63(), 6, 60),
        (util.f63_copies(2), 6, 8),
    ]
    out = [(_with_extra_edges(rng, B), k) for B, k, count in bases for _ in range(count)]
    return out + [(_random_hub_graph(rng), k) for _ in range(300) for k in (4, 5, 6, 7)]


def _first_violation(G, k):
    """(query, witness) of the first family query with a naive hit, in
    query order, and the first combination that query finds."""
    for q in family_queries(G.r, k):
        w = util.naive_find_config(G, q.edge_count, q.max_vertices)
        if w is not None:
            return q, w
    return None, None


# ---------------------------------------------------------------------------
# Trees


def lemma_tree(F) -> bool:
    """The tree lemma of ``merging``: m >= 1 edges form an i-tree exactly
    when they are pair-connected and span (r-2)*m + 2 vertices."""
    m = len(F.edges)
    return m >= 1 and F.vertex_count() == (F.r - 2) * m + 2 and len(_pair_components(F.edges)) == 1


def grown_tree_plus_stray(rng: random.Random, r: int, m: int):
    """An i-tree of ``m`` edges grown at random (one edge when r = 2, where
    no second edge meets the union in a pair only), plus one random stray
    edge on its vertices and one more, relabeled at random."""
    edges = [tuple(range(r))]
    n = r
    while r > 2 and len(edges) < m:
        pair = rng.sample(rng.choice(edges), 2)
        edges.append(tuple(sorted(pair + list(range(n, n + r - 2)))))
        n += r - 2
    stray = tuple(sorted(rng.sample(range(n + 1), r)))
    if stray not in edges:
        edges.append(stray)
    perm = list(range(n + 1))
    rng.shuffle(perm)
    return util.relabel(build(r, n + 1, edges), perm)


class TestTrees:
    # spans (r-2)*4 + 2 vertices, but no two of its edges share a pair
    PASCH = build(3, 6, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)])

    def test_fixtures(self):
        sunflower = build(3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        chain = build(3, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        diamond = build(3, 4, [(0, 1, 2), (0, 1, 3)])
        disjoint = build(3, 6, [(0, 1, 2), (3, 4, 5)])
        tight = build(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])  # too few vertices
        for F in (build(3, 3, [(0, 1, 2)]), sunflower, chain, diamond, build(2, 2, [(0, 1)])):
            assert lemma_tree(F) and util.naive_tree_kind(F) != "none", F.edges
        for F in (build(3, 3, []), disjoint, tight, self.PASCH, build(2, 3, [(0, 1), (1, 2)])):
            assert not lemma_tree(F) and util.naive_tree_kind(F) == "none", F.edges

    def test_matches_naive(self, fuzz_corpus):
        for G in fuzz_corpus:
            if len(G.edges) > 6:
                continue
            assert lemma_tree(G) == (util.naive_tree_kind(G) != "none"), G.edges

    def test_random_graphs_match_naive(self):
        # The lemma against every edge order, r = 2..5 and at most 6 edges,
        # on random graphs and on grown trees with one stray edge.
        rng = random.Random(41)
        trees = 0
        for trial in range(400):
            r = 2 + trial % 4
            if trial % 2:
                G = util.random_hypergraph(rng, r, rng.randint(r, r + 4), 6)
            else:
                G = grown_tree_plus_stray(rng, r, rng.randint(1, 5))
            kind = util.naive_tree_kind(G)
            assert lemma_tree(G) == (kind != "none"), G.edges
            trees += kind != "none"
        assert 100 <= trees <= 300, trees


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
