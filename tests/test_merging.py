"""Cluster-merging partitions: rules, stages, traces."""

from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from beslab import merging
from beslab import (
    ClaimProfile,
    MergeRule,
    Pair,
    RULE_11,
    RULE_12,
    RULE_2PLUS,
    RULE_3PLUS,
    build,
    certify,
    claim_profile,
    claimed_pairs,
    composition,
    diamond_star,
    m11,
    m12,
    m2plus,
    m3plus,
    merge,
    partition_report,
    rule_for,
    tp_pair_set,
    trivial_partition,
)

# Fixture graphs distinguishing the four rules.
DIAMOND_PLUS_EDGE = build(3, 5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
SUNFLOWER_PLUS_EDGE = build(3, 6, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 5)])
# single edge 1-claims (0,1); the other component 3- and 4-claims it
EDGE_PLUS_34 = build(3, 7, [(0, 1, 2), (0, 4, 5), (4, 5, 6), (1, 5, 6), (1, 4, 6)])
# same without the 4-claim: three_plus must not fire
EDGE_PLUS_3_ONLY = build(3, 7, [(0, 1, 2), (0, 4, 5), (4, 5, 6), (1, 5, 6)])
# diamond claims {1,2} on (0,1); the other component 3-claims it
DIAMOND_PLUS_123 = build(
    3, 7, [(0, 1, 2), (0, 1, 3), (0, 4, 5), (4, 5, 6), (1, 5, 6)]
)


def naive_pair_components(G):
    m = len(G.edges)
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(m):
        for j in range(i + 1, m):
            if len(set(G.edges[i]) & set(G.edges[j])) >= 2:
                parent[find(i)] = find(j)
    comps = {}
    for i in range(m):
        comps.setdefault(find(i), set()).add(i)
    return {frozenset(c) for c in comps.values()}


class TestRules:
    def test_constructors(self):
        assert RULE_11 == MergeRule.sets({1}, {1})
        assert RULE_12 == MergeRule.sets({1}, {2})
        assert RULE_11.claim_cap == 1
        assert RULE_12.claim_cap == 2
        assert RULE_2PLUS.claim_cap == 1
        assert RULE_3PLUS.claim_cap == 4
        with pytest.raises(ValueError):
            MergeRule.sets(set(), {1})
        with pytest.raises(ValueError):
            MergeRule.sets({0}, {1})


class TestStages:
    def test_one_edge_state_in_closed_form(self):
        # A one-edge part skips claim_profile; its state must be the one the
        # general path builds from the part's own subgraph.
        rng = random.Random(43)
        rules = (RULE_11, RULE_12, RULE_2PLUS, RULE_3PLUS, MergeRule.sets({2}, {5}))
        for _ in range(40):
            r = rng.choice([2, 3, 4, 5])
            G = util.random_hypergraph(rng, r, rng.randint(r, 9), 6)
            for i in range(len(G.edges)):
                for rule in rules:
                    got = merging._make_state(G, (i,), (), rule)
                    part = G.subgraph([i])
                    assert got.profile == claim_profile(part, rule.claim_cap)
                    assert got.one_pairs == claimed_pairs(part, 1)
                    want_tp = tp_pair_set(part) if rule.kind == "two_plus" else None
                    assert got.tp_pairs == want_tp
                    assert got.edges == (i,)

    def test_trivial(self):
        G = DIAMOND_PLUS_EDGE
        p = trivial_partition(G)
        assert p.stage == "trivial"
        assert [c.id for c in p.clusters] == [0, 1, 2]
        assert p.edge_sets() == {frozenset({0}), frozenset({1}), frozenset({2})}

    def test_m11_matches_pair_components(self, fuzz_corpus):
        for G in fuzz_corpus:
            assert m11(G).edge_sets() == naive_pair_components(G), G.edges

    def test_m11_random(self):
        rng = random.Random(41)
        for _ in range(60):
            G = util.random_hypergraph(rng, rng.choice([3, 4]), rng.randint(4, 9), 9)
            assert m11(G).edge_sets() == naive_pair_components(G)

    def test_stage_names(self):
        G = DIAMOND_PLUS_EDGE
        assert m11(G).stage == "m11"
        assert m12(G).stage == "m12"
        assert m2plus(G).stage == "m2plus"
        assert m3plus(G).stage == "m3plus"

    def test_m12_merges_one_two(self):
        # the lone edge 1-claims (2,3), which the diamond 2-claims
        assert m11(DIAMOND_PLUS_EDGE).edge_sets() == {
            frozenset({0, 1}),
            frozenset({2}),
        }
        assert m12(DIAMOND_PLUS_EDGE).edge_sets() == {frozenset({0, 1, 2})}

    def test_m2plus_needs_a_subtree(self):
        # a 2-edge part 2-claims (2,3) but has no 3-edge subtree: no merge
        assert m2plus(DIAMOND_PLUS_EDGE).edge_sets() == {
            frozenset({0, 1}),
            frozenset({2}),
        }
        # the 3-edge sunflower is a subtree 2-claiming (2,3): merge
        assert m2plus(SUNFLOWER_PLUS_EDGE).edge_sets() == {frozenset({0, 1, 2, 3})}

    def test_m3plus_one_against_three_four(self):
        assert m12(EDGE_PLUS_34).edge_sets() == {
            frozenset({0}),
            frozenset({1, 2, 3, 4}),
        }
        assert m3plus(EDGE_PLUS_34).edge_sets() == {frozenset({0, 1, 2, 3, 4})}
        # without the 4-claim neither three_plus variant applies
        assert m3plus(EDGE_PLUS_3_ONLY).edge_sets() == {
            frozenset({0}),
            frozenset({1, 2, 3}),
        }

    def test_m3plus_one_two_against_three(self):
        assert m12(DIAMOND_PLUS_123).edge_sets() == {
            frozenset({0, 1}),
            frozenset({2, 3, 4}),
        }
        assert m3plus(DIAMOND_PLUS_123).edge_sets() == {
            frozenset({0, 1, 2, 3, 4})
        }

    def test_new_cluster_ids_continue_from_edge_count(self):
        G = diamond_star(2)
        p = m11(G)
        assert sorted(c.id for c in p.clusters) == [4, 5]
        assert p.edge_sets() == {frozenset({0, 2}), frozenset({1, 3})}
        q = m12(DIAMOND_PLUS_EDGE)
        (c,) = q.clusters
        assert c.id >= len(DIAMOND_PLUS_EDGE.edges)

    def test_wrong_ambient_rejected(self):
        G = diamond_star(1)
        H = diamond_star(2)
        with pytest.raises(ValueError):
            merge(H, trivial_partition(G), RULE_11)

    def test_cluster_of_edge(self):
        p = m11(diamond_star(2))
        assert p.cluster_of_edge(0) is p.cluster_of_edge(2)
        with pytest.raises(KeyError):
            p.cluster_of_edge(17)


class TestTwoPlusPairs:
    def test_matches_naive(self, fuzz_corpus):
        for G in fuzz_corpus:
            if len(G.edges) > 7:
                continue
            got = tp_pair_set(G)
            verts = list(G.vertices())
            for i, u in enumerate(verts):
                for v in verts[i + 1 :]:
                    assert (Pair(u, v) in got) == util.naive_two_plus(G, u, v), (
                        G.edges,
                        u,
                        v,
                    )

    def test_matches_naive_on_dense_graphs(self):
        # r = 5 and graphs that are not free: edges grown on two vertices
        # of an earlier edge make many triples span exactly 3r - 4 vertices.
        rng = random.Random(31)
        for _ in range(30):
            r = rng.choice([3, 4, 5])
            n = 3 * r - 3
            size = rng.randint(3, 7)
            edges = {tuple(sorted(rng.sample(range(n), r)))}
            while len(edges) < size:
                if rng.random() < 0.7:
                    pair = rng.sample(sorted(rng.choice(sorted(edges))), 2)
                    rest = rng.sample([v for v in range(n) if v not in pair], r - 2)
                    edges.add(tuple(sorted(pair + rest)))
                else:
                    edges.add(tuple(sorted(rng.sample(range(n), r))))
            G = build(r, n, edges)
            got = tp_pair_set(G)
            for u, v in itertools.combinations(G.vertices(), 2):
                assert (Pair(u, v) in got) == util.naive_two_plus(G, u, v), (G.edges, u, v)

    def test_two_plus_claims_single(self):
        G = SUNFLOWER_PLUS_EDGE
        assert Pair.of(2, 3) in tp_pair_set(G)
        assert Pair.of(0, 5) not in tp_pair_set(G)


class TestDeterminism:
    def test_shuffled_schedules_reach_same_fixpoint(self, fuzz_corpus):
        for G in fuzz_corpus[:12]:
            for stage in (m11, m12, m2plus, m3plus):
                base = stage(G).edge_sets()
                for seed in range(8):
                    assert stage(G, rng=random.Random(seed)).edge_sets() == base

    def test_repeat_runs_identical_reports(self):
        for G in (DIAMOND_PLUS_123, SUNFLOWER_PLUS_EDGE, diamond_star(3)):
            assert partition_report(m3plus(G)) == partition_report(m3plus(G))


class TestTraces:
    def test_replay_reconstructs_clusters(self, fuzz_corpus):
        for G in fuzz_corpus[:20]:
            start = trivial_partition(G)
            for stage in (m11, m3plus):
                for c in stage(G).clusters:
                    assert util.replay_trace(start, c) == frozenset(c.edge_indices)

    def test_trace_events_have_witness_pairs(self):
        p = m3plus(DIAMOND_PLUS_123)
        (c,) = p.clusters
        assert len(c.trace) == len(DIAMOND_PLUS_123.edges) - 1
        for ev in c.trace:
            assert ev.new_id > ev.right > ev.left or ev.new_id > ev.left


class TestComposition:
    def test_fixtures(self):
        p = m11(diamond_star(2))
        assert all(composition(c).sizes == (2,) for c in p.clusters)
        q = m3plus(DIAMOND_PLUS_123)
        (c,) = q.clusters
        assert composition(c).sizes == (3, 2)

    def test_big_star(self, big_star):
        p = m12(big_star)
        sizes = sorted((len(c.edge_indices) for c in p.clusters), reverse=True)
        assert sizes == [13] + [2] * 24
        big = max(p.clusters, key=lambda c: len(c.edge_indices))
        assert composition(big).sizes == (2, 2, 2, 2, 2, 2, 1)
        # the third round adds nothing here
        assert m3plus(big_star).edge_sets() == p.edge_sets()
        assert len(m11(big_star).clusters) == 31


class TestReports:
    def test_shape(self):
        doc = partition_report(m11(diamond_star(2)))
        assert doc["stage"] == "m11"
        assert doc["rule_stack"] == [{"kind": "sets", "A": [1], "B": [1]}]
        assert doc["ambient"] == {"r": 3, "n": 6, "edge_count": 4}
        assert [c["edges"] for c in doc["clusters"]] == [[0, 2], [1, 3]]
        for c in doc["clusters"]:
            assert c["composition"] == [2]
            assert len(c["trace"]) == 1
            ev = c["trace"][0]
            assert set(ev) == {"new", "left", "right", "pair", "direction"}


def _random_profile(rng: random.Random, n: int, named: list[int]) -> ClaimProfile:
    """Claim bits 1..4 on random vertices and pairs among ``named``."""
    vertex_bits = {v: rng.randrange(2, 32, 2) for v in named if rng.random() < 0.3}
    pair_bits = {
        Pair(u, v): rng.randrange(2, 32, 2)
        for u, v in itertools.combinations(named, 2)
        if rng.random() < 0.3
    }
    all_bits = rng.choice([0, 0, rng.randrange(2, 32, 2)])
    return ClaimProfile(
        r=3, n=n, cap=4, edge_count=0, all_bits=all_bits, vertex_bits=vertex_bits,
        pair_bits=pair_bits,
    )


def _state(prof: ClaimProfile) -> merging._PartState:
    return merging._PartState(edges=(), trace=(), profile=prof, one_pairs=frozenset(), tp_pairs=None)


class TestSetsWitness:
    def test_matches_full_scan(self):
        # T (the named vertices) ranges from a few vertices to all but one
        # (n = |T| + 1) and all of them; every pair of claim masks is tried.
        rng = random.Random(47)
        tried_wide = 0
        for trial in range(48):
            n = rng.randint(2, 9)
            spare = trial % 3  # vertices left outside T: 0, 1 or more
            size = n - spare if spare < 2 else rng.randint(0, n - 2)
            named = sorted(rng.sample(range(n), size))
            sp = _state(_random_profile(rng, n, named))
            sq = _state(_random_profile(rng, n, named))
            tried_wide += sp.profile.has_wide_evidence or sq.profile.has_wide_evidence
            for a_bits in range(2, 32, 2):
                for b_bits in range(2, 32, 2):
                    args = (sp, sq, a_bits, b_bits, n, ("left", "right"))
                    assert merging._sets_witness(*args) == util.naive_sets_witness(*args), (
                        n, named, sp.profile, sq.profile, a_bits, b_bits,
                    )
        assert tried_wide > 30

    def test_wide_probe_scan_ignores_unused_vertices(self, monkeypatch):
        # The probe partitions the same at n = 12 and n = 800 and reads the
        # same number of claim bits: the full scan read two per vertex pair.
        reads = 0
        inner = ClaimProfile.bits

        def counted(self, u, v):
            nonlocal reads
            reads += 1
            return inner(self, u, v)

        monkeypatch.setattr(ClaimProfile, "bits", counted)
        for tail in (2, 4):
            docs, counts = [], []
            for n in (12, 800):
                reads = 0
                docs.append(partition_report(m3plus(util.wide_probe(n, tail)))["clusters"])
                counts.append(reads)
            assert docs[0] == docs[1]
            assert [c["edges"] for c in docs[0]] == [list(range(4 + tail))]
            assert 0 < counts[0] == counts[1], counts


class TestMergeIndex:
    def _graphs(self, fuzz_corpus):
        # The last graph files a narrow merged part after a wide merge.
        shifted = [tuple(v + 7 for v in e) for e in DIAMOND_PLUS_123.edges]
        return list(fuzz_corpus) + [
            util.f63_copies(2),
            diamond_star(8),
            util.wide_probe(12, 2),
            util.wide_probe(12, 4),
            build(3, 14, list(util.wide_probe(14).edges) + shifted),
        ]

    def test_reports_match_all_pairs_merge(self, fuzz_corpus):
        for G in self._graphs(fuzz_corpus):
            for stage, run in merging.STAGES.items():
                for seed in (None, 5):
                    rng = None if seed is None else random.Random(seed)
                    naive_rng = None if seed is None else random.Random(seed)
                    got = json.dumps(partition_report(run(G, rng=rng)))
                    want = json.dumps(partition_report(util.naive_stage(G, stage, naive_rng)))
                    assert got == want, (G.edges, stage, seed)

    def test_tree_copies_match_all_pairs_merge(self):
        # Copies of the tree {012, 013, 124}, disjoint or sharing a vertex
        # with the next copy, leave many parts and candidates in flight.
        trees = [(0, 1, 2), (0, 1, 3), (1, 2, 4)]
        for step in (5, 4):
            G = build(3, 12 * step + 1, [tuple(v + step * i for v in e) for i in range(12) for e in trees])
            for stage, run in merging.STAGES.items():
                for seed in (None, 2):
                    rng = None if seed is None else random.Random(seed)
                    naive_rng = None if seed is None else random.Random(seed)
                    got = json.dumps(partition_report(run(G, rng=rng)))
                    want = json.dumps(partition_report(util.naive_stage(G, stage, naive_rng)))
                    assert got == want, (step, stage, seed)

    @pytest.mark.parametrize(
        "G, k", [(diamond_star(128), 5), (util.f63_copies(8), 6)], ids=["ds128", "f63x8"]
    )
    def test_certify_checks_linearly_many_pairs(self, G, k, monkeypatch):
        # All-pairs checking made 57,024 and 267,996 calls on these graphs.
        calls = 0
        inner = merging._mergeable

        def counted(*args):
            nonlocal calls
            calls += 1
            return inner(*args)

        monkeypatch.setattr(merging, "_mergeable", counted)
        assert certify(G, rule_for(3, k)).certified
        assert 0 < calls <= 2 * len(G.edges)


# (r, k) pairs reaching every rule_for case: K5R3, K5High, K63, K6High, K7.
RULE_CASES = [(3, 5), (4, 5), (3, 6), (4, 6), (3, 7), (4, 7)]


class TestNoWideEvidenceOnFreeGraphs:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(RULE_CASES), st.integers(0, 2**32), st.data())
    def test_free_graph_profiles_are_narrow(self, case, seed, data):
        # A wide claim at index i needs i edges on at most (r-2)i + 1
        # vertices, a denser family member for 2 <= i < k, and no stage's
        # claim cap reaches k.  Claims only grow with the edge set, so the
        # whole graph's profile bounds every part's.
        r, k = case
        n = data.draw(st.integers(r + 1, 12))
        G = util.random_free_graph(random.Random(seed), r, k, n, attempts=80)
        rule = rule_for(r, k)
        every = tuple(range(len(G.edges)))
        for merge_rule in util.NAIVE_STAGE_RULES[rule.stage]:
            assert merge_rule.claim_cap <= k - 1
            state = merging._make_state(G, every, (), merge_rule)
            assert not state.profile.has_wide_evidence, (G.edges, merge_rule)
        last = util.NAIVE_STAGE_RULES[rule.stage][-1]
        for c in merging.STAGES[rule.stage](G).clusters:
            state = merging._make_state(G, c.edge_indices, (), last)
            assert not state.profile.has_wide_evidence, (G.edges, c.edge_indices)
