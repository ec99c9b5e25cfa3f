"""Cluster-merging partitions: rules, stages, traces."""

from __future__ import annotations

import random

import pytest

import util
from beslab import merging
from beslab import (
    MergeRule,
    Pair,
    RULE_11,
    RULE_12,
    RULE_2PLUS,
    RULE_3PLUS,
    build,
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
