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
        # A one-edge part, and any part under a cap-1 rule, skips
        # claim_profile; its state must be the one the general path builds
        # from the part's own subgraph, with bit 2 on the 2+ pairs under
        # RULE_2PLUS.
        rng = random.Random(43)
        rules = (RULE_11, RULE_12, RULE_2PLUS, RULE_3PLUS, MergeRule.sets({2}, {5}))
        for _ in range(40):
            r = rng.choice([2, 3, 4, 5])
            G = util.random_hypergraph(rng, r, rng.randint(r, 9), 6)
            for i in range(len(G.edges)):
                for rule in rules:
                    got = merging._make_state(G, (i,), rule)
                    part = G.subgraph([i])
                    assert got == claim_profile(part, rule.claim_cap)
                    assert set(got.pair_bits) == claimed_pairs(part, 1)
            # Under a cap-1 rule every part takes the closed form.
            for _ in range(3 if len(G.edges) >= 2 else 0):
                edges = tuple(rng.sample(range(len(G.edges)), rng.randint(2, len(G.edges))))
                part = G.subgraph(edges)
                for rule in (RULE_11, RULE_2PLUS):
                    got = merging._make_state(G, edges, rule)
                    want = claim_profile(part, 1)
                    assert {p for p, b in got.pair_bits.items() if b & 4} == (
                        tp_pair_set(part) if rule is RULE_2PLUS else set()
                    )
                    assert {p: b & 2 for p, b in got.pair_bits.items() if b & 2} == want.pair_bits
                    assert (got.all_bits, got.vertex_bits) == (0, {})

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
        assert all(composition(c) == (2,) for c in p.clusters)
        q = m3plus(DIAMOND_PLUS_123)
        (c,) = q.clusters
        assert composition(c) == (3, 2)

    def test_big_star(self, big_star):
        p = m12(big_star)
        sizes = sorted((len(c.edge_indices) for c in p.clusters), reverse=True)
        assert sizes == [13] + [2] * 24
        big = max(p.clusters, key=lambda c: len(c.edge_indices))
        assert composition(big) == (2, 2, 2, 2, 2, 2, 1)
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


def _random_profile(rng: random.Random, named: list[int]) -> ClaimProfile:
    """Claim bits 1..4 on random vertices and pairs among ``named``."""
    vertex_bits = {v: rng.randrange(2, 32, 2) for v in named if rng.random() < 0.3}
    pair_bits = {
        Pair(u, v): rng.randrange(2, 32, 2)
        for u, v in itertools.combinations(named, 2)
        if rng.random() < 0.3
    }
    all_bits = rng.choice([0, 0, rng.randrange(2, 32, 2)])
    return ClaimProfile(all_bits, vertex_bits, pair_bits)


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
            sp = _random_profile(rng, named)
            sq = _random_profile(rng, named)
            tried_wide += sp.has_wide_evidence or sq.has_wide_evidence
            for a_bits in range(2, 32, 2):
                for b_bits in range(2, 32, 2):
                    args = (sp, sq, a_bits, b_bits, n, ("left", "right"))
                    assert merging._sets_witness(*args) == util.naive_sets_witness(*args), (
                        n, named, sp, sq, a_bits, b_bits,
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
        "G, k, stage",
        [(diamond_star(128), 5, "m11"), (util.f63_copies(8), 6, "m3plus")],
        ids=["ds128", "f63x8"],
    )
    def test_certify_checks_linearly_many_pairs(self, G, k, stage, monkeypatch):
        # All-pairs checking made 57,024 and 267,996 calls on these graphs.
        # m11 merges by contraction, with no _mergeable call, so K5R3 (which
        # certifies at m11) makes none and K63 makes them only after m11.
        calls = 0
        inner = merging._mergeable

        def counted(*args):
            nonlocal calls
            calls += 1
            return inner(*args)

        monkeypatch.setattr(merging, "_mergeable", counted)
        rule = rule_for(3, k)
        assert rule.stage == stage
        assert certify(G, rule).certified
        if stage == "m11":
            assert calls == 0
        else:
            assert 0 < calls <= 2 * len(G.edges)


def _grouped_start(rng: random.Random, G) -> merging.Partition:
    """Random clusters of 1-3 edges (edge order shuffled) under random,
    non-contiguous ids, with empty traces."""
    order = list(range(len(G.edges)))
    rng.shuffle(order)
    groups = []
    while order:
        cut = rng.randint(1, 3)
        groups.append(tuple(order[:cut]))
        order = order[cut:]
    ids = rng.sample(range(4 * len(groups) + 3), len(groups))
    clusters = tuple(
        merging.Cluster(cid, edges, (), "custom", G)
        for cid, edges in zip(ids, groups)
    )
    return merging.Partition(G, clusters, (), "custom")


class TestContraction:
    """``merge`` under RULE_11 finds a merged part's candidates from its two
    halves' neighbour maps; the all-pairs merge must agree byte for byte."""

    def _graphs(self, fuzz_corpus):
        rng = random.Random(53)
        non_free = [util.random_hypergraph(rng, rng.choice([3, 4]), rng.randint(5, 9), 14) for _ in range(30)]
        trees = [(0, 1, 2), (0, 1, 3), (1, 2, 4)]
        return list(fuzz_corpus) + non_free + [
            util.f63_copies(2),
            diamond_star(8),
            util.wide_probe(12, 4),
            build(3, 41, [tuple(v + 4 * i for v in e) for i in range(10) for e in trees]),
        ]

    def _starts(self, G, rng: random.Random):
        yield "trivial", trivial_partition(G)
        yield "grouped", _grouped_start(rng, G)
        # Traces already present, and ids past the edge count.
        yield "after_12", util.naive_merge(G, trivial_partition(G), RULE_12)
        yield "after_grouped_12", util.naive_merge(G, _grouped_start(rng, G), RULE_12)
        yield "m11", m11(G)

    def test_matches_all_pairs_merge(self, fuzz_corpus):
        rng = random.Random(59)
        merged = 0
        for G in self._graphs(fuzz_corpus):
            for name, start in self._starts(G, rng):
                for seed in (None, 1, 2, 3):
                    got = merge(G, start, RULE_11, None if seed is None else random.Random(seed))
                    want = util.naive_merge(G, start, RULE_11, None if seed is None else random.Random(seed))
                    assert json.dumps(partition_report(got)) == json.dumps(partition_report(want)), (
                        G.edges, name, seed,
                    )
                    merged += len(start.clusters) - len(got.clusters)
        assert merged > 1000


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
            state = merging._make_state(G, every, merge_rule)
            assert not state.has_wide_evidence, (G.edges, merge_rule)
        last = util.NAIVE_STAGE_RULES[rule.stage][-1]
        for c in merging.STAGES[rule.stage](G).clusters:
            state = merging._make_state(G, c.edge_indices, last)
            assert not state.has_wide_evidence, (G.edges, c.edge_indices)


class TestWitnessDefinitions:
    """Every merge event's witness is the one the claim definitions give its
    two parts, and no two final parts of a round have one."""

    def _graphs(self, fuzz_corpus):
        rng = random.Random(61)
        free = [
            util.random_free_graph(rng, r, k, rng.randint(r + 3, 12), attempts=100)
            for r, k in RULE_CASES
            for _ in range(25)
        ]
        return list(fuzz_corpus) + free

    def test_events_match_naive_witness(self, fuzz_corpus):
        # The rounds of every stage: m11 on the trivial partition, m12 and
        # m2plus on m11, m3plus on m12.
        rounds = [(None, RULE_11), (RULE_11, RULE_12), (RULE_11, RULE_2PLUS), (RULE_12, RULE_3PLUS)]
        counts = {rule: 0 for _, rule in rounds}
        for G in self._graphs(fuzz_corpus):
            for seed in (None, 3):
                rng = None if seed is None else random.Random(seed)
                starts = {None: trivial_partition(G)}
                starts[RULE_11] = merge(G, starts[None], RULE_11, rng)
                starts[RULE_12] = merge(G, starts[RULE_11], RULE_12, rng)
                for base, rule in rounds:
                    start = starts[base]
                    end = starts[rule] if rule in starts else merge(G, start, rule, rng)
                    live = {c.id: c.edge_indices for c in start.clusters}
                    old = {ev for c in start.clusters for ev in c.trace}
                    new = sorted({ev for c in end.clusters for ev in c.trace} - old)
                    for ev in new:
                        left, right = live.pop(ev.left), live.pop(ev.right)
                        want = util.naive_witness(G, left, right, rule)
                        assert (ev.pair, ev.direction) == want, (G.edges, rule, seed, ev)
                        live[ev.new_id] = tuple(sorted(left + right))
                    counts[rule] += len(new)
                    assert live == {c.id: c.edge_indices for c in end.clusters}
                    for (_, p), (_, q) in itertools.combinations(sorted(live.items()), 2):
                        assert util.naive_witness(G, p, q, rule) is None, (G.edges, rule, p, q)
        assert all(counts.values()), counts
