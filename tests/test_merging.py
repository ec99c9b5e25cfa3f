"""Cluster-merging partitions: rules, stages, traces."""

from __future__ import annotations

import copy
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
    ConfigQuery,
    MergeRule,
    NotFree,
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
)

# Fixture graphs distinguishing the four rules.
DIAMOND_PLUS_EDGE = build(3, 5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
SUNFLOWER_PLUS_EDGE = build(3, 6, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 5)])
# single edge 1-claims (0,1); the other component 3- and 4-claims it, but
# holds three edges on {1, 4, 5, 6}
EDGE_PLUS_34 = build(3, 7, [(0, 1, 2), (0, 4, 5), (4, 5, 6), (1, 5, 6), (1, 4, 6)])
# the same with a tight path, free for k = 6 and 7: no dense part
EDGE_PLUS_PATH_34 = build(3, 7, [(0, 1, 2), (0, 3, 4), (3, 4, 5), (1, 4, 5), (1, 5, 6)])
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
                    assert got == claim_profile(part, rule.claim_cap).pair_bits
                    assert set(got) == claimed_pairs(part, 1)
            # Under a cap-1 rule every part takes the closed form.
            for _ in range(3 if len(G.edges) >= 2 else 0):
                edges = tuple(rng.sample(range(len(G.edges)), rng.randint(2, len(G.edges))))
                part = G.subgraph(edges)
                for rule in (RULE_11, RULE_2PLUS):
                    got = merging._make_state(G, edges, rule)
                    want = claim_profile(part, 1)
                    assert {p for p, b in got.items() if b & 4} == (
                        tp_pair_set(part) if rule is RULE_2PLUS else set()
                    )
                    assert {p: b & 2 for p, b in got.items() if b & 2} == want.pair_bits
                    assert not want.has_wide_evidence

    def test_trivial(self):
        G = DIAMOND_PLUS_EDGE
        p = util.trivial_partition(G)
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
        for G in (EDGE_PLUS_34, EDGE_PLUS_PATH_34):
            assert m12(G).edge_sets() == {frozenset({0}), frozenset({1, 2, 3, 4})}
        (c,) = m3plus(EDGE_PLUS_PATH_34).clusters
        assert (c.trace[-1].pair, c.trace[-1].direction) == ((0, 1), "left_1_34")
        # the dense part is refused
        with pytest.raises(NotFree) as info:
            m3plus(EDGE_PLUS_34)
        assert (info.value.witness, info.value.query) == ((2, 3, 4), (3, 4))
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
            merge(H, util.trivial_partition(G), RULE_11)

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


def _outcome(stage, G, rng=None):
    """The stage's partition as edge sets, or "refused" when ``merge``
    raises :class:`NotFree` on a dense part."""
    try:
        return stage(G, rng=rng).edge_sets()
    except NotFree:
        return "refused"


class TestDeterminism:
    def test_shuffled_schedules_reach_same_fixpoint(self, fuzz_corpus):
        # A graph that refuses does so under every schedule.
        refused = 0
        for G in fuzz_corpus[:12]:
            for stage in (m11, m12, m2plus, m3plus):
                base = _outcome(stage, G)
                refused += base == "refused"
                for seed in range(8):
                    assert _outcome(stage, G, random.Random(seed)) == base
        assert refused

    def test_repeat_runs_identical_reports(self):
        for G in (DIAMOND_PLUS_123, SUNFLOWER_PLUS_EDGE, diamond_star(3)):
            assert partition_report(m3plus(G)) == partition_report(m3plus(G))


class TestTraces:
    def test_replay_reconstructs_clusters(self, fuzz_corpus):
        for G in fuzz_corpus[:20]:
            start = util.trivial_partition(G)
            for stage in (m11, m3plus):
                if util.naive_stage(G, stage.__name__) is None:
                    for seed in (None, 1, 2, 3):
                        assert _outcome(stage, G, seed and random.Random(seed)) == "refused"
                    continue
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


def _narrow_state(rng: random.Random, named: list[int]) -> ClaimProfile:
    """Claim bits 1..4 on random pairs among ``named``, no wide evidence."""
    pair_bits = {
        Pair(u, v): rng.randrange(2, 32, 2)
        for u, v in itertools.combinations(named, 2)
        if rng.random() < 0.3
    }
    return ClaimProfile(0, {}, pair_bits)


# Every rule over claim bits 1..4: each sets rule with A, B non-empty
# subsets of {1, 2, 3, 4}, and the 2+ and 3+ rules.
_BIT_SETS = [set(c) for size in range(1, 5) for c in itertools.combinations(range(1, 5), size)]
BIT_RULES = [MergeRule.sets(A, B) for A in _BIT_SETS for B in _BIT_SETS] + [RULE_2PLUS, RULE_3PLUS]


class TestSetsWitness:
    def test_matches_full_scan(self):
        # On narrow states, ``_mergeable``'s one pass over the shared key
        # pairs finds, for every rule, the smallest witness of a scan of
        # every vertex pair below n, over each of the rule's clauses.
        rng = random.Random(47)
        found = 0
        for _ in range(48):
            n = rng.randint(2, 9)
            named = sorted(rng.sample(range(n), rng.randint(0, n)))
            sp = _narrow_state(rng, named)
            sq = _narrow_state(rng, named)
            for rule in BIT_RULES:
                scans = [
                    util.naive_sets_witness(sp, sq, a, b, n, tags) for a, b, tags in rule.clauses
                ]
                want = min((w for w in scans if w is not None), default=None)
                got = merging._mergeable(sp.pair_bits, sq.pair_bits, rule)
                assert got == want, (n, sp, sq, rule)
                found += got is not None
        assert found > 500, found


class TestClaimWalk:
    """``merging._claim_walk``, the claim walk of the merge parts, against
    ``claim_profile`` and the naive configuration search."""

    @staticmethod
    def _graphs(fuzz_corpus, big_star):
        # (graph, largest cap checked)
        return [(G, 5) for G in fuzz_corpus] + [(util.wide_probe(12), 5), (big_star, 4)]

    @staticmethod
    def _walk(G, edges, cap, seed=None, start=1):
        """The walk's state, or (witness, query, message) of its refusal."""
        try:
            return merging._claim_walk(G, edges, cap, seed, start)
        except NotFree as exc:
            return exc.witness, exc.query, str(exc)

    def test_seeded_walk_continues_a_narrow_profile(self, fuzz_corpus, big_star):
        for G, top in self._graphs(fuzz_corpus, big_star):
            edges = range(len(G.edges))
            for low in range(1, top):
                seed = self._walk(G, edges, low)
                if not isinstance(seed, dict):
                    continue
                kept = dict(seed)
                for cap in range(low, top + 1):
                    got = self._walk(G, edges, cap, seed, low + 1)
                    assert got == self._walk(G, edges, cap), (G.edges, low, cap)
                assert seed == kept

    def test_narrow_walk_stops_at_the_lowest_wide_size(self, fuzz_corpus, big_star):
        stopped = 0
        for G, top in self._graphs(fuzz_corpus, big_star):
            m = len(G.edges)
            # the whole graph, and the part of its even edges, by ambient index
            for edges in (tuple(range(m)), tuple(range(0, m, 2))):
                part = G.subgraph(edges)
                for cap in range(top + 1):
                    full = claim_profile(part, cap)
                    got = self._walk(G, edges[::-1], cap)
                    wide = full.all_bits
                    for b in full.vertex_bits.values():
                        wide |= b
                    if not wide:
                        assert got == full.pair_bits, (G.edges, edges, cap)
                        continue
                    i = (wide & -wide).bit_length() - 1
                    q = ConfigQuery(i, (G.r - 2) * i + 1)
                    first = util.naive_find_config(part, *q)
                    assert got[:2] == (tuple(edges[j] for j in first), q), (G.edges, edges, cap)
                    stopped += 1
        assert stopped


class TestRefusal:
    """``merge`` refuses a part with wide evidence (its refusal lemma):
    exactly when the fixpoint of a merge honouring wide claims has a dense
    cluster, under every schedule, naming a dense configuration inside one
    such cluster."""

    def test_wide_probe_is_refused(self):
        # The K4^(3) part is wide at m3plus: three of its edges lie on four
        # vertices.  Unused vertices change nothing.
        for tail in (2, 4):
            for n in (12, 800):
                G = util.wide_probe(n, tail)
                for seed in (None, 1, 2, 3):
                    with pytest.raises(NotFree) as info:
                        m3plus(G, rng=seed and random.Random(seed))
                    assert info.value.witness == (0, 1, 2)
                    assert info.value.query == (3, 4)
                assert len(m12(G).clusters) == 2

    def test_complete_graph_refused_at_its_first_dense_subset(self):
        # K_10^(3) is one part of 120 edges.  The walk stops at the first
        # three edges on four vertices instead of walking every subset of
        # up to four edges first.
        G = build(3, 10, itertools.combinations(range(10), 3))
        with pytest.raises(NotFree) as info:
            m3plus(G)
        assert info.value.witness == (0, 1, 8)
        assert info.value.query == (3, 4)
        assert str(info.value) == "a merged part contains 3 edges on at most 4 vertices"

    def test_refuses_iff_fixpoint_has_dense_cluster(self, fuzz_corpus):
        # Each round of each stage: m11 on the trivial partition, m12 and
        # m2plus on m11, m3plus on m12, all base rounds built by the oracle.
        rng = random.Random(67)
        graphs = list(fuzz_corpus) + [
            util.random_hypergraph(rng, rng.choice([3, 4]), rng.randint(4, 9), 11)
            for _ in range(40)
        ]
        rounds = [(None, RULE_11), (RULE_11, RULE_12), (RULE_11, RULE_2PLUS), (RULE_12, RULE_3PLUS)]
        refused = {rule: 0 for _, rule in rounds}
        for G in graphs:
            starts = {None: util.trivial_partition(G)}
            starts[RULE_11] = util.naive_merge(G, starts[None], RULE_11)
            starts[RULE_12] = util.naive_merge(G, starts[RULE_11], RULE_12)
            for base, rule in rounds:
                start = starts[base]
                fixpoint = util.naive_merge(G, start, rule)
                dense = util.naive_dense(fixpoint, rule.claim_cap)
                for seed in (None, 1, 2, 3):
                    if not dense:
                        got = merge(G, start, rule, seed and random.Random(seed))
                        want = util.naive_merge(G, start, rule, seed and random.Random(seed))
                        assert json.dumps(partition_report(got)) == json.dumps(
                            partition_report(want)
                        ), (G.edges, rule, seed)
                        continue
                    with pytest.raises(NotFree) as info:
                        merge(G, start, rule, seed and random.Random(seed))
                    witness, (i, s) = info.value.witness, info.value.query
                    assert 2 <= i <= rule.claim_cap and s == (G.r - 2) * i + 1
                    assert len(witness) == i and len(set(witness)) == i
                    assert len(set().union(*(G.edges[e] for e in witness))) <= s
                    assert any(set(witness) <= set(c.edge_indices) for c, _ in dense)
                refused[rule] += bool(dense)
        assert refused[RULE_12] and refused[RULE_3PLUS], refused


class TestSeededStates:
    """m3plus continues each m12 part's state from size 3 (the state lemma
    of ``_make_state``).  No other start may seed it: under ``two_plus``
    bit 2 marks the 2+ pairs, not the 2-claimed ones."""

    def test_three_plus_on_every_start_matches_all_pairs_merge(self, fuzz_corpus):
        rng = random.Random(73)
        free = [
            util.random_free_graph(rng, r, k, rng.randint(r + 3, 11), attempts=80)
            for r in (3, 4)
            for k in (6, 7)
            for _ in range(10)
        ]
        refused = seeded = 0
        for G in [*fuzz_corpus, *free, util.wide_probe(12), EDGE_PLUS_PATH_34, DIAMOND_PLUS_123]:
            starts = {"trivial": util.trivial_partition(G), "m11": m11(G), "m2plus": m2plus(G)}
            try:
                starts["m12"] = m12(G)
            except NotFree:
                pass
            before = {name: copy.deepcopy([c.state for c in p.clusters]) for name, p in starts.items()}
            for name, start in starts.items():
                for seed in (None, 1):
                    want = util.naive_merge(G, start, RULE_3PLUS, seed and random.Random(seed))
                    if util.naive_dense(want, RULE_3PLUS.claim_cap):
                        with pytest.raises(NotFree) as info:
                            merge(G, start, RULE_3PLUS, seed and random.Random(seed))
                        # the same refusal as from a start without states
                        bare = util.naive_merge(G, m11(G), RULE_12) if name == "m12" else start
                        with pytest.raises(NotFree) as again:
                            merge(G, bare, RULE_3PLUS, seed and random.Random(seed))
                        assert (str(info.value), info.value.witness, info.value.query) == (
                            str(again.value), again.value.witness, again.value.query
                        )
                        refused += 1
                        continue
                    got = merge(G, start, RULE_3PLUS, seed and random.Random(seed))
                    assert json.dumps(partition_report(got)) == json.dumps(
                        partition_report(want)
                    ), (G.edges, name, seed)
                    for c in got.clusters:
                        assert c.state == claim_profile(c.part, 4).pair_bits, (G.edges, name)
                    seeded += name == "m12"
            after = {name: [c.state for c in p.clusters] for name, p in starts.items()}
            assert after == before, G.edges
        assert refused and seeded, (refused, seeded)


class TestMergeIndex:
    def _graphs(self, fuzz_corpus):
        # The wide probes, and the last graph, which holds one with a
        # narrow part beside it, refuse at m3plus.
        shifted = [tuple(v + 7 for v in e) for e in DIAMOND_PLUS_123.edges]
        return list(fuzz_corpus) + [
            util.f63_copies(2),
            diamond_star(8),
            util.wide_probe(12, 2),
            util.wide_probe(12, 4),
            build(3, 14, list(util.wide_probe(14).edges) + shifted),
        ]

    def test_reports_match_all_pairs_merge(self, fuzz_corpus):
        refused = 0
        for G in self._graphs(fuzz_corpus):
            for stage, run in merging.STAGES.items():
                for seed in (None, 5):
                    rng = None if seed is None else random.Random(seed)
                    naive_rng = None if seed is None else random.Random(seed)
                    want = util.naive_stage(G, stage, naive_rng)
                    if want is None:
                        with pytest.raises(NotFree):
                            run(G, rng=rng)
                        refused += 1
                        continue
                    got = json.dumps(partition_report(run(G, rng=rng)))
                    assert got == json.dumps(partition_report(want)), (G.edges, stage, seed)
        assert refused

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
        [
            (diamond_star(128), 5, "m11"),
            (diamond_star(128), 7, "m2plus"),
            (util.f63_copies(8), 6, "m3plus"),
        ],
        ids=["ds128", "ds128-k7", "f63x8"],
    )
    def test_certify_checks_linearly_many_pairs(self, G, k, stage, monkeypatch):
        # All-pairs checking made 57,024, 8,128 and 267,996 calls on these
        # graphs.  m11 merges by contraction, with no _mergeable call, so
        # K5R3 (which certifies at m11) makes none and K63 makes them only
        # after m11.  No two diamonds of diamond_star share a key pair, so
        # the index offers K7's m2plus no candidate.
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
        if stage == "m3plus":
            assert 0 < calls <= 2 * len(G.edges)
        else:
            assert calls == 0


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
        yield "trivial", util.trivial_partition(G)
        yield "grouped", _grouped_start(rng, G)
        # Traces already present, and ids past the edge count.
        yield "after_12", util.naive_merge(G, util.trivial_partition(G), RULE_12)
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
        # whole graph's profile bounds every part's, and no stage refuses
        # a free graph: every stage, as ``partition`` runs it, not only
        # the one the rule certifies at.
        r, k = case
        n = data.draw(st.integers(r + 1, 12))
        G = util.random_free_graph(random.Random(seed), r, k, n, attempts=80)
        for stage, rules in util.NAIVE_STAGE_RULES.items():
            for merge_rule in rules:
                assert merge_rule.claim_cap <= k - 1
                assert not claim_profile(G, merge_rule.claim_cap).has_wide_evidence
            for c in merging.STAGES[stage](G).clusters:
                prof = claim_profile(c.part, rules[-1].claim_cap)
                assert not prof.has_wide_evidence, (G.edges, stage, c.edge_indices)


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
                starts = {None: util.trivial_partition(G)}
                starts[RULE_11] = merge(G, starts[None], RULE_11, rng)
                try:
                    starts[RULE_12] = merge(G, starts[RULE_11], RULE_12, rng)
                except NotFree:  # a dense part; TestRefusal checks these
                    pass
                for base, rule in rounds:
                    if base not in starts:
                        continue
                    start = starts[base]
                    try:
                        end = starts[rule] if rule in starts else merge(G, start, rule, rng)
                    except NotFree:
                        continue
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


class TestUnionJoins:
    """A join under a rule of claim cap at most 2 takes the bitwise union of
    its halves' states when they 1-claim no common pair, and walks
    (``_make_state``) otherwise: the union lemma of ``_make_state``.  Either
    way the joined state is the one ``_make_state`` builds for the joined
    edges."""

    def _watch(self, monkeypatch):
        """Patch ``_join_state`` to check every join against ``_make_state``;
        returns the counts of union and walked joins."""
        counts = {"union": 0, "walked": 0}
        join_state, make_state = merging._join_state, merging._make_state
        walks = []

        def counted_make_state(*args):
            walks.append(args)
            return make_state(*args)

        def checked(G, edges, rule, ps, qs):
            walks.clear()
            got = join_state(G, edges, rule, ps, qs)
            counts["walked" if walks else "union"] += 1
            assert got == make_state(G, edges, rule), (G.edges, edges, rule)
            return got

        monkeypatch.setattr(merging, "_make_state", counted_make_state)
        monkeypatch.setattr(merging, "_join_state", checked)
        return counts

    def test_union_states_match_the_walk(
        self, monkeypatch, fuzz_corpus, corpus_k5, corpus_k6, corpus_k7
    ):
        # On an m11 start no two parts share a shadow pair, so every m12 and
        # m2plus join is a union.
        counts = self._watch(monkeypatch)
        graphs = [*fuzz_corpus, *corpus_k5, *corpus_k6, *corpus_k7, util.f63_copies(2), diamond_star(8)]
        joins = {}
        for G in graphs:
            for stage in (m12, m2plus):
                before = counts["union"]
                for seed in (None, 4):
                    try:
                        stage(G, rng=seed and random.Random(seed))
                    except NotFree:  # a dense part (TestRefusal)
                        continue
                joins[stage] = joins.get(stage, 0) + counts["union"] - before
        assert counts["walked"] == 0, counts
        assert min(joins.values()) > 100, joins

    def test_halves_sharing_a_shadow_pair_are_walked(self, monkeypatch, fuzz_corpus):
        # Starts whose parts share shadow pairs: a diamond and an edge
        # sharing (0, 2) under RULE_12, a sunflower and an edge sharing
        # (1, 2) under RULE_2PLUS, and random groupings.  The union of the
        # halves misses the cross pairs of the first two.
        counts = self._watch(monkeypatch)
        fixtures = [
            (build(3, 5, [(0, 1, 2), (0, 1, 3), (0, 2, 4)]), [(0, 1), (2,)], RULE_12),
            (build(3, 6, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (1, 2, 5)]), [(0, 1, 2), (3,)], RULE_2PLUS),
        ]
        for G, groups, rule in fixtures:
            ps, qs = (merging._make_state(G, g, rule) for g in groups)
            union = {p: ps.get(p, 0) | qs.get(p, 0) for p in ps.keys() | qs.keys()}
            clusters = tuple(merging.Cluster(i, g, (), "custom", G) for i, g in enumerate(groups))
            (c,) = merge(G, merging.Partition(G, clusters, (), "custom"), rule).clusters
            assert c.state != union and c.state == merging._make_state(G, c.edge_indices, rule)
        assert counts == {"union": 0, "walked": 2}
        rng = random.Random(79)
        for G in fuzz_corpus:
            for rule in (RULE_12, RULE_2PLUS):
                start = _grouped_start(rng, G)
                try:
                    got = merge(G, start, rule)
                except NotFree:
                    continue
                want = util.naive_merge(G, start, rule)
                assert json.dumps(partition_report(got)) == json.dumps(partition_report(want))
        assert counts["walked"] > 20, counts

    def test_m11_matches_a_merge_from_the_trivial_partition(self, fuzz_corpus):
        # m11 starts from edge indices, with no trivial Partition.
        for G in [*fuzz_corpus, util.f63_copies(2), diamond_star(8)]:
            for seed in (None, 6):
                got = m11(G, rng=seed and random.Random(seed))
                want = merge(G, util.trivial_partition(G), RULE_11, rng=seed and random.Random(seed))
                assert got == want and json.dumps(partition_report(got)) == json.dumps(
                    partition_report(want)
                )
                assert all(c.state is None for c in got.clusters)
