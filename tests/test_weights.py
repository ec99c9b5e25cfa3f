"""Exact rational weighting certificates for the five (r, k) cases."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import util
from beslab import weights
from beslab import (
    RULE_11,
    Cluster,
    NotFree,
    Partition,
    Unknown,
    WeightRule,
    WrongStage,
    build,
    bound_coefficient,
    certify,
    diamond_star,
    f63,
    family_violation_containing,
    limit_table,
    m2plus,
    m11,
    merge,
    one_bar_two,
    Pair,
    report_doc,
    rule_for,
    single_edge,
)

SUNFLOWER = build(3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
# five edges forming one m12 cluster with composition (2,1,1,1) at r = 4;
# its slack is exactly 0, and only with the exceptional unit late weight
EXCEPTIONAL_K6 = build(
    4,
    12,
    [(0, 1, 3, 9), (0, 6, 8, 9), (1, 5, 6, 7), (2, 3, 6, 10), (3, 4, 8, 11)],
)


def h_value(A) -> Fraction:
    """The K63 base weight h of a set of claim indices (subset of 1..5)."""
    return weights._H_TABLE[sum(1 << (i - 1) for i in A)]


class TestBaseTable:
    def test_exact_values(self):
        assert h_value({1}) == Fraction(55, 61)
        assert h_value({1, 2}) == Fraction(1)
        assert h_value({1, 3}) == Fraction(1)
        assert h_value({1, 4}) == Fraction(55, 61)
        assert h_value({1, 5}) == Fraction(55, 61)
        assert h_value({2}) == Fraction(25, 61)
        assert h_value({2, 3}) == Fraction(36, 61)
        assert h_value({2, 3, 4}) == Fraction(1)
        assert h_value({2, 4}) == Fraction(1, 2)
        assert h_value({3}) == Fraction(6, 61)
        assert h_value({3, 5}) == Fraction(11, 61)
        assert h_value({3, 4}) == Fraction(1)
        assert h_value(set()) == 0
        assert h_value({4}) == 0
        assert h_value({4, 5}) == 0

    def test_all_32_values_are_max_of_f_over_subsets(self):
        assert len(weights._H_TABLE) == 32
        for bits in range(32):
            a = frozenset(i + 1 for i in range(5) if bits >> i & 1)
            best = max(
                (val for sub, val in weights._F_TABLE.items() if sub <= a),
                default=Fraction(0),
            )
            assert weights._H_TABLE[bits] == best, sorted(a)

    def test_monotone_max_over_subsets(self):
        sets = []
        for bits in range(32):
            sets.append(frozenset(i + 1 for i in range(5) if bits >> i & 1))
        for a in sets:
            for b in sets:
                if a <= b:
                    assert h_value(a) <= h_value(b)

    def test_positive_iff_meets_123(self):
        for bits in range(32):
            a = frozenset(i + 1 for i in range(5) if bits >> i & 1)
            assert (h_value(a) > 0) == bool(a & {1, 2, 3})


class TestRuleSelection:
    def test_rule_for(self):
        assert rule_for(3, 5).case == "K5R3"
        assert rule_for(4, 5).case == "K5High"
        assert rule_for(7, 5).case == "K5High"
        assert rule_for(3, 6).case == "K63"
        assert rule_for(4, 6).case == "K6High"
        assert rule_for(3, 7).case == "K7"
        assert rule_for(5, 7).case == "K7"
        with pytest.raises(Unknown):
            rule_for(3, 4)
        with pytest.raises(Unknown):
            rule_for(3, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightRule("K5R3", 4, 5)
        with pytest.raises(ValueError):
            WeightRule("K5High", 3, 5)
        with pytest.raises(ValueError):
            WeightRule("K63", 3, 5)
        with pytest.raises(ValueError):
            WeightRule("Nope", 3, 5)
        assert rule_for(3, 7) == WeightRule("K7", 3, 7)
        for k, case in ((5, "K5High"), (6, "K6High"), (7, "K7")):
            with pytest.raises(ValueError, match=f"^{case} does not apply at uniformity r=2$"):
                rule_for(2, k)

    def test_coefficient_is_twice_the_limit(self):
        for r in range(3, 9):
            for k in (5, 6, 7):
                assert bound_coefficient(rule_for(r, k)) == 2 * limit_table(r, k), (r, k)

    def test_stages(self):
        assert rule_for(3, 5).stage == "m11"
        assert rule_for(4, 5).stage == "m2plus"
        assert rule_for(3, 7).stage == "m2plus"
        assert rule_for(4, 6).stage == "m12"
        assert rule_for(3, 6).stage == "m3plus"

    def test_bound_coefficients(self):
        assert bound_coefficient(rule_for(3, 5)) == Fraction(2, 5)
        assert bound_coefficient(rule_for(4, 5)) == Fraction(2, 11)
        assert bound_coefficient(rule_for(3, 7)) == Fraction(2, 5)
        assert bound_coefficient(rule_for(4, 7)) == Fraction(2, 11)
        assert bound_coefficient(rule_for(4, 6)) == Fraction(2, 12)
        assert bound_coefficient(rule_for(3, 6)) == Fraction(61, 165)


class TestClusterWeights:
    def test_single_edge_k5(self):
        G = single_edge(3)
        rep = certify(G, rule_for(3, 5))
        (c,) = rep.partition.clusters
        assert rep.per_cluster[c.id] == (3, 1)
        assert rep.certified

    def test_sunflower_deficit_pair(self):
        rep = certify(SUNFLOWER, rule_for(3, 5))
        (c,) = rep.partition.clusters
        # seven shadow pairs plus one unit on the deficit pair (2,3)
        assert rep.per_cluster[c.id] == (8, 1)
        pw = weights._pair_weight_map(c, rep.rule)
        assert pw.get(Pair.of(2, 3), 0) == 1
        assert pw.get(Pair.of(2, 4), 0) == 0
        assert rep.certified

    def test_deficit_pair_blocked_by_rest(self):
        # adding an edge through (2,3) pushes the deficit to (2,4)
        G = build(3, 6, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 5)])
        rep = certify(G, rule_for(3, 5))
        tree = rep.partition.cluster_of_edge(0)
        pw = weights._pair_weight_map(tree, rep.rule)
        assert pw.get(Pair.of(2, 3), 0) == 0
        assert pw.get(Pair.of(2, 4), 0) == 1
        assert rep.certified

    def test_diamond_k63(self):
        G = diamond_star(1)
        rep = certify(G, rule_for(3, 6))
        (c,) = rep.partition.clusters
        assert rep.per_cluster[c.id] == (Fraction(330, 61), 0)
        pw = weights._pair_weight_map(c, rep.rule)
        assert pw.get(Pair.of(0, 1), 0) == Fraction(25, 61)
        assert pw.get(Pair.of(2, 3), 0) == 1
        assert rep.certified

    def test_two_diamonds_share_the_tip_pair(self):
        rep = certify(diamond_star(2), rule_for(3, 6))
        assert rep.per_pair[Pair.of(0, 1)] == Fraction(50, 61)
        assert rep.certified

    def test_exceptional_k6_composition(self):
        rep = certify(EXCEPTIONAL_K6, rule_for(4, 6))
        (c,) = rep.partition.clusters
        from beslab import composition

        assert composition(c) == (2, 1, 1, 1)
        assert rep.per_cluster[c.id] == (30, 0)
        assert rep.certified

    def test_k7_half_weight_on_late_pairs(self):
        G = SUNFLOWER  # admissible for k = 7 as well
        rep = certify(G, rule_for(3, 7))
        (c,) = rep.partition.clusters
        # w = 7 shadow pairs + (1/2) * 3 subtree pairs; lambda = 2w - 5m
        assert rep.per_cluster[c.id] == (Fraction(17, 2), 2)
        pw = weights._pair_weight_map(c, rep.rule)
        assert pw.get(Pair.of(2, 3), 0) == Fraction(1, 2)
        assert rep.certified

    def test_wrong_stage_rejected(self):
        c = m11(SUNFLOWER).clusters[0]
        with pytest.raises(WrongStage):
            weights._pair_weight_map(c, rule_for(3, 6))
        c2 = m2plus(SUNFLOWER).clusters[0]
        with pytest.raises(WrongStage):
            weights._pair_weight_map(c2, rule_for(3, 5))
        with pytest.raises(WrongStage):
            weights._pair_weight_map(m11(single_edge(4)).clusters[0], rule_for(3, 5))


def _tree_with_rest(seed: int, free: bool = True):
    """A 3-edge tree on 0..4 plus random edges through its vertices; with
    ``free``, an edge is kept only while the graph stays free for k = 5."""
    rng = random.Random(seed)
    tree = [(0, 1, 2), (0, 1, 3), (0, 1, 4)] if seed % 2 else [(0, 1, 2), (0, 1, 3), (1, 2, 4)]
    extra = [e for e in itertools.combinations(range(9), 3) if min(e) <= 4 and e not in tree]
    rng.shuffle(extra)
    if not free:
        return build(3, 9, tree + extra[: rng.randint(1, 8)])
    edges = list(tree)
    for e in extra[:40]:
        trial = sorted(edges + [e])
        if family_violation_containing(build(3, 9, trial), 5, trial.index(e)) is None:
            edges = trial
    return build(3, 9, edges)


def _tree_copies(c: int):
    """``c`` copies of the tree {012, 013, 124}, copy i shifted by 4i, so
    consecutive copies share one vertex."""
    trees = [(0, 1, 2), (0, 1, 3), (1, 2, 4)]
    return build(3, 4 * c + 1, [tuple(v + 4 * i for v in e) for i in range(c) for e in trees])


class TestDeficitPair:
    def _check(self, G):
        for c in m11(G).clusters:
            assert weights._deficit_pair(c) == util.naive_deficit_pair(c), (G.edges, c.edge_indices)

    def test_matches_naive_on_exhaustive_corpus(self, corpus_k5):
        for G in corpus_k5:
            self._check(G)

    def test_matches_naive_with_rest_edges_through_the_pair(self):
        blocked = 0
        for seed in range(80):
            G = _tree_with_rest(seed)
            self._check(G)
            tree = m11(G).cluster_of_edge(G.edges.index((0, 1, 2)))
            if weights._deficit_pair(tree) != min(one_bar_two(tree.part), default=None):
                blocked += 1
        assert blocked > 0

    def test_matches_naive_on_graphs_that_are_not_free(self):
        # The restriction to edges through p uses only r = 3, not freeness;
        # here rest edges often 2-claim a candidate pair with one edge
        # through each of its vertices.
        for seed in range(200):
            self._check(_tree_with_rest(seed, free=False))
        rng = random.Random(5)
        for _ in range(60):
            self._check(util.random_hypergraph(rng, 3, rng.randint(4, 8), 10))

    def test_matches_naive_on_small_clusters_of_graphs_that_are_not_free(self):
        # 3- and 4-edge m11 clusters, tight or not: a pair-connected cluster
        # on fewer than (r-2)*m + 2 vertices is no tree and gets no pair.
        rng = random.Random(9)
        kinds = set()
        for _ in range(300):
            G = util.random_hypergraph(rng, 3, rng.randint(5, 8), 8)
            for c in m11(G).clusters:
                m = len(c.edge_indices)
                if m in (3, 4):
                    assert weights._deficit_pair(c) == util.naive_deficit_pair(c), G.edges
                    kinds.add((m, c.part.vertex_count() == m + 2))
        assert kinds == {(3, True), (3, False), (4, True), (4, False)}
        dense = build(3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3)])  # 4 edges on 5
        (c,) = m11(dense).clusters
        assert one_bar_two(dense) and weights._deficit_pair(c) is None
        assert util.naive_deficit_pair(c) is None

    def test_tight_clusters_that_are_not_pair_connected(self):
        # merge labels every RULE_11 closure of a start without rules "m11",
        # so an m11 cluster need not be pair-connected.  These two span
        # (r-2)*4 + 2 vertices and are no trees; the two diamonds have a
        # 2-not-1-claimed pair that nothing else claims.
        pasch = build(3, 6, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)])
        two_diamonds = build(3, 6, [(0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)])
        assert one_bar_two(two_diamonds) == {Pair(2, 3)}
        for G in (pasch, two_diamonds):
            whole = Cluster(0, tuple(range(len(G.edges))), (), "custom", G)
            (c,) = merge(G, Partition(G, (whole,), (), "custom"), RULE_11).clusters
            assert c.stage == "m11" and c.part.vertex_count() == 6
            assert weights._deficit_pair(c) is None
            assert util.naive_deficit_pair(c) is None

    def test_claim_checks_see_only_edges_through_the_pair(self, monkeypatch):
        G = _tree_copies(60)
        handed = []
        inner = weights.claim_set

        def counted(F, p, cap):
            handed.append((F, p))
            return inner(F, p, cap)

        monkeypatch.setattr(weights, "claim_set", counted)
        rule = rule_for(3, 5)
        for c in m11(G).clusters:
            weights._pair_weight_map(c, rule)
        assert len(handed) >= 60
        for F, p in handed:
            through = [e for e in G.edges if p.u in e or p.v in e]
            assert len(F.edges) <= len(through)
            assert all(p.u in e or p.v in e for e in F.edges)


class TestCertify:
    def test_big_star(self, big_star):
        rep = certify(big_star, rule_for(3, 6))
        assert rep.certified
        assert rep.bound_coefficient == Fraction(61, 165)
        assert rep.edge_bound == Fraction(39711, 55)
        assert all(lam == 0 for (_, lam) in rep.per_cluster.values())
        assert max(rep.per_pair.values()) <= 1

    def test_not_free_raises(self):
        bad = build(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])  # 3 edges on 4
        with pytest.raises(NotFree) as ei:
            certify(bad, rule_for(3, 5))
        assert ei.value.witness is not None and ei.value.query is not None
        with pytest.raises(NotFree):
            certify(diamond_star(3), rule_for(3, 6))  # 6 edges on 8

    def test_uniformity_mismatch(self):
        with pytest.raises(ValueError):
            certify(single_edge(4), rule_for(3, 5))

    def test_relabel_invariance(self, corpus_k5):
        rng = random.Random(47)
        rule = rule_for(3, 5)
        for G in corpus_k5[::5]:
            perm = list(range(G.n))
            rng.shuffle(perm)
            H = util.relabel(G, perm)
            a = certify(G, rule)
            b = certify(H, rule)
            assert a.certified == b.certified
            assert sorted(l for (_, l) in a.per_cluster.values()) == sorted(
                l for (_, l) in b.per_cluster.values()
            )

    def test_all_rules_on_small_exhaustive_sample(self, corpus_k6):
        rule = rule_for(3, 6)
        for G in corpus_k6[::7]:
            rep = certify(G, rule)
            assert rep.certified, G.edges
            assert len(G.edges) <= rep.edge_bound

    @staticmethod
    def assert_matches_naive(G, rule):
        rep = certify(G, rule)
        want = util.naive_certify(G, rule)
        got = (rep.per_cluster, rep.per_pair, rep.edge_bound, rep.certified)
        assert got == want, (rule.case, G.edges)
        assert list(rep.per_pair) == list(want[1]), (rule.case, G.edges)
        values = [v for wl in rep.per_cluster.values() for v in wl]
        assert all(type(v) is Fraction for v in values + list(rep.per_pair.values()))
        return rep

    def test_matches_fraction_accumulation(self):
        rng = random.Random(59)
        for r, k in ((3, 5), (4, 5), (3, 6), (4, 6), (3, 7)):
            rule = rule_for(r, k)
            for _ in range(10):
                G = util.random_free_graph(rng, r, k, rng.randint(6, 10), attempts=40)
                assert self.assert_matches_naive(G, rule).certified, (r, k, G.edges)
        fixed = ((f63(), 6), (diamond_star(8), 5), (EXCEPTIONAL_K6, 6), (build(3, 6, []), 7))
        for G, k in fixed:
            assert self.assert_matches_naive(G, rule_for(G.r, k)).certified

    @pytest.mark.parametrize(
        "factor",
        [Fraction(2), Fraction(1, 2), Fraction(6, 7)],
        ids=["double", "half", "six_sevenths"],
    )
    def test_matches_fraction_accumulation_under_other_tables(
        self, monkeypatch, corpus_k6, factor
    ):
        # Doubled weights overfill pairs, halved ones leave lambda < 0, and
        # a factor 6/7 puts a 7 into every denominator: D must follow it.
        monkeypatch.setattr(weights, "_H_TABLE", [v * factor for v in weights._H_TABLE])
        rule = rule_for(3, 6)
        reports = [self.assert_matches_naive(G, rule) for G in corpus_k6[::3] + [f63()]]
        assert not all(rep.certified for rep in reports)
        if factor == Fraction(6, 7):
            totals = [t for rep in reports for t in rep.per_pair.values()]
            assert Fraction(330, 427) in totals  # h({1}) * 6/7 = (55/61)(6/7)

    def test_report_doc_shape(self):
        rep = certify(diamond_star(2), rule_for(3, 6))
        doc = report_doc(rep)
        assert doc["rule"] == {"case": "K63", "r": 3, "k": 6}
        assert doc["stage"] == "m3plus"
        assert doc["edge_count"] == 4
        assert doc["n"] == 6
        assert doc["certified"] is True
        assert [c["edges"] for c in doc["clusters"]] == [[0, 2], [1, 3]]
        ids = [c["id"] for c in doc["clusters"]]
        assert ids == sorted(ids)
        pair_rows = doc["pair_totals"]
        assert pair_rows == sorted(pair_rows, key=lambda row: row["pair"])
        assert report_doc(certify(diamond_star(2), rule_for(3, 6))) == doc


class TestLimitTable:
    def test_values(self):
        assert limit_table(3, 2) == Fraction(1, 6)
        assert limit_table(4, 2) == Fraction(1, 12)
        assert limit_table(3, 3) == Fraction(1, 5)
        assert limit_table(3, 4) == Fraction(7, 36)
        assert limit_table(3, 5) == Fraction(1, 5)
        assert limit_table(4, 5) == Fraction(1, 11)
        assert limit_table(3, 7) == Fraction(1, 5)
        assert limit_table(5, 7) == Fraction(1, 19)
        assert limit_table(3, 6) == Fraction(61, 330)
        assert limit_table(4, 6) == Fraction(1, 12)
        assert limit_table(6, 6) == Fraction(1, 30)

    def test_unknown(self):
        with pytest.raises(Unknown):
            limit_table(3, 8)
        with pytest.raises(Unknown):
            limit_table(4, 4)
        assert issubclass(Unknown, LookupError)
