"""Exact rational weighting certificates for the five (r, k) cases."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import util
from beslab import weights
from beslab import (
    NotFree,
    Unknown,
    WeightRule,
    WrongStage,
    build,
    bound_coefficient,
    certify,
    diamond_star,
    f63,
    limit_table,
    m2plus,
    m11,
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
        assert WeightRule.for_case("K7", 3) == WeightRule("K7", 3, 7)
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

        assert composition(c).sizes == (2, 1, 1, 1)
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
