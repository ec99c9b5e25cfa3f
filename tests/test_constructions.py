"""Lower-bound constructions, conflict enumeration, randomized pipeline."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import util
from beslab import (
    NotFree,
    PackingPairGraph,
    RandomParams,
    Unknown,
    build,
    conflict_family_ids,
    construction_doc,
    constructions,
    diamond_star,
    enumerate_conflicts,
    enumerate_S,
    f63,
    gr_limit,
    gr_linear_bounds,
    is_family_free,
    lower_bound_ratio,
    pairs_claimed_upto,
    random_packing_construction,
    single_edge,
)


class TestCatalog:
    def test_single_edge(self):
        G = single_edge(5)
        assert (G.r, G.n, G.edges) == (5, 5, ((0, 1, 2, 3, 4),))
        with pytest.raises(ValueError):
            single_edge(2)

    def test_diamond_star_layout(self):
        G = diamond_star(2)
        assert G.n == 6
        assert G.edges == ((0, 2, 3), (0, 4, 5), (1, 2, 3), (1, 4, 5))
        with pytest.raises(ValueError):
            diamond_star(0)

    def test_diamond_star_freeness_windows(self):
        for t in (1, 2, 4):
            G = diamond_star(t)
            assert is_family_free(G, 5).free
            assert is_family_free(G, 7).free
        # three diamonds put 6 edges on 8 vertices: bad for k = 6
        assert is_family_free(diamond_star(2), 6).free
        assert not is_family_free(diamond_star(3), 6).free

    def test_big_star_layout(self, big_star):
        assert big_star.n == 63
        assert len(big_star.edges) == 61
        assert (0, 1, 2) in big_star.edges
        assert is_family_free(big_star, 6).free
        # every vertex is used
        assert big_star.vertex_count() == 63


class TestRatio:
    def test_star_family(self):
        for t in range(1, 6):
            ratio, pairs = lower_bound_ratio(diamond_star(t), 5)
            assert ratio == Fraction(2 * t, 2 * (5 * t + 1))
            assert len(pairs) == 5 * t + 1

    def test_big_star(self, big_star):
        ratio, pairs = lower_bound_ratio(big_star, 6)
        assert ratio == Fraction(61, 330)
        assert len(pairs) == 165
        assert pairs == pairs_claimed_upto(big_star, 3)

    def test_empty(self):
        assert lower_bound_ratio(build(3, 5, []), 5) == (Fraction(0), set())

    def test_not_free(self):
        bad = build(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        with pytest.raises(NotFree):
            lower_bound_ratio(bad, 5)


class TestSparseSubgraphs:
    def test_matches_naive(self):
        rng = random.Random(59)
        for _ in range(60):
            u = rng.choice([2, 3])
            K = util.random_hypergraph(rng, u, rng.randint(u, 7), 7)
            e, d = rng.randint(1, 4), rng.randint(0, 6)
            assert enumerate_S(K, e, d) == util.naive_enumerate_S(K, e, d)

    def test_validation(self):
        K = build(2, 3, [(0, 1)])
        with pytest.raises(ValueError):
            enumerate_S(K, 0, 1)
        with pytest.raises(ValueError):
            enumerate_S(K, 1, -1)

    def test_triangle(self):
        K = build(2, 3, [(0, 1), (0, 2), (1, 2)])
        assert enumerate_S(K, 3, 3) == [(0, 1, 2)]
        assert enumerate_S(K, 2, 1) == [(0, 1), (0, 2), (1, 2)]
        assert enumerate_S(K, 2, 0) == []

    def test_long_tight_path_needs_no_recursion(self):
        # Defect 3*1200 - 1202: the whole path, deeper than the
        # interpreter's recursion limit.
        K = build(3, 1202, [(i, i + 1, i + 2) for i in range(1200)])
        assert enumerate_S(K, 1200, 2398) == [tuple(range(1200))]


class TestConflicts:
    def test_family_ids(self):
        assert conflict_family_ids() == [
            "C(3,3;2,1)",
            "C(4,4;3,2)",
            "C(4,5;2,1)",
            "C(5,7;2,1)",
            "C'(4,3;3,3)",
        ]

    def test_unknown_family(self):
        H = PackingPairGraph(build(2, 2, []), build(2, 2, []), frozenset())
        with pytest.raises(Unknown):
            enumerate_conflicts(H, "C(9,9;9,9)")

    def test_cherry_against_triangle(self):
        k1 = build(2, 3, [(0, 1), (1, 2)])
        k2 = build(2, 3, [(0, 1), (0, 2), (1, 2)])
        H = PackingPairGraph(k1, k2, frozenset({(0, 0), (1, 1)}))
        assert enumerate_conflicts(H, "C(3,3;2,1)") == [((0, 0), (1, 1))]
        assert enumerate_conflicts(H, "C(4,4;3,2)") == []
        # dropping one pairing removes the matching
        H2 = PackingPairGraph(k1, k2, frozenset({(0, 0)}))
        assert enumerate_conflicts(H2, "C(3,3;2,1)") == []

    def test_families_that_cannot_fit_two_uniform_cliques(self, monkeypatch):
        # 4 (or 5) distinct 2-cliques span at least 4 vertices, more than
        # the 2*4 - 5 = 3 (or 2*5 - 7 = 3) that C(4,5;2,1) and C(5,7;2,1)
        # allow, so neither side needs a host set
        k = build(2, 4, list(itertools.combinations(range(4), 2)))
        H = PackingPairGraph(k, k, frozenset(itertools.product(range(6), repeat=2)))
        assert enumerate_conflicts(H, "C(3,3;2,1)")

        def no_hosts(*args):
            raise AssertionError("host sets enumerated for an empty family")

        monkeypatch.setattr(constructions, "enumerate_S", no_hosts)
        assert enumerate_conflicts(H, "C(4,5;2,1)") == []
        assert enumerate_conflicts(H, "C(5,7;2,1)") == []

    FAMILIES = {
        "C(3,3;2,1)": (3, 3, 2, 1, False),
        "C(4,4;3,2)": (4, 4, 3, 2, False),
        "C(4,5;2,1)": (4, 5, 2, 1, False),
        "C(5,7;2,1)": (5, 7, 2, 1, False),
        "C'(4,3;3,3)": (4, 3, 3, 3, True),
    }

    @staticmethod
    def random_instances():
        rng = random.Random(61)
        for trial in range(120):
            u = rng.choice([2, 2, 3])
            k1 = util.random_hypergraph(rng, u, rng.randint(u + 1, 6), 6)
            # the pipeline relates a packing to itself: k2 is k1
            if trial % 3 == 1:
                k2 = k1
            else:
                k2 = util.random_hypergraph(rng, u, rng.randint(u + 1, 6), 6)
            if not k1.edges or not k2.edges:
                continue
            side1, side2 = range(len(k1.edges)), range(len(k2.edges))
            if trial % 3 == 2:  # leave some cliques of each side unpartnered
                side1 = sorted(rng.sample(side1, rng.randint(1, len(side1))))
                side2 = sorted(rng.sample(side2, rng.randint(1, len(side2))))
            pool = list(itertools.product(side1, side2))
            rng.shuffle(pool)
            yield trial, PackingPairGraph(k1, k2, frozenset(pool[: rng.randint(0, len(pool))]))

    def test_matches_naive_on_random_instances(self):
        for trial, H in self.random_instances():
            for fam, spec in self.FAMILIES.items():
                assert enumerate_conflicts(H, fam) == util.naive_conflicts(
                    H, *spec
                ), (fam, trial, H.k1.edges, H.k2.edges)

    def test_one_pass_counts_and_chosen_conflicts(self):
        # The walk counts each family without listing it and keeps the
        # conflicts inside a chosen subset of H: these are the naive list
        # filtered to the chosen pairs, and also the conflicts of H cut
        # down to the chosen pairs.
        rng = random.Random(67)
        kept_some = kept_part = 0
        for trial, H in self.random_instances():
            chosen = frozenset(e for e in sorted(H.edges) if rng.random() < 0.75)
            walk = constructions._conflict_walk(H, list(self.FAMILIES), chosen)
            assert list(walk) == list(self.FAMILIES)
            cut = PackingPairGraph(H.k1, H.k2, chosen)
            for fam, spec in self.FAMILIES.items():
                naive = util.naive_conflicts(H, *spec)
                count, kept = walk[fam]
                why = (fam, trial, H.k1.edges, H.k2.edges, sorted(chosen))
                assert count == len(naive), why
                assert kept == [c for c in naive if chosen.issuperset(c)], why
                assert kept == enumerate_conflicts(cut, fam), why
                kept_some += bool(kept)
                kept_part += 0 < len(kept) < count
        assert kept_some >= 20 and kept_part >= 10

    def test_pipeline_calls_match_naive(self, monkeypatch):
        # The pipeline counts every conflict but lists only the fully
        # chosen ones, so the check captures the H it walks and its
        # selected pairs and compares both figures with the naive lists.
        real = constructions._conflict_walk
        calls = []

        def captured(H, families, keep):
            calls.append((H, frozenset(keep)))
            return real(H, families, keep)

        monkeypatch.setattr(constructions, "_conflict_walk", captured)
        rep = random_packing_construction(
            RandomParams(r=4, m=8, alpha=Fraction(1, 2), mu=Fraction(1, 4), seed=7)
        )
        [(H, selected)] = calls
        assert len(selected) == rep.aux["selected"]
        for fam, spec in self.FAMILIES.items():
            naive = util.naive_conflicts(H, *spec)
            assert rep.aux["conflicts"][fam] == len(naive), fam
            fully = [c for c in naive if selected.issuperset(c)]
            assert rep.aux["fully_chosen_conflicts"][fam] == len(fully), fam
        assert all(
            rep.aux["conflicts"][fam] for fam in ("C(3,3;2,1)", "C(4,4;3,2)", "C'(4,3;3,3)")
        )


class TestCrossRelation:
    @staticmethod
    def rows(m, g3_edges):
        return [sum(1 << b for b in range(m) if (a, b) in g3_edges) for a in range(m)]

    def test_matches_naive_on_random_packings(self):
        rng = random.Random(71)
        related = lonely = 0
        for r in (4, 5, 6):
            u = r - 2
            for _ in range(40):
                m = rng.randint(u, 11)
                cliques = list(itertools.combinations(range(m), u))
                packing = sorted(rng.sample(cliques, rng.randint(1, min(9, len(cliques)))))
                density = rng.choice([0.4, 0.7, 0.9, 1.0])
                g3 = {(a, b) for a in range(m) for b in range(m) if rng.random() < density}
                # a vertex with no cross neighbours leaves its cliques unrelated
                if rng.random() < 0.5:
                    a = rng.randrange(m)
                    g3 = {(x, y) for x, y in g3 if x != a and y != a}
                got = constructions._cross_relation(packing, self.rows(m, g3))
                want = util.naive_relation(packing, g3)
                assert got == want, (r, m, packing, sorted(g3))
                related += bool(got)
                lonely += len({i for i, _ in got}) < len(packing)
        assert related >= 30 and lonely >= 30

    def test_empty_packing(self):
        assert constructions._cross_relation([], [0b111, 0b111, 0b111]) == []

    def test_cliques_without_cross_neighbours(self):
        packing = [(0, 1), (2, 3), (4, 5)]
        g3 = {(a, b) for a in (2, 3, 4, 5) for b in range(6)}
        rows = self.rows(6, g3)
        assert rows[0] == rows[1] == 0
        got = constructions._cross_relation(packing, rows)
        assert got == util.naive_relation(packing, g3)
        assert got == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


class TestRandomParams:
    def test_validation(self):
        ok = dict(r=4, m=8, alpha=Fraction(1, 2), mu=Fraction(1, 4), seed=0)
        RandomParams(**ok)
        with pytest.raises(ValueError):
            RandomParams(**{**ok, "r": 3})
        with pytest.raises(ValueError):
            RandomParams(**{**ok, "m": 3})
        with pytest.raises(ValueError):
            RandomParams(**{**ok, "alpha": Fraction(0)})
        with pytest.raises(ValueError):
            RandomParams(**{**ok, "alpha": Fraction(1)})
        with pytest.raises(ValueError):
            RandomParams(**{**ok, "mu": Fraction(7, 5)})
        with pytest.raises(ValueError):
            RandomParams(**{**ok, "seed": -1})
        with pytest.raises(ValueError):
            RandomParams(**{**ok, "seed": 1 << 64})
        with pytest.raises(ValueError):
            RandomParams(r=4, m=8, alpha=Fraction(1, 2), mu=Fraction(1, 4), seed=0, girth_cap=1)

    def test_fraction_coercion(self):
        p = RandomParams(r=4, m=8, alpha="3/10", mu=0.25, seed=1)
        assert p.alpha == Fraction(3, 10)
        assert p.mu == Fraction(1, 4)


class TestRandomPipeline:
    PARAMS = dict(r=4, m=12, alpha=Fraction(3, 10), mu=Fraction(1, 4), seed=3)

    def test_frozen_small_run(self):
        rep = random_packing_construction(RandomParams(**self.PARAMS))
        assert rep.F.n == 26
        assert len(rep.F.edges) == 2
        assert rep.ratio == Fraction(1, 15)
        aux = rep.aux
        assert aux["k1_size"] == 28 and aux["k2_size"] == 28
        assert aux["h_edges"] == 12
        assert aux["selected"] == 12
        assert aux["overlap_removed"] == 10
        assert aux["conflict_removed"] == 11
        assert aux["m_size"] == 1
        assert aux["d"] == "567/2500"
        assert aux["select_threshold"] == "625/567"
        assert aux["m_expected"] == "2500/189"
        assert aux["conflicts"] == {
            "C(3,3;2,1)": 7,
            "C(4,4;3,2)": 18,
            "C(4,5;2,1)": 0,
            "C(5,7;2,1)": 0,
            "C'(4,3;3,3)": 2,
        }
        assert aux["p_le3_minus_p1_in_g3"] is True
        assert all(res.free for res in rep.freeness_facts.values())

    def test_empty_packing(self):
        # alpha = 1/1000 on five vertices leaves no clique to pack, so the
        # selection density d is 0 and nothing is selected.
        rep = random_packing_construction(
            RandomParams(r=5, m=5, alpha=Fraction(1, 1000), mu=Fraction(1, 2), seed=0)
        )
        aux = rep.aux
        assert aux["empty_packing"] is True and aux["k1_size"] == 0
        assert aux["d"] == "0" and aux["select_threshold"] is None
        assert aux["m_expected"] == "0" and aux["selected"] == 0
        assert rep.F.edges == () and rep.ratio == 0

    def test_deterministic(self):
        a = construction_doc(random_packing_construction(RandomParams(**self.PARAMS)))
        b = construction_doc(random_packing_construction(RandomParams(**self.PARAMS)))
        assert a == b

    def test_seed_changes_output(self):
        a = construction_doc(
            random_packing_construction(RandomParams(**{**self.PARAMS, "seed": 4}))
        )
        b = construction_doc(random_packing_construction(RandomParams(**self.PARAMS)))
        assert a != b

    def test_structure(self):
        rep = random_packing_construction(RandomParams(**self.PARAMS))
        m = self.PARAMS["m"]
        msize = rep.aux["m_size"]
        assert rep.F.n == 2 * m + 2 * msize
        assert len(rep.F.edges) == 2 * msize
        # the two removal sets may intersect, so only set bounds hold
        sel = rep.aux["selected"]
        ov, cf = rep.aux["overlap_removed"], rep.aux["conflict_removed"]
        assert sel - ov - cf <= msize <= sel - max(ov, cf)
        queries = {(2 * 4 - 3, 2), (3 * 4 - 5, 3), (3 * 4 - 4, 3), (4 * 4 - 7, 4),
                   (5 * 4 - 8, 5), (6 * 4 - 11, 6), (7 * 4 - 12, 7)}
        assert set(rep.freeness_facts) == queries

    def test_girth_cap_beyond_the_packing_costs_nothing(self, monkeypatch):
        # ell packed cliques need ell - 1 earlier ones, so the girth check
        # stops at the packing's size plus one: a cap of 64 already exceeds
        # it here (at most 22 edge-disjoint triangles on 12 vertices).
        calls = []
        inner = constructions._config_search

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(constructions, "_config_search", counted)
        docs, counts = [], []
        for cap in (64, 10_000):
            calls.clear()
            params = RandomParams(
                r=5, m=12, alpha=Fraction(1, 2), mu=Fraction(1, 8), seed=1, girth_cap=cap
            )
            docs.append(construction_doc(random_packing_construction(params)))
            counts.append(len(calls))
        assert docs[0] == docs[1]
        assert counts[0] == counts[1] > 0

    def test_doc_shape(self):
        rep = random_packing_construction(RandomParams(**self.PARAMS))
        doc = construction_doc(rep)
        assert doc["graph"]["n"] == 26
        assert doc["shadow_size"] == rep.shadow_size
        assert doc["p_le_3_size"] == rep.p_le_3_size
        assert doc["ratio"] == "1/15"
        rows = doc["freeness"]
        assert [tuple(sorted((row["max_vertices"], row["edge_count"]))) for row in rows]
        assert all(row["free"] for row in rows)


    def test_dense_run(self):
        # 41 cliques, 258 relations and about 180,000 conflicts, of which
        # only 357 are fully chosen
        rep = random_packing_construction(
            RandomParams(r=4, m=12, alpha=Fraction(1, 2), mu=Fraction(1, 4), seed=1)
        )
        aux = rep.aux
        assert (aux["k1_size"], aux["h_edges"], aux["selected"]) == (41, 258, 30)
        assert (aux["overlap_removed"], aux["conflict_removed"], aux["m_size"]) == (26, 29, 1)
        assert aux["conflicts"] == {
            "C(3,3;2,1)": 3_878,
            "C(4,4;3,2)": 147_312,
            "C(4,5;2,1)": 0,
            "C(5,7;2,1)": 0,
            "C'(4,3;3,3)": 27_183,
        }
        assert aux["fully_chosen_conflicts"] == {
            "C(3,3;2,1)": 52,
            "C(4,4;3,2)": 228,
            "C(4,5;2,1)": 0,
            "C(5,7;2,1)": 0,
            "C'(4,3;3,3)": 77,
        }


class TestDerivedLimits:
    def test_quadratic(self):
        assert gr_limit(12) == Fraction(9, 22)
        assert gr_limit(14) == Fraction(5, 12)
        assert gr_limit(16) == Fraction(9, 22)
        for bad in (10, 13, 18):
            with pytest.raises(Unknown):
                gr_limit(bad)

    def test_linear(self):
        assert gr_linear_bounds() == {
            7: Fraction(4, 5),
            8: Fraction(269, 330),
            9: Fraction(4, 5),
        }
