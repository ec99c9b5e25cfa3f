"""Acceptance suite: eight end-to-end criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every check is exact (Fraction arithmetic, structural equality);
each criterion also asserts its wall-clock budget.
"""
from __future__ import annotations

import itertools
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import util  # noqa: E402

from beslab import (  # noqa: E402
    ConfigQuery,
    Pair,
    RandomParams,
    certify,
    claim_set,
    consistency_sweep,
    construction_doc,
    diamond_star,
    f63,
    family_queries,
    gr_limit,
    gr_linear_bounds,
    is_family_free,
    limit_table,
    lower_bound_ratio,
    m11,
    m12,
    m2plus,
    m3plus,
    pairs_claimed_upto,
    random_packing_construction,
    rule_for,
    shadow,
    single_edge,
)
from beslab.constructions import _substream  # noqa: E402


class criterion:
    """Times a criterion body and prints exactly one PASS/FAIL line."""

    def __init__(self, number: int, budget_seconds: float):
        self.number = number
        self.budget = budget_seconds
        self.detail = ""

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        if exc_type is None and elapsed > self.budget:
            print(
                f"ACCEPTANCE {self.number}: FAIL — exceeded {self.budget:.0f}s "
                f"budget ({elapsed:.1f}s)"
            )
            raise AssertionError(
                f"criterion {self.number} took {elapsed:.1f}s > {self.budget}s"
            )
        if exc_type is None:
            print(f"ACCEPTANCE {self.number}: PASS — {self.detail} ({elapsed:.1f}s)")
        else:
            print(f"ACCEPTANCE {self.number}: FAIL — {exc}")
        return False


def partition_key(part):
    return tuple(sorted(tuple(c.edge_indices) for c in part.clusters))


def set_partitions(items, max_blocks):
    """All partitions of ``items`` into at most ``max_blocks`` nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest, max_blocks):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] + [first]] + sub[i + 1 :]
        if len(sub) < max_blocks:
            yield sub + [[first]]


def test_acceptance_1_f63_certificate(big_star):
    with criterion(1, 10.0) as c:
        F = big_star
        assert F.n == 63 and F.vertex_count() == 63
        assert len(F.edges) == 61
        # Exhaustive family freeness for k=6: the dense (ell+1, ell) queries
        # plus the main 6-edges-on-8-vertices search.
        assert [(q.edge_count, q.max_vertices) for q in family_queries(3, 6)] == [
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 8),
        ]
        free = is_family_free(F, 6)
        assert bool(free) is True and free.witness is None
        assert len(pairs_claimed_upto(F, 3)) == 165
        ratio, pset = lower_bound_ratio(F, 6)
        assert ratio == Fraction(61, 330)
        assert len(pset) == 165
        c.detail = "f63: 63 vertices, 61 edges, family-free at k=6, 165 pairs, ratio 61/330"


def test_acceptance_2_diamond_star_certificate():
    with criterion(2, 5.0) as c:
        for t in range(1, 9):
            G = diamond_star(t)
            assert bool(is_family_free(G, 5)) is True
            assert bool(is_family_free(G, 7)) is True
            ratio, pset = lower_bound_ratio(G, 5)
            assert ratio == Fraction(2 * t, 2 * (5 * t + 1))
            assert len(pset) == 5 * t + 1
        c.detail = "diamond-star t=1..8 free for k=5 and k=7, ratio 2t/(2(5t+1)) exact"


def test_acceptance_3_limit_tables():
    with criterion(3, 5.0) as c:
        for r in range(3, 9):
            for k in (5, 7):
                assert limit_table(r, k) == Fraction(1, r * r - r - 1)
        for r in range(4, 9):
            assert limit_table(r, 6) == Fraction(1, r * r - r)
        assert limit_table(3, 6) == Fraction(61, 330)
        assert {p: gr_limit(p) for p in (12, 14, 16)} == {
            12: Fraction(9, 22),
            14: Fraction(5, 12),
            16: Fraction(9, 22),
        }
        assert gr_linear_bounds() == {
            7: Fraction(4, 5),
            8: Fraction(269, 330),
            9: Fraction(4, 5),
        }
        c.detail = "limit table, quadratic limits, and linear bounds all exact"


def test_acceptance_4_weighting_certificates(corpus_k5, corpus_k6, corpus_k7):
    CASES = [(3, 5), (4, 5), (3, 6), (4, 6), (3, 7)]
    CORPORA = {(3, 5): corpus_k5, (3, 6): corpus_k6, (3, 7): corpus_k7}
    with criterion(4, 120.0) as c:
        total = 0
        for r, k in CASES:
            rule = rule_for(r, k)
            rng = random.Random(7_000_000 + 1000 * r + k)
            graphs = list(CORPORA.get((r, k), []))
            while len(graphs) < 500 + len(CORPORA.get((r, k), [])):
                n = rng.randint(7, 12)
                graphs.append(util.random_free_graph(rng, r, k, n))
            for G in graphs:
                rep = certify(G, rule)
                assert rep.certified, (rule.case, G.edges)
                assert all(lam >= 0 for _, lam in rep.per_cluster.values())
                assert all(v <= 1 for v in rep.per_pair.values())
            total += len(graphs)
        c.detail = (
            f"{total} admissible graphs certified=true across all five rules "
            "(lambda >= 0, per-pair <= 1)"
        )


def test_acceptance_5_oracle_consistency():
    with criterion(5, 300.0) as c:
        cases = [(3, 5, 7), (3, 6, 7), (3, 7, 7), (4, 5, 6), (4, 6, 6)]
        for r, k, n_max in cases:
            report = consistency_sweep(r, k, n_max, cache_path=None, threads=1)
            assert report.ok, (r, k, n_max)
            for row in report.rows:
                assert row.family_value <= row.plain_value
                for label, edges, ok in row.constructions:
                    assert ok and edges <= row.family_value
                if row.bound_value is not None:
                    assert row.bound_ok and row.bound_value >= row.family_value
        c.detail = "consistency_sweep ok for " + ", ".join(str(t) for t in cases)


def test_acceptance_6_randomized_construction():
    params = dict(r=4, m=24, alpha=Fraction(3, 10), mu=Fraction(1, 8), girth_cap=8)
    with criterion(6, 180.0) as c:
        edge_counts = []
        ratios = []
        for seed in range(1, 21):
            rep = random_packing_construction(RandomParams(seed=seed, **params))
            F = rep.F
            m = params["m"]
            # Every exhaustive freeness fact recorded by the pipeline holds.
            assert rep.freeness_facts and all(
                bool(fact) for fact in rep.freeness_facts.values()
            ), seed
            # M is a matching: each output edge pair uses one side-1 clique and
            # one side-2 clique, and no clique repeats across matches.
            assert len(F.edges) == 2 * rep.aux["m_size"]
            assert F.n == 2 * m + 2 * rep.aux["m_size"]
            by_tail: dict[tuple[int, int], list[tuple[int, ...]]] = {}
            for e in F.edges:
                tail = tuple(v for v in e if v >= 2 * m)
                assert len(tail) == 2 and tail[1] == tail[0] + 1
                by_tail.setdefault(tail, []).append(e)
            assert len(by_tail) == rep.aux["m_size"]
            side1 = []
            side2 = []
            for tail, pair_edges in by_tail.items():
                assert len(pair_edges) == 2
                e1 = next(e for e in pair_edges if all(v < m for v in e[:-2]))
                e2 = next(e for e in pair_edges if all(m <= v < 2 * m for v in e[:-2]))
                s1 = e1[:-2]
                s2 = tuple(v - m for v in e2[:-2])
                assert len(s1) == len(s2) == params["r"] - 2
                side1.append(s1)
                side2.append(s2)
            assert len(set(side1)) == len(side1)
            assert len(set(side2)) == len(side2)
            # P_{<=3}(F) \ P_1(F) lands inside E(G3): rebuild G3 from the
            # seed's documented substream and check each cross pair.
            rng3 = _substream(seed, "G3")
            alpha_f = float(params["alpha"])
            g3 = {
                p
                for p in itertools.product(range(m), range(m))
                if rng3.random() < alpha_f
            }
            extra = pairs_claimed_upto(F, 3) - shadow(F) if F.edges else set()
            for a, b in extra:
                assert a < m <= b < 2 * m, (seed, (a, b))
                assert (a, b - m) in g3, (seed, (a, b))
            assert rep.aux["p_le3_minus_p1_in_g3"] is True
            # Identical seed => identical report.
            if seed in (1, 13):
                again = random_packing_construction(RandomParams(seed=seed, **params))
                assert construction_doc(again) == construction_doc(rep)
            edge_counts.append(len(F.edges))
            ratios.append(rep.ratio)
        mean_edges = sum(edge_counts) / len(edge_counts)
        positive = [x for x in ratios if x > 0]
        mean_ratio = sum(positive, Fraction(0)) / len(positive) if positive else 0
        c.detail = (
            "20 seeds: freeness+matching+cross-pair checks hold, deterministic; "
            f"stats only: mean edges {mean_edges:.1f}, "
            f"mean nonzero ratio {float(mean_ratio):.4f}"
        )


def test_acceptance_7_merging_invariants(fuzz_corpus, corpus_k5, corpus_k7):
    with criterion(7, 120.0) as c:
        stages = (m11, m12, m2plus, m3plus)
        small = [G for G in fuzz_corpus if len(G.edges) <= 10]
        assert small, "fuzz corpus is empty"
        for G in small:
            for stage in stages:
                baseline = partition_key(stage(G))
                for schedule in range(100):
                    rng = random.Random(90_000 + schedule)
                    assert partition_key(stage(G, rng=rng)) == baseline, (
                        stage.__name__,
                        G.edges,
                        schedule,
                    )
        # m11 clusters of admissible graphs are m-trees with m <= k-1, and the
        # k=5 / k=7 size caps hold at the stages those certificates use.
        rng = random.Random(424242)
        free_cases = [
            (5, list(corpus_k5) + [util.random_free_graph(rng, 4, 5, rng.randint(8, 12)) for _ in range(60)]),
            (7, list(corpus_k7) + [util.random_free_graph(rng, 3, 7, rng.randint(8, 12)) for _ in range(60)]),
        ]
        for k, graphs in free_cases:
            cap = k - 1
            for G in graphs:
                for cluster in m11(G).clusters:
                    assert util.naive_tree_kind(cluster.part) != "none", (k, G.edges)
                    assert len(cluster.edge_indices) <= cap
                for cluster in m2plus(G).clusters:
                    assert len(cluster.edge_indices) <= cap, (k, G.edges)
        c.detail = (
            f"{len(small)} fuzz graphs x 4 stages stable over 100 shuffled "
            "last-round schedules; m11 clusters are m-trees (m <= k-1); k=5/k=7 caps 4/6 hold"
        )


def test_acceptance_8_sum_set_barrier(corpus_k5):
    with criterion(8, 120.0) as c:
        k = 5
        checked = 0
        for G in corpus_k5:
            if not G.edges:
                continue
            idx = list(range(len(G.edges)))
            pairs = [Pair(u, v) for u, v in itertools.combinations(range(G.n), 2)]
            for blocks in set_partitions(idx, 4):
                parts = [G.subgraph(tuple(sorted(b))) for b in blocks]
                for p in pairs:
                    sums = {0}
                    for part in parts:
                        members = claim_set(part, p, k)
                        sums = {a + b for a in sums for b in members}
                    assert k not in sums, (G.edges, blocks, p)
                    checked += 1
        c.detail = (
            f"no edge partition into <=4 parts sums claims to {k} on any pair "
            f"({checked} partition-pair combinations over the exhaustive corpus)"
        )
