"""Exact extremal oracle: brute-force cross-checks, caching, sweeps."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import util
from beslab import (
    TooLarge,
    build,
    consistency_sweep,
    exact_turan,
    exact_turan_family,
    find_configuration,
    ConfigQuery,
    is_family_free,
    size_cap,
    sweep_doc,
    to_text,
    turan_doc,
)
from beslab.hypergraphs import family_queries
from beslab.turan import _Kills


class TestPlain:
    def test_frozen_examples(self):
        assert exact_turan(3, 4, 7, 5).value == 4
        assert exact_turan(3, 5, 7, 5).value == 4
        res = exact_turan(3, 6, 6, 3)
        assert res.value == 2
        assert res.witness.edges == ((0, 1, 2), (0, 1, 3))
        assert res.nodes_explored == 0  # n <= s shortcut

    def test_shortcut_caps_at_k_minus_one(self):
        res = exact_turan(3, 9, 9, 2)
        assert res.value == 1
        assert res.witness.edges == ((0, 1, 2),)
        full = exact_turan(3, 4, 5, 99)
        assert full.value == 4  # every triple fits

    def test_matches_powerset_scan(self):
        for n in (3, 4, 5):
            for s, k in ((4, 2), (5, 2), (4, 3), (5, 3), (7, 5)):
                got = exact_turan(3, n, s, k)
                want = util.naive_turan_plain(3, n, s, k)
                assert got.value == want, (n, s, k)
                assert len(got.witness.edges) == got.value
                assert (
                    find_configuration(got.witness, ConfigQuery(k, s)) is None
                )

    def test_monotone_in_n(self):
        for n in range(3, 7):
            assert (
                exact_turan(3, n, 5, 2).value <= exact_turan(3, n + 1, 5, 2).value
            )

    def test_antitone_in_s(self):
        for s in range(2, 8):
            assert (
                exact_turan(3, 6, s + 1, 3).value <= exact_turan(3, 6, s, 3).value
            )

    def test_deterministic(self):
        a = exact_turan(3, 6, 5, 2)
        b = exact_turan(3, 6, 5, 2)
        assert (a.value, a.witness, a.nodes_explored) == (
            b.value,
            b.witness,
            b.nodes_explored,
        )

    def test_lex_min_witness(self):
        for n, s, k in ((5, 5, 2), (5, 5, 3), (5, 6, 3), (4, 5, 3)):
            got = exact_turan(3, n, s, k)
            cands = list(itertools.combinations(range(n), 3))
            best = None
            for subset in itertools.combinations(cands, got.value):
                G = build(3, n, subset)
                if find_configuration(G, ConfigQuery(k, s)) is None:
                    if best is None or G.edges < best:
                        best = G.edges
            assert got.witness.edges == best, (n, s, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_turan(1, 4, 5, 2)
        with pytest.raises(ValueError):
            exact_turan(3, -1, 5, 2)
        with pytest.raises(ValueError):
            exact_turan(3, 4, 0, 2)
        with pytest.raises(ValueError):
            exact_turan(3, 4, 5, 0)


class TestFamily:
    def test_frozen_examples(self):
        assert exact_turan_family(3, 4, 5).value == 2
        res = exact_turan_family(3, 5, 5)
        assert res.value == 3
        # some pair of witness edges shares two vertices (a diamond)
        assert any(
            len(set(a) & set(b)) == 2
            for a, b in itertools.combinations(res.witness.edges, 2)
        )
        assert exact_turan_family(3, 6, 5).value == 4
        assert exact_turan_family(3, 7, 5).value == 4

    def test_matches_powerset_scan(self):
        for n in (3, 4, 5):
            for k in (3, 5, 6):
                got = exact_turan_family(3, n, k)
                assert got.value == util.naive_turan_family(3, n, k), (n, k)
                assert is_family_free(got.witness, k).free
                assert len(got.witness.edges) == got.value

    def test_lex_min_witness(self):
        # The witness is the first index tuple of maximum size, with the
        # candidates in colex order, whose graph avoids the whole family.
        for r, n in ((3, 4), (3, 5), (4, 5), (4, 6)):
            cands = sorted(itertools.combinations(range(n), r), key=lambda e: e[::-1])
            for k in (3, 5, 6):
                want = None
                for size in range(len(cands), -1, -1):
                    for idx in itertools.combinations(range(len(cands)), size):
                        G = build(r, n, [cands[i] for i in idx])
                        if util.naive_family_free(G, k):
                            want = G
                            break
                    if want is not None:
                        break
                got = exact_turan_family(r, n, k)
                assert (got.value, got.witness) == (len(want.edges), want), (r, n, k)

    def test_never_exceeds_plain(self):
        for n in range(3, 8):
            for k in (5, 6, 7):
                s_main = 3 * k - 2 * k + 2
                assert (
                    exact_turan_family(3, n, k).value
                    <= exact_turan(3, n, s_main, k).value
                )

    def test_one_query_family_runs_the_plain_search(self):
        # for k = 2 the family is the single ban of 2 edges on 2r - 2 vertices
        for r, n in ((3, 5), (3, 6), (3, 7), (4, 7)):
            fam = exact_turan_family(r, n, 2)
            plain = exact_turan(r, n, 2 * r - 2, 2)
            assert fam.value == plain.value, (r, n)
            assert fam.witness == plain.witness, (r, n)
            assert fam.nodes_explored == plain.nodes_explored > 0, (r, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_turan_family(3, 5, 1)


class TestKillMasks:
    """The kill step against the definition: after choosing the sorted
    admissible set C, the live set is every later h with C + {h}
    admissible, and choosing a live j leaves every later live h with
    C + {j, h} admissible."""

    @staticmethod
    def _descend(ks, chosen):
        live, unions = ks.root_live, ks.root_unions
        for j in chosen:
            assert live >> j & 1, (chosen, j)
            live = (live >> (j + 1) << (j + 1)) & ~ks.kill(unions, ks.cmasks[j])
            unions = ks.extend(unions, ks.cmasks[j])
        return live, unions

    @staticmethod
    def _random_admissible(rng, ks, ok):
        """A random subset of a random maximal admissible set."""
        order = list(range(len(ks.cands)))
        rng.shuffle(order)
        maximal: list[int] = []
        for h in order:
            if ok(sorted(maximal + [h])):
                maximal.append(h)
        return sorted(rng.sample(maximal, rng.randint(len(maximal) // 2, len(maximal))))

    def _check(self, rng, r, n, queries, admissible, trials):
        """``admissible(G)`` is the definitional test of a graph."""
        ks = _Kills(r, n, queries)

        def ok(idx):
            return admissible(build(r, n, [ks.cands[i] for i in idx]))

        def bits(mask):
            return [h for h in range(len(ks.cands)) if mask >> h & 1]

        for _ in range(trials):
            chosen = self._random_admissible(rng, ks, ok)
            live, unions = self._descend(ks, chosen)
            after = chosen[-1] + 1 if chosen else 0
            want = [h for h in range(after, len(ks.cands)) if ok(chosen + [h])]
            assert bits(live) == want, (r, n, queries, chosen)
            for j in rng.sample(want, min(3, len(want))):
                child = (live >> (j + 1) << (j + 1)) & ~ks.kill(unions, ks.cmasks[j])
                want_child = [h for h in want if h > j and ok(chosen + [j, h])]
                assert bits(child) == want_child, (r, n, queries, chosen, j)

    @pytest.mark.parametrize("r", [3, 4])
    def test_family_matches_definition(self, r):
        rng = random.Random(60 + r)
        for n in range(r + 1, 8):
            for k in (3, 5, 6):
                self._check(rng, r, n, family_queries(r, k),
                            lambda G, k=k: util.naive_family_free(G, k), trials=4)

    @pytest.mark.parametrize("r", [3, 4])
    def test_plain_matches_definition(self, r):
        rng = random.Random(70 + r)
        for n in range(r + 1, 8):
            for _ in range(3):
                k = rng.randint(1, 5)
                s = rng.randint(r, 2 * r + 1)
                self._check(rng, r, n, [ConfigQuery(k, s)],
                            lambda G, k=k, s=s: util.naive_find_config(G, k, s) is None,
                            trials=4)


class TestLimits:
    def test_size_cap(self):
        assert size_cap(3) == 9
        assert size_cap(4) == 8
        assert size_cap(7) == 8

    def test_too_large_carries_greedy(self):
        with pytest.raises(TooLarge) as ei:
            exact_turan(3, 10, 5, 4)
        best = ei.value.best
        assert best is not None
        assert len(best.witness.edges) == best.value
        assert find_configuration(best.witness, ConfigQuery(4, 5)) is None
        # Recorded at commit e4c9392, whose greedy tested each colex
        # candidate against the whole edge set chosen so far.
        assert (best.value, best.witness.edges) == _pinned(
            "012 013 023 045 046 047 048 049 145 167 168 178 246 257 258 259 347 356 358 369"
        )
        with pytest.raises(TooLarge) as ei:
            exact_turan_family(3, 10, 5)
        best = ei.value.best
        assert (best.value, best.witness.edges) == _pinned("012 013 014 015 067 068 069")
        assert is_family_free(best.witness, 5).free

    def test_allow_large(self):
        # distinct 4-edges span five vertices, so nothing is ever banned
        res = exact_turan(4, 9, 4, 2, allow_large=True)
        assert res.value == 126
        assert res.nodes_explored > 0

    def test_shortcut_beats_cap(self):
        # n <= s needs no search even past the cap
        res = exact_turan(3, 40, 40, 3)
        assert res.value == 2
        assert res.nodes_explored == 0


class TestCache:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        a = exact_turan(3, 6, 5, 2, cache_path=path)
        assert a.nodes_explored > 0
        lines = Path(path).read_text().splitlines()
        assert len(lines) == 1
        b = exact_turan(3, 6, 5, 2, cache_path=path)
        assert (b.value, b.witness, b.nodes_explored) == (
            a.value,
            a.witness,
            a.nodes_explored,
        )
        assert len(Path(path).read_text().splitlines()) == 1

    def test_family_and_plain_keys_differ(self, tmp_path):
        # same numeric key (r=3, n=5, s=4, k=2); only the kind separates them
        path = str(tmp_path / "cache.jsonl")
        fam = exact_turan_family(3, 5, 2, cache_path=path)
        plain = exact_turan(3, 5, 4, 2, cache_path=path)
        assert fam.value == plain.value == util.naive_turan_family(3, 5, 2)
        assert len(Path(path).read_text().splitlines()) == 2
        assert exact_turan_family(3, 5, 2, cache_path=path).value == fam.value
        assert exact_turan(3, 5, 4, 2, cache_path=path).value == plain.value
        assert len(Path(path).read_text().splitlines()) == 2

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('not json at all\n{"broken": true\n')
        res = exact_turan(3, 6, 5, 2, cache_path=str(path))
        # util.naive_turan_plain(3, 6, 5, 2) == 2; the powerset scan takes ~20 s.
        assert res.value == 2

    def test_parent_directory_created(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "cache.jsonl")
        exact_turan(3, 6, 5, 2, cache_path=path)
        assert Path(path).read_text().strip()

    @staticmethod
    def _family_record(value, witness_text):
        # The key of exact_turan_family(3, 6, 5): the main ban is 5 edges on 7 vertices.
        return json.dumps(
            {"kind": "family", "r": 3, "n": 6, "s": 7, "k": 5,
             "value": value, "witness": witness_text, "nodes": 1},
            sort_keys=True,
        ) + "\n"

    def test_hit_with_wrong_value_is_searched_again(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(self._family_record(99, "3 6 1\n0 1 2\n"))
        res = exact_turan_family(3, 6, 5, cache_path=str(path))
        assert res.value == 4 == exact_turan_family(3, 6, 5).value
        assert res.nodes_explored > 0
        assert len(path.read_text().splitlines()) == 2
        # The appended record is the last match and now answers the lookup.
        again = exact_turan_family(3, 6, 5, cache_path=str(path))
        assert (again.value, again.witness) == (res.value, res.witness)
        assert len(path.read_text().splitlines()) == 2

    def test_hit_whose_witness_holds_a_banned_configuration_is_rejected(self, tmp_path):
        # Three edges on the four vertices 0..3 form a banned (3, 4) configuration.
        witness = build(3, 6, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 4, 5), (2, 4, 5)])
        assert not is_family_free(witness, 5).free
        path = tmp_path / "cache.jsonl"
        path.write_text(self._family_record(5, to_text(witness)))
        res = exact_turan_family(3, 6, 5, cache_path=str(path))
        assert res.value == 4
        assert len(path.read_text().splitlines()) == 2

    def test_hit_for_another_graph_size_is_rejected(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(self._family_record(1, "3 5 1\n0 1 2\n"))
        assert exact_turan_family(3, 6, 5, cache_path=str(path)).value == 4
        assert len(path.read_text().splitlines()) == 2

    def test_last_well_formed_matching_line_wins(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = exact_turan_family(3, 6, 5, cache_path=str(path))
        record = path.read_text()
        # A later match without "nodes" is not well formed and is skipped.
        partial = json.loads(record)
        del partial["nodes"]
        path.write_text(self._family_record(99, "3 6 1\n0 1 2\n") + record
                        + json.dumps(partial) + "\n")
        hit = exact_turan_family(3, 6, 5, cache_path=str(path))
        assert (hit.value, hit.witness, hit.nodes_explored) == (
            good.value, good.witness, good.nodes_explored)
        assert len(path.read_text().splitlines()) == 3

    def test_unhashable_key_line_is_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(
            '{"kind":"family","r":[3],"n":6,"s":7,"k":5,'
            '"value":4,"witness":"3 6 0\\n","nodes":0}\n'
        )
        res = exact_turan(3, 6, 5, 2, cache_path=str(path))
        assert res.value == exact_turan(3, 6, 5, 2).value

    def test_malformed_matching_lines_are_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(
            b'{"kind":"family","r":3,"n":6,"s":7,"k":5,"value":4,"witness":5,"nodes":0}\n'
            b'{"kind":"family","r":3,"n":6,"s":7,"k":5,"value":1e400,'
            b'"witness":"3 6 0\\n","nodes":0}\n'
            b'{"kind":"family","r":3,"\xff":6}\n'
        )
        assert exact_turan_family(3, 6, 5, cache_path=str(path)).value == 4
        assert len(path.read_bytes().splitlines()) == 4


class TestSweep:
    def test_small_sweep(self):
        report = consistency_sweep(3, 5, 6)
        assert report.ok
        values = {row.n: (row.family_value, row.plain_value) for row in report.rows}
        assert values == {3: (1, 1), 4: (2, 4), 5: (3, 4), 6: (4, 4)}
        by_n = {row.n: row for row in report.rows}
        assert any(
            label.startswith("diamond_star") for (label, _, _) in by_n[4].constructions
        )
        assert all(row.bound_ok for row in report.rows)

    def test_doc_shape(self):
        doc = sweep_doc(consistency_sweep(3, 5, 5))
        assert doc["r"] == 3 and doc["k"] == 5 and doc["ok"] is True
        row = doc["rows"][0]
        assert set(row) == {
            "n",
            "family_value",
            "plain_value",
            "family_le_plain",
            "bound_value",
            "bound_ok",
            "constructions",
        }

    def test_threads_match_serial(self, tmp_path):
        serial = sweep_doc(consistency_sweep(3, 5, 5))
        threaded = sweep_doc(
            consistency_sweep(3, 5, 5, cache_path=str(tmp_path / "c.jsonl"), threads=2)
        )
        assert serial == threaded

    def test_unknown_rule_leaves_bound_empty(self):
        report = consistency_sweep(3, 3, 5)
        assert report.ok
        assert all(row.bound_value is None and row.bound_ok is None for row in report.rows)


def _pinned(text: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(value, edges) of a pinned witness: "012 013" is 2, ((0, 1, 2), (0, 1, 3))."""
    edges = tuple(tuple(map(int, e)) for e in text.split())
    return len(edges), edges


# The witness of every search run by the consistency sweeps (3, k, 6) for
# k = 5..8 and (4, k, 8) for k = 4..7, keyed (r, n, k) for the family
# searches and (r, n, s, k) for the plain ones.  Recorded at commit e4c9392,
# whose search tested every later candidate at every node; the value is the
# witness's edge count.
FAMILY_PINS = {
    (3, 3, 5): "012",
    (3, 3, 6): "012",
    (3, 3, 7): "012",
    (3, 3, 8): "012",
    (3, 4, 5): "012 013",
    (3, 4, 6): "012 013",
    (3, 4, 7): "012 013",
    (3, 4, 8): "012 013",
    (3, 5, 5): "012 013 014",
    (3, 5, 6): "012 013 014",
    (3, 5, 7): "012 013 014",
    (3, 5, 8): "012 013 014",
    (3, 6, 5): "012 013 014 015",
    (3, 6, 6): "012 013 014 015",
    (3, 6, 7): "012 013 014 015",
    (3, 6, 8): "012 013 014 015",
    (4, 4, 4): "0123",
    (4, 4, 5): "0123",
    (4, 4, 6): "0123",
    (4, 4, 7): "0123",
    (4, 5, 4): "0123",
    (4, 5, 5): "0123",
    (4, 5, 6): "0123",
    (4, 5, 7): "0123",
    (4, 6, 4): "0123 0145",
    (4, 6, 5): "0123 0145",
    (4, 6, 6): "0123 0145",
    (4, 6, 7): "0123 0145",
    (4, 7, 4): "0123 0145",
    (4, 7, 5): "0123 0145",
    (4, 7, 6): "0123 0145",
    (4, 7, 7): "0123 0145",
    (4, 8, 4): "0123 0145 0167",
    (4, 8, 5): "0123 0145 0167",
    (4, 8, 6): "0123 0145 0167",
    (4, 8, 7): "0123 0145 0167",
}
PLAIN_PINS = {
    (3, 3, 7, 5): "012",
    (3, 3, 8, 6): "012",
    (3, 3, 9, 7): "012",
    (3, 3, 10, 8): "012",
    (3, 4, 7, 5): "012 013 023 123",
    (3, 4, 8, 6): "012 013 023 123",
    (3, 4, 9, 7): "012 013 023 123",
    (3, 4, 10, 8): "012 013 023 123",
    (3, 5, 7, 5): "012 013 023 123",
    (3, 5, 8, 6): "012 013 014 023 123",
    (3, 5, 9, 7): "012 013 014 023 024 123",
    (3, 5, 10, 8): "012 013 014 023 024 034 123",
    (3, 6, 7, 5): "012 013 023 123",
    (3, 6, 8, 6): "012 013 014 023 123",
    (3, 6, 9, 7): "012 013 014 023 024 123",
    (3, 6, 10, 8): "012 013 014 023 024 034 123",
    (4, 4, 10, 4): "0123",
    (4, 4, 12, 5): "0123",
    (4, 4, 14, 6): "0123",
    (4, 4, 16, 7): "0123",
    (4, 5, 10, 4): "0123 0124 0134",
    (4, 5, 12, 5): "0123 0124 0134 0234",
    (4, 5, 14, 6): "0123 0124 0134 0234 1234",
    (4, 5, 16, 7): "0123 0124 0134 0234 1234",
    (4, 6, 10, 4): "0123 0124 0134",
    (4, 6, 12, 5): "0123 0124 0134 0234",
    (4, 6, 14, 6): "0123 0124 0134 0234 1234",
    (4, 6, 16, 7): "0123 0124 0125 0134 0234 1234",
    (4, 7, 10, 4): "0123 0124 0134",
    (4, 7, 12, 5): "0123 0124 0134 0234",
    (4, 7, 14, 6): "0123 0124 0134 0234 1234",
    (4, 7, 16, 7): "0123 0124 0125 0134 0234 1234",
    (4, 8, 10, 4): "0123 0124 0134",
    (4, 8, 12, 5): "0123 0124 0134 0234",
    (4, 8, 14, 6): "0123 0124 0134 0234 1234",
    (4, 8, 16, 7): "0123 0124 0125 0134 0234 1234",
}


class TestPinnedAnswers:
    def test_sweep_searches(self):
        for (r, n, k), text in FAMILY_PINS.items():
            res = exact_turan_family(r, n, k)
            assert (res.value, res.witness.edges) == _pinned(text), (r, n, k)
        for (r, n, s, k), text in PLAIN_PINS.items():
            res = exact_turan(r, n, s, k)
            assert (res.value, res.witness.edges) == _pinned(text), (r, n, s, k)

    def test_larger_families(self):
        # (n, k, witness, nodes), recorded at commit 387c457, whose search
        # tested every live candidate with one configuration search per ban.
        for n, k, text, nodes in (
            (7, 5, "012 013 014 015", 5283),
            (7, 6, "012 013 014 015 016", 27530),
            (8, 5, "012 013 014 235 467 567", 148575),
        ):
            res = exact_turan_family(3, n, k)
            assert (res.value, res.witness.edges) == _pinned(text), (n, k)
            assert res.nodes_explored == nodes, (n, k)


def test_turan_doc_shape():
    doc = turan_doc(exact_turan(3, 5, 5, 2))
    assert set(doc) == {"value", "witness", "nodes_explored"}
    assert doc["witness"]["edge_count"] == doc["value"]
