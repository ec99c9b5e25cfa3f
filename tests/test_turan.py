"""Exact extremal oracle: brute-force cross-checks, caching, sweeps."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
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
    from_text,
    is_family_free,
    size_cap,
    sweep_doc,
    to_text,
    turan_doc,
)
from beslab import turan
from beslab.hypergraphs import _mask, family_queries
from beslab.turan import (
    _Kills,
    _branch_and_bound,
    _chain,
    _pigeonhole,
    _subsets_by_top,
)


def _bound(r, n, queries):
    """The bound under which the chain searches f(n)."""
    return list(_chain(r, n, queries))[-1][1]


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
                assert _bound(3, n, [ConfigQuery(k, s)]) >= want, (n, s, k)
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
                want = util.naive_turan_family(3, n, k)
                assert got.value == want, (n, k)
                assert _bound(3, n, family_queries(3, k)) >= want, (n, k)
                assert is_family_free(got.witness, k).free
                assert len(got.witness.edges) == got.value

    def test_lex_min_witness(self):
        # The witness is the first index tuple of maximum size, with the
        # candidates in the search's order, whose graph avoids the whole family.
        for r, n in ((3, 4), (3, 5), (4, 5), (4, 6)):
            cands = list(_subsets_by_top(n, r))
            for k in (3, 5, 6):
                want = util.naive_first_optimum(r, n, cands, family_queries(r, k))
                got = exact_turan_family(r, n, k)
                assert (got.value, got.witness) == (len(want), build(r, n, want)), (r, n, k)

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
    C + {j, h} admissible.  Each check also runs on a table built for two
    more vertices and masked to the n-vertex prefix, as a chain row reads
    it."""

    @staticmethod
    def _descend(ks, count, chosen):
        live, unions = ks.root_live & ((1 << count) - 1), ks.root_unions
        for j in chosen:
            assert live >> j & 1, (chosen, j)
            live = (live >> (j + 1) << (j + 1)) & ~ks.kill(unions, ks.cmasks[j])
            unions = ks.extend(unions, ks.cmasks[j])
        return live, unions

    @staticmethod
    def _random_admissible(rng, count, ok):
        """A random subset of a random maximal admissible set among the
        first ``count`` candidates."""
        order = list(range(count))
        rng.shuffle(order)
        maximal: list[int] = []
        for h in order:
            if ok(sorted(maximal + [h])):
                maximal.append(h)
        return sorted(rng.sample(maximal, rng.randint(len(maximal) // 2, len(maximal))))

    def _check(self, rng, r, n, queries, admissible, trials):
        """``admissible(G)`` is the definitional test of a graph."""
        count = math.comb(n, r)
        # Both tables replay the same draws: the same random sets are checked.
        state = rng.getstate()
        for ks in (_Kills(r, n + 2, queries), _Kills(r, n, queries)):
            rng.setstate(state)
            self._check_table(rng, r, n, queries, admissible, trials, ks, count)

    def _check_table(self, rng, r, n, queries, admissible, trials, ks, count):
        def ok(idx):
            return admissible(build(r, n, [ks.cands[i] for i in idx]))

        def bits(mask):
            return [h for h in range(len(ks.cands)) if mask >> h & 1]

        for _ in range(trials):
            chosen = self._random_admissible(rng, count, ok)
            live, unions = self._descend(ks, count, chosen)
            after = chosen[-1] + 1 if chosen else 0
            want = [h for h in range(after, count) if ok(chosen + [h])]
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


class TestSymmetryRule:
    """The search branches only on candidates whose vertices above the
    chosen set's top vertex M are the next ones, M + 1, ..., M + h."""

    def test_order_is_by_top_vertex_then_lex(self):
        cands = list(_subsets_by_top(5, 3))
        assert cands == sorted(itertools.combinations(range(5), 3), key=lambda e: (e[-1], e))
        assert cands.index((0, 3, 4)) < cands.index((1, 2, 4))

    def test_random_bans_match_definition(self):
        # Value and lexicographically first optimum, in the search's own
        # candidate order, against a powerset scan: r = 2..5, one to three
        # bans per list, single-edge bans (k = 1) and s <= r included.
        rng = random.Random(77)
        for _ in range(500):
            r = rng.randint(2, 5)
            n = rng.choice([n for n in range(r, r + 5) if math.comb(n, r) <= 10])
            bans = [(rng.randint(1, 4), rng.randint(1, 2 * r + 1))
                    for _ in range(rng.randint(1, 3))]
            want = util.naive_first_optimum(r, n, list(_subsets_by_top(n, r)), bans)
            queries = [ConfigQuery(k, s) for k, s in bans]
            upper = _bound(r, n, queries)
            assert upper >= len(want), (r, n, bans)
            for bound in (math.comb(n, r), upper):
                value, edges, _ = _branch_and_bound(_Kills(r, n, queries), n, bound)
                assert (value, edges) == (len(want), want), (r, n, bans, bound)

    @staticmethod
    def _spans_initial_segment(masks):
        span = 0
        for m in masks:
            span |= m
        return span & (span + 1) == 0

    def test_every_node_spans_an_initial_segment(self):
        # Every node's chosen set, read off the kill step, spans exactly
        # {0, ..., M}, and its edges come in candidate order.
        seen: list[tuple[int, ...]] = []

        class Recording(_Kills):
            """Carries the chosen masks alongside the unions; each node
            entered calls kill once."""

            def __init__(self, *args):
                super().__init__(*args)
                self.root_unions = ((), self.root_unions)

            def kill(self, unions, mj):
                chosen, inner = unions
                seen.append(chosen + (mj,))
                return super().kill(inner, mj)

            def extend(self, unions, mj):
                chosen, inner = unions
                return (chosen + (mj,), super().extend(inner, mj))

        for r, n, queries in ((3, 7, family_queries(3, 6)), (4, 7, family_queries(4, 5)),
                              (3, 7, [ConfigQuery(3, 5)]), (2, 7, [ConfigQuery(2, 3)])):
            seen.clear()
            nodes = _branch_and_bound(Recording(r, n, queries), n, math.comb(n, r))[2]
            assert len(seen) == nodes > 0, (r, n)
            index = {_mask(e): i for i, e in enumerate(_subsets_by_top(n, r))}
            for chosen in seen:
                assert self._spans_initial_segment(chosen), chosen
                idx = [index[m] for m in chosen]
                assert idx == sorted(set(idx)), chosen


class TestSharedTable:
    """Every row of a chain searches one table built at the chain's largest
    n; each row must read exactly as a search over a fresh table built at
    its own t."""

    @staticmethod
    def _check(r, n, queries):
        total = 0
        for t, bound, value, edges, nodes in _chain(r, n, queries):
            fresh = _branch_and_bound(_Kills(r, t, queries), t, bound)
            total += fresh[2]
            assert (value, edges, nodes) == (fresh[0], fresh[1], total), (r, n, queries, t)

    @pytest.mark.parametrize("r", [3, 4])
    def test_family_rows_match_fresh_tables(self, r):
        for k in (4, 5, 6, 7):
            self._check(r, 8, family_queries(r, k))

    def test_plain_rows_match_fresh_tables(self):
        for r, n, s, k in PLAIN_SEARCHES + ((4, 8, 7, 4), (3, 8, 7, 6)):
            self._check(r, n, [ConfigQuery(k, s)])

    def test_random_ban_lists_match_fresh_tables(self):
        # One to three bans per list, single-edge bans and s <= r included.
        rng = random.Random(79)
        for _ in range(40):
            r = rng.choice([3, 4])
            bans = [ConfigQuery(rng.randint(1, 4), rng.randint(1, 2 * r + 1))
                    for _ in range(rng.randint(1, 3))]
            self._check(r, rng.randint(r, r + 4), bans)


class TestLimits:
    def test_size_cap(self):
        assert size_cap(3) == 9
        assert size_cap(4) == 8
        assert size_cap(7) == 8

    def test_too_large_refusal_is_bounded(self, monkeypatch):
        # A refusal builds no kill table, so runs no search, and checks no
        # catalog graph: either would call a patched name.
        def no_work(*args):
            raise AssertionError("the refusal did work before refusing")

        monkeypatch.setattr(turan, "_Kills", no_work)
        monkeypatch.setattr(turan, "is_family_free", no_work)
        for n in (10, 1000):
            with pytest.raises(TooLarge, match=f"n={n} exceeds"):
                exact_turan_family(3, n, 5)
            with pytest.raises(TooLarge, match=f"n={n} exceeds"):
                exact_turan(3, n, 5, 4)
            # the sweep refuses at its first size over the cap
            with pytest.raises(TooLarge, match="n=10 exceeds"):
                consistency_sweep(3, 7, n)

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


# A family record for (r, n, k) = (3, 7, 5) that passes the witness
# re-check but holds 3 edges, one fewer than f(7).
TOO_SMALL_F7 = json.dumps(
    {"kind": "family", "r": 3, "n": 7, "s": 7, "k": 5,
     "value": 3, "witness": "3 7 3\n0 1 2\n0 1 3\n0 1 4\n", "nodes": 1},
    sort_keys=True) + "\n"


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

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = exact_turan_family(3, 6, 5, cache_path=str(path))
        path.write_text("\n" + path.read_text() + "   \n\n")
        hit = exact_turan_family(3, 6, 5, cache_path=str(path))
        assert (hit.value, hit.witness, hit.nodes_explored) == (
            good.value, good.witness, good.nodes_explored)
        assert len(path.read_text().splitlines()) == 4  # a hit appends nothing

    def test_bound_never_reads_the_cache(self, tmp_path):
        # A record that passes the witness re-check but is too small
        # (f(7) = 4) answers its own key; the averaging bound for n = 8
        # searches f(7) again instead of trusting it.
        path = tmp_path / "cache.jsonl"
        path.write_text(TOO_SMALL_F7)
        assert exact_turan_family(3, 7, 5, cache_path=str(path)).value == 3
        assert exact_turan_family(3, 8, 5, cache_path=str(path)).value == 6

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

    def test_threads_match_serial(self, tmp_path, monkeypatch):
        # (3, 6, 9) has family rows and a plain row (n = 9 > s = 8) to
        # search, so the two chains run in worker processes.
        serial_path = tmp_path / "s.jsonl"
        serial = sweep_doc(consistency_sweep(3, 6, 9, cache_path=str(serial_path)))
        calls = []
        search = turan._branch_and_bound
        monkeypatch.setattr(turan, "_branch_and_bound", lambda *a: calls.append(a) or search(*a))
        path = tmp_path / "c.jsonl"
        threaded = sweep_doc(consistency_sweep(3, 6, 9, cache_path=str(path), threads=2))
        assert serial == threaded
        assert calls == []
        # Every line is one whole record, and each row left exactly one.
        keys = []
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            witness = from_text(obj["witness"])
            assert (witness.r, witness.n, len(witness.edges)) == (obj["r"], obj["n"], obj["value"])
            keys.append((obj["kind"], obj["r"], obj["n"], obj["s"], obj["k"]))
        # Plain values for n <= s = 8 are closed form, with no search.
        assert sorted(keys) == [("family", 3, n, 8, 6) for n in range(3, 10)] + [("plain", 3, 9, 8, 6)]
        # The parent appends the rows once both searches are done.
        assert path.read_text() == serial_path.read_text()

    def test_one_chain_per_kind(self, tmp_path, monkeypatch):
        # Cold, the (3, 6, 9) sweep searches each f(t) once per kind: the
        # family rows t = 3..9, and for the plain row n = 9 (s = 8) its
        # chain from t = 3.  Warm, it searches nothing.  Either way it reads
        # the cache once per kind.
        calls = {"search": 0, "load": 0}
        search, load = turan._branch_and_bound, turan._cache_load

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(turan, "_branch_and_bound", counting("search", search))
        monkeypatch.setattr(turan, "_cache_load", counting("load", load))
        path = str(tmp_path / "c.jsonl")
        cold = sweep_doc(consistency_sweep(3, 6, 9, cache_path=path))
        assert calls == {"search": 14, "load": 2}
        calls.update(search=0, load=0)
        assert sweep_doc(consistency_sweep(3, 6, 9, cache_path=path)) == cold
        assert calls == {"search": 0, "load": 2}

    @pytest.mark.parametrize("k, n_max", [(5, 8), (6, 9)])
    def test_cache_lines_match_single_queries(self, tmp_path, k, n_max):
        path = tmp_path / "c.jsonl"
        consistency_sweep(3, k, n_max, cache_path=str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        # Family rows ascending, then the plain rows with n > s = k + 2.
        assert [(obj["kind"], obj["n"]) for obj in lines] == (
            [("family", n) for n in range(3, n_max + 1)]
            + [("plain", n) for n in range(k + 3, n_max + 1)]
        )
        for obj in lines:
            if obj["kind"] == "family":
                res = exact_turan_family(3, obj["n"], k)
            else:
                res = exact_turan(3, obj["n"], obj["s"], k)
            got = (obj["value"], from_text(obj["witness"]), obj["nodes"])
            assert got == (res.value, res.witness, res.nodes_explored), obj

    def test_sweeps_append_pinned_bytes(self, tmp_path):
        # Three sweeps in turn against one fresh cache file.  Recorded at
        # commit e3631c5, where each chain row built its own kill table and
        # each record opened the file on its own.
        path = tmp_path / "c.jsonl"
        for r, k, n_max in ((3, 6, 8), (4, 5, 8), (3, 7, 9)):
            consistency_sweep(r, k, n_max, cache_path=str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "758c24e91fd746590ea3a6844f64026dcd458dc1cba8621616122ad391c4a310")

    def test_too_small_cached_row_never_feeds_the_bound(self, tmp_path):
        # The record answers its own row; row 8's bound comes from the
        # chain's own f(7) = 4, so f(8) = 6 is still found.
        path = tmp_path / "cache.jsonl"
        path.write_text(TOO_SMALL_F7)
        report = consistency_sweep(3, 5, 8, cache_path=str(path))
        values = {row.n: row.family_value for row in report.rows}
        assert (values[7], values[8]) == (3, 6)

    def test_refuses_before_searching_when_a_plain_row_is_uncached(self, tmp_path, monkeypatch):
        # The family row n = 10 is cached; the plain row n = 10 (s = 9) is
        # not, so the sweep refuses before any search and any append.
        path = tmp_path / "c.jsonl"
        exact_turan_family(3, 10, 7, allow_large=True, cache_path=str(path))
        before = path.read_text()

        def no_search(*args):
            raise AssertionError("the sweep searched before refusing")

        monkeypatch.setattr(turan, "_branch_and_bound", no_search)
        with pytest.raises(TooLarge, match="n=10 exceeds"):
            consistency_sweep(3, 7, 10, cache_path=str(path))
        assert path.read_text() == before

    def test_unknown_rule_leaves_bound_empty(self):
        report = consistency_sweep(3, 3, 5)
        assert report.ok
        assert all(row.bound_value is None and row.bound_ok is None for row in report.rows)

    def test_over_cap_answered_from_cache(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        exact_turan_family(4, 9, 2, allow_large=True, cache_path=path)
        exact_turan(4, 9, 6, 2, allow_large=True, cache_path=path)
        report = consistency_sweep(4, 2, 9, cache_path=path)
        assert [row.n for row in report.rows] == [4, 5, 6, 7, 8, 9]
        assert report.rows[-1].family_value == 3


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


# (n, k, witness, nodes) of exact_turan_family(3, n, k).  The witnesses were
# recorded at commit 387c457.  The node counts are those of the search that
# stops at the pigeonhole and averaging bounds, including the searches for
# f(3), ..., f(n-1) behind the latter.  The search without the bounds
# (commit ea79a2e) entered 1,272, 10,264 and 34,995 nodes; without the
# symmetry rule either (commit 564fe9c), 5,283, 27,530 and 148,575.
LARGER_FAMILIES = (
    (7, 5, "012 013 014 015", 14),
    (7, 6, "012 013 014 015 016", 15),
    (8, 5, "012 013 014 235 467 567", 66),
)

# Plain searches (r, n, s, k) with n > s, each at most 0.4 s without a bound.
PLAIN_SEARCHES = ((3, 8, 7, 5), (3, 8, 6, 4), (4, 8, 6, 3), (3, 7, 5, 3))


class TestPinnedAnswers:
    def test_sweep_searches(self):
        for (r, n, k), text in FAMILY_PINS.items():
            res = exact_turan_family(r, n, k)
            assert (res.value, res.witness.edges) == _pinned(text), (r, n, k)
        for (r, n, s, k), text in PLAIN_PINS.items():
            res = exact_turan(r, n, s, k)
            assert (res.value, res.witness.edges) == _pinned(text), (r, n, s, k)

    def test_larger_families(self):
        for n, k, text, nodes in LARGER_FAMILIES:
            res = exact_turan_family(3, n, k)
            assert (res.value, res.witness.edges) == _pinned(text), (n, k)
            assert res.nodes_explored == nodes, (n, k)

    def test_n9_families(self):
        # The r = 3 size cap.  Recorded at commit 564fe9c, whose search
        # entered 11,321,652, 13,059,593 and 22,256,816 nodes for them; the
        # search without the bounds (commit ea79a2e) entered 2,077,483,
        # 1,793,790 and 1,761,731.  The counts include the searches for
        # f(3), ..., f(8) behind the averaging bound.
        for k, text, nodes in (
            (5, "012 034 056 135 147 238 267 468 578", 575905),
            (6, "012 013 014 025 346 578 678", 390),
            (7, "012 013 014 015 016 017", 27),
        ):
            res = exact_turan_family(3, 9, k)
            assert (res.value, res.witness.edges) == _pinned(text), k
            assert res.nodes_explored == nodes, k

    def test_n10_family_k7(self):
        # Past the r = 3 size cap: the averaging bound 10 * 6 // 7 = 8 from
        # f(9) = 6 is met, so the search stops at its first set of 8 edges.
        res = exact_turan_family(3, 10, 7, allow_large=True)
        assert (res.value, res.witness.edges) == _pinned("012 013 014 015 236 457 689 789")
        assert res.nodes_explored == 3974

    def test_bounded_search_matches_unbounded(self):
        # Against the search with upper = C(n, r), which bounds nothing: the
        # same value and witness, and no more nodes.
        searches = [(r, n, family_queries(r, k)) for r, n, k in FAMILY_PINS]
        searches += [(3, n, family_queries(3, k)) for n, k, _, _ in LARGER_FAMILIES]
        searches += [(r, n, [ConfigQuery(k, s)]) for r, n, s, k in PLAIN_SEARCHES]
        for r, n, queries in searches:
            ks = _Kills(r, n, queries)
            value, edges, nodes = _branch_and_bound(ks, n, _bound(r, n, queries))
            full = _branch_and_bound(ks, n, math.comb(n, r))
            assert (value, edges) == full[:2], (r, n, queries)
            assert nodes <= full[2], (r, n, queries)
        # The plain pins have n <= s, where exact_turan's closed form takes
        # the first min(C(n, r), k - 1) candidates.
        for r, n, s, k in PLAIN_PINS:
            queries = [ConfigQuery(k, s)]
            first = tuple(itertools.islice(_subsets_by_top(n, r), min(math.comb(n, r), k - 1)))
            got = _branch_and_bound(_Kills(r, n, queries), n, _bound(r, n, queries))
            assert got[:2] == (len(first), first), (r, n, s, k)

    def test_pigeonhole_bound(self):
        # Every pinned sweep search has some ban (k, s) with n <= s, and its
        # answer meets the pigeonhole bound.
        for (r, n, k), text in FAMILY_PINS.items():
            assert _pigeonhole(r, n, family_queries(r, k)) == _pinned(text)[0], (r, n, k)
        for (r, n, s, k), text in PLAIN_PINS.items():
            assert _pigeonhole(r, n, [ConfigQuery(k, s)]) == _pinned(text)[0], (r, n, s, k)
        # The main ban of k = 7 is 7 edges on 9 vertices; at n = 10 every ban
        # has s < n and the bound is C(10, 3).
        assert _pigeonhole(3, 9, family_queries(3, 7)) == 6
        assert _pigeonhole(3, 10, family_queries(3, 7)) == 120

    def test_averaging_bound(self, monkeypatch):
        # (t, bound, value, nodes so far) of the chain for k = 5: f = 1, 2,
        # 3, 4, 4, 6 at t = 3..8, and row 9's bound 9 * 6 // 6 = 9 is f(9).
        # Row 9's search (575,839 nodes) is stopped once its bound is seen.
        queries = family_queries(3, 5)
        assert list(_chain(3, 2, queries)) == [(2, 0, 0, (), 0)]
        got = [(t, bound, value, nodes) for t, bound, value, _, nodes in _chain(3, 8, queries)]
        assert got == [(3, 1, 1, 1), (4, 2, 2, 3), (5, 3, 3, 6), (6, 4, 4, 10), (7, 4, 4, 14),
                       (8, 6, 6, 66)]

        class Stop(Exception):
            pass

        search = turan._branch_and_bound

        def stop_at_9(ks, n, upper):
            if n == 9:
                raise Stop(upper)
            return search(ks, n, upper)

        monkeypatch.setattr(turan, "_branch_and_bound", stop_at_9)
        with pytest.raises(Stop) as stop:
            list(_chain(3, 9, queries))
        assert stop.value.args == (9,)


def test_turan_doc_shape():
    doc = turan_doc(exact_turan(3, 5, 5, 2))
    assert set(doc) == {"value", "witness", "nodes_explored"}
    assert doc["witness"]["edge_count"] == doc["value"]
