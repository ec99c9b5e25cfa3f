"""End-to-end tests for the command-line interface.

Everything goes through ``beslab.cli.run(argv)`` so exit codes, stdout, and
stderr are observable with pytest's capsys.  Turán commands always point the
cache at a temp path (or --no-cache) so tests never touch the user's home
cache file.
"""
from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from beslab import (
    diamond_star,
    f63,
    from_text,
    lower_bound_ratio,
    m12,
    partition_report,
    single_edge,
    to_text,
)
from beslab import turan
from beslab.cli import _threads_from_env, run

DIAMOND_TEXT = to_text(diamond_star(1))
K4_TEXT = to_text(
    from_text("3 4 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n")
)  # tight tetrahedron: 4 edges on 4 vertices, not admissible for k in {5, 6, 7}


def run_cli(argv, capsys):
    """Invoke the CLI and return (exit_code, stdout, stderr)."""
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed_stdin(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


# ---------------------------------------------------------------------------
# construct


class TestConstruct:
    def test_f63_text(self, capsys):
        code, out, err = run_cli(["construct", "f63"], capsys)
        assert code == 0
        assert err == ""
        G = from_text(out)
        assert (G.r, G.n, len(G.edges)) == (3, 63, 61)
        assert out == to_text(f63())

    def test_single_edge_requires_r(self, capsys):
        code, out, err = run_cli(["construct", "single-edge"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "--r" in err

    def test_single_edge_text(self, capsys):
        code, out, _ = run_cli(["construct", "single-edge", "--r", "5"], capsys)
        assert code == 0
        assert out == to_text(single_edge(5))

    def test_diamond_star_requires_t(self, capsys):
        code, _, err = run_cli(["construct", "diamond-star"], capsys)
        assert code == 2
        assert "--t" in err

    def test_diamond_star_json(self, capsys):
        code, out, _ = run_cli(
            ["construct", "diamond-star", "--t", "2", "--json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["r"] == 3
        assert doc["n"] == 6
        assert doc["edges"] == [[0, 2, 3], [0, 4, 5], [1, 2, 3], [1, 4, 5]]
        # JSON output is canonical: sorted keys, one trailing newline.
        assert out == json.dumps(doc, sort_keys=True) + "\n"

    def test_bad_kind_exits_2(self, capsys):
        code, _, err = run_cli(["construct", "moebius"], capsys)
        assert code == 2
        assert err != ""

    def test_invalid_value_maps_to_2(self, capsys):
        code, _, err = run_cli(["construct", "diamond-star", "--t", "0"], capsys)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("missing", ["r", "m", "alpha", "mu", "seed"])
    def test_random_requires_all_flags(self, missing, capsys):
        flags = {"r": "4", "m": "12", "alpha": "3/10", "mu": "1/4", "seed": "3"}
        argv = ["construct", "random"]
        for name, value in flags.items():
            if name != missing:
                argv += [f"--{name}", value]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert f"--{missing}" in err

    def test_random_deterministic(self, capsys):
        argv = [
            "construct",
            "random",
            "--r",
            "4",
            "--m",
            "12",
            "--alpha",
            "3/10",
            "--mu",
            "1/4",
            "--seed",
            "3",
        ]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        G = from_text(out1)
        assert (G.r, G.n, len(G.edges)) == (4, 26, 2)

    def test_random_json_doc(self, capsys):
        argv = [
            "construct",
            "random",
            "--r",
            "4",
            "--m",
            "12",
            "--alpha",
            "3/10",
            "--mu",
            "1/4",
            "--seed",
            "3",
            "--json",
        ]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["graph"]["edge_count"] == 2
        assert doc["aux"]["m_size"] == 1
        assert doc["ratio"] == "1/15"
        assert all(row["free"] for row in doc["freeness"])

    def test_fraction_alpha_rejects_zero_denominator(self, capsys):
        argv = [
            "construct",
            "random",
            "--r",
            "4",
            "--m",
            "12",
            "--alpha",
            "1/0",
            "--mu",
            "1/4",
            "--seed",
            "3",
        ]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err != ""

    def test_output_file(self, tmp_path, capsys):
        dest = tmp_path / "graph.txt"
        code, out, _ = run_cli(
            ["construct", "diamond-star", "--t", "1", "--output", str(dest)], capsys
        )
        assert code == 0
        assert out == ""
        assert dest.read_text(encoding="utf-8") == DIAMOND_TEXT


# ---------------------------------------------------------------------------
# verify-construction


class TestVerifyConstruction:
    def test_stdin_human(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, DIAMOND_TEXT)
        code, out, err = run_cli(["verify-construction", "--k", "5"], capsys)
        assert code == 0
        assert err == ""
        assert out == "admissible for k=5: 2 edges, 6 claimed pairs, ratio 1/6\n"

    def test_file_json(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text(to_text(f63()), encoding="utf-8")
        code, out, _ = run_cli(
            ["verify-construction", "--input", str(path), "--k", "6", "--json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "free": True,
            "k": 6,
            "edge_count": 61,
            "claimed_pairs": 165,
            "ratio": "61/330",
        }

    def test_not_admissible_human(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, K4_TEXT)
        code, out, err = run_cli(["verify-construction", "--k", "5"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("not admissible:")
        # The offending sub-multigraph is echoed in text format after the message.
        body = err.split("\n", 1)[1]
        W = from_text(body)
        assert W.r == 3
        assert 2 <= len(W.edges) <= 4

    def test_not_admissible_json(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, K4_TEXT)
        code, out, _ = run_cli(
            ["verify-construction", "--k", "5", "--json"], capsys
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["free"] is False
        assert set(doc) == {"free", "witness", "witness_text", "query"}
        assert set(doc["query"]) == {"edge_count", "max_vertices"}
        sub = from_text(doc["witness_text"])
        assert len(sub.edges) == len(doc["witness"])
        assert len(sub.edges) == doc["query"]["edge_count"]
        assert sub.vertex_count() <= doc["query"]["max_vertices"]

    def test_pipe_construct_into_verify(self, monkeypatch, capsys):
        code, out, _ = run_cli(["construct", "diamond-star", "--t", "4"], capsys)
        assert code == 0
        feed_stdin(monkeypatch, out)
        code, out2, _ = run_cli(
            ["verify-construction", "--k", "5", "--json"], capsys
        )
        assert code == 0
        doc = json.loads(out2)
        ratio, pset = lower_bound_ratio(diamond_star(4), 5)
        assert doc["ratio"] == str(ratio)
        assert doc["claimed_pairs"] == len(pset)

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["verify-construction", "--input", str(tmp_path / "nope.txt"), "--k", "5"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_graph_exits_2(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, "3 4\n0 1 2\n")
        code, _, err = run_cli(["verify-construction", "--k", "5"], capsys)
        assert code == 2
        assert err.startswith("error:")


# ---------------------------------------------------------------------------
# partition


class TestPartition:
    def test_stage_is_required(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, DIAMOND_TEXT)
        code, _, err = run_cli(["partition"], capsys)
        assert code == 2
        assert err != ""

    def test_json_matches_library(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text(to_text(diamond_star(2)), encoding="utf-8")
        code, out, _ = run_cli(
            ["partition", "--input", str(path), "--stage", "m11", "--json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["stage"] == "m11"
        assert [c["edges"] for c in doc["clusters"]] == [[0, 2], [1, 3]]

    def test_human_layout(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, to_text(diamond_star(2)))
        code, out, _ = run_cli(["partition", "--stage", "m11"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "stage m11: 2 clusters on r=3 n=6 edges=4"
        assert lines[1] == "  cluster 4: edges [0, 2] composition (2)"
        assert lines[2] == "  cluster 5: edges [1, 3] composition (2)"

    def test_seed_does_not_change_partition(self, monkeypatch, capsys):
        big = to_text(f63())
        feed_stdin(monkeypatch, big)
        code, out1, _ = run_cli(["partition", "--stage", "m12", "--json"], capsys)
        feed_stdin(monkeypatch, big)
        code2, out2, _ = run_cli(
            ["partition", "--stage", "m12", "--seed", "99", "--json"], capsys
        )
        assert code == code2 == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        assert sorted(tuple(c["edges"]) for c in d1["clusters"]) == sorted(
            tuple(c["edges"]) for c in d2["clusters"]
        )
        assert d1 == json.loads(json.dumps(partition_report(m12(f63()))))

    def test_bad_stage_exits_2(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, DIAMOND_TEXT)
        code, _, err = run_cli(["partition", "--stage", "m99"], capsys)
        assert code == 2
        assert err != ""

    def test_dense_part_refused(self, monkeypatch, capsys):
        # K4^(3) merges into one part; at m3plus that part is wide (three
        # edges on four vertices), so the stage refuses it.
        for stage in ("m11", "m12", "m2plus"):
            feed_stdin(monkeypatch, K4_TEXT)
            assert run_cli(["partition", "--stage", stage, "--json"], capsys)[0] == 0
        feed_stdin(monkeypatch, K4_TEXT)
        code, out, err = run_cli(["partition", "--stage", "m3plus", "--json"], capsys)
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "free": False,
            "query": {"edge_count": 3, "max_vertices": 4},
            "stage": "m3plus",
            "witness": [0, 1, 2],
            "witness_text": "3 4 3\n0 1 2\n0 1 3\n0 2 3\n",
        }
        feed_stdin(monkeypatch, K4_TEXT)
        code, out, err = run_cli(["partition", "--stage", "m3plus", "--seed", "7"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("not admissible: a merged part contains 3 edges on at most 4 vertices")


# ---------------------------------------------------------------------------
# certify


class TestCertify:
    def test_human_certified(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, DIAMOND_TEXT)
        code, out, err = run_cli(["certify", "--k", "5"], capsys)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "rule K5R3 (r=3, k=5), stage m11"
        assert lines[1].startswith("clusters 1, lambda_min ")
        assert lines[2].endswith(": yes")
        assert lines[3] == "certified: true"

    def test_json_matches_report_doc(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, to_text(f63()))
        code, out, _ = run_cli(["certify", "--k", "6", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is True
        assert doc["rule"]["case"] == "K63"
        assert Fraction(doc["edge_bound"]) == Fraction(39711, 55)
        assert doc["edge_count"] == 61

    def test_not_admissible(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, K4_TEXT)
        code, out, err = run_cli(["certify", "--k", "5"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("not admissible:")

    def test_not_admissible_json(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, K4_TEXT)
        code, out, _ = run_cli(["certify", "--k", "5", "--json"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["certified"] is False
        assert doc["free"] is False
        assert from_text(doc["witness_text"]).r == 3

    def test_unknown_rule_exits_2(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, DIAMOND_TEXT)
        code, _, err = run_cli(["certify", "--k", "4"], capsys)
        assert code == 2
        assert err.startswith("error:")


# ---------------------------------------------------------------------------
# turan


class TestTuran:
    def test_plain_human(self, capsys):
        code, out, err = run_cli(
            ["turan", "--r", "3", "--n", "6", "--s", "5", "--k", "2", "--no-cache"],
            capsys,
        )
        assert code == 0
        assert err == ""
        first, rest = out.split("\n", 1)
        assert first.startswith("value 2 (nodes ")
        assert from_text(rest).edges == ((0, 1, 2), (3, 4, 5))

    def test_family_json(self, capsys):
        code, out, _ = run_cli(
            ["turan", "--r", "3", "--n", "5", "--k", "5", "--family", "--no-cache", "--json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 3
        assert set(doc) == {"value", "witness", "nodes_explored"}
        assert len(doc["witness"]["edges"]) == 3

    def test_s_conflicts_with_family(self, capsys):
        code, _, err = run_cli(
            [
                "turan",
                "--r", "3", "--n", "5", "--k", "5",
                "--s", "7", "--family", "--no-cache",
            ],
            capsys,
        )
        assert code == 2
        assert "--s" in err

    def test_plain_requires_s(self, capsys):
        code, _, err = run_cli(
            ["turan", "--r", "3", "--n", "5", "--k", "2", "--no-cache"], capsys
        )
        assert code == 2
        assert "--s" in err

    def test_too_large_human(self, capsys):
        code, out, err = run_cli(
            ["turan", "--r", "3", "--n", "10", "--s", "5", "--k", "4", "--no-cache"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err == (
            "refused: exact search for n=10 exceeds the n<=9 cap for r=3; "
            "pass allow_large to force it\n"
        )

    def test_too_large_json(self, capsys):
        code, out, _ = run_cli(
            [
                "turan",
                "--r", "3", "--n", "10", "--s", "5", "--k", "4",
                "--no-cache", "--json",
            ],
            capsys,
        )
        assert (code, out) == (1, '{"error": "too-large"}\n')

    def test_allow_large_warns(self, capsys):
        code, out, err = run_cli(
            [
                "turan",
                "--r", "3", "--n", "40", "--s", "40", "--k", "3",
                "--allow-large", "--no-cache",
            ],
            capsys,
        )
        # n <= s shortcut answers instantly even though n exceeds the cap.
        assert code == 0
        assert err.startswith("warning: n=40 exceeds the n<=9 cap for r=3")
        assert out.startswith("value 2 (nodes 0, ")

    def test_cache_flag_writes_file(self, tmp_path, capsys):
        cache = tmp_path / "t.jsonl"
        argv = [
            "turan",
            "--r", "3", "--n", "6", "--s", "5", "--k", "2",
            "--cache", str(cache), "--json",
        ]
        code, out1, _ = run_cli(argv, capsys)
        assert code == 0
        lines = cache.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert (rec["r"], rec["n"], rec["s"], rec["k"]) == (3, 6, 5, 2)
        # Second run hits the cache and reports the same value and witness.
        code, out2, _ = run_cli(argv, capsys)
        assert code == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["value"] == d2["value"]
        assert d1["witness"] == d2["witness"]
        assert len(cache.read_text(encoding="utf-8").splitlines()) == 1

    def test_malformed_cache_line_is_skipped(self, tmp_path, capsys):
        cache = tmp_path / "t.jsonl"
        cache.write_text(
            '{"kind":"family","r":[3],"n":6,"s":7,"k":5,'
            '"value":4,"witness":"3 6 0\\n","nodes":0}\n'
        )
        code, out, err = run_cli(
            ["turan", "--r", "3", "--n", "6", "--s", "5", "--k", "2",
             "--cache", str(cache), "--json"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == 2
        assert len(cache.read_text(encoding="utf-8").splitlines()) == 2

    def test_cache_env_var(self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "env-cache.jsonl"
        monkeypatch.setenv("BESLAB_CACHE", str(cache))
        code, _, _ = run_cli(
            ["turan", "--r", "3", "--n", "6", "--s", "5", "--k", "2"], capsys
        )
        assert code == 0
        assert cache.exists()

    def test_default_cache_lies_under_home(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("BESLAB_CACHE", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        code, _, _ = run_cli(
            ["turan", "--r", "3", "--n", "6", "--s", "5", "--k", "2"], capsys
        )
        assert code == 0
        assert (tmp_path / ".cache" / "beslab" / "turan.jsonl").exists()

    def test_no_cache_beats_env(self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "never.jsonl"
        monkeypatch.setenv("BESLAB_CACHE", str(cache))
        code, _, _ = run_cli(
            ["turan", "--r", "3", "--n", "6", "--s", "5", "--k", "2", "--no-cache"],
            capsys,
        )
        assert code == 0
        assert not cache.exists()

    def test_cache_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        env_cache = tmp_path / "env.jsonl"
        flag_cache = tmp_path / "flag.jsonl"
        monkeypatch.setenv("BESLAB_CACHE", str(env_cache))
        code, _, _ = run_cli(
            [
                "turan",
                "--r", "3", "--n", "6", "--s", "5", "--k", "2",
                "--cache", str(flag_cache),
            ],
            capsys,
        )
        assert code == 0
        assert flag_cache.exists()
        assert not env_cache.exists()

    def test_validation_error_exits_2(self, capsys):
        code, _, err = run_cli(
            ["turan", "--r", "1", "--n", "5", "--s", "5", "--k", "2", "--no-cache"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")


# ---------------------------------------------------------------------------
# ratio and gr-limits


class TestRatioAndLimits:
    def test_ratio_human(self, capsys):
        code, out, _ = run_cli(["ratio", "--r", "3", "--k", "6"], capsys)
        assert code == 0
        assert out == "limit(3, 6) = 61/330\n"

    def test_ratio_json(self, capsys):
        code, out, _ = run_cli(["ratio", "--r", "7", "--k", "5", "--json"], capsys)
        assert code == 0
        assert json.loads(out) == {"r": 7, "k": 5, "limit": "1/41"}

    def test_ratio_unknown_exits_2(self, capsys):
        code, out, err = run_cli(["ratio", "--r", "3", "--k", "9"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_gr_limits_json(self, capsys):
        code, out, _ = run_cli(["gr-limits", "--json"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "quadratic": {"12": "9/22", "14": "5/12", "16": "9/22"},
            "linear": {"7": "4/5", "8": "269/330", "9": "4/5"},
        }

    def test_gr_limits_human(self, capsys):
        code, out, _ = run_cli(["gr-limits"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "quadratic p=12: 9/22",
            "quadratic p=14: 5/12",
            "quadratic p=16: 9/22",
            "linear p=7: 4/5",
            "linear p=8: 269/330",
            "linear p=9: 4/5",
        ]


# ---------------------------------------------------------------------------
# sweep


class TestSweep:
    def test_sweep_human_ok(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--r", "3", "--k", "5", "--n-max", "5", "--no-cache"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "ok: True"
        assert any(line.startswith("n=5: family 3 <= plain 4") for line in lines)
        assert any("diamond_star(1)" in line for line in lines)

    def test_sweep_json(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--r", "3", "--k", "5", "--n-max", "4", "--no-cache", "--json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert [row["n"] for row in doc["rows"]] == [3, 4]
        assert doc["rows"][1]["family_value"] == 2

    def test_sweep_respects_cache_flag(self, tmp_path, capsys):
        cache = tmp_path / "sweep.jsonl"
        code, _, _ = run_cli(
            [
                "sweep",
                "--r", "3", "--k", "5", "--n-max", "4",
                "--cache", str(cache),
            ],
            capsys,
        )
        assert code == 0
        assert cache.exists()
        assert len(cache.read_text(encoding="utf-8").splitlines()) >= 2

    def test_sweep_bad_k_exits_2(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--r", "3", "--k", "1", "--n-max", "4", "--no-cache"], capsys
        )
        assert code == 2
        assert err.startswith("error:")

    def test_sweep_r2_exits_2_without_searching(self, monkeypatch, capsys):
        # k = 5 has a weighting rule only for r >= 3; the sweep refuses
        # r = 2 before any search rather than after them all.
        def no_search(*args):
            raise AssertionError("the sweep searched before refusing")

        monkeypatch.setattr(turan, "_branch_and_bound", no_search)
        code, out, err = run_cli(
            ["sweep", "--r", "2", "--k", "5", "--n-max", "5", "--no-cache"], capsys
        )
        assert (code, out, err) == (2, "", "error: uniformity must be at least 3, got 2\n")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sweep_over_cap_exits_1_without_searching(self, threads, monkeypatch, capsys):
        def no_search(*args):
            raise AssertionError("the sweep searched before refusing")

        monkeypatch.setattr(turan, "_branch_and_bound", no_search)
        monkeypatch.setenv("BESLAB_THREADS", threads)
        code, out, err = run_cli(
            ["sweep", "--r", "3", "--k", "7", "--n-max", "11", "--no-cache"], capsys
        )
        # refused at the first size over the cap, n = 10
        assert (code, out) == (1, "")
        assert err == (
            "refused: exact search for n=10 exceeds the n<=9 cap for r=3; "
            "pass allow_large to force it\n"
        )

    def test_sweep_over_cap_json(self, monkeypatch, capsys):
        def no_search(*args):
            raise AssertionError("the sweep searched before refusing")

        monkeypatch.setattr(turan, "_branch_and_bound", no_search)
        code, out, err = run_cli(
            ["sweep", "--r", "3", "--k", "7", "--n-max", "240", "--json", "--no-cache"], capsys
        )
        assert (code, out, err) == (1, '{"error": "too-large"}\n', "")


# ---------------------------------------------------------------------------
# top-level parser behavior and env helpers


class TestTopLevel:
    def test_no_command_exits_2(self, capsys):
        assert run([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        for name in (
            "construct",
            "verify-construction",
            "partition",
            "certify",
            "turan",
            "ratio",
            "gr-limits",
            "sweep",
        ):
            assert name in out

    def test_shared_parser_keeps_no_state(self, tmp_path, monkeypatch, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text(DIAMOND_TEXT)
        script = [
            (["--help"], None),
            (["frobnicate"], None),
            (["turan", "--r", "3", "--n", "5", "--k", "2", "--no-cache"], None),
            (["construct", "random", "--r", "4", "--m", "12",
              "--alpha", "3/10", "--mu", "1/4"], None),
            (["certify", "--input", str(graph), "--k", "5", "--json"], None),
            (["certify", "--input", str(graph), "--k", "5"], None),
            (["partition", "--input", str(graph), "--stage", "m11", "--seed", "3"], None),
            (["verify-construction", "--input", "-", "--k", "5"], DIAMOND_TEXT),
        ]

        def play():
            results = []
            for argv, stdin in script:
                if stdin is not None:
                    feed_stdin(monkeypatch, stdin)
                results.append(run_cli(argv, capsys))
            return results

        first = play()
        assert [code for code, _, _ in first] == [0, 2, 2, 2, 0, 0, 0, 0]
        assert play() == first

    def test_entry_point_matches_run(self, tmp_path, capsys):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {k: v for k, v in os.environ.items() if not k.startswith("BESLAB_")}
        env.update(PYTHONPATH=src, HOME=str(tmp_path))
        codes = []
        for argv in (["ratio", "--json", "--r", "3", "--k", "5"], ["frobnicate"]):
            proc = subprocess.run(
                [sys.executable, "-m", "beslab.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            code, out, _ = run_cli(argv, capsys)
            assert (proc.returncode, proc.stdout) == (code, out)
            codes.append(code)
        assert codes == [0, 2]

    def test_threads_env_default(self, monkeypatch):
        monkeypatch.delenv("BESLAB_THREADS", raising=False)
        assert _threads_from_env() == 1

    def test_threads_env_garbage(self, monkeypatch):
        monkeypatch.setenv("BESLAB_THREADS", "lots")
        assert _threads_from_env() == 1

    def test_threads_env_clamped(self, monkeypatch):
        monkeypatch.setenv("BESLAB_THREADS", "0")
        assert _threads_from_env() == 1
        monkeypatch.setenv("BESLAB_THREADS", "4096")
        assert _threads_from_env() <= (os.cpu_count() or 1)
        monkeypatch.setenv("BESLAB_THREADS", "1")
        assert _threads_from_env() == 1
