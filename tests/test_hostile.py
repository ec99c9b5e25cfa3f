"""Hostile inputs end in bounded time: hub-heavy graphs, huge vertex ids,
duplicate-heavy input and dense graphs through the public entry points,
with wall-clock budgets far above the expected times."""

from __future__ import annotations

import itertools
import json
import time

from beslab import Pair, build, certify, cli, m11, m2plus, merging, partition_report, rule_for


def sunflower(c: int):
    """c edges {0, 1, i}: every two of them share the pair {0, 1}."""
    return build(3, c + 2, [(0, 1, i + 2) for i in range(c)])


def test_m11_on_a_sunflower_is_not_quadratic():
    # A schedule that checks every two parts sharing a pair makes
    # C(4000, 2) = 7,998,000 checks here.
    G = sunflower(4000)
    start = time.perf_counter()
    p = m11(G)
    elapsed = time.perf_counter() - start
    (c,) = p.clusters
    assert c.edge_indices == tuple(range(4000))
    assert sorted(ev.new_id for ev in c.trace) == list(range(4000, 7999))
    assert all(ev.pair == Pair(0, 1) and ev.direction == "left_A" for ev in c.trace)
    assert elapsed <= 0.5, f"m11 took {elapsed:.2f} s"


def test_partition_m11_on_a_sunflower_through_the_cli(tmp_path, capsys):
    path = tmp_path / "sunflower.txt"
    path.write_text("3 1002 1000\n" + "".join(f"0 1 {i + 2}\n" for i in range(1000)))
    start = time.perf_counter()
    code = cli.run(["partition", "--stage", "m11", "--json", "--input", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(capsys.readouterr().out) == partition_report(m11(sunflower(1000)))
    assert elapsed <= 2, f"partition took {elapsed:.2f} s"


def test_partition_report_of_a_sunflower_is_not_quadratic():
    # composition's pair-connected components: testing every two edges of
    # the one cluster makes C(4000, 2) = 7,998,000 tests.
    p = m11(sunflower(4000))
    start = time.perf_counter()
    doc = partition_report(p)
    elapsed = time.perf_counter() - start
    (c,) = doc["clusters"]
    assert c["composition"] == [4000]
    assert elapsed <= 0.5, f"partition_report took {elapsed:.2f} s"


def test_m2plus_on_a_sunflower_is_not_cubic():
    # Every two edges form a diamond, and every third edge completes it to
    # a 3-edge tree, so every pair of vertices is a 2+ pair.  Listing all
    # the edges through each of the C(400, 2) diamonds is cubic.
    c = 400
    start = time.perf_counter()
    p = m2plus(sunflower(c))
    elapsed = time.perf_counter() - start
    (cluster,) = p.clusters
    assert cluster.edge_indices == tuple(range(c))
    assert sum(1 for bits in cluster.state.values() if bits & 4) == (c + 2) * (c + 1) // 2
    assert elapsed <= 2, f"m2plus took {elapsed:.2f} s"


def test_huge_vertex_ids_cost_nothing():
    # Four edges among ten million vertices: no step may walk the unused ids.
    n = 10**7
    G = build(3, n, [(0, 1, 2), (0, 1, 3), (5, 6, n - 1), (n - 10, n - 9, n - 1)])
    start = time.perf_counter()
    for stage, run in merging.STAGES.items():
        assert run(G).edge_sets() == {frozenset({0, 1}), frozenset({2}), frozenset({3})}, stage
    rep = certify(G, rule_for(3, 5))
    elapsed = time.perf_counter() - start
    assert rep.certified and len(rep.per_cluster) == 3
    assert elapsed <= 2, f"the stages and certify took {elapsed:.2f} s"


def test_duplicate_heavy_input_is_refused(tmp_path, capsys):
    path = tmp_path / "copies.txt"
    path.write_text("3 3 100000\n" + "0 1 2\n" * 100000)
    start = time.perf_counter()
    code = cli.run(["certify", "--input", str(path), "--k", "5"])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err == "error: edge (0, 1, 2) appears more than once\n"
    assert elapsed <= 2, f"certify took {elapsed:.2f} s"


def test_complete_graph_is_refused_at_its_first_dense_subset(tmp_path, capsys):
    # K14^(3), 364 edges in one part: m3plus refuses it at the first three
    # edges on four vertices, without walking the part's larger subsets.
    path = tmp_path / "k14.txt"
    edges = list(itertools.combinations(range(14), 3))
    path.write_text(f"3 14 {len(edges)}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in edges))
    start = time.perf_counter()
    code = cli.run(["partition", "--stage", "m3plus", "--json", "--input", str(path)])
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["free"] is False and doc["witness"] == [0, 1, 12]
    assert doc["query"] == {"edge_count": 3, "max_vertices": 4}
    assert elapsed <= 2, f"partition took {elapsed:.2f} s"


def test_partition_m3plus_on_a_tight_path(tmp_path, capsys):
    # The tight path {i, i+1, i+2}: m11 already joins it into one part, and
    # m3plus's claim walk of that part is cubic in c (every two edges fit
    # the size-4 claim budget), so only a wall budget holds it, no ratio.
    c = 300
    path = tmp_path / "path.txt"
    path.write_text(f"3 {c + 2} {c}\n" + "".join(f"{i} {i + 1} {i + 2}\n" for i in range(c)))
    start = time.perf_counter()
    code = cli.run(["partition", "--stage", "m3plus", "--json", "--input", str(path)])
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["stage"] == "m3plus"
    (cluster,) = doc["clusters"]
    assert cluster["edges"] == list(range(c)) and cluster["composition"] == [c]
    assert elapsed <= 2, f"partition took {elapsed:.2f} s"
