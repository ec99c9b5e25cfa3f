"""Hostile inputs end in bounded time: hub-heavy graphs through the public
entry points, with wall-clock budgets far above the expected times."""

from __future__ import annotations

import json
import time

from beslab import Pair, build, cli, m11, m2plus, partition_report


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
