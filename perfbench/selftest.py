"""Self-test of the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs one traced pass (one untraced and one traced job
list) against references with one deliberately wrong value, and asserts that

- the wrong value makes some operations fail (failed_frac > 0) but not all;
- every layer the workload serves reports a non-zero ``<layer>.calls``;
- the layers with the most self time are the ones the workload was chosen for.

It also checks that both modes report exactly the metric names declared in
``BENCHMARK.json``.  Takes about a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import workloads as W  # noqa: E402
from tracer import LAYER_NAMES  # noqa: E402


def _corrupt_small(refs: dict) -> None:
    for row in refs["certify_small"]["3,5"]:
        row[1] += 1


def _corrupt_large(refs: dict) -> None:
    refs["certify_large"]["ds32"]["clusters"] += 1


def _corrupt_sweep(refs: dict) -> None:
    refs["sweeps"]["4,5,8"]["rows"][-1][1] += 1


def _corrupt_packing(refs: dict) -> None:
    first = W.Packing(refs, SEED).seeds[0]
    refs["packing"][str(first)]["conflict_removed"] += 1


def _corrupt_cli(refs: dict) -> None:
    refs["sweeps"]["3,5,6"]["rows"][-1][1] += 1


SEED = 1
# workload -> (corruption, layers it serves, layers with the most self time).
# On certify-small claim_profile, which merge calls for every new part, holds
# about as much self time as merging itself, so the top two are expected.
CASES = {
    "certify-small": (
        _corrupt_small,
        ("merging", "hypergraphs.claims", "weights", "hypergraphs.config_search"),
        ("merging", "hypergraphs.claims"),
    ),
    "certify-large": (_corrupt_large, ("hypergraphs.config_search", "merging"),
                      ("hypergraphs.config_search",)),
    "exact-search": (_corrupt_sweep, ("turan.bnb", "turan.cache", "hypergraphs.config_search"),
                     ("hypergraphs.config_search",)),
    "packing": (_corrupt_packing, ("constructions.conflicts", "hypergraphs.config_search"),
                ("constructions.conflicts",)),
    "cli-replay": (_corrupt_cli, ("cli", "turan.cache", "hypergraphs.claims"), ("cli",)),
}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    refs = W.load_references(HERE / "references.json")
    problems: list[str] = []
    run.TMP.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.TMP))
    try:
        run._isolate(tmp_root)
        for i, (name, (corrupt, served, top)) in enumerate(CASES.items()):
            bad = copy.deepcopy(refs)
            corrupt(bad)
            tmp = tmp_root / name
            tmp.mkdir()
            res = run.trace(W.WORKLOADS[name], bad, SEED, 0, tmp)
            runner, metrics = res["runner"], res["metrics"]
            frac = runner.failed / runner.attempted
            print(f"{name}: failed_frac {frac:.3f} with one wrong reference")
            if not 0 < frac < 1:
                problems.append(f"{name}: failed_frac {frac} with a wrong reference")
            for layer in served:
                calls = metrics[f"{layer}.calls"]["value"]
                print(f"  {layer}.calls = {calls}")
                if calls <= 0:
                    problems.append(f"{name}: {layer}.calls is {calls}")
            self_s = {lay: metrics[f"{lay}.self_s"]["value"] for lay in LAYER_NAMES}
            ranked = sorted(self_s, key=self_s.get, reverse=True)
            print("  self time: " + ", ".join(f"{lay} {self_s[lay]:.3f}s" for lay in ranked[:3]))
            if set(ranked[: len(top)]) != set(top):
                problems.append(f"{name}: most self time in {ranked[:len(top)]}, expected {top}")
            if i == 0 and set(metrics) != {m["name"] for m in bench["per_layer"]}:
                problems.append("traced metrics differ from BENCHMARK.json per_layer")
        tmp = tmp_root / "measure"
        tmp.mkdir()
        res = run.measure(W.WORKLOADS["cli-replay"], refs, SEED, 0, tmp, 0.0)
        if res["runner"].failed:
            problems.append("cli-replay fails with the true references")
        if set(res["metrics"]) != {m["name"] for m in bench["end_to_end"]}:
            problems.append("end-to-end metrics differ from BENCHMARK.json end_to_end")
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    for p in problems:
        print("FAIL:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
