"""Record the frozen references the benchmark checks outputs against.

Run from the repository root, once, at the commit whose answers are taken
as correct:

    python3 perfbench/freeze.py

It rewrites ``perfbench/references.json``.  Answers must not change after
that: a later change that alters one is a failed operation, not a new
reference.  The freeze refuses to record an output that fails its own
invariants (an uncertified graph, a negative lambda, a failing sweep).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

beslab = run._import_program()

import workloads as W  # noqa: E402


def _certify_ref(G, k: int) -> dict:
    rep = beslab.certify(G, beslab.rule_for(G.r, k))
    ref = {"edges": len(G.edges), "clusters": len(rep.per_cluster)}
    if not W.certify_ok(rep, ref):
        raise SystemExit(f"refusing to freeze: graph {G.edges} fails certify at k={k}")
    return ref


def main() -> None:
    refs: dict = {"frozen_at": {k: v for k, v in run.provenance(0).items() if k != "seed"}}
    refs["certify_small"] = {}
    for r, k in W.CERTIFY_CASES:
        rows = []
        for idx in range(W.SMALL_POOL):
            ref = _certify_ref(W.small_graph(r, k, idx), k)
            rows.append([ref["edges"], ref["clusters"]])
        refs["certify_small"][f"{r},{k}"] = rows
    refs["certify_large"] = {
        label: _certify_ref(*W.large_graph(label)) for label in W.LARGE_GRAPHS
    }
    refs["sweeps"] = {}
    for r, k, n_max in sorted(set(W.SWEEPS) | set(W.CLI_CACHE_SWEEPS)):
        report = beslab.consistency_sweep(r, k, n_max, cache_path=None, threads=1)
        if not report.ok:
            raise SystemExit(f"refusing to freeze: sweep {(r, k, n_max)} is not ok")
        refs["sweeps"][f"{r},{k},{n_max}"] = {"ok": report.ok, "rows": W.sweep_rows(report)}
    refs["packing"] = {}
    for seed in W.PACKING_SEEDS:
        rep = beslab.random_packing_construction(
            beslab.RandomParams(seed=seed, **W.PACKING_PARAMS)
        )
        summary = W.packing_summary(rep)
        if not summary["facts_hold"]:
            raise SystemExit(f"refusing to freeze: packing seed {seed} breaks a freeness fact")
        refs["packing"][str(seed)] = summary
    text = json.dumps(refs, sort_keys=True, separators=(",", ":"))
    (HERE / "references.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
