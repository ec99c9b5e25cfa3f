"""The five benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` (timed
as set-up), hands out a fixed job list of operations, and checks every
operation's output outside the timed region against the frozen references
in ``references.json`` and against independent re-checks.  Only the public
``beslab`` API is called.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import beslab
import beslab.cli

CERTIFY_CASES = ((3, 5), (4, 5), (3, 6), (4, 6), (3, 7))  # one per rule_for case
SMALL_POOL = 600  # pool graphs per case; references cover all of them
SMALL_PER_CASE = 100  # graphs per case in one job list, one per pool stratum

# Every operation is kept short (at most about 0.2 s) so that a run repeats
# each one many times: see "Timing" in README.md.
LARGE_GRAPHS = {  # label -> (graph builder name, argument, k)
    "f63x1": ("f63", 1, 6),
    "ds16": ("diamond_star", 16, 5),
    "ds24": ("diamond_star", 24, 5),
    "ds32": ("diamond_star", 32, 5),
    "ds40": ("diamond_star", 40, 5),
    "ds48": ("diamond_star", 48, 5),
    "ds56": ("diamond_star", 56, 5),
}

# n_max is the largest n whose family search stays under about 50 ms.
SWEEPS = ((3, 5, 6), (3, 6, 6), (3, 7, 6), (3, 8, 6), (4, 4, 8), (4, 5, 8), (4, 6, 8), (4, 7, 8))

PACKING_PARAMS = dict(r=4, m=12, alpha=Fraction(3, 10), mu=Fraction(1, 8), girth_cap=8)
# The packing seeds of every job list; the benchmark seed only orders them.
# Drawing them from the seed would swamp the bounds: at m = 12 one run takes
# 7-110 ms depending on the packing seed.
PACKING_SEEDS = tuple(range(1, 9))

CLI_CACHE_SWEEPS = ((3, 5, 6), (3, 6, 6), (3, 7, 6), (4, 5, 6), (4, 6, 6))
CLI_PER_CASE = 4  # small admissible graph files per certify case
CLI_STAGES = ("m11", "m12", "m2plus", "m3plus")  # partition stages, named as in beslab


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    prepare: Optional[Callable[[], None]] = None


def load_references(path: Path) -> dict:
    return json.loads(path.read_text())


def small_graph(r: int, k: int, idx: int) -> beslab.Hypergraph:
    """Pool graph ``idx`` of case (r, k): random edge addition on 7-12
    vertices, keeping each edge that leaves the graph admissible."""
    rng = random.Random(f"certify-small/{r}/{k}/{idx}")
    n = rng.randint(7, 12)
    cands = list(itertools.combinations(range(n), r))
    rng.shuffle(cands)
    edges: list[tuple[int, ...]] = []
    for e in cands[:60]:
        trial = sorted(edges + [e])
        G = beslab.build(r, n, trial)
        if beslab.family_violation_containing(G, k, trial.index(e)) is None:
            edges = trial
    return beslab.build(r, n, edges)


def stratified_picks(refs: dict, rng: random.Random, per_case: int) -> list[tuple[int, int, int]]:
    """``per_case`` pool graphs of each certify case, one drawn from each
    stratum of the pool sorted by vertex and edge count, so that every seed
    gets a job list of about the same size and cost."""
    picks = []
    for r, k in CERTIFY_CASES:
        edges = refs["certify_small"][f"{r},{k}"]
        order = sorted(range(SMALL_POOL), key=lambda idx: (
            random.Random(f"certify-small/{r}/{k}/{idx}").randint(7, 12), edges[idx][0], idx))
        size = SMALL_POOL // per_case
        picks += [(r, k, order[b * size + rng.randrange(size)]) for b in range(per_case)]
    return picks


def large_graph(label: str) -> tuple[beslab.Hypergraph, int]:
    kind, arg, k = LARGE_GRAPHS[label]
    if kind == "diamond_star":
        return beslab.diamond_star(arg), k
    G = beslab.f63()
    edges = [tuple(v + G.n * c for v in e) for c in range(arg) for e in G.edges]
    return beslab.build(G.r, G.n * arg, edges), k


def certify_ok(rep: beslab.WeightReport, ref: dict) -> bool:
    """Certified, every lambda >= 0, every pair total <= 1, frozen counts."""
    return (
        rep.certified
        and all(lam >= 0 for _, lam in rep.per_cluster.values())
        and all(total <= 1 for total in rep.per_pair.values())
        and len(rep.per_cluster) == ref["clusters"]
        and len(rep.partition.ambient.edges) == ref["edges"]
    )


def sweep_rows(report: beslab.SweepReport) -> list[list[int]]:
    return [[row.n, row.family_value, row.plain_value] for row in report.rows]


def cache_witnesses_ok(path: Path, r: int, k: int, rows: list[list[int]]) -> bool:
    """Every cache line's witness attains its value and avoids its ban, and
    every family value of the sweep has its line."""
    family = {n: fv for n, fv, _ in rows}
    plain = {n: pv for n, _, pv in rows}
    seen = set()
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        W = beslab.from_text(obj["witness"])
        n, s = obj["n"], obj["s"]
        if (obj["r"], obj["k"]) != (r, k) or len(W.edges) != obj["value"] or W.n != n:
            return False
        if obj["kind"] == "family":
            if obj["value"] != family.get(n) or not beslab.is_family_free(W, k).free:
                return False
            seen.add(n)
        elif obj["value"] != plain.get(n) or beslab.find_configuration(
            W, beslab.ConfigQuery(k, s)
        ) is not None:
            return False
    return seen == set(family)


class Workload:
    """Inputs from the seed, a fixed job list, and the checks of its outputs."""

    name = ""
    why = ""

    def __init__(self, refs: dict, seed: int):
        self.refs = refs
        self.rng = random.Random(f"{self.name}/{seed}")

    def setup(self, where: Path) -> None:
        """Build the inputs (timed as set-up); ``where`` is an empty directory."""

    def job(self, rep: int) -> list[Op]:
        raise NotImplementedError

    def report(self, times: list[tuple[str, float]]) -> dict:
        """Workload-specific figures from each operation's time at the
        reference speed."""
        return {}


class CertifySmall(Workload):
    name = "certify-small"
    why = "per-graph pipeline overhead: 500 small admissible graphs over all five weighting rules"

    def __init__(self, refs: dict, seed: int):
        super().__init__(refs, seed)
        self.picks = stratified_picks(refs, self.rng, SMALL_PER_CASE)
        self.rng.shuffle(self.picks)

    def setup(self, where: Path) -> None:
        self.inputs = [
            (small_graph(r, k, idx), beslab.rule_for(r, k), self.refs["certify_small"][f"{r},{k}"][idx])
            for r, k, idx in self.picks
        ]

    def job(self, rep: int) -> list[Op]:
        return [
            Op(rule.case, lambda G=G, rule=rule: beslab.certify(G, rule),
               lambda out, ref=ref: certify_ok(out, {"edges": ref[0], "clusters": ref[1]}))
            for G, rule, ref in self.inputs
        ]


class CertifyLarge(Workload):
    name = "certify-large"
    why = "configuration scans growing with m: f63 (K63) and diamond_star(16..56) (K5R3), one op per graph"

    def setup(self, where: Path) -> None:
        labels = list(LARGE_GRAPHS)
        self.rng.shuffle(labels)
        self.inputs = []
        for label in labels:
            G, k = large_graph(label)
            self.inputs.append((label, G, beslab.rule_for(G.r, k)))

    def job(self, rep: int) -> list[Op]:
        refs = self.refs["certify_large"]
        return [
            Op(label, lambda G=G, rule=rule: beslab.certify(G, rule),
               lambda out, ref=refs[label]: certify_ok(out, ref))
            for label, G, rule in self.inputs
        ]

    def report(self, times: list[tuple[str, float]]) -> dict:
        """The m-curve: time per graph against its edge count."""
        by_label = dict(times)
        return {"m_curve": [
            {"graph": label, "m": len(G.edges), "time_s": by_label[label]}
            for label, G, _ in sorted(self.inputs, key=lambda t: (t[0][:2], len(t[1].edges)))
        ]}


class ExactSearch(Workload):
    name = "exact-search"
    why = "branch and bound: eight sweeps of tiny forced config searches, fresh cache file per sweep (write path)"

    def setup(self, where: Path) -> None:
        self.order = list(SWEEPS)
        self.rng.shuffle(self.order)
        self.where = where
        self.nodes: dict[str, int] = {}

    def job(self, rep: int) -> list[Op]:
        ops = []
        for r, k, n_max in self.order:
            path = self.where / f"sweep-{rep}-{r}-{k}-{n_max}.jsonl"
            ref = self.refs["sweeps"][f"{r},{k},{n_max}"]
            ops.append(Op(
                f"{r},{k},{n_max}",
                lambda r=r, k=k, n_max=n_max, path=path: beslab.consistency_sweep(
                    r, k, n_max, cache_path=str(path), threads=1),
                lambda out, r=r, k=k, path=path, ref=ref: self._check(out, r, k, path, ref),
                prepare=path.touch,
            ))
        return ops

    def _check(self, report, r: int, k: int, path: Path, ref: dict) -> bool:
        rows = sweep_rows(report)
        ok = (report.ok == ref["ok"] and rows == ref["rows"]
              and cache_witnesses_ok(path, r, k, rows))
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            self.nodes[f"{obj['kind']}({obj['r']},{obj['n']},{obj['k']})"] = obj["nodes"]
        path.unlink()
        return ok

    def report(self, times: list[tuple[str, float]]) -> dict:
        return {"sweep_s": dict(sorted(times)), "bnb_nodes": dict(sorted(self.nodes.items()))}


class Packing(Workload):
    name = "packing"
    why = "randomized clique packing, r=4 m=12: conflict enumeration (enumerate_S/enumerate_conflicts) runs only here"

    def __init__(self, refs: dict, seed: int):
        super().__init__(refs, seed)
        self.seeds = list(PACKING_SEEDS)
        self.rng.shuffle(self.seeds)

    def setup(self, where: Path) -> None:
        self.params = [beslab.RandomParams(seed=s, **PACKING_PARAMS) for s in self.seeds]

    def job(self, rep: int) -> list[Op]:
        refs = self.refs["packing"]
        return [
            Op(f"seed{p.seed}", lambda p=p: beslab.random_packing_construction(p),
               lambda out, ref=refs[str(p.seed)]: packing_summary(out) == ref)
            for p in self.params
        ]


def packing_summary(rep: beslab.ConstructionReport) -> dict:
    return {
        "conflicts": rep.aux["conflicts"],
        "fully_chosen_conflicts": rep.aux["fully_chosen_conflicts"],
        "conflict_removed": rep.aux["conflict_removed"],
        "edges": len(rep.F.edges),
        "facts_hold": all(bool(f) for f in rep.freeness_facts.values()),
    }


class CliReplay(Workload):
    name = "cli-replay"
    why = "in-process beslab.cli.run script over a warm cache: argument parsing, JSON emission and cache reads"

    SCRIPT = (  # (kind, times per job list)
        ("turan", 24), ("sweep", 6), ("certify", 16), ("verify", 16),
        ("partition", 16), ("construct", 8), ("ratio", 8), ("gr-limits", 6),
    )

    def setup(self, where: Path) -> None:
        self.cache = where / "turan.jsonl"
        for r, k, n_max in CLI_CACHE_SWEEPS:
            beslab.consistency_sweep(r, k, n_max, cache_path=str(self.cache), threads=1)
        self.graphs = []
        picks = stratified_picks(self.refs, self.rng, CLI_PER_CASE)
        # Case-interleaved, so that graph i belongs to case i mod 5.
        picks = [picks[c * CLI_PER_CASE + b] for b in range(CLI_PER_CASE)
                 for c in range(len(CERTIFY_CASES))]
        for i, (r, k, idx) in enumerate(picks):
            G = small_graph(r, k, idx)
            path = where / f"g{i}.txt"
            path.write_text(beslab.to_text(G))
            self.graphs.append((str(path), G, k))
        calls = [self._call(kind, i) for kind, times in self.SCRIPT for i in range(times)]
        self.rng.shuffle(calls)
        self.calls = calls
        self._expected: dict[tuple[str, ...], Any] = {}

    def _call(self, kind: str, i: int) -> tuple[list[str], Callable[[], Any]]:
        """The i-th call of a kind: its argv, and how the library answers it."""
        if kind == "turan":
            family = [(r, k, n) for r, k, n_max in CLI_CACHE_SWEEPS for n in range(r, n_max + 1)]
            r, k, n = family[i % len(family)]
            return (["turan", "--family", "--json", "--r", str(r), "--k", str(k), "--n", str(n),
                     "--cache", str(self.cache)], lambda: self._turan_doc(r, k, n))
        if kind == "sweep":
            r, k, n_max = CLI_CACHE_SWEEPS[i % len(CLI_CACHE_SWEEPS)]
            return (["sweep", "--json", "--r", str(r), "--k", str(k), "--n-max", str(n_max),
                     "--cache", str(self.cache)], lambda: self._sweep_doc(r, k, n_max))
        if kind == "ratio":
            r, k = ((3, 5), (3, 6), (3, 7), (4, 6), (5, 2))[i % 5]
            return (["ratio", "--json", "--r", str(r), "--k", str(k)],
                    lambda: {"r": r, "k": k, "limit": str(beslab.limit_table(r, k))})
        if kind == "gr-limits":
            return (["gr-limits", "--json"], lambda: {
                "quadratic": {str(p): str(beslab.gr_limit(p)) for p in (12, 14, 16)},
                "linear": {str(p): str(v) for p, v in sorted(beslab.gr_linear_bounds().items())},
            })
        if kind == "construct":
            argv, build = (
                (["construct", "f63", "--json"], beslab.f63),
                (["construct", "diamond-star", "--t", "8", "--json"], lambda: beslab.diamond_star(8)),
                (["construct", "single-edge", "--r", "4", "--json"], lambda: beslab.single_edge(4)),
            )[i % 3]
            return argv, lambda: beslab.graph_doc(build())
        path, G, k = self.graphs[i % len(self.graphs)]
        if kind == "certify":
            return (["certify", "--json", "--input", path, "--k", str(k)],
                    lambda: self._certify_doc(G, k))
        if kind == "verify":
            return (["verify-construction", "--json", "--input", path, "--k", str(k)],
                    lambda: self._verify_doc(G, k))
        stage = CLI_STAGES[i % len(CLI_STAGES)]
        return (["partition", "--json", "--input", path, "--stage", stage],
                lambda: _plain(beslab.partition_report(getattr(beslab, stage)(G))))

    def job(self, rep: int) -> list[Op]:
        return [Op(argv[0], lambda argv=argv: _run_cli(argv),
                   lambda out, argv=argv, expect=expect: self._check(argv, expect, out))
                for argv, expect in self.calls]

    def _check(self, argv: list[str], expect: Callable[[], Any], out: tuple[int, str]) -> bool:
        code, text = out
        if code != 0:
            return False
        key = tuple(argv)
        if key not in self._expected:
            self._expected[key] = expect()
        return json.loads(text) == self._expected[key]

    # The library's answers; None where one contradicts the references.

    def _turan_doc(self, r: int, k: int, n: int) -> Any:
        res = beslab.exact_turan_family(r, n, k, cache_path=str(self.cache))
        n_max = next(nm for rr, kk, nm in CLI_CACHE_SWEEPS if (rr, kk) == (r, k))
        family = {row[0]: row[1] for row in self.refs["sweeps"][f"{r},{k},{n_max}"]["rows"]}
        if res.value != family[n] or not beslab.is_family_free(res.witness, k).free:
            return None
        return _plain(beslab.turan_doc(res))

    def _sweep_doc(self, r: int, k: int, n_max: int) -> Any:
        rep = beslab.consistency_sweep(r, k, n_max, cache_path=str(self.cache))
        ref = self.refs["sweeps"][f"{r},{k},{n_max}"]
        if rep.ok != ref["ok"] or sweep_rows(rep) != ref["rows"]:
            return None
        return _plain(beslab.sweep_doc(rep))

    def _certify_doc(self, G: beslab.Hypergraph, k: int) -> Any:
        rep = beslab.certify(G, beslab.rule_for(G.r, k))
        ref = {"edges": len(G.edges), "clusters": len(rep.partition.clusters)}
        return _plain(beslab.report_doc(rep)) if certify_ok(rep, ref) else None

    def _verify_doc(self, G: beslab.Hypergraph, k: int) -> dict:
        ratio, pset = beslab.lower_bound_ratio(G, k)
        return {"free": True, "k": k, "edge_count": len(G.edges),
                "claimed_pairs": len(pset), "ratio": str(ratio)}


def _plain(doc: dict) -> Any:
    """A document as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(doc))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = beslab.cli.run(argv)
    return code, out.getvalue()


WORKLOADS = {w.name: w for w in (CertifySmall, CertifyLarge, ExactSearch, Packing, CliReplay)}
