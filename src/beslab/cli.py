"""Command-line interface.

Exit codes: 0 for success (including a certified weighting and an
all-consistent sweep); 1 when a verification fails — a forbidden
configuration, an uncertified weighting, a failing sweep, or a search
refused as too large; 2 for usage errors and queries outside the known
tables.  ``--json`` emits one deterministic JSON document (sorted keys,
no timing fields) on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .constructions import (
    RandomParams,
    construction_doc,
    diamond_star,
    f63,
    gr_limit,
    gr_linear_bounds,
    lower_bound_ratio,
    random_packing_construction,
    single_edge,
)
from .errors import NotFree, TooLarge, Unknown
from .hypergraphs import Hypergraph, from_text, graph_doc, to_text
from .merging import STAGES, partition_report
from .turan import (
    consistency_sweep,
    exact_turan,
    exact_turan_family,
    size_cap,
    sweep_doc,
    turan_doc,
)
from .weights import certify, limit_table, report_doc, rule_for

def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(text: str, dest: str) -> None:
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(doc: dict, dest: str = "-") -> None:
    _emit(json.dumps(doc, sort_keys=True) + "\n", dest)


def _read_graph(path: str) -> Hypergraph:
    if path == "-":
        data = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            data = fh.read()
    return from_text(data)


def _resolve_cache(args: argparse.Namespace) -> Optional[str]:
    if args.no_cache:
        return None
    if args.cache:
        return args.cache
    env = os.environ.get("BESLAB_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "beslab", "turan.jsonl")


def _threads_from_env() -> int:
    raw = os.environ.get("BESLAB_THREADS")
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, min(value, os.cpu_count() or 1))


def _not_free(G: Hypergraph, exc: NotFree, as_json: bool, **extra) -> int:
    """Report a forbidden configuration (JSON on stdout, else text on
    stderr); ``extra`` adds fields to the JSON document.  Returns 1."""
    sub = G.subgraph(exc.witness)
    if as_json:
        _emit_json(
            {
                **extra,
                "free": False,
                "witness": list(exc.witness),
                "witness_text": to_text(sub),
                "query": {
                    "edge_count": exc.query.edge_count,
                    "max_vertices": exc.query.max_vertices,
                },
            }
        )
    else:
        print(f"not admissible: {exc}", file=sys.stderr)
        sys.stderr.write(to_text(sub))
    return 1


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_construct(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "f63":
        G = f63()
    elif kind == "single-edge":
        if args.r is None:
            return _usage("construct single-edge requires --r")
        G = single_edge(args.r)
    elif kind == "diamond-star":
        if args.t is None:
            return _usage("construct diamond-star requires --t")
        G = diamond_star(args.t)
    else:  # random
        for name in ("r", "m", "alpha", "mu", "seed"):
            if getattr(args, name) is None:
                return _usage(f"construct random requires --{name}")
        params = RandomParams(
            r=args.r,
            m=args.m,
            alpha=args.alpha,
            mu=args.mu,
            girth_cap=args.girth_cap,
            seed=args.seed,
        )
        rep = random_packing_construction(params)
        if args.json:
            _emit_json(construction_doc(rep), args.output)
        else:
            _emit(to_text(rep.F), args.output)
        return 0
    if args.json:
        _emit_json(graph_doc(G), args.output)
    else:
        _emit(to_text(G), args.output)
    return 0


def _cmd_verify_construction(args: argparse.Namespace) -> int:
    G = _read_graph(args.input)
    try:
        ratio, pset = lower_bound_ratio(G, args.k)
    except NotFree as exc:
        return _not_free(G, exc, args.json)
    if args.json:
        _emit_json(
            {
                "free": True,
                "k": args.k,
                "edge_count": len(G.edges),
                "claimed_pairs": len(pset),
                "ratio": str(ratio),
            }
        )
    else:
        print(
            f"admissible for k={args.k}: {len(G.edges)} edges, "
            f"{len(pset)} claimed pairs, ratio {ratio}"
        )
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    G = _read_graph(args.input)
    rng = random.Random(args.seed) if args.seed is not None else None
    try:
        doc = partition_report(STAGES[args.stage](G, rng=rng))
    except NotFree as exc:
        return _not_free(G, exc, args.json, stage=args.stage)
    if args.json:
        _emit_json(doc)
    else:
        print(
            f"stage {doc['stage']}: {len(doc['clusters'])} clusters on "
            f"r={G.r} n={G.n} edges={len(G.edges)}"
        )
        for c in doc["clusters"]:
            comp = ",".join(str(x) for x in c["composition"])
            print(f"  cluster {c['id']}: edges {c['edges']} composition ({comp})")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    G = _read_graph(args.input)
    rule = rule_for(G.r, args.k)
    try:
        rep = certify(G, rule)
    except NotFree as exc:
        return _not_free(G, exc, args.json, certified=False)
    if args.json:
        _emit_json(report_doc(rep))
    else:
        lam_min = min((lam for _, lam in rep.per_cluster.values()), default=Fraction(0))
        pair_max = max(rep.per_pair.values(), default=Fraction(0))
        print(f"rule {rule.case} (r={rule.r}, k={rule.k}), stage {rule.stage}")
        print(
            f"clusters {len(rep.per_cluster)}, lambda_min {lam_min}, "
            f"pair_max {pair_max}"
        )
        hold = "yes" if len(G.edges) <= rep.edge_bound else "no"
        print(f"edges {len(G.edges)} <= bound {rep.edge_bound}: {hold}")
        print(f"certified: {'true' if rep.certified else 'false'}")
    return 0 if rep.certified else 1


def _cmd_turan(args: argparse.Namespace) -> int:
    cache = _resolve_cache(args)
    if args.allow_large and args.n > size_cap(args.r):
        print(
            f"warning: n={args.n} exceeds the n<={size_cap(args.r)} cap for "
            f"r={args.r}; expect exponential blowup",
            file=sys.stderr,
        )
    if args.family:
        if args.s is not None:
            return _usage("--s conflicts with --family (the family fixes its budgets)")
        res = exact_turan_family(
            args.r, args.n, args.k, allow_large=args.allow_large, cache_path=cache
        )
    else:
        if args.s is None:
            return _usage("plain search requires --s (or pass --family)")
        res = exact_turan(
            args.r,
            args.n,
            args.s,
            args.k,
            allow_large=args.allow_large,
            cache_path=cache,
        )
    if args.json:
        _emit_json(turan_doc(res))
    else:
        print(f"value {res.value} (nodes {res.nodes_explored}, {res.elapsed:.3f}s)")
        sys.stdout.write(to_text(res.witness))
    return 0


def _cmd_ratio(args: argparse.Namespace) -> int:
    value = limit_table(args.r, args.k)
    if args.json:
        _emit_json({"r": args.r, "k": args.k, "limit": str(value)})
    else:
        print(f"limit({args.r}, {args.k}) = {value}")
    return 0


def _cmd_gr_limits(args: argparse.Namespace) -> int:
    quadratic = {p: gr_limit(p) for p in (12, 14, 16)}
    linear = gr_linear_bounds()
    if args.json:
        _emit_json(
            {
                "quadratic": {str(p): str(v) for p, v in quadratic.items()},
                "linear": {str(p): str(v) for p, v in sorted(linear.items())},
            }
        )
    else:
        for p, v in quadratic.items():
            print(f"quadratic p={p}: {v}")
        for p, v in sorted(linear.items()):
            print(f"linear p={p}: {v}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    report = consistency_sweep(
        args.r,
        args.k,
        args.n_max,
        cache_path=_resolve_cache(args),
        threads=_threads_from_env(),
    )
    doc = sweep_doc(report)
    if args.json:
        _emit_json(doc)
    else:
        for row in doc["rows"]:
            extra = ""
            if row["bound_value"] is not None:
                extra = f", bound {row['bound_value']} ok={row['bound_ok']}"
            print(
                f"n={row['n']}: family {row['family_value']} <= "
                f"plain {row['plain_value']} ({row['family_le_plain']}){extra}"
            )
            for c in row["constructions"]:
                print(f"    {c['label']}: {c['edges']} edges ok={c['ok']}")
        print(f"ok: {report.ok}")
    return 0 if report.ok else 1


_DISPATCH = {
    "construct": _cmd_construct,
    "verify-construction": _cmd_verify_construction,
    "partition": _cmd_partition,
    "certify": _cmd_certify,
    "turan": _cmd_turan,
    "ratio": _cmd_ratio,
    "gr-limits": _cmd_gr_limits,
    "sweep": _cmd_sweep,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process and shared by every run(): parse_args keeps
    # no state between calls, and help and error text go to sys.stdout and
    # sys.stderr as they are when printed.
    top = argparse.ArgumentParser(
        prog="beslab",
        description="Sparse hypergraph toolkit: constructions, cluster "
        "partitions, weighting certificates, and exact extremal searches.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a lower-bound graph")
    p.add_argument(
        "kind", choices=["single-edge", "diamond-star", "f63", "random"]
    )
    p.add_argument("--r", type=int, help="uniformity")
    p.add_argument("--t", type=int, help="diamond count (diamond-star)")
    p.add_argument("--m", type=int, help="side vertex count (random)")
    p.add_argument("--alpha", type=_fraction, help="cross density in (0,1) (random)")
    p.add_argument("--mu", type=_fraction, help="selection intensity in (0,1) (random)")
    p.add_argument("--girth-cap", type=int, default=8, help="packing girth floor (random)")
    p.add_argument("--seed", type=int, help="RNG seed (required for random)")
    p.add_argument("--output", default="-", help="file path or - for stdout")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify-construction", help="check admissibility and the pair ratio")
    p.add_argument("--input", default="-", help="graph file or - for stdin")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("partition", help="run a cluster-merging stage")
    p.add_argument("--input", default="-", help="graph file or - for stdin")
    p.add_argument("--stage", choices=sorted(STAGES), required=True)
    p.add_argument("--seed", type=int, help="randomize the merge order of the stage's last round")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("certify", help="run the weighting certificate")
    p.add_argument("--input", default="-", help="graph file or - for stdin")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("turan", help="exact extremal edge count")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, help="vertex budget (plain search)")
    p.add_argument("--family", action="store_true", help="ban the whole family for k")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--cache", help="JSONL cache path")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("ratio", help="known limiting density for (r, k)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gr-limits", help="derived coloring-threshold limits")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sweep", help="cross-check oracles, catalog, and bounds")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--cache", help="JSONL cache path")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--json", action="store_true")

    return top


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    try:
        return _DISPATCH[args.command](args)
    except Unknown as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        # Raised by turan and sweep, both of which take --json.
        if args.json:
            _emit_json({"error": "too-large"})
        else:
            print(f"refused: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
