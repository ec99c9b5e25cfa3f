"""Exact extremal numbers via branch and bound.

One oracle maximizes the number of edges of an r-uniform graph on n
labeled vertices that matches no configuration query in a list.
:func:`exact_turan` passes the single (edge_count, max_vertices) ban and
:func:`exact_turan_family` the full banned family for a given k.  Small n
only; results carry a deterministic witness (the lexicographically first
optimum with respect to the colex candidate order) and can be cached in a
JSON-lines file.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .constructions import diamond_star, single_edge
from .errors import TooLarge, Unknown
from .hypergraphs import (
    ConfigQuery,
    Hypergraph,
    _config_search,
    build,
    family_queries,
    find_configuration,
    from_text,
    graph_doc,
    is_family_free,
    to_text,
)
from .weights import bound_coefficient, rule_for

_SIZE_CAPS = {3: 9}
_DEFAULT_CAP = 8


def size_cap(r: int) -> int:
    """Largest n the exact searches accept without ``allow_large``."""
    return _SIZE_CAPS.get(r, _DEFAULT_CAP)


@dataclass(frozen=True)
class TuranResult:
    """Outcome of one extremal search.

    ``witness`` is a graph attaining ``value``; ``nodes_explored`` counts
    branch-and-bound nodes (0 for closed-form and greedy answers).
    """

    value: int
    witness: "Hypergraph"
    nodes_explored: int
    elapsed: float


def _colex_iter(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """All r-subsets of range(n) in colexicographic order."""
    for top in range(r - 1, n):
        for rest in itertools.combinations(range(top), r - 1):
            yield rest + (top,)


def _mask(edge: tuple[int, ...]) -> int:
    m = 0
    for v in edge:
        m |= 1 << v
    return m


def _validate(r: int, n: int, k: int) -> None:
    if r < 2:
        raise ValueError(f"uniformity must be at least 2, got {r}")
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if k < 1:
        raise ValueError(f"edge budget must be at least 1, got {k}")


# ``ok(masks, new_index)``: does the graph stay admissible after the edge at
# ``new_index`` (always the last entry) was added to ``masks``?
_OkFn = Callable[[list[int], int], bool]


def _admissible(queries: list[ConfigQuery]) -> _OkFn:
    # Unpacked once: reading the NamedTuple fields on every call is slower.
    bans = [(q.edge_count, q.max_vertices) for q in queries]

    def ok(masks: list[int], new: int) -> bool:
        for qk, qs in bans:
            if _config_search(masks, qk, qs, forced=new) is not None:
                return False
        return True

    return ok


def _greedy(r: int, n: int, ok: _OkFn) -> TuranResult:
    t0 = time.perf_counter()
    masks: list[int] = []
    edges: list[tuple[int, ...]] = []
    for e in _colex_iter(n, r):
        masks.append(_mask(e))
        if ok(masks, len(masks) - 1):
            edges.append(e)
        else:
            masks.pop()
    return TuranResult(len(edges), build(r, n, edges), 0, time.perf_counter() - t0)


def _branch_and_bound(r: int, n: int, ok: _OkFn) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """Maximize admissible edge sets over all r-subsets of range(n).

    Candidates are taken in colex order; only sets containing the first
    candidate are branched on (relabeling vertices maps any optimum to one
    that contains it), with the empty set as the value-0 baseline.  Subsets
    are visited in lexicographic order of their index tuples and the best
    value is updated at node entry, so the witness returned is the
    lexicographically first optimum.
    """
    cands = list(_colex_iter(n, r))
    total = len(cands)
    cmasks = [_mask(e) for e in cands]
    best_val = 0
    best_idx: tuple[int, ...] = ()
    nodes = 0
    chosen_masks: list[int] = []
    chosen_idx: list[int] = []

    def dfs(start: int) -> None:
        nonlocal best_val, best_idx, nodes
        nodes += 1
        size = len(chosen_idx)
        if size > best_val:
            best_val = size
            best_idx = tuple(chosen_idx)
        for j in range(start, total):
            if size + (total - j) <= best_val:
                break
            chosen_masks.append(cmasks[j])
            if ok(chosen_masks, size):
                chosen_idx.append(j)
                dfs(j + 1)
                chosen_idx.pop()
            chosen_masks.pop()

    if total:
        chosen_masks.append(cmasks[0])
        if ok(chosen_masks, 0):
            chosen_idx.append(0)
            dfs(1)
            chosen_idx.pop()
        chosen_masks.pop()
    return best_val, tuple(cands[i] for i in best_idx), nodes


# ---------------------------------------------------------------------------
# JSON-lines result cache


def _cache_load(path: str, key: tuple) -> Optional[tuple]:
    """(value, witness, nodes) of the record stored under ``key``, or None.

    Only lines whose five key fields equal ``key`` have their witness
    parsed.  Lines that are not well-formed records are skipped; the last
    well-formed matching line wins.
    """
    hit = None
    try:
        fh = open(path, "r", encoding="utf-8", errors="replace")
    except OSError:
        return None
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if (obj["kind"], obj["r"], obj["n"], obj["s"], obj["k"]) != key:
                    continue
                hit = (int(obj["value"]), from_text(obj["witness"]), int(obj["nodes"]))
            # AttributeError: a witness that is not a string; OverflowError: 1e400.
            except (AttributeError, KeyError, OverflowError, TypeError, ValueError):
                continue
    return hit


def _cache_append(path: str, key: tuple, value: int, witness, nodes: int) -> None:
    kind, r, n, s, k = key
    obj = {
        "kind": kind,
        "r": r,
        "n": n,
        "s": s,
        "k": k,
        "value": value,
        "witness": to_text(witness),
        "nodes": nodes,
    }
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# The oracle and its two front ends


def _proves(r: int, n: int, queries: list[ConfigQuery], value: int, witness: Hypergraph) -> bool:
    """Is ``witness`` an r-uniform graph on n vertices with ``value`` edges
    in which no query finds a configuration?"""
    return (witness.r, witness.n, len(witness.edges)) == (r, n, value) and all(
        find_configuration(witness, q) is None for q in queries
    )


def _exact(
    kind: str,
    r: int,
    n: int,
    queries: list[ConfigQuery],
    allow_large: bool,
    cache_path: Optional[str],
    t0: float,
) -> TuranResult:
    """Most edges of an r-uniform graph on n vertices matching none of
    ``queries``: cache lookup, size cap, search, witness re-check, cache
    append.  The last query is the main ban and keys the cache entry.  A
    cached record whose witness fails the re-check counts as a miss."""
    main = queries[-1]
    key = (kind, r, n, main.max_vertices, main.edge_count)
    if cache_path:
        hit = _cache_load(cache_path, key)
        if hit is not None and _proves(r, n, queries, hit[0], hit[1]):
            return TuranResult(*hit, time.perf_counter() - t0)
    ok = _admissible(queries)
    if n > size_cap(r) and not allow_large:
        raise TooLarge(
            f"exact search for n={n} exceeds the n<={size_cap(r)} cap for r={r}; "
            "pass allow_large to force it",
            best=_greedy(r, n, ok),
        )
    value, edges, nodes = _branch_and_bound(r, n, ok)
    witness = build(r, n, edges)
    if not _proves(r, n, queries, value, witness):
        raise RuntimeError("internal error: extremal witness fails its own ban")
    if cache_path:
        _cache_append(cache_path, key, value, witness, nodes)
    return TuranResult(value, witness, nodes, time.perf_counter() - t0)


def exact_turan(
    r: int,
    n: int,
    s: int,
    k: int,
    allow_large: bool = False,
    cache_path: Optional[str] = None,
) -> TuranResult:
    """Most edges of an r-uniform graph on n vertices with no k edges on
    at most s vertices.

    When n <= s every k edges violate, so the answer is min(C(n, r), k-1)
    with no search.  Beyond :func:`size_cap` the exact search refuses unless
    ``allow_large`` is set, raising :class:`TooLarge` whose ``best`` holds a
    greedy lower bound.
    """
    t0 = time.perf_counter()
    _validate(r, n, k)
    if s < 1:
        raise ValueError(f"vertex budget must be at least 1, got {s}")
    if n <= s:
        value = min(math.comb(n, r), k - 1)
        witness = build(r, n, itertools.islice(_colex_iter(n, r), value))
        return TuranResult(value, witness, 0, time.perf_counter() - t0)
    return _exact("plain", r, n, [ConfigQuery(k, s)], allow_large, cache_path, t0)


def exact_turan_family(
    r: int,
    n: int,
    k: int,
    allow_large: bool = False,
    cache_path: Optional[str] = None,
) -> TuranResult:
    """Most edges of an r-uniform graph on n vertices avoiding the whole
    banned family for k (the main configuration and all denser members).

    No closed form applies; the search runs whenever n is within
    :func:`size_cap` (or ``allow_large`` is set).
    """
    t0 = time.perf_counter()
    _validate(r, n, k)
    if k < 2:
        raise ValueError(f"family needs k >= 2, got {k}")
    return _exact("family", r, n, family_queries(r, k), allow_large, cache_path, t0)


def turan_doc(result: TuranResult) -> dict:
    """JSON-ready view of a result (elapsed excluded for reproducibility)."""
    return {
        "value": result.value,
        "witness": graph_doc(result.witness),
        "nodes_explored": result.nodes_explored,
    }


# ---------------------------------------------------------------------------
# Consistency sweep


@dataclass(frozen=True)
class SweepRow:
    n: int
    family_value: int
    plain_value: int
    family_le_plain: bool
    bound_value: Optional[Fraction]
    bound_ok: Optional[bool]
    constructions: tuple[tuple[str, int, bool], ...]


@dataclass(frozen=True)
class SweepReport:
    r: int
    k: int
    n_max: int
    rows: tuple[SweepRow, ...]
    ok: bool


def _catalog(r: int, k: int, n_max: int) -> list[tuple[str, object]]:
    """Known lower-bound graphs fitting within n_max, verified admissible."""
    out: list[tuple[str, object]] = []
    if r <= n_max:
        out.append(("single_edge", single_edge(r)))
    if r == 3:
        t = 1
        while 2 * t + 2 <= n_max:
            g = diamond_star(t)
            if is_family_free(g, k).free:
                out.append((f"diamond_star({t})", g))
            t += 1
    return out


def consistency_sweep(
    r: int,
    k: int,
    n_max: int,
    cache_path: Optional[str] = None,
    threads: int = 1,
) -> SweepReport:
    """Cross-check the oracles, the catalog, and the certified edge bound.

    For every n in [r, n_max]: the family value never exceeds the plain
    value for the main configuration; every admissible catalog graph on n
    vertices has at most the family value many edges; and, when a weighting
    rule covers (r, k), the family value respects its quadratic edge bound.
    """
    _validate(r, n_max, k)
    if k < 2:
        raise ValueError(f"family needs k >= 2, got {k}")
    s_main = family_queries(r, k)[-1].max_vertices
    ns = list(range(r, n_max + 1))
    catalog = _catalog(r, k, n_max)
    if threads > 1 and len(ns) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            fam_futs = {
                n: pool.submit(exact_turan_family, r, n, k, False, cache_path)
                for n in ns
            }
            plain_futs = {
                n: pool.submit(exact_turan, r, n, s_main, k, False, cache_path)
                for n in ns
            }
            fam = {n: f.result() for n, f in fam_futs.items()}
            plain = {n: f.result() for n, f in plain_futs.items()}
    else:
        fam = {n: exact_turan_family(r, n, k, cache_path=cache_path) for n in ns}
        plain = {n: exact_turan(r, n, s_main, k, cache_path=cache_path) for n in ns}
    try:
        coeff: Optional[Fraction] = bound_coefficient(rule_for(r, k))
    except Unknown:
        coeff = None
    rows: list[SweepRow] = []
    ok_all = True
    for n in ns:
        fv = fam[n].value
        pv = plain[n].value
        le = fv <= pv
        if coeff is not None:
            bound_value: Optional[Fraction] = coeff * Fraction(n * (n - 1), 2)
            bound_ok: Optional[bool] = Fraction(fv) <= bound_value
        else:
            bound_value = None
            bound_ok = None
        cons: list[tuple[str, int, bool]] = []
        for label, g in catalog:
            if g.n == n:
                c_ok = len(g.edges) <= fv
                cons.append((label, len(g.edges), c_ok))
                if not c_ok:
                    ok_all = False
        if not le or bound_ok is False:
            ok_all = False
        rows.append(SweepRow(n, fv, pv, le, bound_value, bound_ok, tuple(cons)))
    return SweepReport(r, k, n_max, tuple(rows), ok_all)


def sweep_doc(report: SweepReport) -> dict:
    """JSON-ready view of a sweep report."""
    return {
        "r": report.r,
        "k": report.k,
        "n_max": report.n_max,
        "ok": report.ok,
        "rows": [
            {
                "n": row.n,
                "family_value": row.family_value,
                "plain_value": row.plain_value,
                "family_le_plain": row.family_le_plain,
                "bound_value": str(row.bound_value) if row.bound_value is not None else None,
                "bound_ok": row.bound_ok,
                "constructions": [
                    {"label": label, "edges": edges, "ok": c_ok}
                    for label, edges, c_ok in row.constructions
                ],
            }
            for row in report.rows
        ],
    }
