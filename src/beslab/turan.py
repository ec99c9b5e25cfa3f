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
from typing import Iterator, Optional

from .constructions import diamond_star, single_edge
from .errors import TooLarge, Unknown
from .hypergraphs import (
    ConfigQuery,
    Hypergraph,
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


class _Kills:
    """Kill masks over the colex candidates of one search.

    A live set is an int bitmask over candidate indices.  For a pair ban
    ``(need, s)`` (a ban of k edges on at most s vertices, need = k - 2), a
    node carries, for t = 0..need, a tuple of the distinct vertex unions of
    t chosen edges that fit in s vertices.  Choosing j then kills every
    candidate h with |U + j + h| <= s for a carried need-union U: the union
    over U of ``fits(U | j, s)``, the memoised bitmask of the candidates h
    with |V + h| <= s.
    """

    def __init__(self, r: int, n: int, queries: list[ConfigQuery]) -> None:
        self.cands = list(_colex_iter(n, r))
        self.cmasks = [_mask(e) for e in self.cands]
        # fits(V, s) is tables[s][V].
        self.tables: dict[int, dict[int, int]] = {}
        bans = [(q.edge_count, q.max_vertices) for q in queries]
        # Two distinct candidates span at least r + 1 vertices, so a pair ban
        # on fewer vertices never kills.
        self.pair_bans = [
            (k - 2, s, self.tables.setdefault(s, {})) for k, s in bans if k >= 2 and s > r
        ]
        # A ban of one edge kills every candidate that fits alone.
        alone = 0
        for k, s in bans:
            if k == 1:
                alone |= self._fits(0, s)
        self.root_live = ((1 << len(self.cands)) - 1) & ~alone
        # The unions of no chosen edge: the empty union at t = 0 only.
        self.root_unions = tuple(((0,),) + ((),) * need for need, _, _ in self.pair_bans)

    def _fits(self, v: int, s: int) -> int:
        """Bitmask of the candidates h with |v + h| <= s, memoised per s."""
        table = self.tables.setdefault(s, {})
        out = table.get(v)
        if out is None:
            out = 0
            for h, mh in enumerate(self.cmasks):
                if (v | mh).bit_count() <= s:
                    out |= 1 << h
            table[v] = out
        return out

    def kill(self, unions: tuple, mj: int) -> int:
        """The candidates h for which some ban finds k - 2 chosen edges
        spanning at most s vertices together with the new edge ``mj`` and h."""
        out = 0
        for (need, s, table), levels in zip(self.pair_bans, unions):
            for u in levels[need]:
                v = u | mj
                if v.bit_count() <= s:
                    f = table.get(v)
                    if f is None:
                        f = self._fits(v, s)
                    out |= f
        return out

    def extend(self, unions: tuple, mj: int) -> tuple:
        """The carried unions once the edge ``mj`` is chosen."""
        out = []
        for (need, s, _), levels in zip(self.pair_bans, unions):
            grown = [levels[0]]
            for t in range(1, need + 1):
                new = {v for u in levels[t - 1] if (v := u | mj).bit_count() <= s}
                new.difference_update(levels[t])
                grown.append(levels[t] + tuple(new) if new else levels[t])
            out.append(tuple(grown))
        return tuple(out)


def _greedy(r: int, n: int, queries: list[ConfigQuery]) -> TuranResult:
    """The leftmost descent of :func:`_branch_and_bound`: each step keeps the
    first live candidate, which is the first colex candidate that keeps the
    edge set admissible."""
    t0 = time.perf_counter()
    ks = _Kills(r, n, queries)
    live, unions = ks.root_live, ks.root_unions
    edges: list[tuple[int, ...]] = []
    while live:
        low = live & -live
        j = low.bit_length() - 1
        mj = ks.cmasks[j]
        live = (live ^ low) & ~ks.kill(unions, mj)
        unions = ks.extend(unions, mj)
        edges.append(ks.cands[j])
    return TuranResult(len(edges), build(r, n, edges), 0, time.perf_counter() - t0)


def _branch_and_bound(
    r: int, n: int, queries: list[ConfigQuery]
) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """Maximize the edge sets over all r-subsets of range(n) in which no
    query finds a configuration.

    Candidates are taken in colex order; only sets containing the first
    candidate are branched on (relabeling vertices maps any optimum to one
    that contains it), with the empty set as the value-0 baseline.

    Each node, an admissible set C, carries its live set: the bitmask of
    the later candidates h with C + {h} admissible.  Kill-mask lemma: when
    a live j is chosen, a later live h stays live in the child iff no query
    of k >= 2 edges on at most s vertices finds k - 2 edges of C spanning,
    together with j and h, at most s vertices; every other configuration
    in C + {j, h} lies in C + {j} or in C + {h}, both admissible already.
    So the child's live set is the parent's later live candidates minus
    the union, over the carried unions U of k - 2 edges of C that fit in s,
    of ``fits(U | j, s)`` (see :class:`_Kills`).  A child extends the
    carried unions by j only when it branches.

    The children are the live candidates in colex order, and the best value
    is updated at node entry only when strictly beaten, so the witness is
    the lexicographically first optimum.  The bound ``size + |live from
    j on|`` counts only live candidates; it cuts a branch only when no set
    below it can beat the best value, so the answer matches the search
    without it.  ``nodes`` counts the nodes entered.
    """
    ks = _Kills(r, n, queries)
    cmasks, kill, extend = ks.cmasks, ks.kill, ks.extend
    best_val = 0
    best_idx: tuple[int, ...] = ()
    nodes = 0
    chosen_idx: list[int] = []

    def dfs(live: int, parent_unions: tuple, mj: int) -> None:
        nonlocal best_val, best_idx, nodes
        nodes += 1
        size = len(chosen_idx)
        if size > best_val:
            best_val = size
            best_idx = tuple(chosen_idx)
        if size + live.bit_count() <= best_val:
            return
        unions = extend(parent_unions, mj)
        while size + live.bit_count() > best_val:
            low = live & -live
            live ^= low
            j = low.bit_length() - 1
            mj = cmasks[j]
            chosen_idx.append(j)
            dfs(live & ~kill(unions, mj), unions, mj)
            chosen_idx.pop()

    # Lone edges are all alike: either none is admissible or candidate 0 is.
    if ks.root_live:
        m0 = cmasks[0]
        chosen_idx.append(0)
        dfs(ks.root_live & ~1 & ~kill(ks.root_unions, m0), ks.root_unions, m0)
    # dfs refers to itself through its closure; emptying that cell frees the
    # memo tables now rather than at the next cyclic garbage collection.
    del dfs
    return best_val, tuple(ks.cands[i] for i in best_idx), nodes


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
    if n > size_cap(r) and not allow_large:
        raise TooLarge(
            f"exact search for n={n} exceeds the n<={size_cap(r)} cap for r={r}; "
            "pass allow_large to force it",
            best=_greedy(r, n, queries),
        )
    value, edges, nodes = _branch_and_bound(r, n, queries)
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
