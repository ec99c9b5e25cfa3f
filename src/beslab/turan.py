"""Exact extremal numbers via branch and bound.

One oracle maximizes the number of edges of an r-uniform graph on n
labeled vertices that matches no configuration query in a list.
:func:`exact_turan` passes the single (edge_count, max_vertices) ban and
:func:`exact_turan_family` the full banned family for a given k.  Small n
only; results carry a deterministic witness (the lexicographically first
optimum with respect to the search's candidate order: the r-subsets by
largest vertex, then lexicographically) and can be cached in a JSON-lines
file.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .constructions import diamond_star, single_edge
from .errors import TooLarge, Unknown
from .hypergraphs import (
    ConfigQuery,
    Hypergraph,
    _mask,
    _meet,
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
    branch-and-bound nodes (0 for closed-form answers).
    """

    value: int
    witness: "Hypergraph"
    nodes_explored: int
    elapsed: float


def _subsets_by_top(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """All r-subsets of range(n), ordered by largest vertex, then
    lexicographically: (0, 3, 4) comes before (1, 2, 4).  This is not colex
    order, which puts (1, 2, 4) first."""
    for top in range(r - 1, n):
        for rest in itertools.combinations(range(top), r - 1):
            yield rest + (top,)


def _validate(r: int, n: int, k: int) -> None:
    if r < 2:
        raise ValueError(f"uniformity must be at least 2, got {r}")
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if k < 1:
        raise ValueError(f"edge budget must be at least 1, got {k}")


class _Kills:
    """Kill masks over the candidates of one search, the r-subsets in the
    order of :func:`_subsets_by_top`.

    A live set is an int bitmask over candidate indices.  For a pair ban
    ``(need, s)`` (a ban of k edges on at most s vertices, need = k - 2), a
    node carries, for t = 0..need, a frozenset of the vertex unions of
    t chosen edges that fit in s vertices.  Choosing j then kills every
    candidate h with |U + j + h| <= s for a carried need-union U: the union
    over U of ``fits(U | j, s)``, the memoised bitmask of the candidates h
    with |V + h| <= s.  As |V + h| = |V| + r - |V & h|, those are the
    candidates that meet V in at least r - s + |V| vertices, read off the
    candidate bitmask of each vertex of V.
    """

    def __init__(self, r: int, n: int, queries: list[ConfigQuery]) -> None:
        self.r = r
        self.cands = list(_subsets_by_top(n, r))
        self.cmasks = [_mask(e) for e in self.cands]
        self.full = (1 << len(self.cands)) - 1
        # incidence[v]: the candidates through vertex v.
        self.incidence = incidence = [0] * n
        for h, e in enumerate(self.cands):
            bit = 1 << h
            for v in e:
                incidence[v] |= bit
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
        self.root_live = self.full & ~alone
        # The unions of no chosen edge: the empty union at t = 0 only.
        self.root_unions = tuple(
            (frozenset({0}),) + (frozenset(),) * need for need, _, _ in self.pair_bans
        )

    def _fits(self, v: int, s: int) -> int:
        """Bitmask of the candidates h with |v + h| <= s, memoised per s."""
        table = self.tables.setdefault(s, {})
        out = table.get(v)
        if out is None:
            need = self.r - s + v.bit_count()
            if need <= 0:
                out = self.full
            else:
                meets = [self.full] + [0] * need
                _meet(meets, self.incidence, v)
                out = meets[need]
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
                grown.append(levels[t].union(new) if new else levels[t])
            out.append(tuple(grown))
        return tuple(out)


def _pigeonhole(r: int, n: int, queries: list[ConfigQuery]) -> int:
    """C(n, r), lowered to k - 1 for every query (k, s) with n <= s: any k
    distinct edges on n <= s vertices form that query's configuration.
    For one query with n <= s this is the answer: no k - 1 edges form it."""
    out = math.comb(n, r)
    for q in queries:
        if n <= q.max_vertices:
            out = min(out, q.edge_count - 1)
    return out


def _branch_and_bound(
    ks: _Kills, n: int, upper: int
) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """Maximize the edge sets over all r-subsets of range(n) in which no
    query of the table ``ks`` finds a configuration.  The table may be
    built for more vertices; the search reads only its first C(n, r)
    candidates (the prefix lemma of :func:`_chain`).

    Candidates are taken in the order of :func:`_subsets_by_top`, and the
    children of a node, an admissible set C, are later candidates, so the
    vertices above the top vertex M of C (M = -1 for the empty set) are
    untouched.  Symmetry rule: a child j is branched on only if its
    vertices above M are exactly M + 1, ..., M + h for some h >= 0; any
    other live candidate is skipped.  So every node's chosen set spans
    exactly {0, ..., M}, and the root's only child is candidate 0.  No
    optimum is lost, and neither is the lexicographically first one: in a
    set with an edge that breaks the rule, swap the top vertex of the first
    such edge with an unused vertex below it; the relabeled set is just as
    admissible and lexicographically earlier.  So the first relabeling of
    any admissible set, in particular the lexicographically first optimum,
    obeys the rule at every edge.

    Each node carries its live set: the bitmask of the later candidates h
    with C + {h} admissible.  Kill-mask lemma: when a live j is chosen, a
    later live h stays live in the child iff no query of k >= 2 edges on
    at most s vertices finds k - 2 edges of C spanning, together with j and
    h, at most s vertices; every other configuration in C + {j, h} lies in
    C + {j} or in C + {h}, both admissible already.  So the child's live
    set is the parent's later live candidates minus the union, over the
    carried unions U of k - 2 edges of C that fit in s, of
    ``fits(U | j, s)`` (see :class:`_Kills`).  A child extends the carried
    unions by j only when it branches.

    The children are visited in candidate order, and the best value is
    updated at node entry only when strictly beaten, so the witness is the
    lexicographically first optimum.  The bound ``size + |live from j on|``
    counts only live candidates; it cuts a branch only when no set below
    it can beat the best value, so the answer matches the search without
    it.  ``nodes`` counts the nodes entered below the empty root.

    ``upper`` bounds the answer from above (C(n, r) bounds nothing; the
    bounds proved in :func:`_chain` are the ones passed).  Upper-bound
    lemma: the cuts become min(size - 1 + |live|, upper) <= best and
    min(size + |child live|, upper) <= best.  While
    best < upper they are the cuts above, so the search enters the nodes
    of the search with upper = C(n, r), in order, up to the first set of
    ``upper`` edges; as upper >= the answer, that set is the first optimum
    either search enters, so both return it.  Then every test fails and
    the search unwinds.  The search never prunes with a weighting rule's
    edge bound ``bound_coefficient * C(n, 2)``: the sweep checks the exact
    values against it, and a pruned value could never show it violated.
    """
    cmasks, kill, extend = ks.cmasks, ks.kill, ks.extend
    best_val = 0
    best_idx: tuple[int, ...] = ()
    nodes = 0
    chosen_idx: list[int] = []

    def dfs(live: int, unions: tuple, top: int) -> None:
        """Branch below the chosen set, whose carried unions are ``unions``
        and whose top vertex is ``top``."""
        nonlocal best_val, best_idx, nodes
        size = len(chosen_idx) + 1  # the size of each child
        while best_val < upper and size - 1 + live.bit_count() > best_val:
            low = live & -live
            live ^= low
            j = low.bit_length() - 1
            mj = cmasks[j]
            hi = mj >> (top + 1)
            if hi & (hi + 1):
                continue
            chosen_idx.append(j)
            nodes += 1
            if size > best_val:
                best_val = size
                best_idx = tuple(chosen_idx)
            child = live & ~kill(unions, mj)
            if best_val < upper and size + child.bit_count() > best_val:
                dfs(child, extend(unions, mj), mj.bit_length() - 1)
            chosen_idx.pop()

    dfs(ks.root_live & ((1 << math.comb(n, ks.r)) - 1), ks.root_unions, -1)
    # dfs refers to itself through its closure; emptying that cell frees the
    # closure now rather than at the next cyclic garbage collection.
    del dfs
    return best_val, tuple(ks.cands[i] for i in best_idx), nodes


def _chain(
    r: int, n: int, queries: list[ConfigQuery]
) -> Iterator[tuple[int, int, int, tuple[tuple[int, ...], ...], int]]:
    """Rows (t, bound, value, first optimum, nodes so far) of the searches
    for f(t), t = min(r, n), ..., n, run bottom-up under a proved bound.

    Each row's bound is :func:`_pigeonhole`, and for t > r also the
    averaging bound from the row before (Katona, Nemetz and Simonovits,
    1964): G - v is admissible on t - 1 vertices, as every query asks for
    a subgraph, and each edge survives the t - r deletions of the vertices
    outside it, so (t - r)|E(G)| = sum over v of |E(G - v)| <= t f(t-1),
    and f(t) <= floor(t f(t-1) / (t - r)).  ``nodes`` counts the nodes of
    every search up to row t, so a row reads the same however far the
    chain runs.  The chain never reads the file cache: a cached value that
    is too small would make the next bound too tight, and a hit is
    re-checked only for "at least".

    Every row searches one :class:`_Kills` table built at n, whose fits
    memo thus serves them all.  Prefix lemma: for t <= n the candidates of
    ``_subsets_by_top(t, r)`` are exactly the first C(t, r) candidates of
    ``_subsets_by_top(n, r)``, in the same order, since both list the tops
    r - 1, r, ... in turn and each top's candidates do not depend on the
    vertex count.  So row t sees the candidates of a table built at t
    under the same indices and masks.  Whether a candidate is killed alone
    (r <= s for a ban of one edge) depends on the candidate only, so row
    t's root live set is the table's masked to the prefix.  A kill mask
    ``fits(V, s)`` agrees on the prefix with the one a table built at t
    gives, as |V + h| <= s depends on V and h only; its bits beyond the
    prefix never matter, as every live set of the row lies within its
    root's and a child's live set is the parent's ``live & ~kill``.  The
    carried unions and the symmetry rule read only vertex masks.  So each
    row enters the same nodes, in the same order, and returns the same
    value and witness as a search over a table of its own.
    """
    ks = _Kills(r, n, queries)
    nodes = value = 0
    for t in range(min(r, n), n + 1):
        upper = _pigeonhole(r, t, queries)
        if t > r:
            upper = min(upper, t * value // (t - r))
        value, edges, entered = _branch_and_bound(ks, t, upper)
        nodes += entered
        yield t, upper, value, edges, nodes


# ---------------------------------------------------------------------------
# JSON-lines result cache


def _cache_load(path: str, keys: set) -> dict:
    """{key: (value, witness, nodes)} of the records stored under ``keys``.

    Only lines whose five key fields form one of ``keys`` have their
    witness parsed.  Lines that are not well-formed records are skipped;
    for each key the last well-formed matching line wins.
    """
    hits: dict = {}
    try:
        fh = open(path, "r", encoding="utf-8", errors="replace")
    except OSError:
        return hits
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                key = (obj["kind"], obj["r"], obj["n"], obj["s"], obj["k"])
                if key not in keys:
                    continue
                hits[key] = (int(obj["value"]), from_text(obj["witness"]), int(obj["nodes"]))
            # AttributeError: a witness not a string; OverflowError: 1e400;
            # TypeError: a key field that cannot be hashed.
            except (AttributeError, KeyError, OverflowError, TypeError, ValueError):
                continue
    return hits


def _cache_append(path: str, records: list[tuple]) -> None:
    """Append one line per (key, value, witness, nodes) record, in order,
    through one open file; each line is flushed, so it reaches the file in
    a write of its own."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for key, value, witness, nodes in records:
            obj = dict(zip(("kind", "r", "n", "s", "k"), key))
            obj.update(value=value, witness=to_text(witness), nodes=nodes)
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
            fh.flush()


# ---------------------------------------------------------------------------
# The oracle and its two front ends


def _proves(r: int, n: int, queries: list[ConfigQuery], value: int, witness: Hypergraph) -> bool:
    """Is ``witness`` an r-uniform graph on n vertices with ``value`` edges
    in which no query finds a configuration?"""
    return (witness.r, witness.n, len(witness.edges)) == (r, n, value) and all(
        find_configuration(witness, q) is None for q in queries
    )


def _search(r: int, ns: list[int], queries: list[ConfigQuery]) -> dict[int, tuple]:
    """{n: (value, witness, nodes)} for the n in ``ns``, from one
    :func:`_chain` up to the largest, each witness re-checked."""
    out: dict[int, tuple] = {}
    for t, _, value, edges, nodes in _chain(r, max(ns), queries) if ns else ():
        if t in ns:
            witness = build(r, t, edges)
            if not _proves(r, t, queries, value, witness):
                raise RuntimeError("internal error: extremal witness fails its own ban")
            out[t] = (value, witness, nodes)
    return out


def _exact(
    jobs: list[tuple[str, int, list[int], list[ConfigQuery]]],
    allow_large: bool,
    cache_path: Optional[str],
    threads: int = 1,
) -> list[dict[int, tuple]]:
    """For each job (kind, r, ns, queries): {n: (value, witness, nodes)},
    the most edges of an r-uniform graph on n vertices matching none of
    ``queries``, whose last query keys the cache.  All lookups come first,
    one cache read per job: a hit counts if :func:`_proves` accepts it, and
    a miss over :func:`size_cap` without ``allow_large`` raises
    :class:`TooLarge` before any search.  Each job's misses then come from
    one :func:`_search`, the jobs in worker processes when ``threads > 1``
    and each has misses, and are appended job by job in ascending n, all
    through one :func:`_cache_append`."""
    found, todo, keys = [], [], []
    for kind, r, ns, queries in jobs:
        main = queries[-1]
        keys.append({n: (kind, r, n, main.max_vertices, main.edge_count) for n in ns})
        stored = _cache_load(cache_path, set(keys[-1].values())) if cache_path and ns else {}
        hits = {}
        for n in ns:
            hit = stored.get(keys[-1][n])
            if hit is not None and _proves(r, n, queries, hit[0], hit[1]):
                hits[n] = hit
            elif n > size_cap(r) and not allow_large:
                raise TooLarge(
                    f"exact search for n={n} exceeds the n<={size_cap(r)} cap for r={r}; "
                    "pass allow_large to force it"
                )
        found.append(hits)
        todo.append((r, [n for n in ns if n not in hits], queries))
    if threads > 1 and all(missing for _, missing, _ in todo):
        # Imported here: only a threaded sweep uses it, and loading it slows every start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(todo)) as pool:
            searched = list(pool.map(_search, *zip(*todo)))
    else:
        searched = [_search(*job) for job in todo]
    records = [(key[n], *row) for key, rows in zip(keys, searched) for n, row in rows.items()]
    if cache_path and records:
        _cache_append(cache_path, records)
    return [{**hits, **rows} for hits, rows in zip(found, searched)]


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
    ``allow_large`` is set, raising :class:`TooLarge` before any work.
    """
    t0 = time.perf_counter()
    _validate(r, n, k)
    if s < 1:
        raise ValueError(f"vertex budget must be at least 1, got {s}")
    if n <= s:
        value = _pigeonhole(r, n, [ConfigQuery(k, s)])
        witness = build(r, n, itertools.islice(_subsets_by_top(n, r), value))
        return TuranResult(value, witness, 0, time.perf_counter() - t0)
    rows = _exact([("plain", r, [n], [ConfigQuery(k, s)])], allow_large, cache_path)[0]
    return TuranResult(*rows[n], time.perf_counter() - t0)


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
    :func:`size_cap` (or ``allow_large`` is set).  It stops at the proved
    upper bound of :func:`_chain`, with f(r), ..., f(n-1) searched first,
    and ``nodes_explored`` counts the nodes of those smaller searches too.
    """
    t0 = time.perf_counter()
    _validate(r, n, k)
    if k < 2:
        raise ValueError(f"family needs k >= 2, got {k}")
    rows = _exact([("family", r, [n], family_queries(r, k))], allow_large, cache_path)[0]
    return TuranResult(*rows[n], time.perf_counter() - t0)


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
    With ``threads > 1`` the family and plain searches run in two processes.
    """
    _validate(r, n_max, k)
    if k < 2:
        raise ValueError(f"family needs k >= 2, got {k}")
    if r < 3:
        raise ValueError(f"uniformity must be at least 3, got {r}")
    queries = family_queries(r, k)
    main = queries[-1]
    ns = list(range(r, n_max + 1))
    # Plain rows with n <= s are closed form: their pigeonhole bound.
    plain_ns = [n for n in ns if n > main.max_vertices]
    fam, plain = _exact(
        [("family", r, ns, queries), ("plain", r, plain_ns, [main])], False, cache_path, threads
    )
    # After the searches, so that a refusal checks no catalog graph first.
    catalog = _catalog(r, k, n_max)
    try:
        coeff: Optional[Fraction] = bound_coefficient(rule_for(r, k))
    except Unknown:
        coeff = None
    rows: list[SweepRow] = []
    for n in ns:
        fv = fam[n][0]
        pv = plain[n][0] if n in plain else _pigeonhole(r, n, [main])
        bound_value = None if coeff is None else coeff * Fraction(n * (n - 1), 2)
        bound_ok = None if bound_value is None else fv <= bound_value
        cons = tuple((label, len(g.edges), len(g.edges) <= fv) for label, g in catalog if g.n == n)
        rows.append(SweepRow(n, fv, pv, fv <= pv, bound_value, bound_ok, cons))
    ok_all = all(
        row.family_le_plain and row.bound_ok is not False and all(c[2] for c in row.constructions)
        for row in rows
    )
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
