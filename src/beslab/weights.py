"""Exact rational pair weightings over cluster partitions.

Each rule assigns fractions to vertex pairs of a cluster so that the total
weight is large against the edge count (slack ``lambda >= 0``) while every
pair collects total weight at most 1 across the partition.  Together these
certify an edge bound of ``coefficient * n*(n-1)/2`` for the ambient graph.
Nothing is floated.  Weights are :class:`fractions.Fraction` values;
:func:`certify` sums them as integer numerators over D, the lcm of the
denominators the weights of that call carry, so every sum is exact and
each reported ``Fraction`` is built once from its integer numerator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .errors import Unknown
from .hypergraphs import Hypergraph, Pair, _mask_to_list, _require_free, claim_set
from .merging import STAGES, Cluster, Partition, _claim_walk, composition

# Base weight function on claim-index sets for the (3,6) rule.  h is the
# maximum of f over subsets, making it monotone; h(A) > 0 exactly when A
# meets {1, 2, 3}.
_F_TABLE: dict[frozenset[int], Fraction] = {
    frozenset({1}): Fraction(55, 61),
    frozenset({1, 2}): Fraction(1),
    frozenset({1, 3}): Fraction(1),
    frozenset({1, 4}): Fraction(55, 61),
    frozenset({1, 5}): Fraction(55, 61),
    frozenset({2}): Fraction(25, 61),
    frozenset({2, 3}): Fraction(36, 61),
    frozenset({2, 3, 4}): Fraction(1),
    frozenset({2, 4}): Fraction(1, 2),
    frozenset({3}): Fraction(6, 61),
    frozenset({3, 5}): Fraction(11, 61),
    frozenset({3, 4}): Fraction(1),
}

# h indexed by claim mask: bit i - 1 of the index stands for claim index i.
_H_TABLE: list[Fraction] = []
for _bits in range(32):
    _A = frozenset(i + 1 for i in range(5) if _bits >> i & 1)
    _best = Fraction(0)
    for _size in range(len(_A) + 1):
        for _sub in itertools.combinations(sorted(_A), _size):
            _val = _F_TABLE.get(frozenset(_sub))
            if _val is not None and _val > _best:
                _best = _val
    _H_TABLE.append(_best)
# The h indices (claims 1-4) that claim 5 raises: only {3}, to h({3, 5}).
_FIVE_RAISES = frozenset(b for b in range(16) if _H_TABLE[b | 16] != _H_TABLE[b])

_ONE = Fraction(1)
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class _Case:
    """One weighting case: the k it certifies, the merging stage its
    clusters come from, the uniformities it covers, its edge-bound
    coefficient at r, the scale in
    ``lambda = lambda_scale * (weight - edges / coefficient)``, and its
    weights, read from the cluster's state (``merging._make_state``).
    ``late(F, state)`` gives the pairs a cluster weights beyond its shadow
    (bit 1), whose pairs weigh 1, and the one weight they all get.  A case
    without ``late`` weights every pair by h of its claim set (the (3,6)
    rule)."""

    k: int
    stage: str
    applies: Callable[[int], bool]
    coefficient: Callable[[int], Fraction]
    lambda_scale: int
    late: Optional[Callable[[Cluster, dict[Pair, int]], tuple[Iterable[Pair], Fraction]]] = None


def _deficit_late(F: Cluster, state: dict[Pair, int]) -> tuple[Iterable[Pair], Fraction]:
    return [p for p in (_deficit_pair(F),) if p is not None], _ONE


def _bit_two(weight: Callable[[Cluster], Fraction]):
    """Late pairs: those with bit 2 but not bit 1, at ``weight(F)``.  Under
    m2plus bit 2 marks the 2+ pairs, under m12 the 2-claimed ones."""

    def late(F: Cluster, state: dict[Pair, int]) -> tuple[Iterable[Pair], Fraction]:
        return [p for p, b in state.items() if b & 6 == 4], weight(F)

    return late


# For each k the r = 3 case precedes the case for larger r: rule_for falls
# back to the last case of its k, whose check then names the rejected r.
# The late pairs: K5R3's deficit pair at 1, the 2+ pairs at 1 (K5High) or
# 1/2 (K7), and K6High's 2-not-1-claimed pairs at 1 when the cluster's
# composition is (2, 1, 1, 1) and 1/2 otherwise.
_CASES: dict[str, _Case] = {
    "K5R3": _Case(5, "m11", lambda r: r == 3, lambda r: Fraction(2, 5), 2, _deficit_late),
    "K5High": _Case(
        5, "m2plus", lambda r: r >= 4, lambda r: Fraction(2, r * r - r - 1), 2,
        _bit_two(lambda F: _ONE),
    ),
    "K63": _Case(6, "m3plus", lambda r: r == 3, lambda r: Fraction(61, 165), 1),
    "K6High": _Case(
        6, "m12", lambda r: r >= 4, lambda r: Fraction(2, r * (r - 1)), 2,
        _bit_two(lambda F: _ONE if composition(F) == (2, 1, 1, 1) else _HALF),
    ),
    "K7": _Case(
        7, "m2plus", lambda r: r >= 3, lambda r: Fraction(2, r * r - r - 1), 2,
        _bit_two(lambda F: _HALF),
    ),
}


@dataclass(frozen=True)
class WeightRule:
    """One of the five weighting cases, pinned to a uniformity and k."""

    case: str
    r: int
    k: int

    def __post_init__(self) -> None:
        info = _CASES.get(self.case)
        if info is None:
            raise ValueError(f"unknown weighting case {self.case!r}")
        if self.k != info.k:
            raise ValueError(f"{self.case} certifies k={info.k}, not k={self.k}")
        if not info.applies(self.r):
            raise ValueError(f"{self.case} does not apply at uniformity r={self.r}")

    @property
    def stage(self) -> str:
        return _CASES[self.case].stage


def rule_for(r: int, k: int) -> WeightRule:
    """The weighting rule that certifies parameter ``k`` at uniformity ``r``."""
    names = [name for name, info in _CASES.items() if info.k == k]
    if not names:
        raise Unknown(f"no weighting rule for (r, k) = ({r}, {k})")
    case = next((name for name in names if _CASES[name].applies(r)), names[-1])
    return WeightRule(case, r, k)


def _deficit_pair(F: Cluster) -> Optional[Pair]:
    """Extra unit-weight pair for 3- and 4-edge tree clusters (r = 3).

    The lexicographically smallest 2-not-1-claimed pair of the cluster whose
    claim set against the rest of the ambient graph misses both 1 and 2.
    Returns ``None`` when no pair qualifies.  Trees are decided by the tree
    lemma of :mod:`merging`: (r-2)*m + 2 vertices, pair-connected.

    Only the rest edges that meet p can claim p at index 1 or 2, so only
    those are handed to :func:`claim_set`.  Index 1 needs an edge e with
    p inside e.  Index 2 needs edges c, d with |c | d | p| <= 4, and an
    edge d that misses p already has |d | p| = r + 2 = 5.
    """
    m = len(F.edge_indices)
    if m not in (3, 4):
        return None
    part = F.part
    if part.vertex_count() != (part.r - 2) * m + 2 or composition(F) != (m,):
        return None
    G = F.ambient
    # 2-not-1-claimed: bit 2 without bit 1.  At r = 3 no two edges fit in
    # three vertices, so the walk finds nothing wide.
    state = _claim_walk(G, F.edge_indices, 2)
    candidates = sorted(p for p, b in state.items() if b & 6 == 4)
    own = set(F.edge_indices)
    for p in candidates:
        through = _mask_to_list(G.incidence[p.u] | G.incidence[p.v])
        cs = claim_set(G.subgraph(i for i in through if i not in own), p, 2)
        if 1 not in cs and 2 not in cs:
            return p
    return None


def _pair_weight_map(F: Cluster, rule: WeightRule) -> dict[Pair, Fraction]:
    """Nonzero pair weights of a cluster (support lies inside V(F)), read
    from its state, which holds its claims up to the stage's claim cap.

    The (3,6) rule wants claims 1-5, and its state (m3plus, cap 4) lists
    every pair with a claim in 1-4; the others have h(A) = 0, as A is at
    most {5}.  Claim 5 changes h only for the pairs whose claims in 1-4
    are {3} (``_FIVE_RAISES``), so size 5 is walked only when a cluster of
    at least 5 edges has such a pair.  The walk refuses no cluster of a
    graph free for k = 6: 5 edges on at most 6 vertices are a denser
    member of the family.
    """
    state = F.state
    late = _CASES[rule.case].late
    if late is None:  # h of the claim set
        raised = [p for p, b in state.items() if (b >> 1 & 15) in _FIVE_RAISES]
        if raised and len(F.edge_indices) >= 5:
            state = _claim_walk(F.ambient, F.edge_indices, 5, state, 5)
        return {p: h for p, b in state.items() if (h := _H_TABLE[b >> 1 & 31])}
    out = dict.fromkeys(state, _ONE)  # a key without bit 1 is a late pair
    pairs, weight = late(F, state)
    for p in pairs:
        out[p] = weight
    return out


def bound_coefficient(rule: WeightRule) -> Fraction:
    return _CASES[rule.case].coefficient(rule.r)


@dataclass(frozen=True)
class WeightReport:
    """Outcome of :func:`certify`.

    ``per_cluster`` maps cluster id to (weight, lambda); ``per_pair`` holds
    the accumulated totals of all nonzero pairs.  ``certified`` holds iff
    every lambda is non-negative, every pair total is at most 1, and the
    edge count obeys ``edge_bound = bound_coefficient * n*(n-1)/2``.
    """

    rule: WeightRule
    per_cluster: dict[int, tuple[Fraction, Fraction]]
    per_pair: dict[Pair, Fraction]
    bound_coefficient: Fraction
    edge_bound: Fraction
    certified: bool
    partition: Partition


def certify(G: Hypergraph, rule: WeightRule) -> WeightReport:
    """Run the full pipeline: freeness, partition, weights, bound.

    Raises :class:`NotFree` (with witness) when ``G`` contains a forbidden
    configuration; the weighting is only meaningful on free graphs.
    """
    if G.r != rule.r:
        raise ValueError(f"rule {rule.case} is for r={rule.r}, graph has r={G.r}")
    _require_free(G, rule.k)
    part = STAGES[rule.stage](G)
    maps = [(c, _pair_weight_map(c, rule)) for c in part.clusters]
    D = math.lcm(*{val.denominator for _, pw in maps for val in pw.values()})
    # lambda = scale * (W/D - e*b/a) for coefficient a/b and integer weight W
    coeff = bound_coefficient(rule)
    a, b = coeff.numerator, coeff.denominator
    scale = _CASES[rule.case].lambda_scale
    certified = True
    per_cluster: dict[int, tuple[Fraction, Fraction]] = {}
    built: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}  # one per (W, slack)
    totals: dict[Pair, int] = {}
    for c, pw in maps:
        W = 0
        for p, val in pw.items():
            num = val.numerator * (D // val.denominator)  # D is a multiple: exact
            W += num
            totals[p] = totals.get(p, 0) + num
        slack = W * a - len(c.edge_indices) * b * D
        certified = certified and slack >= 0
        both = built.get((W, slack))
        if both is None:
            both = built[W, slack] = (Fraction(W, D), Fraction(scale * slack, D * a))
        per_cluster[c.id] = both
    certified = certified and all(t <= D for t in totals.values())
    shared = {t: Fraction(t, D) for t in set(totals.values())}
    per_pair = {p: shared[t] for p, t in totals.items()}
    edge_bound = coeff * Fraction(G.n * (G.n - 1), 2)
    certified = certified and len(G.edges) <= edge_bound
    return WeightReport(
        rule=rule,
        per_cluster=per_cluster,
        per_pair=per_pair,
        bound_coefficient=coeff,
        edge_bound=edge_bound,
        certified=certified,
        partition=part,
    )


def limit_table(r: int, k: int) -> Fraction:
    """Exact limiting edge densities, normalized by ``n^2``.

    Raises :class:`Unknown` outside the table.
    """
    if r < 3 or k < 2:
        raise Unknown(f"no known limit for (r, k) = ({r}, {k})")
    if k == 2:
        return Fraction(1, r * r - r)
    if k == 5 or k == 7:
        return Fraction(1, r * r - r - 1)
    if r == 3:
        if k == 3:
            return Fraction(1, 5)
        if k == 4:
            return Fraction(7, 36)
        if k == 6:
            return Fraction(61, 330)
    if r >= 4 and k == 6:
        return Fraction(1, r * r - r)
    raise Unknown(f"no known limit for (r, k) = ({r}, {k})")


def report_doc(report: WeightReport) -> dict:
    """Serialize a weight report with reduced-fraction strings."""
    clusters = {c.id: c for c in report.partition.clusters}
    return {
        "rule": {"case": report.rule.case, "r": report.rule.r, "k": report.rule.k},
        "stage": report.partition.stage,
        "edge_count": len(report.partition.ambient.edges),
        "n": report.partition.ambient.n,
        "bound_coefficient": str(report.bound_coefficient),
        "edge_bound": str(report.edge_bound),
        "certified": report.certified,
        "clusters": [
            {
                "id": cid,
                "edges": list(clusters[cid].edge_indices),
                "weight": str(w),
                "lambda": str(lam),
            }
            for cid, (w, lam) in sorted(report.per_cluster.items())
        ],
        "pair_totals": [
            {"pair": [p.u, p.v], "total": str(total)}
            for p, total in sorted(report.per_pair.items())
        ],
    }
