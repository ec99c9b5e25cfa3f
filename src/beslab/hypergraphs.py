"""r-uniform hypergraphs: shadows, claim sets, configuration search, girth,
defect, and tree/path classification.

Vertices are dense integers ``0..n-1`` so vertex sets fit in int bitmasks;
all values are immutable after construction.  A pair ``uv`` is *i-claimed*
by a subgraph ``F`` when some ``i`` distinct edges of ``F`` together with
``{u, v}`` span at most ``r*i - 2*i + 2`` vertices.  Claim index 0 always
holds (zero edges span just the pair).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import DuplicateEdge, VertexOutOfRange, WrongArity


class Pair(NamedTuple):
    """An unordered vertex pair stored with ``u < v``."""

    u: int
    v: int

    @staticmethod
    def of(a: int, b: int) -> "Pair":
        if a == b:
            raise ValueError(f"a pair needs two distinct vertices, got {a} twice")
        return Pair(a, b) if a < b else Pair(b, a)


class ConfigQuery(NamedTuple):
    """Ask for ``edge_count`` distinct edges spanning at most ``max_vertices``."""

    edge_count: int
    max_vertices: int


@dataclass(frozen=True)
class ClaimSet:
    """Which claim indices ``0..cap`` hold for a fixed pair and subgraph."""

    cap: int
    members: frozenset[int]

    def __contains__(self, i: int) -> bool:
        return i in self.members


class FreenessResult(NamedTuple):
    """Outcome of a configuration-family check.

    When ``free`` is false, ``witness`` holds edge indices forming the
    configuration and ``query`` the (edge_count, max_vertices) it satisfies.
    """

    free: bool
    witness: Optional[tuple[int, ...]]
    query: Optional[ConfigQuery]

    def __bool__(self) -> bool:
        return self.free


class _AboveCapType:
    """Singleton returned by :func:`girth` when no short configuration exists."""

    _instance: Optional["_AboveCapType"] = None

    def __new__(cls) -> "_AboveCapType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "AboveCap"


ABOVE_CAP = _AboveCapType()


@dataclass(frozen=True)
class TreeClass:
    """Result of :func:`classify_tree`: not a tree, an i-tree, or an i-path."""

    kind: str  # "not_tree" | "tree" | "path"
    size: Optional[int] = None

    @staticmethod
    def tree(i: int) -> "TreeClass":
        return TreeClass("tree", i)

    @staticmethod
    def path(i: int) -> "TreeClass":
        return TreeClass("path", i)

    @property
    def is_tree(self) -> bool:
        """Paths count as trees; ``tree`` kind means tree-but-not-path."""
        return self.kind in ("tree", "path")

    @property
    def is_path(self) -> bool:
        return self.kind == "path"


NOT_TREE = TreeClass("not_tree")


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on ``n`` vertices with canonically sorted edges.

    ``edges`` is a lexicographically sorted tuple of strictly increasing
    r-tuples; equality and hashing are structural.
    """

    r: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        out = []
        for e in self.edges:
            m = 0
            for v in e:
                m |= 1 << v
            out.append(m)
        return tuple(out)

    @cached_property
    def vertex_mask(self) -> int:
        m = 0
        for em in self.edge_masks:
            m |= em
        return m

    def vertices(self) -> list[int]:
        """Sorted vertex ids that appear in at least one edge."""
        return _mask_to_list(self.vertex_mask)

    def vertex_count(self) -> int:
        return self.vertex_mask.bit_count()

    def subgraph(self, indices: Iterable[int]) -> "Hypergraph":
        """The sub-hypergraph on the given edge indices (same r and n)."""
        idx = sorted(set(indices))
        return Hypergraph(self.r, self.n, tuple(self.edges[i] for i in idx))


def _mask_to_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def build(r: int, n: int, raw_edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Validate and canonicalize edges into a :class:`Hypergraph`.

    Raises :class:`WrongArity` for an edge without exactly ``r`` distinct
    vertices, :class:`VertexOutOfRange` for ids outside ``[0, n)``, and
    :class:`DuplicateEdge` when the same vertex set appears twice.
    """
    if r < 2:
        raise WrongArity(f"uniformity must be at least 2, got {r}")
    if n < 0:
        raise VertexOutOfRange(f"vertex count must be non-negative, got {n}")
    seen: set[tuple[int, ...]] = set()
    edges: list[tuple[int, ...]] = []
    for raw in raw_edges:
        vs = list(raw)
        distinct = sorted(set(vs))
        if len(vs) != len(distinct) or len(distinct) != r:
            raise WrongArity(
                f"edge {sorted(vs)!r} does not have exactly {r} distinct vertices"
            )
        if distinct[0] < 0 or distinct[-1] >= n:
            raise VertexOutOfRange(f"edge {distinct!r} has vertices outside [0, {n})")
        e = tuple(distinct)
        if e in seen:
            raise DuplicateEdge(f"edge {e!r} appears more than once")
        seen.add(e)
        edges.append(e)
    edges.sort()
    return Hypergraph(r=r, n=n, edges=tuple(edges))


def shadow(F: Hypergraph) -> set[Pair]:
    """All vertex pairs contained in some single edge of ``F``."""
    out: set[Pair] = set()
    for e in F.edges:
        for a, b in itertools.combinations(e, 2):
            out.add(Pair(a, b))
    return out


# ---------------------------------------------------------------------------
# Claim sets


def claim_set(F: Hypergraph, p: Pair, cap: int) -> ClaimSet:
    """Exact claim set of pair ``p`` against ``F`` for indices ``0..cap``.

    ``p``'s vertices need not lie in ``V(F)``; 0 is always a member.
    """
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    members = {0}
    r, m = F.r, len(F.edges)
    eff = min(cap, m)
    if eff >= 1:
        base_mask = 0
        extra = 0
        for w in (p.u, p.v):
            if 0 <= w < F.n:
                base_mask |= 1 << w
            else:
                extra += 1
        masks = F.edge_masks
        budget = (r - 2) * eff + 2 - extra
        found = 0

        def rec(start: int, union: int, size: int) -> None:
            nonlocal found
            nxt = size + 1
            for j in range(start, m):
                u2 = union | masks[j]
                cnt = u2.bit_count()
                if cnt > budget:
                    continue
                if cnt <= (r - 2) * nxt + 2 - extra:
                    found |= 1 << nxt
                if nxt < eff:
                    rec(j + 1, u2, nxt)

        rec(0, base_mask, 0)
        members.update(i for i in range(1, eff + 1) if found >> i & 1)
    return ClaimSet(cap=cap, members=frozenset(members))


@dataclass
class ClaimProfile:
    """Claim evidence for every pair at once, bucketed by how widely it applies.

    Bit ``i`` (i >= 1) set means the pair is i-claimed.  ``all_bits`` holds
    for every pair of vertex ids whatsoever; ``vertex_bits[v]`` for every
    pair with ``v`` as one endpoint; ``pair_bits[p]`` for exactly ``p``.
    """

    r: int
    n: int
    cap: int
    edge_count: int
    all_bits: int
    vertex_bits: dict[int, int]
    pair_bits: dict[Pair, int]

    def bits(self, u: int, v: int) -> int:
        b = self.all_bits | self.vertex_bits.get(u, 0) | self.vertex_bits.get(v, 0)
        key = Pair(u, v) if u < v else Pair(v, u)
        return b | self.pair_bits.get(key, 0)

    def claim_members(self, u: int, v: int) -> frozenset[int]:
        b = self.bits(u, v)
        return frozenset({0} | {i for i in range(1, self.cap + 1) if b >> i & 1})

    @property
    def has_wide_evidence(self) -> bool:
        """True when some claim applies beyond explicitly listed pairs."""
        return bool(self.all_bits) or bool(self.vertex_bits)


def claim_profile(F: Hypergraph, cap: int) -> ClaimProfile:
    """Scan all edge subsets of size <= cap once, bucketing claims for reuse.

    A subset ``S`` of size ``i`` with union ``U`` claims: every pair when
    ``|U| <= (r-2)i``, every pair touching ``U`` when ``|U| = (r-2)i + 1``,
    and exactly the pairs inside ``U`` when ``|U| = (r-2)i + 2``.  Subsets
    with ``|U| > (r-2)*cap + 2`` cannot contribute at any reachable size.
    """
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    r, m = F.r, len(F.edges)
    eff = min(cap, m)
    all_bits = 0
    vertex_bits: dict[int, int] = {}
    pair_bits: dict[Pair, int] = {}
    if eff >= 1:
        masks = F.edge_masks
        budget = (r - 2) * eff + 2

        def rec(start: int, union: int, size: int) -> None:
            nonlocal all_bits
            nxt = size + 1
            for j in range(start, m):
                u2 = union | masks[j]
                cnt = u2.bit_count()
                if cnt > budget:
                    continue
                slack = (r - 2) * nxt + 2 - cnt
                if slack >= 2:
                    all_bits |= 1 << nxt
                elif slack == 1:
                    bit = 1 << nxt
                    for v in _mask_to_list(u2):
                        vertex_bits[v] = vertex_bits.get(v, 0) | bit
                elif slack == 0:
                    bit = 1 << nxt
                    vs = _mask_to_list(u2)
                    for ai in range(len(vs)):
                        for bi in range(ai + 1, len(vs)):
                            key = Pair(vs[ai], vs[bi])
                            pair_bits[key] = pair_bits.get(key, 0) | bit
                if nxt < eff:
                    rec(j + 1, u2, nxt)

        rec(0, 0, 0)
    return ClaimProfile(
        r=r,
        n=F.n,
        cap=cap,
        edge_count=m,
        all_bits=all_bits,
        vertex_bits=vertex_bits,
        pair_bits=pair_bits,
    )


def _pairs_with_bits(F: Hypergraph, prof: ClaimProfile, mask: int) -> set[Pair]:
    """Pairs inside ``V(F)`` whose claim bits intersect ``mask``."""
    verts = F.vertices()
    if prof.all_bits & mask:
        return {Pair(a, b) for a, b in itertools.combinations(verts, 2)}
    out: set[Pair] = set()
    vset = set(verts)
    for v, b in prof.vertex_bits.items():
        if b & mask and v in vset:
            for w in verts:
                if w != v:
                    out.add(Pair.of(v, w))
    for p, b in prof.pair_bits.items():
        if b & mask:
            out.add(p)
    return out


def claimed_pairs(F: Hypergraph, i: int) -> set[Pair]:
    """Pairs inside ``V(F)`` that are i-claimed by ``F`` (``i >= 1``)."""
    if i < 1:
        raise ValueError(f"claim index must be at least 1, got {i}")
    return _pairs_with_bits(F, claim_profile(F, i), 1 << i)


def pairs_claimed_upto(F: Hypergraph, t: int) -> set[Pair]:
    """Pairs inside ``V(F)`` with some claim index in ``[1, t]``."""
    if t < 1:
        raise ValueError(f"claim bound must be at least 1, got {t}")
    mask = ((1 << (t + 1)) - 1) & ~1
    return _pairs_with_bits(F, claim_profile(F, t), mask)


def one_bar_two(F: Hypergraph) -> set[Pair]:
    """Pairs that are 2-claimed but not 1-claimed (not in the shadow)."""
    return claimed_pairs(F, 2) - shadow(F)


# ---------------------------------------------------------------------------
# Configuration search


def _config_rec(
    masks: Sequence[int], cands: list[int], union: int, need: int, s: int
) -> Optional[tuple[int, ...]]:
    # Every candidate fits within s vertices together with ``union``.
    if need == 1:
        return (cands[0],) if cands else None
    for idx in range(len(cands) - need + 1):
        j = cands[idx]
        u2 = union | masks[j]
        tail = [h for h in cands[idx + 1 :] if (u2 | masks[h]).bit_count() <= s]
        if len(tail) >= need - 1:
            rest = _config_rec(masks, tail, u2, need - 1, s)
            if rest is not None:
                return (j,) + rest
    return None


def _config_search(
    masks: Sequence[int], k: int, s: int, base: int = 0
) -> Optional[tuple[int, ...]]:
    """First (lexicographically smallest) k-edge subset of ``masks`` whose
    vertices together with the vertex mask ``base`` number at most s.

    ``base`` holds the vertices of edges every configuration must contain,
    kept outside ``masks``; with ``k == 0`` the answer is ``()`` when
    ``base`` alone fits.
    """
    if k > len(masks) or base.bit_count() > s:
        return None
    if k == 0:
        return ()
    cands = [j for j, mj in enumerate(masks) if (base | mj).bit_count() <= s]
    return _config_rec(masks, cands, base, k, s)


def find_configuration(G: Hypergraph, q: ConfigQuery) -> Optional[tuple[int, ...]]:
    """Edge indices of the first configuration matching ``q``, else ``None``.

    Witnesses are deterministic: the DFS explores edges in canonical index
    order, so the first hit is the lexicographically smallest index tuple.
    """
    if q.edge_count < 1:
        raise ValueError(f"edge_count must be at least 1, got {q.edge_count}")
    return _config_search(G.edge_masks, q.edge_count, q.max_vertices)


def find_configuration_containing(
    G: Hypergraph, q: ConfigQuery, forced: int
) -> Optional[tuple[int, ...]]:
    """Like :func:`find_configuration`, restricted to configurations
    containing edge index ``forced`` (for incremental freeness checks)."""
    if q.edge_count < 1:
        raise ValueError(f"edge_count must be at least 1, got {q.edge_count}")
    if not 0 <= forced < len(G.edges):
        raise IndexError(f"edge index {forced} out of range")
    masks = G.edge_masks
    others = masks[:forced] + masks[forced + 1 :]
    found = _config_search(others, q.edge_count - 1, q.max_vertices, base=masks[forced])
    if found is None:
        return None
    # Index i of ``others`` is edge i, or i + 1 past the forced edge.  Adding
    # one edge to every subset keeps their lexicographic order.
    return tuple(sorted([forced] + [i + (i >= forced) for i in found]))


def family_queries(r: int, k: int) -> list[ConfigQuery]:
    """The forbidden-family queries for uniformity ``r`` and parameter ``k``:
    the denser sporadic members (ell edges on r*ell - 2*ell + 1 vertices for
    2 <= ell < k), then the main query (k edges on r*k - 2*k + 2 vertices)."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    out = [ConfigQuery(ell, r * ell - 2 * ell + 1) for ell in range(2, k)]
    out.append(ConfigQuery(k, r * k - 2 * k + 2))
    return out


def is_family_free(G: Hypergraph, k: int) -> FreenessResult:
    """Check ``G`` against the whole forbidden family for parameter ``k``.

    Queries run in a deterministic order (denser members by ascending ell,
    then the main query), so the returned witness is reproducible.
    """
    for q in family_queries(G.r, k):
        w = find_configuration(G, q)
        if w is not None:
            return FreenessResult(False, w, q)
    return FreenessResult(True, None, None)


def family_violation_containing(
    G: Hypergraph, k: int, forced: int
) -> Optional[tuple[tuple[int, ...], ConfigQuery]]:
    """First family violation that uses edge ``forced``, else ``None``."""
    for q in family_queries(G.r, k):
        w = find_configuration_containing(G, q, forced)
        if w is not None:
            return w, q
    return None


# ---------------------------------------------------------------------------
# Girth, defect, trees


def girth(G: Hypergraph, cap: int):
    """Least ``ell`` in ``[2, cap]`` with ``ell`` edges on at most
    ``(r-2)*ell + 2`` vertices, or :data:`ABOVE_CAP` if none exists.
    2-uniform graphs always return :data:`ABOVE_CAP`."""
    if cap < 2:
        raise ValueError(f"girth cap must be at least 2, got {cap}")
    if G.r <= 2:
        return ABOVE_CAP
    for ell in range(2, cap + 1):
        if find_configuration(G, ConfigQuery(ell, (G.r - 2) * ell + 2)) is not None:
            return ell
    return ABOVE_CAP


def defect(F: Hypergraph) -> int:
    """``r * |F| - |V(F)|``: how far below the disjoint-union vertex count."""
    return F.r * len(F.edges) - F.vertex_mask.bit_count()


def classify_tree(F: Hypergraph) -> TreeClass:
    """Decide whether ``F`` is an i-tree, an i-path, or neither.

    An i-tree grows from a single edge by edges that meet the current union
    in exactly one pair lying inside some earlier edge; an i-path further
    requires that pair to lie in the last edge and in no earlier one.
    """
    m = len(F.edges)
    if m == 0:
        return NOT_TREE
    r = F.r
    if F.vertex_mask.bit_count() != (r - 2) * m + 2:
        return NOT_TREE
    if m == 1:
        return TreeClass.path(1)
    masks = F.edge_masks
    if _grows_in_order(masks, path=True):
        return TreeClass.path(m)
    if _grows_in_order(masks, path=False):
        return TreeClass.tree(m)
    return NOT_TREE


def _grows_in_order(masks: Sequence[int], path: bool) -> bool:
    """Can the edges be ordered so that each one after the first meets the
    union so far in exactly one pair, and that pair lies in an earlier edge
    (for ``path``: in the previous edge and in no edge before it)?

    A depth-first search from each first edge over an explicit stack, so
    long paths cannot exhaust the interpreter's recursion limit.  A state
    (the used edges, plus the last one for ``path``) that cannot be
    completed is remembered and never expanded again.
    """
    m = len(masks)
    full = (1 << m) - 1
    failed: set = set()
    for first in range(m):
        # Frames [used, union, last, next index to try].
        stack = [[1 << first, masks[first], first, 0]]
        while stack:
            frame = stack[-1]
            used, union, last, j = frame
            if j == 0:
                if used == full:
                    return True
                if ((used, last) if path else used) in failed:
                    stack.pop()
                    continue
            while j < m:
                if not used >> j & 1:
                    inter = masks[j] & union
                    if inter.bit_count() == 2 and _pair_placed(masks, used, last, inter, path):
                        break
                j += 1
            if j < m:
                frame[3] = j + 1
                stack.append([used | 1 << j, union | masks[j], j, 0])
            else:
                failed.add((used, last) if path else used)
                stack.pop()
    return False


def _pair_placed(masks: Sequence[int], used: int, last: int, inter: int, path: bool) -> bool:
    """Does the pair ``inter`` lie in a used edge (for ``path``: in edge
    ``last`` and in no other used edge)?"""
    if path:
        if masks[last] & inter != inter:
            return False
        used ^= 1 << last
    while used:
        low = used & -used
        if masks[low.bit_length() - 1] & inter == inter:
            return not path
        used ^= low
    return path


# ---------------------------------------------------------------------------
# Text format


def to_text(H: Hypergraph) -> str:
    """Serialize as ``r n m`` followed by ``m`` lines of ``r`` vertex ids."""
    lines = [f"{H.r} {H.n} {len(H.edges)}"]
    for e in H.edges:
        lines.append(" ".join(map(str, e)))
    return "\n".join(lines) + "\n"


def graph_doc(H: Hypergraph) -> dict:
    """JSON-ready description of a graph."""
    return {
        "r": H.r,
        "n": H.n,
        "edge_count": len(H.edges),
        "edges": [list(e) for e in H.edges],
    }


def from_text(text: str) -> Hypergraph:
    """Parse the text format; ``#`` starts a comment, blank lines are skipped.

    Round-trips bit-exactly with :func:`to_text` on canonical graphs.
    """
    rows: list[list[int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            rows.append([int(tok) for tok in body.split()])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: expected integers, got {body!r}") from exc
    if not rows:
        raise ValueError("empty input: expected a header line 'r n m'")
    header = rows[0]
    if len(header) != 3:
        raise ValueError(f"header must be 'r n m', got {header!r}")
    r, n, m = header
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(rows) - 1}")
    for row in rows[1:]:
        if len(row) != r:
            raise ValueError(f"edge line {row!r} does not have {r} vertex ids")
    return build(r, n, rows[1:])
