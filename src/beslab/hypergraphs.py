"""r-uniform hypergraphs: shadows, claim sets and configuration search.

Vertices are dense integers ``0..n-1`` so vertex sets fit in int bitmasks;
all values are immutable after construction.  A pair ``uv`` is *i-claimed*
by a subgraph ``F`` when some ``i`` distinct edges of ``F`` together with
``{u, v}`` span at most ``r*i - 2*i + 2`` vertices.  Claim index 0 always
holds (zero edges span just the pair).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import DuplicateEdge, NotFree, VertexOutOfRange, WrongArity


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
    def incidence(self) -> dict[int, int]:
        """:func:`_incidence`, kept for callers that read it once per
        cluster.  One-shot callers build their own, so that the graphs a
        caller holds do not all keep one."""
        return _incidence(self)

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


def _incidence(G: Hypergraph) -> dict[int, int]:
    """Vertex -> the bitmask of the edges through it, for covered vertices."""
    out: dict[int, int] = {}
    for j, e in enumerate(G.edges):
        for v in e:
            out[v] = out.get(v, 0) | 1 << j
    return out


def _mask(vertices: Iterable[int]) -> int:
    """The bitmask of a vertex set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _mask_to_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _meet(meets: list[int], incidence: Sequence[int] | dict[int, int], vertices: int) -> None:
    """Add the vertex mask ``vertices``, none of them in U yet, to the
    vertex set U of the level list ``meets``, in place.  Entry i of
    ``meets`` is the bitmask of the items meeting U in at least i vertices
    (entry 0 holds every item), and ``incidence[v]`` that of the items
    through v."""
    levels = range(len(meets) - 1, 0, -1)
    while vertices:
        low = vertices & -vertices
        vertices ^= low
        inc = incidence[low.bit_length() - 1]
        for i in levels:
            meets[i] |= meets[i - 1] & inc


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
        e = tuple(sorted(raw))
        if len(e) != r or len(set(e)) != r:
            raise WrongArity(f"edge {list(e)!r} does not have exactly {r} distinct vertices")
        if e[0] < 0 or e[-1] >= n:
            raise VertexOutOfRange(f"edge {list(e)!r} has vertices outside [0, {n})")
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


def claim_set(F: Hypergraph, p: Pair, cap: int) -> frozenset[int]:
    """Exact claim set of pair ``p`` against ``F``: the indices ``0..cap``
    that hold.

    ``p``'s vertices need not lie in ``V(F)``; 0 is always a member.  Index
    i holds when the configuration search finds i edges that fit, together
    with ``p``'s vertices, in (r-2)*i + 2 vertices; a vertex of ``p`` outside
    ``0..n-1`` lies in no edge, so it takes one vertex off the budget.
    """
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    if p.u == p.v:
        raise ValueError(f"a pair needs two distinct vertices, got {p.u} twice")
    base = extra = 0
    for w in (p.u, p.v):
        if 0 <= w < F.n:
            base |= 1 << w
        else:
            extra += 1
    members = {0}
    for i in range(1, min(cap, len(F.edges)) + 1):
        if _config_search(F.edge_masks, i, (F.r - 2) * i + 2 - extra, base=base) is not None:
            members.add(i)
    return frozenset(members)


@dataclass
class ClaimProfile:
    """Claim evidence for every pair at once, bucketed by how widely it applies.

    Bit ``i`` (i >= 1) set means the pair is i-claimed.  ``all_bits`` holds
    for every pair of vertex ids whatsoever; ``vertex_bits[v]`` for every
    pair with ``v`` as one endpoint; ``pair_bits[p]`` for exactly ``p``.
    """

    all_bits: int
    vertex_bits: dict[int, int]
    pair_bits: dict[Pair, int]

    def bits(self, u: int, v: int) -> int:
        b = self.all_bits | self.vertex_bits.get(u, 0) | self.vertex_bits.get(v, 0)
        key = Pair(u, v) if u < v else Pair(v, u)
        return b | self.pair_bits.get(key, 0)

    @property
    def has_wide_evidence(self) -> bool:
        """True when some claim applies beyond explicitly listed pairs."""
        return bool(self.all_bits) or bool(self.vertex_bits)


def claim_profile(F: Hypergraph, cap: int) -> ClaimProfile:
    """Scan the edge subsets of each size 1..cap once, bucketing claims for
    reuse.

    A subset ``S`` of size ``i`` with union ``U`` claims: every pair when
    ``|U| <= (r-2)i``, every pair touching ``U`` when ``|U| = (r-2)i + 1``,
    and exactly the pairs inside ``U`` when ``|U| = (r-2)i + 2``.  So size
    ``i`` walks only the subsets within that last budget,
    ``(r-2)i + 2`` vertices.  Nothing is lost: a subset that claims fits
    it, and so does every prefix on the way to it, whose union is smaller.
    Merge parts, which are refused once wide, are walked by
    ``merging._claim_walk`` instead.
    """
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    r, m = F.r, len(F.edges)
    all_bits = 0
    vertex_bits: dict[int, int] = {}
    pair_bits: dict[Pair, int] = {}
    for i in range(1, min(cap, m) + 1):
        bit = 1 << i
        budget = (r - 2) * i + 2
        for _, union in _fitting_subsets(F.edge_masks, i, budget):
            slack = budget - union.bit_count()
            if slack >= 2:
                all_bits |= bit
            elif slack == 1:
                for v in _mask_to_list(union):
                    vertex_bits[v] = vertex_bits.get(v, 0) | bit
            else:
                for a, b in itertools.combinations(_mask_to_list(union), 2):
                    key = Pair(a, b)
                    pair_bits[key] = pair_bits.get(key, 0) | bit
    return ClaimProfile(all_bits, vertex_bits, pair_bits)


def pairs_claimed_upto(F: Hypergraph, t: int) -> set[Pair]:
    """Pairs inside ``V(F)`` with some claim index in ``[1, t]``."""
    if t < 1:
        raise ValueError(f"claim bound must be at least 1, got {t}")
    mask = ((1 << (t + 1)) - 1) & ~1
    prof = claim_profile(F, t)
    verts = F.vertices()
    if prof.all_bits & mask:
        return {Pair(a, b) for a, b in itertools.combinations(verts, 2)}
    out = {p for p, b in prof.pair_bits.items() if b & mask}
    vset = set(verts)
    for v, b in prof.vertex_bits.items():
        if b & mask and v in vset:
            out.update(Pair.of(v, w) for w in verts if w != v)
    return out


# ---------------------------------------------------------------------------
# Configuration search


def _fitting_subsets(
    masks: Sequence[int], k: int, s: int, base: int = 0
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every k-subset of ``masks`` whose vertices together with the vertex
    mask ``base`` number at most s, as (index tuple, vertex union with
    ``base``), in lexicographic order.

    The one walk over edge subsets under a vertex budget.  Every prefix of
    a fitting subset fits too, so a frame keeps only the candidates that
    still fit with its union, and a frame with fewer of them left than
    edges missing is never entered.  Frames (candidates, union, chosen,
    next position) sit on an explicit stack, so k is not bounded by the
    interpreter's recursion limit.  The last edge takes no frame and no
    list: each candidate that still fits is yielded as soon as it is found.
    """
    if k > len(masks) or base.bit_count() > s:
        return
    if k == 0:
        yield (), base
        return
    if k == 1:
        for j, mj in enumerate(masks):
            union = base | mj
            if union.bit_count() <= s:
                yield (j,), union
        return
    cands = [j for j, mj in enumerate(masks) if (base | mj).bit_count() <= s]
    stack = [(cands, base, (), 0)]
    while stack:
        cands, union, chosen, pos = stack.pop()
        need = k - len(chosen)
        last = len(cands) - need
        while pos <= last:
            j = cands[pos]
            pos += 1
            u2 = union | masks[j]
            if need == 2:
                for h in cands[pos:]:
                    if (u3 := u2 | masks[h]).bit_count() <= s:
                        yield chosen + (j, h), u3
                continue
            tail = [h for h in cands[pos:] if (u2 | masks[h]).bit_count() <= s]
            if len(tail) >= need - 1:
                stack.append((cands, union, chosen, pos))
                stack.append((tail, u2, chosen + (j,), 0))
                break


def _config_search(
    masks: Sequence[int], k: int, s: int, base: int = 0
) -> Optional[tuple[int, ...]]:
    """First (lexicographically smallest) k-edge subset of ``masks`` whose
    vertices together with the vertex mask ``base`` number at most s.

    ``base`` holds the vertices of edges every configuration must contain,
    kept outside ``masks``; with ``k == 0`` the answer is ``()`` when
    ``base`` alone fits.
    """
    for subset, _ in _fitting_subsets(masks, k, s, base):
        return subset
    return None


def find_configuration(G: Hypergraph, q: ConfigQuery) -> Optional[tuple[int, ...]]:
    """Edge indices of the first configuration matching ``q``, else ``None``.

    Witnesses are deterministic: the DFS explores edges in canonical index
    order, so the first hit is the lexicographically smallest index tuple.
    """
    if q.edge_count < 1:
        raise ValueError(f"edge_count must be at least 1, got {q.edge_count}")
    return _config_search(G.edge_masks, q.edge_count, q.max_vertices)


def _first_containing(G: Hypergraph, queries: Sequence[ConfigQuery], forced: int):
    """(witness, query) for the first of ``queries`` with a configuration
    containing edge ``forced``, else ``None``.  One view serves them all:
    the other edges' masks, with the forced edge as ``base``."""
    if not 0 <= forced < len(G.edges):
        raise IndexError(f"edge index {forced} out of range")
    masks = G.edge_masks
    base, others = masks[forced], masks[:forced] + masks[forced + 1 :]
    for q in queries:
        found = _config_search(others, q.edge_count - 1, q.max_vertices, base)
        if found is not None:
            # Index i of ``others`` is edge i, or i + 1 past the forced edge.
            # Adding one edge to every subset keeps their lexicographic order.
            return tuple(sorted([forced] + [i + (i >= forced) for i in found])), q
    return None


def family_queries(r: int, k: int) -> list[ConfigQuery]:
    """The forbidden-family queries for uniformity ``r`` and parameter ``k``:
    the denser sporadic members (ell edges on r*ell - 2*ell + 1 vertices for
    2 <= ell < k), then the main query (k edges on r*k - 2*k + 2 vertices)."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    out = [ConfigQuery(ell, r * ell - 2 * ell + 1) for ell in range(2, k)]
    out.append(ConfigQuery(k, r * k - 2 * k + 2))
    return out


_family = lru_cache(maxsize=64)(lambda r, k: tuple(family_queries(r, k)))  # memo per (r, k)


def is_family_free(G: Hypergraph, k: int) -> FreenessResult:
    """Check ``G`` against the whole forbidden family for parameter ``k``.

    Queries run in :func:`family_queries` order (denser members by
    ascending ell, then the main query).  The answer names the first query
    that has a configuration, with the witness :func:`find_configuration`
    gives for it, the lexicographically first one.

    **Lemma.**  Let no earlier query have a configuration, and let C be ell
    edges on at most s vertices for the query (ell, s).  Then every edge h
    of C meets V(C - h) in at least t = (r-2)*ell + 4 - s vertices: 2 for
    the main query, 3 for a denser member.  More generally, for every
    non-empty D smaller than C, the edges of C - D meet V(D) in at least t
    vertices.  *Proof.*  A set of 1 <= j < ell edges spans at least
    (r-2)*j + 2 vertices: for j >= 2 because the denser member with j edges
    found nothing, for j = 1 because an edge has r vertices.  So
    |V(D)| + |V(C - D)| >= (r-2)*ell + 4, while |V(C)| <= s.

    So a configuration can be grown from any of its edges through edges it
    must contain (:func:`_first_anchor`), never looking at edges away from
    what it has grown.  The search only finds the smallest edge index a
    that starts a configuration; the witness is then ``a`` and the first
    fitting (ell-1)-subset of the later edges, by :func:`_config_search`
    with ``base`` the edge ``a``.  No smaller edge starts a configuration,
    so this is the lexicographically first one.  By the order lemma of
    :func:`_first_anchor` the anchors may be searched in any order: each
    query takes them smallest-last, and only a query that finds a
    configuration runs a second pass, in index order over the live edges
    below its first hit, which names the smallest anchor.

    **Shared-state lemma.**  The queries read one :class:`_Shared` state,
    built once for G, and each runs exactly the steps it would run from
    state built afresh.  The peel state (live edges, ``degree``,
    ``covered``) that :func:`_first_anchor` starts from is a function of G
    and t alone: :func:`_peel` is deterministic, and its inputs there are
    all of G's edges, G's degrees and cover counts, and the edges covered
    in fewer than t vertices.  From then on it depends only on G, t and
    the anchors dropped so far.  Here t = (r-2)*ell + 4 - s is 3 for every
    denser member and 2 for the main query, so the core is built once per
    distinct t, and each query peels a copy of its own.  An anchor's root
    ``meets`` levels (the edges meeting it in at least i vertices), the
    anchor order and :func:`_partnered` read only G, and no query changes
    them, so they serve every query.
    """
    masks = G.edge_masks
    shared = _Shared(G)
    for q in family_queries(G.r, k):
        ell, s = q
        a = _first_anchor(G, shared, ell, s)
        if a is not None:
            rest = _config_search(masks[a + 1 :], ell - 1, s, base=masks[a])
            assert rest is not None
            return FreenessResult(False, (a,) + tuple(a + 1 + i for i in rest), q)
    return FreenessResult(True, None, None)


def _require_free(G: Hypergraph, k: int) -> None:
    """Raise :class:`NotFree`, with the witness, unless ``G`` is free for ``k``."""
    res = is_family_free(G, k)
    if not res.free:
        q = res.query
        msg = f"graph contains {q.edge_count} edges on at most {q.max_vertices} vertices"
        raise NotFree(msg, res.witness, q)


class _Shared:
    """The state of a graph that every query of :func:`is_family_free`
    reads: the incidence masks and degrees, one peel core per t, the
    anchor order, each anchor's root ``meets`` levels and the
    :func:`_partnered` memo.  Built on demand, once per graph (the
    shared-state lemma)."""

    def __init__(self, G: Hypergraph) -> None:
        self.G = G
        self.incidence = _incidence(G)
        self.full = (1 << len(G.edges)) - 1
        self.degree = {v: inc.bit_count() for v, inc in self.incidence.items()}
        self._cores: dict[int, tuple[int, dict[int, int], list[int]]] = {}
        self._roots: dict[int, list[int]] = {}
        self._partnered: dict[tuple[int, int], int] = {}

    def core(self, t: int) -> tuple[int, dict[int, int], list[int]]:
        """(live edges, ``degree``, ``covered``) once :func:`_peel` has
        dropped every edge that meets the others in fewer than t vertices;
        the counts are the caller's own copies."""
        got = self._cores.get(t)
        if got is None:
            G, masks = self.G, self.G.edge_masks
            degree = dict(self.degree)
            once = shared = 0  # vertices in one edge or more, in two or more
            for mj in masks:
                shared |= once & mj
                once |= mj
            covered = [(mj & shared).bit_count() for mj in masks]
            doomed = [h for h, c in enumerate(covered) if c < t]
            alive = _peel(G, self.incidence, degree, covered, self.full, t, doomed)
            got = self._cores[t] = (alive, degree, covered)
        alive, degree, covered = got
        return alive, dict(degree), list(covered)

    @cached_property
    def order(self) -> list[int]:
        """The edges smallest-last: by the sum of their vertices' degrees
        in G, ascending, ties by index."""
        get = self.degree.__getitem__
        sums = [sum(map(get, e)) for e in self.G.edges]
        return sorted(range(len(sums)), key=sums.__getitem__)

    def root(self, a: int) -> list[int]:
        """``meets`` of the node {edge a}: entry i holds the edges meeting
        edge a in at least i vertices.  Callers never change it."""
        meets = self._roots.get(a)
        if meets is None:
            meets = self._roots[a] = [self.full] + [0] * self.G.r
            _meet(meets, self.incidence, self.G.edge_masks[a])
        return meets

    def partnered(self, v: int, j: int) -> int:
        """:func:`_partnered`, memoised per (v, j)."""
        keep = self._partnered.get((v, j))
        if keep is None:
            keep = self._partnered[v, j] = _partnered(self.G, self.incidence, v, j)
        return keep


def _peel(
    G: Hypergraph,
    incidence: dict[int, int],
    degree: dict[int, int],
    covered: list[int],
    alive: int,
    t: int,
    doomed: list[int],
) -> int:
    """Drop the edges of ``doomed`` from the bitmask ``alive``, then, in
    turn, every edge that meets the other live edges in fewer than t
    vertices; returns the live edges.  ``degree[v]`` counts the live edges
    through v, ``covered[h]`` the vertices of edge h that lie in another
    live edge, and both are kept up to date."""
    while doomed:
        h = doomed.pop()
        if not alive >> h & 1:
            continue
        alive ^= 1 << h
        for v in G.edges[h]:
            degree[v] -= 1
            if degree[v] == 1:
                g = (incidence[v] & alive).bit_length() - 1
                covered[g] -= 1
                if covered[g] < t:
                    doomed.append(g)
    return alive


def _first_anchor(G: Hypergraph, shared: _Shared, ell: int, s: int) -> Optional[int]:
    """Smallest index of an edge that starts an ell-edge configuration on
    at most s vertices, or ``None``, for a family query whose earlier
    queries found nothing.  ``shared`` is the state of G that every query
    reads (the shared-state lemma of :func:`is_family_free`).

    By the lemma of :func:`is_family_free`, the edges of a configuration
    each meet the others in at least t = (r-2)*ell + 4 - s vertices, so it
    lies among the live edges left by peeling off the rest (:func:`_peel`).
    Anchors are live edges taken one at a time; once a configuration among
    the live edges contains no anchor a, a is dropped and the peeling goes
    on.  The first pass takes them smallest-last (:attr:`_Shared.order`),
    so that a hub's edges, whose vertices lie in many edges, are searched
    last, once the edges around them are gone.

    **Order lemma.**  Whatever the order of the anchors, a pass returns an
    anchor exactly when some configuration exists, and every edge it has
    dropped by then lies in no configuration.  *Proof.*  Let every
    configuration lie among the live edges, as it does after the first
    peel.  The search from a decides whether some configuration among the
    live edges contains a: the root V(a) lies inside V(C) for every such
    C, and the branching below keeps each child inside V(C).  It reads
    ``degree`` only to choose which vertices to branch on, and any choice
    keeps the argument.  If no configuration contains a, all of them avoid
    a, so dropping a keeps them among the live edges; and so does the
    peel, which drops only edges that meet the other live edges in fewer
    than t vertices, and no configuration uses those.

    So once the smallest-last pass hits an anchor a, a pass in index order
    over the live edges below a names the smallest anchor: each edge it
    drops lies in no configuration, so the first edge it hits is the
    smallest in one, and if it hits none, a is.  Only a graph that is not
    free runs that second pass.

    For an anchor a, a node is a vertex set U of at most s vertices.  It
    stands for D, the edges still live (a among them) that lie inside U,
    and is a hit once D has ell edges.  Vertex sets lose nothing: a
    configuration C of live edges through a lies inside V(C), and the
    lemma also holds for the other edges inside V(C), whose vertices C
    covers.  A node carries ``meets[i]``, the edges meeting U in at least
    i vertices, so the live edges that still fit are those of
    ``meets[r - s + |U|]``.

    Let U lie inside V(C) for a configuration C.  If an edge h of D meets
    the others in c < t vertices, the edges inside V(C) but not in D cover
    t - c of its r - c free vertices, so one of any r - t + 1 of them.  The
    node branches on the fitting edges through the r - t + 1 free vertices
    of h of lowest degree, for the h with the fewest such edges.  If no
    edge is short, those edges meet U in at least t vertices, and the node
    branches on the fitting edges through all of U but its t - 1 vertices
    of highest degree.  Either way a child stays inside V(C), so the
    search is complete.  A node is cut when fewer edges fit than are
    missing, and each vertex set is entered once.

    **Child bound.**  Let a node with slack sigma = s - |U| branch on e,
    with new vertices w = e - U, and let sigma' = sigma - |w| be the
    child's slack.  An edge h that fits the child, or that the child newly
    puts inside, has |h - U| <= |h - (U + w)| + |h & w| <= sigma, so it
    is one of the parent's fitting edges; and either it meets w, or it
    meets U in at least r - sigma' vertices.  So all of them but e lie in
    X, the fitting edges in ``meets[r - sigma']`` or through w.  If X has
    fewer than missing - 1 edges, the child puts fewer than missing - 1
    edges besides e inside, so it is no hit, and the edges that fit it are
    the rest of X, fewer than it misses: it would be cut.  So it is
    skipped before it is built.

    **Hub edges in bulk.**  Let e meet U in one vertex v, so that
    sigma' = sigma - r + 1, and let A count the fitting edges in
    ``meets[r - sigma']``.  Then X has at most A + q edges, where q counts
    the edges of G other than e through e - v, so e is skipped when q is
    below j = missing - 1 - A.  A node drops all such edges through each
    vertex v of U at once, by the edges through v with q at least j,
    memoised per (v, j) (:meth:`_Shared.partnered`).  So the many edges of a hub,
    each with few others through the rest of it, cost a few mask
    operations, not one test each.

    **Few-node lemma.**  A node where few edges fit (:func:`_walks_edges`)
    builds no children and uses neither bound.  List its fitting edges
    with the branch set first; one walk over the list decides the node,
    with its first edge from the branch set: for each branch-set edge h
    in turn, :func:`_config_search` for missing - 1 of the edges listed
    after h that fit on U + h.  A configuration of live edges through a,
    with U inside its vertices, exists exactly when the walk finds such
    edges.  *Proof.*  Fitting edges are live edges other than a and not in
    D, so the found ones and D are ell live edges through a on at most s
    vertices.  Conversely let U lie inside V(C).  The live edges inside
    V(C) but not inside U all fit, and there are at least missing of them,
    since V(C) holds C and D.  By the branching argument above one of
    them, Y, lies in the branch set.  Take Y and missing - 1 others of
    them: they lie in V(C), so with U on at most s vertices, and the first
    of them in the list is a branch-set edge h, whose walk finds them or
    an earlier fit.
    At a hub, where many edges fit but few pass the child bound,
    branching under the bounds is the cheaper.
    """
    r = G.r
    if s <= r or ell > len(G.edges):
        return None
    t = (r - 2) * ell + 4 - s
    alive, degree, covered = shared.core(t)
    if alive.bit_count() < ell:
        return None
    hit = _anchor_pass(G, shared, ell, s, t, alive, degree, covered, shared.order)
    if hit is None:
        return None
    a, live = hit
    below = _anchor_pass(G, shared, ell, s, t, live, degree, covered, range(a))
    return a if below is None else below[0]


def _anchor_pass(
    G: Hypergraph,
    shared: _Shared,
    ell: int,
    s: int,
    t: int,
    alive: int,
    degree: dict[int, int],
    covered: list[int],
    anchors: Sequence[int],
) -> Optional[tuple[int, int]]:
    """One pass of :func:`_first_anchor`'s search over the live edges
    ``alive``, with the peel counts ``degree`` and ``covered`` kept up to
    date: the anchors are the live edges in the order ``anchors``.
    Returns (a, the live edges) at the first anchor a that some
    configuration among them contains, else ``None``."""
    masks = G.edge_masks
    r = G.r
    incidence, full = shared.incidence, shared.full
    for a in anchors:
        if not alive >> a & 1:
            continue
        scope = alive
        alive ^= 1 << a
        if alive.bit_count() < ell - 1:
            return None
        stack = [(masks[a], shared.root(a))]
        seen: set[int] = set()
        while stack:
            union, meets = stack.pop()
            inside = meets[r] & scope
            missing = ell - inside.bit_count()
            slack = s - union.bit_count()
            fit = (meets[r - slack] if slack < r else full) & alive & ~inside
            fits = fit.bit_count()
            if fits < missing:
                continue
            if missing == 1:
                return a, scope
            branch = _branch_set(G, incidence, degree, inside, union, fit, t)
            if _walks_edges(fits, missing):
                # the few-node lemma: a first edge from the branch set,
                # then missing - 1 of the later fitting edges
                firsts = _mask_to_list(branch)
                order = [masks[e] for e in firsts + _mask_to_list(fit & ~branch)]
                for i in range(len(firsts)):
                    if _config_search(order[i + 1 :], missing - 1, s, union | order[i]):
                        return a, scope
                continue
            spare1 = slack - r + 1  # a child's spare on an edge meeting U once
            if 0 <= spare1 < r:
                j = missing - 1 - (meets[r - spare1] & fit).bit_count()
                if j > 0:
                    lone = branch & ~meets[2]
                    for v in _mask_to_list(union):
                        through = lone & incidence[v]
                        if through:
                            branch &= ~through | shared.partnered(v, j)
            while branch:
                low = branch & -branch
                branch ^= low
                e = low.bit_length() - 1
                child = union | masks[e]
                if child in seen:
                    continue
                seen.add(child)
                w = child ^ union
                spare = slack - w.bit_count()
                if spare < r:
                    # the child bound
                    near = meets[r - spare]
                    for v in G.edges[e]:
                        if w >> v & 1:
                            near |= incidence[v]
                    if ((near & fit) ^ low).bit_count() < missing - 1:
                        continue
                grown = list(meets)
                _meet(grown, incidence, w)
                if (grown[r] & scope).bit_count() >= ell:
                    return a, scope
                stack.append((child, grown))
        alive = _peel(G, incidence, degree, covered, scope, t, [a])
    return None


def _walks_edges(fits: int, missing: int) -> bool:
    """Whether a node of :func:`_first_anchor` with ``fits`` fitting edges
    and ``missing`` edges missing has so few edges that one walk over them
    decides it (the few-node lemma), rather than branching under the child
    bound and the bulk drop of hub edges."""
    return fits <= 4 * missing


def _partnered(G: Hypergraph, incidence: dict[int, int], v: int, j: int) -> int:
    """The edges e through vertex v that at least j other edges meet
    outside v."""
    out = 0
    rest = incidence[v]
    while rest:
        low = rest & -rest
        rest ^= low
        near = 0
        for u in G.edges[low.bit_length() - 1]:
            if u != v:
                near |= incidence[u]
        if (near ^ low).bit_count() >= j:
            out |= low
    return out


def _branch_set(
    G: Hypergraph,
    incidence: dict[int, int],
    degree: dict[int, int],
    inside: int,
    union: int,
    fit: int,
    t: int,
) -> int:
    """The edges a node of :func:`_first_anchor` branches on: the fitting
    edges through the vertices that the rest of a configuration must
    reach, for the edge set ``inside`` on the vertices ``union``."""
    masks, r = G.edge_masks, G.r
    hs = []
    shared = seen = 0
    rest = inside
    while rest:
        low = rest & -rest
        rest ^= low
        h = low.bit_length() - 1
        hs.append(h)
        shared |= seen & masks[h]
        seen |= masks[h]
    # (vertices that need cover, how many of them) for each short edge, or
    # failing those for the whole union
    needs = []
    for h in hs:
        free = masks[h] & ~shared
        want = t - r + free.bit_count()
        if want > 0:
            needs.append(([v for v in G.edges[h] if free >> v & 1], want))
    if not needs:
        needs.append((_mask_to_list(union), t))
    best = -1
    for vs, want in needs:
        if want > 1:
            vs.sort(key=degree.__getitem__)
            del vs[len(vs) - want + 1 :]
        b = 0
        for v in vs:
            b |= incidence[v]
        b &= fit
        if best < 0 or b.bit_count() < best.bit_count():
            best = b
    return best


def family_violation_containing(
    G: Hypergraph, k: int, forced: int
) -> Optional[tuple[tuple[int, ...], ConfigQuery]]:
    """First family violation that uses edge ``forced``, else ``None``: the
    first query in :func:`family_queries` order with such a configuration,
    and its lexicographically first one."""
    return _first_containing(G, _family(G.r, k), forced)


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
