"""Orbit-transversal decompositions and their independent verification.

If a group G of automorphisms acts semiregularly on the edges of a graph
(no non-identity element fixes an edge, even setwise) and a subgraph H
holds exactly one edge of each orbit, the |G| images of H partition the
edge set into a G-invariant, G-transitive decomposition whose blocks
have trivial stabilizers.  The two hypotheses together say exactly that
(g, e) -> g(e) is a bijection G x H -> E: injectivity in g makes every
stabilizer trivial, surjectivity puts an edge of H in every orbit, and
two edges of H in one orbit would collide.  So the builder images H
through each element's vertex table and, when the images are |E|
distinct edge keys, computes no orbits; otherwise the fixed-edge test
reads the vertex tables and only the transversal witness needs orbits.
A built decomposition is thus certified by the transport its blocks come
from (_certified_build); verify_decomposition is the independent recheck.

Every Subgraph (base, block or split segment) is an ascending edge-key
array on a groups.EdgeAction; is_path_subgraph and the isomorphism check
read an adjacency of vertex indices, and only a walk base carries a walk.
Edge objects enter only through Subgraph.of_edges, and every check that
is given a graph reads the keys of subgraphs of that graph and raises
ValueError for a subgraph of another.  Edge and vertex objects are built
only for witnesses and the public Subgraph.edges.
The verifier trusts nothing: it images through the group's vertex
tables and range-checks every key.  Blocks that partition E and
are exactly the |G| distinct images of the base pass all six flags by
the same bijection (a non-identity h fixing an edge of g(H) would make
hg(H) and g(H) distinct blocks sharing it); any other input gets each
flag checked on its own, with a concrete witness for each failure.
Builder and verifier check the premises once, where they start: every
distinct generator is a bijection and an automorphism, and H's keys are
edges.  Then the images partition E exactly when H repeats no key,
|G| * |H| = |E| and H misses every non-identity image (the images are
then distinct edges, pairwise disjoint as g(H) & h(H) = g(H & g^-1 h(H)),
and a cover of E passes all three).  _transport tests each image as it
is made and hands it to its caller's ``make``, which sorts it: the
builder into its block's array, the verifier into its bytes and the
split command into its b-key stretches, unscanned; no other key is
sorted unless the verifier's certificate fails.  While it holds, each
edge lies in exactly one image, so the verifier's partition check reads
only the blocks that are no image, the images that are no block and the
image blocks that repeat, and no element fixes an edge, so the
semiregular flag needs no scan.  The verifier images |G| * |base| keys, and
off the common case one more per block edge and distinct generator
(none for a block of all |E| edges).  Its flag checks (_check_flags)
take the premises and images as given, so that
serialize.verify_text can run both once, before it reads the blocks,
and look each block up among the images; off the common case the
isomorphism test builds the base's side once per verify.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from itertools import chain
from math import comb, isqrt
from typing import Iterable, Iterator, NamedTuple

from .grid import GridGraph, Validated
from .groups import (
    EdgeAction,
    EdgeOrbit,
    FiniteGroup,
    automorphism_violation,
    diagonal_shift,
    edge_orbits,
    fixed_edge_witness,
    generate_group,
    permutation_from_cycles,
    row_shift,
)
from .staircase import Walk, build_staircase_path, first_repeated_vertex, is_path, walk_from_array

ISO_VERTEX_CAP = 16


class PreconditionFailed(RuntimeError):
    """A hypothesis of the orbit-transversal construction does not hold."""

    def __init__(self, reason: str, witness=None):
        super().__init__(reason)
        self.reason = reason
        self.witness = witness


class IsomorphismCapExceeded(ValueError):
    """The isomorphism search passed ISO_VERTEX_CAP vertices; the verifier sets ``block_index``."""

    block_index: int | None = None


class NotOddPrime(ValueError):
    """The staircase construction was asked for an unsupported width."""


class LabelEdge(Validated, NamedTuple("LabelEdge", [("u", int), ("v", int)])):
    """Unordered pair of integer-labelled vertices, stored with u < v."""

    __slots__ = ()

    def __new__(cls, u: int, v: int):
        if u == v:
            raise ValueError(f"degenerate edge at {u}")
        if v < u:
            u, v = v, u
        return super().__new__(cls, u, v)

    def __str__(self) -> str:
        return f"{self.u}-{self.v}"


class CompleteGraph(Validated, NamedTuple("CompleteGraph", [("n", int)])):
    """The complete graph on labels 1 .. n."""

    __slots__ = ()

    def __new__(cls, n: int):
        if n < 1:
            raise ValueError(f"complete graph needs n >= 1, got {n}")
        return super().__new__(cls, n)

    @property
    def vertex_count(self) -> int:
        return self.n

    @property
    def edge_count(self) -> int:
        return comb(self.n, 2)

    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def edges(self) -> Iterator[LabelEdge]:
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                yield LabelEdge(i, j)

    def edge(self, u: int, v: int) -> LabelEdge:
        if not all(isinstance(w, int) and 1 <= w <= self.n for w in (u, v)):
            raise ValueError(f"{u}-{v} is not inside K_{self.n}")
        return LabelEdge(u, v)

    def __str__(self) -> str:
        return f"K_{self.n}"


class Subgraph:
    """An edge-induced subgraph of ``action.graph``, stored as its edge keys.

    ``keys`` is an ascending array('q') of keys on ``action`` (an
    EdgeAction): the constructor sorts any keys and rejects an empty or
    repeated set (_ascending keeps an array its caller proved strictly
    ascending), and range checks are build's and verify's.
    ``edges`` builds the edge objects when read.  Only a walk base
    carries a ``walk``, how it was traced.
    """

    __slots__ = ("action", "keys", "walk")

    def __init__(self, action: EdgeAction, keys, walk: Walk | None = None):
        ordered = sorted(keys)
        if not ordered:
            raise ValueError("a subgraph needs at least one edge")
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {action.edges([a])[0]}")
        self.action, self.keys, self.walk = action, array("q", ordered), walk

    @classmethod
    def _ascending(cls, action: EdgeAction, keys: array) -> Subgraph:
        """The subgraph on ``keys``, a non-empty array('q') its caller proved strictly ascending."""
        sub = object.__new__(cls)
        sub.action, sub.keys, sub.walk = action, keys, None
        return sub

    @classmethod
    def of_edges(cls, graph, edges, walk: Walk | None = None) -> Subgraph:
        """The subgraph of ``graph`` on edge objects; ValueError for an edge outside it."""
        action = EdgeAction(graph)
        return cls(action, action.keys(tuple(edges)), walk)

    @property
    def edges(self) -> tuple:
        return self.action.edges(self.keys)

    @property
    def edge_count(self) -> int:
        return len(self.keys)

    def __eq__(self, other):
        if not isinstance(other, Subgraph):
            return NotImplemented
        same_graph = self.action.graph == other.action.graph
        return same_graph and self.keys == other.keys and self.walk == other.walk


def _index_adjacency(sub: Subgraph) -> dict[int, set[int]]:
    """The subgraph's adjacency on vertex indices of its action."""
    adj: dict = defaultdict(set)
    size = sub.action.size
    for k in sub.keys:
        i, j = divmod(k, size)
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _keys_on(graph, sub: Subgraph) -> array:
    """``sub``'s ascending edge keys; ValueError unless ``sub`` is a subgraph of ``graph``."""
    if sub.action.graph != graph:
        raise ValueError(f"a subgraph of {sub.action.graph} is not a subgraph of {graph}")
    return sub.keys


def _covers_once(action: EdgeAction, key_arrays) -> bool:
    """True when the ascending arrays together hold every edge key of the graph exactly once."""
    if sum(map(len, key_arrays)) != action.graph.edge_count:
        return False
    if len(key_arrays) == 1:
        return key_arrays[0] == array("q", action.all_keys())
    return sorted(chain.from_iterable(key_arrays)) == list(action.all_keys())


class Decomposition(NamedTuple):
    """A candidate decomposition: blocks, the acting group, and the base block."""

    blocks: tuple[Subgraph, ...]
    group: FiniteGroup
    base: Subgraph


class VerificationReport(NamedTuple):
    """Outcome of the six structural checks, as witnesses for the failures.

    ``witnesses`` maps each failed flag name to a concrete counterexample:
    the duplicated or missing edges, the offending block index, the
    fixing element and fixed edge, and so on.  A flag holds exactly when
    it has no witness.
    """

    witnesses: dict

    FLAGS = (
        "is_partition",
        "blocks_isomorphic_to_base",
        "group_invariant",
        "group_transitive",
        "stabilizer_trivial",
        "semiregular",
    )

    def flags(self) -> dict[str, bool]:
        return {name: name not in self.witnesses for name in self.FLAGS}

    @property
    def all_ok(self) -> bool:
        return not self.failed()

    def failed(self) -> list[str]:
        return [name for name in self.FLAGS if name in self.witnesses]


class TransversalCheck(NamedTuple):
    """Result of counting a subgraph's edges against each orbit."""

    ok: bool
    counts: tuple[int, ...]


def orbit_transversal_check(sub: Subgraph, orbits: list[EdgeOrbit]) -> TransversalCheck:
    """Exactly-one-edge-per-orbit test; counts are aligned with ``orbits``.

    Edges of the subgraph that lie in no orbit at all make the check
    fail regardless of the counts.
    """
    if not orbits:
        return TransversalCheck(False, ())
    keys = _keys_on(orbits[0].action.graph, sub)
    position = {k: pos for pos, orbit in enumerate(orbits) for k in orbit.keys}
    hits = Counter(position.get(k) for k in keys)  # None counts keys in no orbit
    counts = tuple(hits[pos] for pos in range(len(orbits)))
    return TransversalCheck(None not in hits and set(counts) == {1}, counts)


def _premises(graph, group: FiniteGroup, base: Subgraph) -> tuple[EdgeAction, tuple, array]:
    """The edge action, the group's tables and the base's keys, checked once for build and verify.

    PreconditionFailed names the first generator that is no bijection,
    with the first vertex it misses, or no automorphism, with the first
    edge it maps to a non-edge (a repeated generator by its first copy);
    ValueError, a base off the graph or with a key of no edge.
    """
    action, tables = EdgeAction(graph), group.tables_on(graph)
    for gen in dict.fromkeys(group.generators):
        i, missed = group.generators.index(gen), set(range(action.size)).difference(gen.table)
        if missed:
            v = action.vertices[min(missed)]
            reason = f"generator {i} is not a bijection: no vertex maps to {v}"
            raise PreconditionFailed(reason, witness=(i, v))
        bad = automorphism_violation(graph, gen)
        if bad is not None:
            reason = f"generator {i} is not an automorphism: image of {bad} is not an edge"
            raise PreconditionFailed(reason, witness=(i, bad))
    keys = _keys_on(graph, base)
    action.check_keys(keys)
    return action, tables, keys


def _sorted_keys(image: list) -> array:
    """A fresh image list sorted in place, as an array('q')."""
    image.sort()
    return array("q", image)


def _transport(action: EdgeAction, tables, keys, make) -> tuple[list, bool]:
    """``make`` of the base ``keys``' image under each of ``tables``, in order, and whether the
    images partition E: the module docstring's certificate, tested on each non-identity image
    before ``make`` receives it as a fresh list in ``keys``' order, to sort as it needs."""
    out, base, size = [], set(keys), len(keys)
    partitioned = len(base) == size and len(tables) * size == action.graph.edge_count
    for image in action.images(tables, keys):
        if out and partitioned:
            partitioned = base.isdisjoint(image)
        out.append(make(image))
        del image  # so that the next image's keys reuse this one's memory
    return out, partitioned


def build_orbit_decomposition(graph, group: FiniteGroup, base: Subgraph) -> Decomposition:
    """Images of ``base`` under every group element, after checking the hypotheses.

    The premises are checked first: PreconditionFailed for a generator
    that is no automorphism, ValueError for a base off the graph or with
    a key of no edge.  The images partition E exactly when they are
    certified to (see the module docstring), and then meet both
    hypotheses.  Otherwise PreconditionFailed is raised when an element
    fixes an edge or when ``base`` is not an exact orbit transversal,
    the one check that computes edge_orbits.  Past those checks the |G|
    blocks are |E| distinct keys, pairwise disjoint.
    """
    action, tables, keys = _premises(graph, group, base)
    blocks, partitioned = _transport(
        action, tables, keys, lambda image: Subgraph._ascending(action, _sorted_keys(image))
    )
    if not partitioned:
        fixed = fixed_edge_witness(graph, group)
        if fixed is not None:
            raise PreconditionFailed(
                f"group is not semiregular on edges: an element fixes {fixed[1]}", witness=fixed
            )
        orbits = edge_orbits(graph, group)
        check = orbit_transversal_check(base, orbits)
        if not check.ok:
            bad = [orbits[i].id for i, c in enumerate(check.counts) if c != 1]
            raise PreconditionFailed(
                f"base subgraph is not an orbit transversal: counts off in {len(bad)} orbits",
                witness=(bad, check.counts),
            )
    return Decomposition(tuple(blocks), group, base)


def _component_shapes(adj: dict) -> list[tuple[str, int]]:
    """Sorted (kind, edge count) of the components of an adjacency of maximum degree <= 2.

    Each such component is a path (|V| = |E| + 1) or a cycle (|V| = |E|),
    so two of these graphs are isomorphic exactly when the lists agree.
    """
    unseen = set(adj)
    shapes = []
    while unseen:
        stack = [unseen.pop()]
        vertices = degree_sum = 0
        while stack:
            v = stack.pop()
            vertices += 1
            degree_sum += len(adj[v])
            stack.extend(adj[v] & unseen)
            unseen -= adj[v]
        edges = degree_sum // 2
        shapes.append(("cycle" if edges == vertices else "path", edges))
    return sorted(shapes)


def is_path_subgraph(sub: Subgraph) -> bool:
    """Connected, max degree 2, exactly two degree-1 vertices, |V| = |E| + 1."""
    adj = _index_adjacency(sub)
    return max(map(len, adj.values())) <= 2 and _component_shapes(adj) == [("path", len(sub.keys))]


def _isomorphism_side(b: Subgraph) -> tuple:
    """b's side of subgraphs_isomorphic: its sorted degrees, then its component shapes if no
    degree passes 2, else its neighbour and degree masks over its vertices as bits."""
    adj = _index_adjacency(b)
    degrees = sorted(map(len, adj.values()))
    if degrees[-1] <= 2:
        return degrees, _component_shapes(adj), {}, {}
    bit = {v: 1 << i for i, v in enumerate(adj)} if len(degrees) <= ISO_VERTEX_CAP else {}
    of_degree: dict = defaultdict(int)
    for v in bit:
        of_degree[len(adj[v])] |= bit[v]
    return degrees, None, {bit[v]: sum(map(bit.__getitem__, adj[v])) for v in bit}, of_degree


def subgraphs_isomorphic(a: Subgraph, b: Subgraph, side: tuple | None = None) -> bool:
    """Graph isomorphism of two edge-induced subgraphs.

    Equal key sets on one graph are isomorphic by the identity map.
    Graphs of maximum degree at most 2 are disjoint paths and cycles and
    are compared by their component shapes.  Anything else goes through
    a backtracking search, which raises IsomorphismCapExceeded above
    ISO_VERTEX_CAP vertices.  The search places a's vertices in turn,
    each next to an already placed one when possible, onto b's vertices
    held as bits.  A candidate x for vertex v must be unused and of v's
    degree, and x's neighbours among the used vertices must be exactly
    the images of v's placed neighbours, so a placed non-neighbour
    rejects x as surely as a missing neighbour does.  A caller testing
    many a against one b passes ``side``, _isomorphism_side(b), built once.
    """
    if a.action.graph == b.action.graph and a.keys == b.keys:
        return True
    if a.edge_count != b.edge_count:
        return False
    degrees, shapes, neighbours, of_degree = side or _isomorphism_side(b)
    adj_a = _index_adjacency(a)
    if degrees != sorted(map(len, adj_a.values())):
        return False
    if shapes is not None:
        return _component_shapes(adj_a) == shapes
    if len(degrees) > ISO_VERTEX_CAP:
        raise IsomorphismCapExceeded(f"isomorphism search capped at {ISO_VERTEX_CAP} vertices")

    rank = {v: (len(ws), v) for v, ws in adj_a.items()}
    # a's vertices in visiting order, each with its neighbours placed before it
    order, image, rest, frontier = [], {}, set(adj_a), set()
    while rest:
        v = max(frontier or rest, key=rank.__getitem__)
        rest.discard(v)
        order.append((v, adj_a[v] - rest))
        frontier = (frontier | adj_a[v]) & rest

    def extend(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v, placed = order[i]
        want, free = 0, of_degree[len(adj_a[v])] & ~used
        for w in placed:
            want |= image[w]
            free &= neighbours[image[w]]
        while free:
            x = free & -free
            free ^= x
            if neighbours[x] & used == want:
                image[v] = x
                if extend(i + 1, used | x):
                    return True
        return False

    return extend(0, 0)


class PartitionCheck(NamedTuple):
    """Multiset comparison of block edges against the graph's edge set."""

    ok: bool
    duplicated: tuple
    missing: tuple


def partition_witnesses(graph, blocks: Iterable[Subgraph]) -> PartitionCheck:
    """Do the blocks cover every edge exactly once?  Witnesses; ValueError for a key of no edge."""
    action, block_keys = EdgeAction(graph), [_keys_on(graph, block) for block in blocks]
    if _covers_once(action, block_keys):
        return PartitionCheck(True, (), ())
    present: set = set()
    for keys in block_keys:
        action.check_keys(keys)
        present.update(keys)
    duplicated: tuple = ()
    if len(present) != sum(map(len, block_keys)):
        repeated = Counter(chain.from_iterable(block_keys))
        duplicated = action.edges(sorted(k for k, c in repeated.items() if c > 1))
    missing: tuple = ()
    if len(present) != graph.edge_count:
        missing = action.edges(k for k in action.all_keys() if k not in present)
    return PartitionCheck(not duplicated and not missing, duplicated, missing)


def _partition_off_images(action, block_keys: list, signatures: list, images: set) -> PartitionCheck:
    """partition_witnesses of blocks with these keys and byte signatures, where ``images`` are
    the signatures of key arrays certified to partition E, so each edge lies in one image.

    Only three small sets are read: the blocks that are no image, whose keys are range-checked
    in block order; the images that are no block, whose keys no image block covers; and the
    image blocks that repeat, whose keys are all duplicated.  A key of a block that is no image
    is duplicated when another such block holds it too, or an image block covers it.
    """
    spare: Counter = Counter()
    for keys, sig in zip(block_keys, signatures):
        if sig not in images:
            action.check_keys(keys)
            spare.update(keys)
    present = set(signatures)
    uncovered = {k for sig in images - present for k in array("q", sig)}
    duplicated = {k for k, c in spare.items() if c > 1 or k not in uncovered}
    if len(present) != len(signatures):
        repeated = [sig for sig, c in Counter(signatures).items() if c > 1 and sig in images]
        duplicated.update(chain.from_iterable(array("q", sig) for sig in repeated))
    missing = uncovered.difference(spare)
    edges = action.edges
    return PartitionCheck(not duplicated and not missing, edges(sorted(duplicated)), edges(sorted(missing)))


def verify_decomposition(graph, group: FiniteGroup, dec: Decomposition) -> VerificationReport:
    """Recheck every structural claim of a decomposition from the vertex permutations.

    The premises are checked first, with build_orbit_decomposition's
    exceptions.  Nothing about ``dec`` is trusted: every key a block carries is range-checked
    (the base's ValueError), and the flags are recomputed from the
    vertex tables of ``group``.  Blocks that are exactly the |G|
    distinct images of the base, with those images certified to partition
    the edges (see the module docstring), pass all six.  Otherwise each
    flag is checked on its own.  While the certificate holds, the
    partition is read off the images: only the blocks that are no image
    and the images that are no block are read, and only the witnesses
    are sorted, and semiregular holds with no fixed-edge scan.  Without
    it, partition_witnesses sorts every key.  A block equal to an image
    of the base is certified isomorphic by that element, only other
    blocks go through the isomorphism test, whose base side is built
    once, and every failed flag carries a concrete witness.
    """
    action, tables, base_keys = _premises(graph, group, dec.base)
    images, partitioned = _transport(action, tables, base_keys, lambda image: _sorted_keys(image).tobytes())
    return _check_flags(graph, group, dec, action, images, partitioned)


def _check_flags(graph, group, dec, action, images: list[bytes], partitioned) -> VerificationReport:
    """verify_decomposition's flags, past the premises: ``images`` are the base's images as
    array bytes in group order, and ``partitioned`` whether they are certified to partition E."""
    block_keys = [_keys_on(graph, block) for block in dec.blocks]
    signatures = [keys.tobytes() for keys in block_keys]
    block_set = set(signatures)
    certified = set(images)
    if partitioned and len(signatures) == group.order and block_set == certified:
        return VerificationReport({})

    if partitioned:
        partition = _partition_off_images(action, block_keys, signatures, certified)
    else:
        partition = partition_witnesses(graph, dec.blocks)
    witnesses: dict = {}
    if not partition.ok:
        witnesses["is_partition"] = {
            "duplicated": list(partition.duplicated),
            "missing": list(partition.missing),
            "foreign": [],
        }

    side = None  # the base's side of the isomorphism test, built for the first block that needs it
    for idx, block in enumerate(dec.blocks):
        if signatures[idx] in certified:
            continue
        if side is None and block.edge_count == dec.base.edge_count:
            side = _isomorphism_side(dec.base)
        try:
            same = subgraphs_isomorphic(block, dec.base, side)
        except IsomorphismCapExceeded as err:
            err.block_index = idx
            raise
        if not same:
            witnesses["blocks_isomorphic_to_base"] = {"block_index": idx}
            break

    generators = dict.fromkeys(group.generators)  # a repeated one fails where its first copy does
    for idx, keys in enumerate(block_keys):
        if len(keys) == graph.edge_count:  # |E| range-checked keys are E, which automorphisms fix
            continue
        for gen in generators:
            if array("q", sorted(action.image_keys(gen.table, keys))).tobytes() not in block_set:
                gdx = group.generators.index(gen)
                witnesses["group_invariant"] = {"block_index": idx, "generator_index": gdx}
                break
        if "group_invariant" in witnesses:
            break

    if dec.blocks and block_set != certified:
        unreached = [i for i, sig in enumerate(signatures) if sig not in certified]
        witnesses["group_transitive"] = {"unreached_blocks": unreached}

    stabilizer = images.count(dec.base.keys.tobytes())
    if stabilizer != 1:
        witnesses["stabilizer_trivial"] = {"stabilizer_order": stabilizer}

    fixed = None if partitioned else fixed_edge_witness(graph, group)  # a bijection fixes no edge
    if fixed is not None:
        witnesses["semiregular"] = {"element": fixed[0], "edge": fixed[1]}

    return VerificationReport(witnesses)


def is_odd_prime(n: int) -> bool:
    """Trial division by odd numbers; 2 is excluded by the oddness requirement."""
    return n >= 3 and n % 2 == 1 and all(n % d for d in range(3, isqrt(n) + 1, 2))


def _staircase_walk(n: int, force: bool) -> Walk:
    """build_staircase_path(n) past staircase_decomposition's width gate (NotOddPrime)."""
    if not is_odd_prime(n):
        if n < 3 or n % 2 == 0:
            raise NotOddPrime(f"staircase decomposition needs odd n >= 3, got {n}")
        if not force:
            raise NotOddPrime(f"{n} is not prime; pass force=True to run the checks anyway")
    return build_staircase_path(n)


def _certified_build(graph, group: FiniteGroup, base: Subgraph) -> tuple[Decomposition, VerificationReport]:
    """build_orbit_decomposition and its all-ok report, certified by the transport its blocks come from.

    Build returns only with its images certified: _transport certified
    them, or the group is semiregular and the base an exact orbit
    transversal, which imply the certificate (the orbits have |G| edges,
    one each in the base, and a base edge in a non-identity image would
    put two base edges in one orbit or make that element fix one).  So
    the blocks are the |G| certified images and every flag holds by the
    bijection G x H -> E; any other input raises build's PreconditionFailed.
    """
    return build_orbit_decomposition(graph, group, base), VerificationReport({})


def staircase_decomposition(n: int, force: bool = False):
    """End-to-end staircase pipeline for K_n [box] K_n under the row shift.

    Builds the certified staircase path, the cyclic group, and the
    orbit decomposition, certified by the transport its blocks come from.
    Returns the pair (Decomposition, VerificationReport).

    Odd primes are the supported widths.  ``force`` lifts the primality
    gate (never the oddness gate) so that odd composites can be fed
    through the same pipeline; those fail inside build_staircase_path
    with a ConstructionInvalid naming the repeated vertex.
    """
    walk = _staircase_walk(n, force)
    graph = GridGraph(n, n)
    action = EdgeAction(graph)
    base = Subgraph(action, action.walk_keys(walk), walk)
    return _certified_build(graph, generate_group([row_shift(n, n)]), base)


def gallai_check(graph, dec: Decomposition) -> bool:
    """Path-count bound for path decompositions of connected graphs.

    A connected graph on N vertices should decompose into at most
    (N + 1) / 2 paths; callers are expected to have verified that the
    blocks really are paths, with is_path_subgraph.
    """
    return 2 * len(dec.blocks) <= graph.vertex_count + 1


def haggkvist_split(path: Walk, b: int) -> list[Subgraph]:
    """Cut a path walk into consecutive segments of b edges each.

    Splitting every block of a 2b-regular graph's path decomposition
    this way refines it into a decomposition by b-edge paths.  ``b``
    must divide the walk length, and a walk that is no path raises
    ValueError naming its first repeated vertex.  Segment j holds,
    sorted, the keys of stretch j of the walk's walk_keys, and no walk:
    a stretch of a path is a b-edge path.
    """
    if b < 1:
        raise ValueError(f"segment size must be positive, got {b}")
    if path.length % b != 0:
        raise ValueError(f"segment size {b} does not divide path length {path.length}")
    if not is_path(path):
        i, j, v = first_repeated_vertex(path)
        raise ValueError(f"walk revisits {v} at positions {i} and {j}")
    action = EdgeAction(GridGraph(path.n, path.m))
    keys, starts = action.walk_keys(path), range(0, path.length, b)
    return [Subgraph._ascending(action, array("q", sorted(keys[i : i + b]))) for i in starts]


K9_TRIANGLES = ((1, 4, 5), (2, 6, 8), (3, 7, 9), (5, 6, 7))
K9_GENERATOR_CYCLES = ((1, 4, 7), (2, 5, 8), (3, 6, 9))


def k9_fixture() -> tuple:
    """K_9 under a fixed-point-free order-3 rotation, base = four disjoint triangles.

    Returns (graph, group, base).  The twelve triangle edges hit the
    twelve edge orbits once each, so the three images of the base
    partition the 36 edges; each block splits into four triangles,
    giving a triangle decomposition of K_9.  The orbits are always
    recomputed from the group, never hard-coded.
    """
    graph = CompleteGraph(9)
    gen = permutation_from_cycles(graph, K9_GENERATOR_CYCLES)
    group = generate_group([gen])
    edges = []
    for tri in K9_TRIANGLES:
        a, b, c = tri
        edges.extend([LabelEdge(a, b), LabelEdge(b, c), LabelEdge(a, c)])
    return graph, group, Subgraph.of_edges(graph, edges)


DIAG4_STEPS = (
    (0, 1), (0, 1), (0, 1),
    (1, 0), (1, 0), (1, 0),
    (0, 2), (2, 0), (0, 3), (2, 0), (0, 2), (3, 0),
)


def diagonal_fixture_n4() -> tuple:
    """K_4 [box] K_4 under the diagonal shift, base = a hand-picked 12-edge path.

    Returns (graph, group, base).  Even width rules out the row shift
    (it fixes edges setwise), but the diagonal shift acts semiregularly
    here and this particular step array traces an orbit transversal, so
    the four images partition the 48 edges.
    """
    graph = GridGraph(4, 4)
    group = generate_group([diagonal_shift(4)])
    walk = walk_from_array((0, 0), DIAG4_STEPS, 4, 4)
    action = EdgeAction(graph)
    return graph, group, Subgraph(action, action.walk_keys(walk), walk)
