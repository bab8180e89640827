"""Finite graphs, translation groups, and random vertex-subset specifications.

Cycles, tori and boxes are lattices, built by one builder that differs
only in whether edges wrap. `Graph.shape` is their coordinate box ((n,) for
a cycle, (side,) * d otherwise; None for complete and custom graphs) and
`Graph.coords` the (d, n) coordinates of their vertices, numbered row-major
(``numpy.unravel_index`` with C order), so masks are portable across runs.
The builders estimate the bytes of the lattice and its `Geometry`
(`check_lattice_size`) and raise `ValueError` above `LATTICE_BYTES_CAP`
before allocating.

`Graph.translations` is the translation group, a (T, n) array of vertex
permutations. Cycles, tori and complete graphs of at most `TRANSLATION_CAP`
vertices carry their coordinate shifts from one `_shift_group` call, row s
moving every vertex by the coordinates of vertex s (a complete graph gets
the rotations of its vertex numbering); a custom graph carries the list it
is given, checked to preserve edges. Boxes and larger graphs have none,
and `UniformTranslate` refuses them in all three entry points.

Subset masks are boolean numpy arrays over vertices; the exact layer converts
them to integer bitmasks via :mod:`spinlab._bits`. Each graph builds its
`Geometry` (padded neighbour rows, their edge indices and a proper vertex
colouring) once, on first use of `Graph.geometry`.

`component_labels(graph, open_edges)` is the one cluster labelling: it
takes one bond layer (m,) or R of them (R, m) and ranks the clusters of
their disjoint union 0..k-1 by smallest vertex, row r holding vertices
r*n .. r*n + n - 1.

A law of the random observation set U is a `SubsetSpec`: one frozen
dataclass per kind (`Fixed`, `Bernoulli`, `UniformK`, `UniformTranslate`,
`Tiled`, `UnionOfKCopies`, `Explicit`), each holding its own sampling,
exact revealment, support enumeration and JSON document. `sample_subset`,
`revealment` and `subset_support` are the entry points for every kind.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from . import _bits

#: Vertices above which cycles, tori and complete graphs get no translation
#: group (the group is an (n, n) array).
TRANSLATION_CAP = 1024

#: Bytes of a lattice graph and its `Geometry` above which `cycle`, `torus`
#: and `box` refuse to build it.
LATTICE_BYTES_CAP = 1 << 30


@dataclass
class Graph:
    n_vertices: int
    edges: np.ndarray  # (m, 2) int64, u < v, lexicographically sorted
    kind: str  # cycle | torus | box | complete | custom
    shape: tuple[int, ...] | None = None  # coordinate box of lattices, else None
    translations: np.ndarray | None = None  # (T, n) permutation images

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if e.size:
            e = np.sort(e, axis=1)
            order = np.lexsort((e[:, 1], e[:, 0]))
            e = e[order]
        self.edges = e
        if np.any(e[:, 0] == e[:, 1]):
            raise ValueError("self-loops are not allowed")
        if e.shape[0] > 1 and np.any(np.all(e[1:] == e[:-1], axis=1)):
            raise ValueError("duplicate edges are not allowed")
        if e.size and (e.min() < 0 or e.max() >= self.n_vertices):
            raise ValueError("edge endpoint out of range")
        if self.translations is not None:
            self.translations = np.asarray(self.translations, dtype=np.int64)
            self._check_translations()

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def _check_translations(self):
        t, n, e = self.translations, self.n_vertices, self.edges
        if t.ndim != 2 or t.shape[1] != n or np.any(
                np.sort(t, axis=1) != np.arange(n)):
            raise ValueError("translation is not a permutation")
        a, b = t[:, e[:, 0]], t[:, e[:, 1]]  # (T, m) edge images, encoded u * n + v
        if not np.isin(np.minimum(a, b) * n + np.maximum(a, b), e[:, 0] * n + e[:, 1]).all():
            raise ValueError("translation does not preserve edges")

    @functools.cached_property
    def coords(self) -> np.ndarray:
        """(d, n) coordinates of each vertex in `shape`, row-major."""
        if self.shape is None:
            raise ValueError("graph has no coordinate shape")
        return np.stack(np.unravel_index(np.arange(self.n_vertices), self.shape))

    def neighbor_lists(self) -> list[list[int]]:
        """Neighbours of each vertex in ascending order (a fresh copy)."""
        return [list(row) for row in self.geometry.lists]

    @functools.cached_property
    def geometry(self) -> "Geometry":
        """Neighbour arrays and vertex colouring, built once per graph."""
        return Geometry.of(self)

    @functools.cached_property
    def edge_list(self) -> list[list[int]]:
        """`edges` as Python lists, built once per graph on first use, for
        the scalar single-chain loops (graphs that only run the array
        kernels never pay for it)."""
        return self.edges.tolist()


@dataclass(frozen=True, eq=False)
class Geometry:
    """The neighbour structure of a graph in the forms the samplers use.

    `nbrs[v]` lists the neighbours of v in ascending order, padded with the
    sentinel n up to the maximum degree, so that a configuration extended by
    one zero column sums any vertex's neighbourhood in one gather. `lists`
    holds the same rows unpadded, for scalar loops. `slot_edge[v, j]` is
    the index in `graph.edges` of the edge from v to `nbrs[v, j]`, and m
    (the edge count) on padding, so a bond mask extended by one closed
    column opens the slots of its edges in one gather. `classes` is a
    greedy proper colouring in index order: no edge joins two vertices of
    one class, and even tori and even cycles get exactly two classes.
    """

    nbrs: np.ndarray  # (n, max degree) int64
    slot_edge: np.ndarray  # (n, max degree) int64
    lists: list[list[int]]
    classes: tuple[np.ndarray, ...]

    @property
    def max_degree(self) -> int:
        return self.nbrs.shape[1]

    @staticmethod
    def of(graph: Graph) -> "Geometry":
        n, m = graph.n_vertices, graph.n_edges
        ends = np.concatenate([graph.edges, graph.edges[:, ::-1]])
        order = np.lexsort((ends[:, 1], ends[:, 0]))
        ends = ends[order]
        degree = np.bincount(ends[:, 0], minlength=n)
        nbrs = np.full((n, int(degree.max(initial=0))), n, dtype=np.int64)
        slot_edge = np.full(nbrs.shape, m, dtype=np.int64)
        first = np.cumsum(degree) - degree
        slot = (ends[:, 0], np.arange(len(ends)) - first[ends[:, 0]])
        nbrs[slot] = ends[:, 1]
        slot_edge[slot] = order % m  # ends lists every edge twice
        lists = [row[:d] for row, d in zip(nbrs.tolist(), degree.tolist())]
        colour = [0] * n
        for v, row in enumerate(lists):
            used = {colour[u] for u in row if u < v}
            colour[v] = next(c for c in itertools.count() if c not in used)
        colour = np.asarray(colour, dtype=np.int64)
        classes = tuple(
            np.flatnonzero(colour == c) for c in range(int(colour.max(initial=-1)) + 1)
        )
        return Geometry(nbrs, slot_edge, lists, classes)


def _shift_group(shape: tuple[int, ...]) -> np.ndarray | None:
    """The coordinate shifts of the periodic box `shape` as an (n, n) array,
    row s moving vertex i to (coords(i) + coords(s)) mod shape, or None above
    `TRANSLATION_CAP` vertices. The rows preserve edges by construction, so
    the builders set them after `Graph` has checked its other fields."""
    n = math.prod(shape)
    if n > TRANSLATION_CAP:
        return None
    group = 0
    for c, side in zip(np.unravel_index(np.arange(n), shape), shape):
        group = group * side + (c[:, None] + c) % side
    return group


def _lattice(kind: str, d: int, side: int, wrap: bool) -> Graph:
    """The d-dimensional grid of the given side, vertices numbered row-major,
    joining each vertex to its successor along every axis; `wrap` closes each
    axis into a cycle and gives the graph its shift group."""
    check_lattice_size(d, side)
    shape = (side,) * d
    idx = np.arange(side**d)
    coords = np.unravel_index(idx, shape)
    edges = []
    for axis in range(d):
        shifted = list(coords)
        shifted[axis] = (coords[axis] + 1) % side
        pairs = np.stack([idx, np.ravel_multi_index(tuple(shifted), shape)], 1)
        edges.append(pairs if wrap else pairs[coords[axis] < side - 1])
    g = Graph(idx.size, np.concatenate(edges), kind, shape)
    if wrap:
        g.translations = _shift_group(shape)
    return g


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices (duplicate edges below)")
    return _lattice("cycle", 1, n, wrap=True)


def check_lattice_size(d: int, side: int) -> None:
    """Raise `ValueError` unless the d-dimensional lattice of the given side
    and its `Geometry`, which every sampler builds on first use, fit under
    `LATTICE_BYTES_CAP`.

    The Geometry is the peak: tracemalloc measured 536 bytes per vertex on
    the 600 x 600 torus and box and 728 on the 100^3 torus and box, while
    the builders themselves peaked at 176-271.
    """
    est = (152 + 192 * d) * side**d
    if est > LATTICE_BYTES_CAP:
        raise ValueError(
            f"a {d}-dimensional lattice of side {side} needs about {est} bytes, "
            f"over the cap of {LATTICE_BYTES_CAP}")


def torus(d: int, side: int) -> Graph:
    if d < 1:
        raise ValueError("torus dimension must be >= 1")
    if side < 3:
        raise ValueError("torus side must be >= 3 (duplicate edges below)")
    return _lattice("torus", d, side, wrap=True)


def box(d: int, side: int) -> Graph:
    if d < 1 or side < 1:
        raise ValueError("box needs d >= 1 and side >= 1")
    return _lattice("box", d, side, wrap=False)


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    edges = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)
    g = Graph(n, edges.reshape(-1, 2), "complete")
    g.translations = _shift_group((n,))
    return g


def custom(n: int, edges, translations=None) -> Graph:
    return Graph(n, np.asarray(edges, dtype=np.int64), "custom",
                 translations=None if translations is None else np.asarray(translations))


def build_graph(spec: dict) -> Graph:
    """Build a graph from a JSON-style description ``{"type": ..., sizes}``."""
    kind = spec["type"]
    if kind == "cycle":
        return cycle(spec["n"])
    if kind == "torus":
        return torus(spec["d"], spec["side"])
    if kind == "box":
        return box(spec["d"], spec["side"])
    if kind == "complete":
        return complete(spec["n"])
    if kind == "custom":
        return custom(spec["n"], spec["edges"], spec.get("translations"))
    raise ValueError(f"unknown graph type {kind!r}")


def component_labels(graph: Graph, open_edges) -> tuple[np.ndarray, int]:
    """Clusters of the open-edge subgraphs of `graph`, as ranked labels.

    `open_edges` is a bool array of shape (m,) or (R, m), one bond layer per
    row. The labels have shape (n,) or (R, n): row r holds vertices
    r*n .. r*n + n - 1 of the disjoint union of the R layers, so no two rows
    share a label, and the k clusters of the union are numbered 0..k-1 in the
    order of their smallest vertex. The open slots of `Geometry.nbrs` (read
    through `Geometry.slot_edge`) are the rows of one symmetric CSR matrix,
    whose strong components are its connected components: scipy finds them
    without the transpose of its undirected search and numbers them in that
    order.
    """
    opens = np.asarray(open_edges, dtype=bool)
    geom = graph.geometry
    n, m, degmax = graph.n_vertices, graph.n_edges, geom.max_degree
    rows = np.atleast_2d(opens)
    size = len(rows) * n
    is_open = np.zeros((len(rows), m + 1), dtype=bool)  # column m: the padding slot
    is_open[:, :m] = rows
    open_slots = is_open.take(geom.slot_edge.ravel(), axis=1).ravel()
    indptr = np.zeros(size + 1, dtype=np.int32)
    if degmax:
        indptr[1:] = np.cumsum(open_slots, dtype=np.int32)[degmax - 1::degmax]
    offsets = n * np.arange(len(rows), dtype=np.int32)[:, None]
    indices = np.compress(open_slots, geom.nbrs.ravel().astype(np.int32) + offsets)
    mat = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(size, size))
    k, labels = connected_components(mat, directed=True, connection="strong")
    return labels.reshape(opens.shape[:-1] + (n,)), k


# ---------------------------------------------------------------------------
# Random vertex subsets


SUPPORT_CAP = 10**6
#: Pairs of subsets that one copy of `UnionOfKCopies` may combine while it
#: enumerates its support: several seconds of dictionary updates.
SUPPORT_PAIR_CAP = 10**7


class SubsetSpec:
    """Law of the random observation set U.

    Each kind is one frozen dataclass below, registered under its JSON
    ``kind`` in SPEC_KINDS. `sample_subset`, `revealment` and
    `subset_support` call the kind's `_check`, which raises ValueError when
    the spec cannot act on the graph, and then its `_sample`, `_revealment`
    or `_support`.
    """

    kind: ClassVar[str]

    def _doc(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def _from_doc(cls, doc: dict, n: int | None) -> "SubsetSpec":
        return cls(*(doc[f.name] for f in fields(cls)))

    def to_json(self) -> str:
        return json.dumps(_jsonable(self), sort_keys=True, default=_jsonable)

    @staticmethod
    def from_json(text, n: int | None = None) -> "SubsetSpec":
        """Parse a JSON document or its decoded dict; kinds that list
        vertices need the vertex count `n`. Unknown kinds and missing,
        unexpected or wrongly typed fields raise ValueError."""
        doc = json.loads(text) if isinstance(text, str) else text
        kind = doc.get("kind") if isinstance(doc, dict) else None
        if not isinstance(kind, str) or kind not in SPEC_KINDS:
            raise ValueError(f"unknown subset kind in {doc!r}")
        try:
            spec = SPEC_KINDS[kind]._from_doc(doc, n)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {kind} spec {doc!r}: {exc!r}") from exc
        if set(doc) != set(json.loads(spec.to_json())):
            raise ValueError(f"unexpected fields in {kind} spec {doc!r}")
        return spec


def _jsonable(x):
    """JSON form of a spec, or of a numpy value inside one."""
    if isinstance(x, SubsetSpec):
        return {"kind": x.kind, **x._doc()}
    return x.tolist()


def _index(value) -> int:
    """An integer field; floats, strings and booleans raise TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _reals(value) -> np.ndarray:
    """Numeric field(s) as floats; strings, booleans and None raise TypeError."""
    if np.asarray(value).dtype.kind not in "iuf":
        raise TypeError(f"expected numbers, got {value!r}")
    return np.asarray(value, dtype=float)


def _members(value, n: int | None) -> np.ndarray:
    """A JSON vertex list as a mask over n vertices."""
    if n is None:
        raise ValueError("a spec that lists vertices needs the vertex count")
    members = [_index(v) for v in value]
    if any(not 0 <= v < n for v in members):
        raise ValueError(f"vertex list {value!r} leaves [0, {n})")
    return _bits.indices_to_mask(members, n)


def _check_mask(mask: np.ndarray, graph: Graph) -> None:
    if mask.shape != (graph.n_vertices,):
        raise ValueError(f"mask of length {len(mask)} for {graph.n_vertices} vertices")


@dataclass(frozen=True, eq=False)
class Fixed(SubsetSpec):
    """U is always the vertex set `mask`."""

    mask: np.ndarray
    kind = "fixed"

    def __post_init__(self):
        object.__setattr__(self, "mask", np.asarray(self.mask, dtype=bool))

    def _check(self, graph):
        _check_mask(self.mask, graph)

    def _sample(self, graph, rng):
        return self.mask.copy()

    def _revealment(self, graph):
        return self.mask.astype(float)

    def _support(self, graph, cap):
        return [(_bits.mask_to_bits(self.mask), 1.0)]

    def _doc(self):
        return {"members": _bits.mask_to_indices(self.mask)}

    @classmethod
    def _from_doc(cls, doc, n):
        return cls(_members(doc["members"], n))


@dataclass(frozen=True, eq=False)
class Bernoulli(SubsetSpec):
    """Each vertex joins U independently with probability `p`, one number
    or one per vertex."""

    p: float | list
    kind = "bernoulli"

    def __post_init__(self):
        _reals(self.p)

    def _probs(self, n: int) -> np.ndarray:
        prob = np.broadcast_to(_reals(self.p), (n,))
        if not np.all((prob >= 0) & (prob <= 1)):
            raise ValueError("bernoulli probabilities must lie in [0, 1]")
        return prob

    def _check(self, graph):
        self._probs(graph.n_vertices)

    def _sample(self, graph, rng):
        return rng.random(graph.n_vertices) < self._probs(graph.n_vertices)

    def _revealment(self, graph):
        return self._probs(graph.n_vertices).copy()

    def _support(self, graph, cap):
        n = graph.n_vertices
        if 2**n > cap:
            raise ValueError("bernoulli support too large to enumerate")
        prob = self._probs(n)
        idx = _bits.config_indices(n)
        logp = np.zeros(1 << n)
        for v in range(n):
            member = ((idx >> np.uint64(v)) & np.uint64(1)).astype(bool)
            with np.errstate(divide="ignore"):
                logp += np.where(member, np.log(prob[v]), np.log1p(-prob[v]))
        weights = np.exp(logp)
        return [(int(i), float(w)) for i, w in enumerate(weights) if w > 0]


@dataclass(frozen=True)
class UniformK(SubsetSpec):
    """U is uniform over the k-element vertex sets."""

    k: int
    kind = "uniform_k"

    def __post_init__(self):
        object.__setattr__(self, "k", _index(self.k))

    def _check(self, graph):
        if not 0 <= self.k <= graph.n_vertices:
            raise ValueError(f"uniform_k needs 0 <= k <= {graph.n_vertices}, got {self.k}")

    def _sample(self, graph, rng):
        n = graph.n_vertices
        return _bits.indices_to_mask(rng.choice(n, size=self.k, replace=False), n)

    def _revealment(self, graph):
        return np.full(graph.n_vertices, self.k / graph.n_vertices)

    def _support(self, graph, cap):
        count = math.comb(graph.n_vertices, self.k)
        if count > cap:
            raise ValueError("uniform_k support too large to enumerate")
        combos = itertools.combinations(range(graph.n_vertices), self.k)
        return [(sum(1 << v for v in combo), 1.0 / count) for combo in combos]


@dataclass(frozen=True, eq=False)
class UniformTranslate(SubsetSpec):
    """U is the vertex set `base` moved by a uniform element of the graph's
    translation group."""

    base: np.ndarray
    kind = "uniform_translate"

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=bool))

    def _check(self, graph):
        _check_mask(self.base, graph)
        if graph.translations is None:
            raise ValueError(f"uniform_translate needs a translation group; this "
                             f"graph of {graph.n_vertices} vertices has none")

    def _sample(self, graph, rng):
        perm = graph.translations[rng.integers(len(graph.translations))]
        out = np.zeros(graph.n_vertices, dtype=bool)
        out[perm[self.base]] = True
        return out

    def _revealment(self, graph):
        hits = np.bincount(graph.translations[:, self.base].ravel(),
                           minlength=graph.n_vertices)
        return hits / len(graph.translations)

    def _support(self, graph, cap):
        w = 1.0 / len(graph.translations)
        return [(int(sum(1 << v for v in images)), w)
                for images in graph.translations[:, self.base].tolist()]

    def _doc(self):
        return {"base": _bits.mask_to_indices(self.base)}

    @classmethod
    def _from_doc(cls, doc, n):
        return cls(_members(doc["base"], n))


@dataclass(frozen=True)
class Tiled(SubsetSpec):
    """U is the complement of side-L cubes on an (L+3)-periodic lattice
    with a uniform anchor; see `tiled_complement_mask`."""

    L: int
    kind = "tiled"

    def __post_init__(self):
        object.__setattr__(self, "L", _index(self.L))

    def _check(self, graph):
        _tiled_geometry(graph, self.L)

    def _sample(self, graph, rng):
        d = _tiled_geometry(graph, self.L)
        anchor = rng.integers(self.L + 3, size=d)
        return ~tiled_complement_mask(graph, self.L, anchor)

    def _revealment(self, graph):
        d = _tiled_geometry(graph, self.L)
        return np.full(graph.n_vertices, 1.0 - (self.L / (self.L + 3)) ** d)

    def _support(self, graph, cap):
        d = _tiled_geometry(graph, self.L)
        anchors = list(itertools.product(range(self.L + 3), repeat=d))
        w = 1.0 / len(anchors)
        return [
            (_bits.mask_to_bits(~tiled_complement_mask(graph, self.L, a)), w)
            for a in anchors
        ]


@dataclass(frozen=True)
class UnionOfKCopies(SubsetSpec):
    """U is the union of k >= 1 independent draws from `inner`."""

    inner: SubsetSpec
    k: int
    kind = "union_of_k_copies"

    def __post_init__(self):
        object.__setattr__(self, "k", _index(self.k))

    def _check(self, graph):
        if self.k < 1:
            raise ValueError(f"union_of_k_copies needs k >= 1, got {self.k}")

    def _sample(self, graph, rng):
        out = np.zeros(graph.n_vertices, dtype=bool)
        for _ in range(self.k):
            out |= sample_subset(self.inner, graph, rng)
        return out

    def _revealment(self, graph):
        inner_vec, _ = revealment(self.inner, graph)
        return 1.0 - (1.0 - inner_vec) ** self.k

    def _support(self, graph, cap):
        # each copy after the first pairs every subset so far with every
        # inner one; the first pairing needs |inner|^2 <= SUPPORT_PAIR_CAP,
        # which kinds that count their support refuse before enumerating it
        inner_cap = min(cap, math.isqrt(SUPPORT_PAIR_CAP)) if self.k > 1 else cap
        inner = acc = subset_support(self.inner, graph, inner_cap)
        for _ in range(self.k - 1):
            if len(acc) * len(inner) > SUPPORT_PAIR_CAP:
                raise ValueError(
                    f"union of copies would combine {len(acc) * len(inner)} pairs of "
                    f"subsets (cap {SUPPORT_PAIR_CAP})")
            acc = _merged(
                ((b1 | b2, q1 * q2) for b1, q1 in acc for b2, q2 in inner), cap
            )
        return acc

    @classmethod
    def _from_doc(cls, doc, n):
        return cls(SubsetSpec.from_json(doc["inner"], n), doc["k"])


@dataclass(frozen=True, eq=False)
class Explicit(SubsetSpec):
    """U is one of the listed vertex masks, each taken with its
    probability; the probabilities are nonnegative and sum to 1."""

    entries: tuple
    kind = "explicit"

    def __post_init__(self):
        items = tuple(
            (np.asarray(m, dtype=bool), float(_reals(q))) for m, q in self.entries
        )
        if any(q < 0 for _, q in items) or abs(sum(q for _, q in items) - 1.0) > 1e-9:
            raise ValueError("explicit subset probabilities must be >= 0 and sum to 1")
        object.__setattr__(self, "entries", items)

    def _check(self, graph):
        for mask, _ in self.entries:
            _check_mask(mask, graph)

    def _sample(self, graph, rng):
        probs = np.array([q for _, q in self.entries])
        idx = rng.choice(len(probs), p=probs / probs.sum())
        return self.entries[idx][0].copy()

    def _revealment(self, graph):
        vec = np.zeros(graph.n_vertices)
        for mask, q in self.entries:
            vec += q * mask
        return vec

    def _support(self, graph, cap):
        return [(_bits.mask_to_bits(m), q) for m, q in self.entries]

    def _doc(self):
        return {"entries": [{"members": _bits.mask_to_indices(m), "p": q}
                            for m, q in self.entries]}

    @classmethod
    def _from_doc(cls, doc, n):
        return cls([(_members(e["members"], n), e["p"]) for e in doc["entries"]])


SPEC_KINDS: dict[str, type[SubsetSpec]] = {
    cls.kind: cls
    for cls in (Fixed, Bernoulli, UniformK, UniformTranslate, Tiled,
                UnionOfKCopies, Explicit)
}


def _tiled_geometry(graph: Graph, L: int) -> int:
    """The dimension of the coordinate box that tiles of side L fit in."""
    if graph.shape is None:
        raise ValueError("tiled specs need a torus, box, or cycle graph")
    if L < 1:
        raise ValueError("tiled block side must be >= 1")
    if L + 3 > min(graph.shape):
        raise ValueError(f"tiled period L+3={L + 3} exceeds side {min(graph.shape)}")
    return len(graph.shape)


def tiled_complement_mask(graph: Graph, L: int, anchor) -> np.ndarray:
    """Cells removed by the tiling anchored at `anchor` (True = removed).

    The removed set is the union of side-L cubes placed on the full
    (L+3)-periodic lattice of translates, clipped to the coordinate box;
    the pattern does not wrap around torus seams.
    """
    d = _tiled_geometry(graph, L)
    anchor = np.asarray(anchor, dtype=np.int64).reshape(d, 1)
    return np.all(np.mod(graph.coords - anchor, L + 3) < L, axis=0)


def _merged(pairs, cap: int) -> list[tuple[int, float]]:
    """(bitmask, probability) pairs with repeated subsets summed, sorted by
    bitmask; raises when more than `cap` subsets remain."""
    acc: dict[int, float] = {}
    for bits, prob in pairs:
        acc[bits] = acc.get(bits, 0.0) + prob
    if len(acc) > cap:
        raise ValueError(f"support of more than {cap} subsets is too large to enumerate")
    return sorted(acc.items())


def sample_subset(spec: SubsetSpec, graph: Graph, rng: np.random.Generator) -> np.ndarray:
    """Draw one subset realization as a boolean mask."""
    spec._check(graph)
    return spec._sample(graph, rng)


def revealment(spec: SubsetSpec, graph: Graph) -> tuple[np.ndarray, float]:
    """Exact per-vertex membership probabilities and their maximum."""
    spec._check(graph)
    vec = spec._revealment(graph)
    return vec, float(vec.max(initial=0.0))


def subset_support(
    spec: SubsetSpec, graph: Graph, cap: int = SUPPORT_CAP
) -> list[tuple[int, float]]:
    """Enumerate the support as (bitmask, probability) pairs, one per
    distinct subset, sorted by bitmask.

    Raises if the support exceeds `cap`; callers that can sample instead
    should catch that and fall back.
    """
    spec._check(graph)
    return _merged(spec._support(graph, cap), cap)
