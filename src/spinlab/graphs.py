"""Finite graphs, translation groups, and random vertex-subset specifications.

Vertex indexing on tori and boxes is row-major over coordinates
(``numpy.unravel_index`` with C order), so masks are portable across runs.
Subset masks are boolean numpy arrays over vertices; the exact layer converts
them to integer bitmasks via :mod:`spinlab._bits`.

A law of the random observation set U is a `SubsetSpec`: one frozen
dataclass per kind (`Fixed`, `Bernoulli`, `UniformK`, `UniformTranslate`,
`Tiled`, `UnionOfKCopies`, `Explicit`), each holding its own sampling,
exact revealment, support enumeration and JSON document. `sample_subset`,
`revealment` and `subset_support` are the entry points for every kind.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from . import _bits

# Full translation groups are materialized only for small graphs; larger
# tori use shift arithmetic instead of stored permutations.
TRANSLATION_CAP = 1024


@dataclass
class Graph:
    n_vertices: int
    edges: np.ndarray  # (m, 2) int64, u < v, lexicographically sorted
    kind: str  # cycle | torus | box | complete | custom
    kind_params: dict = field(default_factory=dict)
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

    def _edge_set(self) -> set[tuple[int, int]]:
        return {(int(u), int(v)) for u, v in self.edges}

    def _check_translations(self):
        eset = self._edge_set()
        for perm in self.translations:
            if sorted(perm) != list(range(self.n_vertices)):
                raise ValueError("translation is not a permutation")
            for u, v in self.edges:
                a, b = int(perm[u]), int(perm[v])
                if (min(a, b), max(a, b)) not in eset:
                    raise ValueError("translation does not preserve edges")

    def is_transitive(self) -> bool:
        return self.kind in ("cycle", "torus", "complete") or (
            self.translations is not None and self._acts_transitively()
        )

    def _acts_transitively(self) -> bool:
        hit = np.zeros(self.n_vertices, dtype=bool)
        hit[self.translations[:, 0]] = True
        return bool(hit.all())

    def translation_permutation(self, shift) -> np.ndarray:
        """Permutation images for one group element.

        For cycle/torus/box kinds `shift` is a coordinate shift vector; for
        complete graphs it is a rotation amount; custom graphs must carry an
        explicit translation list and `shift` indexes into it.
        """
        n = self.n_vertices
        if self.kind in ("cycle", "torus"):
            shape = self._shape()
            coords = np.unravel_index(np.arange(n), shape)
            shifted = tuple(
                (coords[i] + int(np.atleast_1d(shift)[i])) % shape[i]
                for i in range(len(shape))
            )
            return np.ravel_multi_index(shifted, shape).astype(np.int64)
        if self.kind == "complete":
            return ((np.arange(n) + int(np.atleast_1d(shift)[0])) % n).astype(np.int64)
        if self.translations is not None:
            return self.translations[int(np.atleast_1d(shift)[0])]
        raise ValueError(f"graph kind {self.kind!r} has no translation group")

    def _shape(self) -> tuple[int, ...]:
        if self.kind == "cycle":
            return (self.kind_params["n"],)
        if self.kind in ("torus", "box"):
            return (self.kind_params["side"],) * self.kind_params["d"]
        raise ValueError("graph has no coordinate shape")

    def random_translation(self, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "cycle":
            return self.translation_permutation([rng.integers(self.n_vertices)])
        if self.kind == "torus":
            side = self.kind_params["side"]
            d = self.kind_params["d"]
            return self.translation_permutation(rng.integers(side, size=d))
        if self.kind == "complete":
            return self.translation_permutation([rng.integers(self.n_vertices)])
        if self.translations is not None:
            return self.translations[rng.integers(len(self.translations))]
        raise ValueError(f"graph kind {self.kind!r} has no translation group")

    def neighbor_lists(self) -> list[list[int]]:
        nbrs: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            nbrs[int(u)].append(int(v))
            nbrs[int(v)].append(int(u))
        return nbrs

    def to_json(self) -> str:
        doc = {
            "n_vertices": self.n_vertices,
            "kind": self.kind,
            "kind_params": self.kind_params,
            "edges": self.edges.tolist(),
        }
        if self.translations is not None:
            doc["translations"] = self.translations.tolist()
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Graph":
        doc = json.loads(text)
        return Graph(
            n_vertices=doc["n_vertices"],
            edges=np.asarray(doc["edges"], dtype=np.int64).reshape(-1, 2),
            kind=doc["kind"],
            kind_params=doc.get("kind_params", {}),
            translations=(
                np.asarray(doc["translations"], dtype=np.int64)
                if "translations" in doc
                else None
            ),
        )


def _materialize_shifts(graph: Graph) -> np.ndarray | None:
    if graph.n_vertices > TRANSLATION_CAP:
        return None
    if graph.kind == "cycle":
        shifts = [[s] for s in range(graph.kind_params["n"])]
    elif graph.kind == "torus":
        side, d = graph.kind_params["side"], graph.kind_params["d"]
        shifts = list(itertools.product(range(side), repeat=d))
    elif graph.kind == "complete":
        shifts = [[s] for s in range(graph.n_vertices)]
    else:
        return None
    return np.stack([graph.translation_permutation(s) for s in shifts])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices (duplicate edges below)")
    edges = np.array([[i, (i + 1) % n] for i in range(n)], dtype=np.int64)
    g = Graph(n, edges, "cycle", {"n": n})
    g.translations = _materialize_shifts(g)
    return g


def torus(d: int, side: int) -> Graph:
    if d < 1:
        raise ValueError("torus dimension must be >= 1")
    if side < 3:
        raise ValueError("torus side must be >= 3 (duplicate edges below)")
    if d * math.log2(side) > 62:
        raise ValueError("vertex index would overflow 64-bit range")
    n = side**d
    shape = (side,) * d
    idx = np.arange(n)
    coords = np.unravel_index(idx, shape)
    edges = []
    for axis in range(d):
        shifted = list(coords)
        shifted[axis] = (coords[axis] + 1) % side
        edges.append(np.stack([idx, np.ravel_multi_index(tuple(shifted), shape)], 1))
    g = Graph(n, np.concatenate(edges), "torus", {"d": d, "side": side})
    g.translations = _materialize_shifts(g)
    return g


def box(d: int, side: int) -> Graph:
    if d < 1 or side < 1:
        raise ValueError("box needs d >= 1 and side >= 1")
    if d * math.log2(max(side, 2)) > 62:
        raise ValueError("vertex index would overflow 64-bit range")
    n = side**d
    shape = (side,) * d
    idx = np.arange(n)
    coords = np.unravel_index(idx, shape)
    edges = []
    for axis in range(d):
        keep = coords[axis] < side - 1
        shifted = list(c[keep] for c in coords)
        shifted[axis] = shifted[axis] + 1
        edges.append(
            np.stack([idx[keep], np.ravel_multi_index(tuple(shifted), shape)], 1)
        )
    return Graph(n, np.concatenate(edges) if edges else np.empty((0, 2)), "box",
                 {"d": d, "side": side})


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    edges = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)
    g = Graph(n, edges.reshape(-1, 2), "complete", {"n": n})
    g.translations = _materialize_shifts(g)
    return g


def custom(n: int, edges, translations=None) -> Graph:
    return Graph(n, np.asarray(edges, dtype=np.int64), "custom", {},
                 None if translations is None else np.asarray(translations))


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


def component_labels(
    n: int,
    edges: np.ndarray,
    edge_mask: np.ndarray | None = None,
    vertex_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Connected-component labels, canonical per component (smallest vertex).

    Components are computed over the subgraph of active vertices and active
    edges. Inactive vertices get label -1 and do not count toward k. Uses a
    direct union-find sweep for small systems and scipy's compiled routine
    for larger ones.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edge_mask is not None:
        edges = edges[np.asarray(edge_mask, dtype=bool)]
    if vertex_mask is not None:
        vmask = np.asarray(vertex_mask, dtype=bool)
        keep = vmask[edges[:, 0]] & vmask[edges[:, 1]]
        edges = edges[keep]
    else:
        vmask = None

    if n <= 64 or edges.shape[0] <= 128:
        parent = list(range(n))

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for u, v in edges:
            ru, rv = find(int(u)), find(int(v))
            if ru != rv:
                if ru < rv:
                    parent[rv] = ru
                else:
                    parent[ru] = rv
        labels = np.fromiter((find(v) for v in range(n)), dtype=np.int64, count=n)
    else:
        mat = coo_matrix(
            (np.ones(edges.shape[0], dtype=np.int8), (edges[:, 0], edges[:, 1])),
            shape=(n, n),
        )
        _, raw = connected_components(mat, directed=False)
        mins = np.full(raw.max() + 1, n, dtype=np.int64)
        np.minimum.at(mins, raw, np.arange(n))
        labels = mins[raw]

    if vmask is not None:
        labels = np.where(vmask, labels, -1)
        k = len(np.unique(labels[vmask])) if vmask.any() else 0
    else:
        k = len(np.unique(labels))
    return labels, k


# ---------------------------------------------------------------------------
# Random vertex subsets


SUPPORT_CAP = 10**6


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

    def _sample(self, graph, rng):
        perm = graph.random_translation(rng)
        out = np.zeros(graph.n_vertices, dtype=bool)
        out[perm[_bits.mask_to_indices(self.base)]] = True
        return out

    def _revealment(self, graph):
        n = graph.n_vertices
        if graph.kind in ("cycle", "torus", "complete"):
            # Free transitive shift action: every vertex is covered by
            # exactly |base| of the |group| translates.
            return np.full(n, int(self.base.sum()) / n)
        if graph.translations is None:
            raise ValueError("uniform_translate needs a translation group")
        counts = np.zeros(n)
        members = _bits.mask_to_indices(self.base)
        for perm in graph.translations:
            counts[perm[members]] += 1
        return counts / len(graph.translations)

    def _support(self, graph, cap):
        if graph.translations is None:
            raise ValueError("uniform_translate support needs materialized group")
        members = _bits.mask_to_indices(self.base)
        w = 1.0 / len(graph.translations)
        return [(int(sum(1 << int(v) for v in perm[members])), w)
                for perm in graph.translations]

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
        d, _ = _tiled_geometry(graph, self.L)
        anchor = rng.integers(self.L + 3, size=d)
        return ~tiled_complement_mask(graph, self.L, anchor)

    def _revealment(self, graph):
        d, _ = _tiled_geometry(graph, self.L)
        return np.full(graph.n_vertices, 1.0 - (self.L / (self.L + 3)) ** d)

    def _support(self, graph, cap):
        d, _ = _tiled_geometry(graph, self.L)
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
        inner = acc = subset_support(self.inner, graph, cap)
        for _ in range(self.k - 1):
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


def _tiled_geometry(graph: Graph, L: int) -> tuple[int, int]:
    if graph.kind not in ("torus", "box", "cycle"):
        raise ValueError("tiled specs need a torus, box, or cycle graph")
    if graph.kind == "cycle":
        d, side = 1, graph.kind_params["n"]
    else:
        d, side = graph.kind_params["d"], graph.kind_params["side"]
    if L < 1:
        raise ValueError("tiled block side must be >= 1")
    if L + 3 > side:
        raise ValueError(f"tiled period L+3={L + 3} exceeds side {side}")
    return d, side


def tiled_complement_mask(graph: Graph, L: int, anchor) -> np.ndarray:
    """Cells removed by the tiling anchored at `anchor` (True = removed).

    The removed set is the union of side-L cubes placed on the full
    (L+3)-periodic lattice of translates, clipped to the coordinate box;
    the pattern does not wrap around torus seams.
    """
    d, side = _tiled_geometry(graph, L)
    anchor = np.asarray(anchor, dtype=np.int64).reshape(d)
    coords = np.unravel_index(np.arange(graph.n_vertices), (side,) * d)
    return np.logical_and.reduce(
        [np.mod(coords[i] - anchor[i], L + 3) < L for i in range(d)]
    )


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


def mask_to_json(mask: np.ndarray) -> str:
    return json.dumps(_bits.mask_to_indices(mask).tolist())


def mask_from_json(text: str, n: int) -> np.ndarray:
    return _bits.indices_to_mask(json.loads(text), n)
