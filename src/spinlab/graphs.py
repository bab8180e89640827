"""Finite graphs, translation groups, and random vertex-subset specifications.

Vertex indexing on tori and boxes is row-major over coordinates
(``numpy.unravel_index`` with C order), so masks are portable across runs.
Subset masks are boolean numpy arrays over vertices; the exact layer converts
them to integer bitmasks via :mod:`spinlab._bits`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

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


@dataclass
class SubsetSpec:
    """Distribution over vertex subsets (the random observation set)."""

    kind: str
    params: dict = field(default_factory=dict)

    @staticmethod
    def fixed(mask) -> "SubsetSpec":
        return SubsetSpec("fixed", {"mask": np.asarray(mask, dtype=bool)})

    @staticmethod
    def bernoulli(p) -> "SubsetSpec":
        return SubsetSpec("bernoulli", {"p": p})

    @staticmethod
    def uniform_k(k: int) -> "SubsetSpec":
        return SubsetSpec("uniform_k", {"k": int(k)})

    @staticmethod
    def uniform_translate(base_mask) -> "SubsetSpec":
        return SubsetSpec(
            "uniform_translate", {"base": np.asarray(base_mask, dtype=bool)}
        )

    @staticmethod
    def tiled(L: int, axis_only: bool = False) -> "SubsetSpec":
        # axis_only keeps only cube translates along single axes; it exists
        # for comparison runs and carries no verified geometry properties.
        return SubsetSpec("tiled", {"L": int(L), "axis_only": bool(axis_only)})

    @staticmethod
    def union_of_k_copies(inner: "SubsetSpec", k: int) -> "SubsetSpec":
        return SubsetSpec("union_of_k_copies", {"inner": inner, "k": int(k)})

    @staticmethod
    def explicit(entries) -> "SubsetSpec":
        """Explicit support: list of (bool mask, probability)."""
        items = [(np.asarray(m, dtype=bool), float(p)) for m, p in entries]
        total = sum(p for _, p in items)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("explicit subset probabilities must sum to 1")
        return SubsetSpec("explicit", {"entries": items})

    def to_json(self) -> str:
        p = self.params
        if self.kind == "fixed":
            doc = {"kind": "fixed", "members": _bits.mask_to_indices(p["mask"]).tolist()}
        elif self.kind == "bernoulli":
            prob = p["p"]
            doc = {"kind": "bernoulli",
                   "p": prob if np.isscalar(prob) else np.asarray(prob).tolist()}
        elif self.kind == "uniform_k":
            doc = {"kind": "uniform_k", "k": p["k"]}
        elif self.kind == "uniform_translate":
            doc = {"kind": "uniform_translate",
                   "base": _bits.mask_to_indices(p["base"]).tolist()}
        elif self.kind == "tiled":
            doc = {"kind": "tiled", "L": p["L"], "axis_only": p["axis_only"]}
        elif self.kind == "union_of_k_copies":
            doc = {"kind": "union_of_k_copies", "k": p["k"],
                   "inner": json.loads(p["inner"].to_json())}
        else:
            raise ValueError(f"cannot serialize subset kind {self.kind!r}")
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str, n: int | None = None) -> "SubsetSpec":
        doc = json.loads(text) if isinstance(text, str) else text
        kind = doc["kind"]
        if kind == "fixed":
            if n is None:
                raise ValueError("fixed spec needs the vertex count")
            return SubsetSpec.fixed(_bits.indices_to_mask(doc["members"], n))
        if kind == "bernoulli":
            return SubsetSpec.bernoulli(doc["p"])
        if kind == "uniform_k":
            return SubsetSpec.uniform_k(doc["k"])
        if kind == "uniform_translate":
            if n is None:
                raise ValueError("uniform_translate spec needs the vertex count")
            return SubsetSpec.uniform_translate(_bits.indices_to_mask(doc["base"], n))
        if kind == "tiled":
            return SubsetSpec.tiled(doc["L"], doc.get("axis_only", False))
        if kind == "union_of_k_copies":
            return SubsetSpec.union_of_k_copies(
                SubsetSpec.from_json(doc["inner"], n), doc["k"]
            )
        raise ValueError(f"unknown subset kind {kind!r}")


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


def tiled_complement_mask(graph: Graph, L: int, anchor, axis_only: bool = False) -> np.ndarray:
    """Cells removed by the tiling anchored at `anchor` (True = removed).

    The removed set is the union of side-L cubes placed on the full
    (L+3)-periodic lattice of translates, clipped to the coordinate box;
    the pattern does not wrap around torus seams.
    """
    d, side = _tiled_geometry(graph, L)
    anchor = np.asarray(anchor, dtype=np.int64).reshape(d)
    coords = np.unravel_index(np.arange(graph.n_vertices), (side,) * d)
    offsets = [np.mod(coords[i] - anchor[i], L + 3) for i in range(d)]
    in_cube_axis = [off < L for off in offsets]
    if not axis_only:
        removed = np.logical_and.reduce(in_cube_axis)
    else:
        # Cubes translated along one axis only: the remaining coordinates
        # must sit inside the base cube footprint [anchor, anchor+L).
        base_axis = [
            (coords[i] - anchor[i] >= 0) & (coords[i] - anchor[i] < L)
            for i in range(d)
        ]
        removed = np.zeros(graph.n_vertices, dtype=bool)
        for i in range(d):
            cond = in_cube_axis[i]
            for j in range(d):
                if j != i:
                    cond = cond & base_axis[j]
            removed |= cond
    return removed


def _bernoulli_probs(spec: SubsetSpec, n: int) -> np.ndarray:
    prob = np.broadcast_to(np.asarray(spec.params["p"], dtype=float), (n,))
    if not np.all((prob >= 0) & (prob <= 1)):
        raise ValueError("bernoulli probabilities must lie in [0, 1]")
    return prob


def _uniform_k_size(spec: SubsetSpec, n: int) -> int:
    k = spec.params["k"]
    if not 0 <= k <= n:
        raise ValueError(f"uniform_k needs 0 <= k <= {n}, got {k}")
    return k


def sample_subset(spec: SubsetSpec, graph: Graph, rng: np.random.Generator) -> np.ndarray:
    """Draw one subset realization as a boolean mask."""
    n = graph.n_vertices
    k = spec.kind
    p = spec.params
    if k == "fixed":
        mask = p["mask"]
        if len(mask) != n:
            raise ValueError("fixed mask length mismatch")
        return mask.copy()
    if k == "bernoulli":
        return rng.random(n) < _bernoulli_probs(spec, n)
    if k == "uniform_k":
        size = _uniform_k_size(spec, n)
        return _bits.indices_to_mask(rng.choice(n, size=size, replace=False), n)
    if k == "uniform_translate":
        perm = graph.random_translation(rng)
        out = np.zeros(n, dtype=bool)
        out[perm[_bits.mask_to_indices(p["base"])]] = True
        return out
    if k == "tiled":
        d, _ = _tiled_geometry(graph, p["L"])
        anchor = rng.integers(p["L"] + 3, size=d)
        return ~tiled_complement_mask(graph, p["L"], anchor, p["axis_only"])
    if k == "union_of_k_copies":
        out = np.zeros(n, dtype=bool)
        for _ in range(p["k"]):
            out |= sample_subset(p["inner"], graph, rng)
        return out
    if k == "explicit":
        probs = np.array([q for _, q in p["entries"]])
        idx = rng.choice(len(probs), p=probs / probs.sum())
        return p["entries"][idx][0].copy()
    raise ValueError(f"unknown subset kind {k!r}")


def revealment(spec: SubsetSpec, graph: Graph) -> tuple[np.ndarray, float]:
    """Exact per-vertex membership probabilities and their maximum."""
    n = graph.n_vertices
    k = spec.kind
    p = spec.params
    if k == "fixed":
        vec = p["mask"].astype(float)
    elif k == "bernoulli":
        vec = _bernoulli_probs(spec, n).copy()
    elif k == "uniform_k":
        vec = np.full(n, _uniform_k_size(spec, n) / n)
    elif k == "uniform_translate":
        base_size = int(p["base"].sum())
        if graph.kind in ("cycle", "torus", "complete"):
            # Free transitive shift action: every vertex is covered by
            # exactly |base| of the |group| translates.
            vec = np.full(n, base_size / n)
        elif graph.translations is not None:
            counts = np.zeros(n)
            for perm in graph.translations:
                counts[perm[_bits.mask_to_indices(p["base"])]] += 1
            vec = counts / len(graph.translations)
        else:
            raise ValueError("uniform_translate needs a translation group")
    elif k == "tiled":
        d, _ = _tiled_geometry(graph, p["L"])
        L = p["L"]
        if not p["axis_only"]:
            vec = np.full(n, 1.0 - (L / (L + 3)) ** d)
        else:
            # P[removed] = sum over axes of (L/(L+3)) * ((L - ...)) has no
            # closed product form; enumerate the (L+3)^d anchors exactly.
            total = np.zeros(n)
            anchors = itertools.product(range(L + 3), repeat=d)
            count = 0
            for a in anchors:
                total += ~tiled_complement_mask(graph, L, a, True)
                count += 1
            vec = total / count
    elif k == "union_of_k_copies":
        inner_vec, _ = revealment(p["inner"], graph)
        vec = 1.0 - (1.0 - inner_vec) ** p["k"]
    elif k == "explicit":
        vec = np.zeros(n)
        for mask, q in p["entries"]:
            vec += q * mask
    else:
        raise ValueError(f"unknown subset kind {k!r}")
    return vec, float(vec.max(initial=0.0))


SUPPORT_CAP = 10**6


def subset_support(
    spec: SubsetSpec, graph: Graph, cap: int = SUPPORT_CAP
) -> list[tuple[int, float]]:
    """Enumerate the support as (bitmask, probability) pairs.

    Raises if the support exceeds `cap`; callers that can sample instead
    should catch that and fall back.
    """
    n = graph.n_vertices
    k = spec.kind
    p = spec.params
    if k == "fixed":
        return [(_bits.mask_to_bits(p["mask"]), 1.0)]
    if k == "explicit":
        return [(_bits.mask_to_bits(m), q) for m, q in p["entries"]]
    if k == "bernoulli":
        if 2**n > cap:
            raise ValueError("bernoulli support too large to enumerate")
        prob = _bernoulli_probs(spec, n)
        idx = _bits.config_indices(n)
        logp = np.zeros(1 << n)
        for v in range(n):
            member = ((idx >> np.uint64(v)) & np.uint64(1)).astype(bool)
            with np.errstate(divide="ignore"):
                logp += np.where(member, np.log(prob[v]), np.log1p(-prob[v]))
        weights = np.exp(logp)
        return [(int(i), float(w)) for i, w in enumerate(weights) if w > 0]
    if k == "uniform_k":
        size = _uniform_k_size(spec, n)
        count = math.comb(n, size)
        if count > cap:
            raise ValueError("uniform_k support too large to enumerate")
        prob = 1.0 / count
        return [
            (sum(1 << v for v in combo), prob)
            for combo in itertools.combinations(range(n), size)
        ]
    if k == "uniform_translate":
        if graph.translations is not None:
            perms = graph.translations
        else:
            raise ValueError("uniform_translate support needs materialized group")
        members = _bits.mask_to_indices(p["base"])
        acc: dict[int, float] = {}
        w = 1.0 / len(perms)
        for perm in perms:
            bits = int(sum(1 << int(v) for v in perm[members]))
            acc[bits] = acc.get(bits, 0.0) + w
        return sorted(acc.items())
    if k == "tiled":
        d, _ = _tiled_geometry(graph, p["L"])
        acc = {}
        anchors = list(itertools.product(range(p["L"] + 3), repeat=d))
        w = 1.0 / len(anchors)
        for a in anchors:
            bits = _bits.mask_to_bits(~tiled_complement_mask(graph, p["L"], a, p["axis_only"]))
            acc[bits] = acc.get(bits, 0.0) + w
        return sorted(acc.items())
    if k == "union_of_k_copies":
        inner = subset_support(p["inner"], graph, cap)
        acc = {}
        for bits, prob in inner:  # explicit supports may repeat a subset
            acc[bits] = acc.get(bits, 0.0) + prob
        for _ in range(p["k"] - 1):
            nxt: dict[int, float] = {}
            for b1, q1 in acc.items():
                for b2, q2 in inner:
                    key = b1 | b2
                    nxt[key] = nxt.get(key, 0.0) + q1 * q2
            if len(nxt) > cap:
                raise ValueError("union support too large to enumerate")
            acc = nxt
        return sorted(acc.items())
    raise ValueError(f"unknown subset kind {k!r}")


def mask_to_json(mask: np.ndarray) -> str:
    return json.dumps(_bits.mask_to_indices(mask).tolist())


def mask_from_json(text: str, n: int) -> np.ndarray:
    return _bits.indices_to_mask(json.loads(text), n)
