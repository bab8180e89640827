import itertools
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinlab import _bits, graphs
from spinlab.rng import stream
from oracles import component_labels_reference
from test_block_dyn import _chains


def test_cycle_structure():
    g = graphs.cycle(4)
    assert g.n_vertices == 4
    assert g.n_edges == 4
    assert len(g.translations) == 4


def test_complete_edge_count():
    assert graphs.complete(3).n_edges == 3
    assert graphs.complete(6).n_edges == 15


def test_torus_edge_count():
    # d * side^d edges on a torus: every vertex opens one edge per axis. The
    # edge sets of tori and boxes are the literal successor along each axis,
    # wrapping on a torus only.
    for d in (1, 2, 3):
        for side in range(1, 6):
            points = list(itertools.product(range(side), repeat=d))
            index = {p: i for i, p in enumerate(points)}
            for wrap in (False, True) if side >= 3 else (False,):
                expected = set()
                for p in points:
                    for axis in range(d):
                        q = list(p)
                        q[axis] += 1
                        if q[axis] == side:
                            if not wrap:
                                continue
                            q[axis] = 0
                        u, v = index[p], index[tuple(q)]
                        expected.add((min(u, v), max(u, v)))
                g = (graphs.torus if wrap else graphs.box)(d, side)
                assert g.n_vertices == side**d
                assert g.n_edges == len(expected)
                if wrap:
                    assert g.n_edges == d * side**d
                assert {(int(u), int(v)) for u, v in g.edges} == expected
                assert g.shape == (side,) * d
                assert g.coords.T.tolist() == [list(p) for p in points]
                assert (g.translations is None) == (not wrap)
    assert np.array_equal(graphs.cycle(7).edges, graphs.torus(1, 7).edges)


def test_torus_small_side_rejected():
    with pytest.raises(ValueError):
        graphs.torus(2, 2)
    with pytest.raises(ValueError):
        graphs.cycle(2)


def test_vertex_width_overflow_rejected():
    with pytest.raises(ValueError):
        graphs.torus(8, 1 << 9)


def test_no_self_loops_or_duplicates():
    with pytest.raises(ValueError):
        graphs.custom(3, [[0, 0]])
    with pytest.raises(ValueError):
        graphs.custom(3, [[0, 1], [1, 0]])


def _literal_shift_group(g) -> list[list[int]]:
    """Row s: vertex i moved by shift s, written out from the vertex
    numbering (row-major over coordinates) rather than read off the graph.
    A complete graph has no coordinates and gets the rotations i -> i + s."""
    shape = g.shape or (g.n_vertices,)
    points = list(itertools.product(*(range(side) for side in shape)))
    index = {p: i for i, p in enumerate(points)}
    return [[index[tuple((a + b) % side for a, b, side in zip(p, shift, shape))]
             for p in points] for shift in points]


def test_translations_preserve_edges():
    cases = ([graphs.cycle(n) for n in (3, 4, 7)]
             + [graphs.complete(n) for n in (1, 2, 6)]
             + [graphs.torus(d, side) for d in (1, 2, 3) for side in range(3, 7)])
    for g in cases:
        n, group = g.n_vertices, g.translations
        assert group.tolist() == _literal_shift_group(g)
        for perm in group:
            assert np.array_equal(np.sort(perm), np.arange(n))
            images = np.sort(perm[g.edges], axis=1)
            images = images[np.lexsort((images[:, 1], images[:, 0]))]
            assert np.array_equal(images, g.edges)
        # distinct rows, closed under composition
        rows = {row.tobytes(): s for s, row in enumerate(group)}
        assert len(rows) == len(group)
        for perm in group:
            assert all(row.tobytes() in rows for row in perm[group])
        # transitive: orbit of 0 covers everything
        assert set(int(p[0]) for p in group) == set(range(n))


def test_bad_translation_rejected():
    with pytest.raises(ValueError, match="does not preserve edges"):
        graphs.custom(3, [[0, 1]], translations=[[1, 2, 0]])
    with pytest.raises(ValueError, match="not a permutation"):
        graphs.custom(3, [[0, 1]], translations=[[0, 1, 2], [1, 1, 0]])
    with pytest.raises(ValueError, match="not a permutation"):
        graphs.custom(3, [[0, 1]], translations=[[1, 0]])


# -- subset sampling ----------------------------------------------------------


def test_fixed_subset_deterministic():
    g = graphs.cycle(5)
    spec = graphs.Fixed(_bits.indices_to_mask([0, 2], 5))
    rng = stream(1, 0)
    for _ in range(5):
        assert _bits.mask_to_indices(graphs.sample_subset(spec, g, rng)).tolist() == [0, 2]


def test_bernoulli_p1_full():
    g = graphs.cycle(5)
    mask = graphs.sample_subset(graphs.Bernoulli(1.0), g, stream(1, 1))
    assert mask.all()


def test_uniform_k_too_large_rejected():
    g = graphs.cycle(5)
    with pytest.raises(ValueError):
        graphs.sample_subset(graphs.UniformK(6), g, stream(1, 2))


_CYCLE5_INVALID = [
    graphs.UniformK(6),
    graphs.UniformK(99),
    graphs.UniformK(-1),
    graphs.Bernoulli(1.5),
    graphs.Bernoulli(-0.1),
    graphs.Bernoulli([0.2, 0.2, 0.2, 0.2, 1.01]),
    graphs.Bernoulli(float("nan")),
    graphs.UnionOfKCopies(graphs.UniformK(2), 0),
    graphs.Fixed([1, 0, 1]),
    graphs.UniformTranslate([1, 0, 1]),
    graphs.Explicit([([1, 0, 1], 1.0)]),
]


@pytest.mark.parametrize("g, spec", [
    *(pytest.param(graphs.cycle(5), spec, id=spec.to_json()) for spec in _CYCLE5_INVALID),
    # no translation group: a torus above TRANSLATION_CAP, and a box
    pytest.param(graphs.torus(2, 40),
                 graphs.UniformTranslate(_bits.indices_to_mask([0, 1], 1600)),
                 id="torus(2,40)-uniform_translate"),
    pytest.param(graphs.box(2, 4),
                 graphs.UniformTranslate(_bits.indices_to_mask([0, 1], 16)),
                 id="box(2,4)-uniform_translate"),
])
def test_invalid_spec_rejected_everywhere(g, spec):
    messages = []
    for call in (lambda: graphs.sample_subset(spec, g, stream(1, 2)),
                 lambda: graphs.revealment(spec, g),
                 lambda: graphs.subset_support(spec, g)):
        with pytest.raises(ValueError) as exc:
            call()
        messages.append(str(exc.value))
    assert len(set(messages)) == 1, messages


def test_uniform_translate_preserves_cardinality():
    g = graphs.torus(2, 4)
    base = _bits.indices_to_mask([0, 1, 5], 16)
    spec = graphs.UniformTranslate(base)
    rng = stream(1, 3)
    for _ in range(50):
        assert graphs.sample_subset(spec, g, rng).sum() == 3


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=15), max_size=16, unique=True))
def test_mask_index_roundtrip(members):
    mask = _bits.indices_to_mask(members, 16)
    assert _bits.mask_to_indices(mask).tolist() == sorted(members)
    assert _bits.bits_to_mask(_bits.mask_to_bits(mask), 16).tolist() == mask.tolist()


def _empirical_membership(spec, g, draws, path):
    rng = stream(99, path)
    counts = np.zeros(g.n_vertices)
    for _ in range(draws):
        counts += graphs.sample_subset(spec, g, rng)
    return counts / draws


_MEMBERSHIP_CASES = (
    "fixed", "bernoulli", "uniform_k", "uniform_translate", "tiled", "union",
    "explicit",
)


@pytest.mark.parametrize("case", _MEMBERSHIP_CASES)
def test_membership_matches_revealment(case):
    # empirical frequency within 4 standard errors over 1e5 draws, on the
    # stream numbered by the case's position in the list
    draws = 100_000
    if case == "tiled":
        g = graphs.torus(1, 16)
        spec = graphs.Tiled(5)
    else:
        g = graphs.torus(2, 3)
        spec = {
            "fixed": graphs.Fixed(_bits.indices_to_mask([1, 4, 7], 9)),
            "bernoulli": graphs.Bernoulli(0.37),
            "uniform_k": graphs.UniformK(3),
            "uniform_translate": graphs.UniformTranslate(
                _bits.indices_to_mask([0, 1], 9)),
            "union": graphs.UnionOfKCopies(
                graphs.UniformK(2), 3),
            "explicit": graphs.Explicit([
                (_bits.indices_to_mask([0], 9), 0.25),
                (_bits.indices_to_mask([1, 2], 9), 0.75),
            ]),
        }[case]
    vec, delta = graphs.revealment(spec, g)
    emp = _empirical_membership(spec, g, draws, _MEMBERSHIP_CASES.index(case))
    se = np.sqrt(np.maximum(vec * (1 - vec), 1e-12) / draws)
    assert np.all(np.abs(emp - vec) <= 4 * se + 1e-9)
    assert delta == pytest.approx(vec.max())


def test_tiled_revealment_values():
    g1 = graphs.torus(1, 16)
    vec, delta = graphs.revealment(graphs.Tiled(5), g1)
    assert delta == pytest.approx(3 / 8)
    assert np.allclose(vec, 3 / 8)
    g2 = graphs.torus(2, 40)
    vec2, delta2 = graphs.revealment(graphs.Tiled(5), g2)
    assert delta2 == pytest.approx(1 - (5 / 8) ** 2)
    assert delta2 == pytest.approx(0.609375)


def test_uniform_k_revealment():
    g = graphs.torus(2, 3)
    vec, delta = graphs.revealment(graphs.UniformK(2), g)
    assert np.allclose(vec, 2 / 9)
    g8 = graphs.custom(8, [[0, 1]])
    vec8, delta8 = graphs.revealment(graphs.UniformK(2), g8)
    assert delta8 == pytest.approx(0.25)


def test_union_revealment_exact():
    g = graphs.torus(2, 3)
    inner = graphs.Bernoulli(0.2)
    spec = graphs.UnionOfKCopies(inner, 3)
    vec, delta = graphs.revealment(spec, g)
    assert np.allclose(vec, 1 - 0.8**3)
    assert delta <= 3 * 0.2 + 1e-12


def test_tiled_complement_blocks_are_cubes_when_period_divides():
    # (L+3) | side: every removed component is a full L^d cube
    g = graphs.torus(2, 16)
    L = 5
    for anchor in [(0, 0), (3, 7), (7, 3)]:
        removed = graphs.tiled_complement_mask(g, L, anchor)
        labels, _ = graphs.component_labels(g, removed[g.edges].all(axis=1))
        blocks = np.unique(labels[removed])
        sizes = [int((labels == r).sum()) for r in blocks]
        assert all(s == L * L for s in sizes)
        assert len(blocks) == (16 // 8) ** 2


def test_tiled_complement_boxes_on_free_boundary_box():
    # On a box (no wraparound) the removed components are axis-aligned boxes
    # with sides at most L, whatever the anchor.
    g = graphs.box(2, 13)
    L = 4
    side = 13
    for anchor in [(0, 0), (2, 5), (6, 6)]:
        removed = graphs.tiled_complement_mask(g, L, anchor)
        labels, _ = graphs.component_labels(g, removed[g.edges].all(axis=1))
        for r in np.unique(labels[removed]):
            verts = np.flatnonzero(labels == r)
            xs, ys = np.unravel_index(verts, (side, side))
            w, h = xs.max() - xs.min() + 1, ys.max() - ys.min() + 1
            assert w <= L and h <= L
            assert len(verts) == w * h


def _union_find_labels(n: int, edges, open_mask) -> tuple[list[int], int]:
    """Reference partition: each vertex labelled by the smallest vertex of
    its cluster, by a plain union-find over the open edges, and the count."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for (u, v), is_open in zip(np.asarray(edges).tolist(), np.asarray(open_mask).tolist()):
        if is_open:
            ru, rv = find(u), find(v)
            parent[max(ru, rv)] = min(ru, rv)
    roots = [find(v) for v in range(n)]
    return roots, len(set(roots))


@st.composite
def _custom_with_isolated(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graphs.custom(n + 1, edges)  # vertex n has no edge


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_custom_with_isolated(), st.integers(1, 4), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
def test_component_labels_ranked_and_match_union_find(g, replicas, p, seed):
    n, m = g.n_vertices, g.n_edges
    opens = np.random.default_rng(seed).random((replicas, m)) < p
    labels, k = graphs.component_labels(g, opens)
    assert labels.shape == (replicas, n)
    # ranked: 0..k-1, numbered in the order of each cluster's smallest vertex
    values, first = np.unique(labels.ravel(), return_index=True)
    assert np.array_equal(values, np.arange(k))
    assert np.all(np.diff(first) > 0)
    offset = 0
    for r in range(replicas):
        ref, k_r = _union_find_labels(n, g.edges, opens[r])
        # disjoint rows: row r holds labels offset .. offset + k_r - 1 only
        assert set(labels[r].tolist()) == set(range(offset, offset + k_r))
        # the same partition as the reference
        assert len(set(zip(labels[r].tolist(), ref))) == k_r
        one, k_one = graphs.component_labels(g, opens[r])
        assert one.shape == (n,) and k_one == k_r
        assert np.array_equal(one + offset, labels[r])
        offset += k_r
    assert offset == k


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(_custom_with_isolated(), st.just(graphs.complete(130)),
                 st.builds(graphs.torus, st.just(2), st.integers(3, 8))),
       st.sampled_from([None, 1, 2, 7]), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_component_labels_match_reference_csr(g, replicas, p, seed):
    # the same CSR matrix as a cumsum over every slot builds: labels and count
    shape = (g.n_edges,) if replicas is None else (replicas, g.n_edges)
    opens = np.random.default_rng(seed).random(shape) < p
    labels, k = graphs.component_labels(g, opens)
    ref, ref_k = component_labels_reference(g, opens)
    assert k == ref_k and labels.shape == ref.shape and np.array_equal(labels, ref)


def test_tiled_rejects_oversized_blocks():
    g = graphs.torus(2, 8)
    with pytest.raises(ValueError):
        graphs.sample_subset(graphs.Tiled(6), g, stream(0, 0))


def test_tiled_membership_probability_unaffected_by_clipping():
    # side not divisible by the period: pointwise membership is still exact
    g = graphs.torus(2, 10)
    spec = graphs.Tiled(4)
    vec, _ = graphs.revealment(spec, g)
    emp = _empirical_membership(spec, g, 100_000, 77)
    se = np.sqrt(vec * (1 - vec) / 100_000)
    assert np.all(np.abs(emp - vec) <= 4 * se)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_chains())
@example((graphs.cycle(4), None, graphs.Tiled(1), np.random.default_rng(1)))
@example((graphs.cycle(6), None, graphs.UnionOfKCopies(graphs.Tiled(2), 2),
          np.random.default_rng(2)))
def test_spec_kind_json_support_and_sampling(chain):
    # every kind, explicit and unions included: JSON round trip, the support
    # as a law, and membership from support and from samples vs revealment
    g, _, spec, rng = chain
    n = g.n_vertices
    back = graphs.SubsetSpec.from_json(spec.to_json(), n)
    assert type(back) is type(spec) and back.to_json() == spec.to_json()
    support = graphs.subset_support(spec, g)
    bits = [b for b, _ in support]
    assert bits == sorted(set(bits))
    assert sum(p for _, p in support) == pytest.approx(1.0, abs=1e-12)
    vec, delta = graphs.revealment(spec, g)
    acc = np.zeros(n)
    for b, prob in support:
        acc += prob * _bits.bits_to_mask(b, n)
    assert np.abs(acc - vec).max() <= 1e-12
    assert delta == vec.max()
    draws = 2000
    emp = np.zeros(n)
    for _ in range(draws):
        emp += graphs.sample_subset(spec, g, rng)
    emp /= draws
    # 4 standard errors, plus one draw for the discreteness of rare members
    se = np.sqrt(vec * (1 - vec) / draws)
    assert np.all(np.abs(emp - vec) <= 4 * se + 1 / draws)


def test_subset_support_probabilities():
    g = graphs.cycle(5)
    for spec in (
        graphs.UniformK(2),
        graphs.Bernoulli(0.3),
        graphs.UniformTranslate(_bits.indices_to_mask([0, 1], 5)),
        graphs.UnionOfKCopies(graphs.UniformK(1), 2),
    ):
        support = graphs.subset_support(spec, g)
        total = sum(p for _, p in support)
        assert total == pytest.approx(1.0, abs=1e-12)
        vec, _ = graphs.revealment(spec, g)
        # support-based membership equals the closed-form revealment
        acc = np.zeros(5)
        for bits, prob in support:
            acc += prob * _bits.bits_to_mask(bits, 5)
        assert np.allclose(acc, vec, atol=1e-12)


def test_spec_json_roundtrip():
    n = 9
    specs = [
        graphs.Fixed(_bits.indices_to_mask([1, 3], n)),
        graphs.Bernoulli(0.4),
        graphs.UniformK(3),
        graphs.Tiled(5),
        graphs.UnionOfKCopies(graphs.UniformK(1), 4),
    ]
    for spec in specs:
        back = graphs.SubsetSpec.from_json(spec.to_json(), n)
        assert back.to_json() == spec.to_json()


def test_subset_support_cap():
    g = graphs.torus(2, 5)
    with pytest.raises(ValueError):
        graphs.subset_support(graphs.UniformK(12), g, cap=1000)


def test_support_bitmasks_keep_vertices_past_64():
    g = graphs.torus(2, 16)
    mask = _bits.indices_to_mask([3, 100, 255], g.n_vertices)
    assert graphs.subset_support(graphs.Fixed(mask), g) == [((1 << 255) | (1 << 100) | 8, 1.0)]
    assert (_bits.bits_to_mask(_bits.mask_to_bits(mask), g.n_vertices) == mask).all()
    assert all(bits >> 64 for bits, _ in graphs.subset_support(graphs.Tiled(3), g))


def test_tiled_support_refuses_before_building_masks():
    # (3 + 3)^2 = 36 anchors against a cap of 10: no mask is built
    with mock.patch.object(graphs, "tiled_complement_mask",
                           side_effect=AssertionError("mask built")) as built:
        with pytest.raises(ValueError, match="too large"):
            graphs.subset_support(graphs.Tiled(3), graphs.torus(2, 16), cap=10)
    built.assert_not_called()
    assert len(graphs.subset_support(graphs.Tiled(3), graphs.torus(2, 16), cap=36)) == 36


def test_union_support_refuses_before_pairing():
    # C(20, 10)^2 = 3.4e10 pairs of subsets: refused before any is formed
    start = time.perf_counter()
    with pytest.raises(ValueError):
        graphs.subset_support(graphs.UnionOfKCopies(graphs.UniformK(10), 2), graphs.cycle(20))
    assert time.perf_counter() - start < 1.0
    # later copies pair the merged support with the inner one
    with mock.patch.object(graphs, "SUPPORT_PAIR_CAP", 100):
        assert len(graphs.subset_support(
            graphs.UnionOfKCopies(graphs.UniformK(1), 2), graphs.custom(8, []))) == 36
        with pytest.raises(ValueError, match="288 pairs"):
            graphs.subset_support(
                graphs.UnionOfKCopies(graphs.UniformK(1), 3), graphs.custom(8, []))

