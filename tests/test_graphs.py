import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinlab import _bits, graphs
from spinlab.rng import stream
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
    # d * side^d edges: every vertex opens one edge per axis
    for d, side in [(1, 5), (2, 3), (2, 4), (3, 3)]:
        g = graphs.torus(d, side) if d > 1 else graphs.torus(1, side)
        assert g.n_vertices == side**d
        assert g.n_edges == d * side**d


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


def test_translations_preserve_edges():
    for g in (graphs.cycle(5), graphs.torus(2, 3), graphs.complete(4)):
        eset = {(int(u), int(v)) for u, v in g.edges}
        for perm in g.translations:
            for u, v in g.edges:
                a, b = int(perm[u]), int(perm[v])
                assert (min(a, b), max(a, b)) in eset
        # transitive: orbit of 0 covers everything
        assert set(int(p[0]) for p in g.translations) == set(range(g.n_vertices))


def test_bad_translation_rejected():
    with pytest.raises(ValueError):
        graphs.custom(3, [[0, 1]], translations=[[1, 2, 0]])


def test_graph_json_roundtrip():
    g = graphs.torus(2, 3)
    g2 = graphs.Graph.from_json(g.to_json())
    assert g2.n_vertices == g.n_vertices
    assert np.array_equal(g2.edges, g.edges)
    assert np.array_equal(g2.translations, g.translations)


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


@pytest.mark.parametrize("spec", [
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
], ids=lambda spec: spec.to_json())
def test_invalid_spec_rejected_everywhere(spec):
    g = graphs.cycle(5)
    with pytest.raises(ValueError):
        graphs.sample_subset(spec, g, stream(1, 2))
    with pytest.raises(ValueError):
        graphs.revealment(spec, g)
    with pytest.raises(ValueError):
        graphs.subset_support(spec, g)


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


@pytest.mark.parametrize("case", [
    "fixed", "bernoulli", "uniform_k", "uniform_translate", "tiled", "union",
    "explicit",
])
def test_membership_matches_revealment(case):
    # empirical frequency within 4 standard errors over 1e5 draws
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
    emp = _empirical_membership(spec, g, draws, hash(case) % 1000)
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
        labels, k = graphs.component_labels(
            g.n_vertices, g.edges, vertex_mask=removed)
        sizes = [int((labels == r).sum()) for r in np.unique(labels[removed])]
        assert all(s == L * L for s in sizes)
        assert k == (16 // 8) ** 2


def test_tiled_complement_boxes_on_free_boundary_box():
    # On a box (no wraparound) the removed components are axis-aligned boxes
    # with sides at most L, whatever the anchor.
    g = graphs.box(2, 13)
    L = 4
    side = 13
    for anchor in [(0, 0), (2, 5), (6, 6)]:
        removed = graphs.tiled_complement_mask(g, L, anchor)
        labels, _ = graphs.component_labels(
            g.n_vertices, g.edges, vertex_mask=removed)
        for r in np.unique(labels[removed]):
            verts = np.flatnonzero(labels == r)
            xs, ys = np.unravel_index(verts, (side, side))
            w, h = xs.max() - xs.min() + 1, ys.max() - ys.min() + 1
            assert w <= L and h <= L
            assert len(verts) == w * h


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


def test_mask_serialization():
    mask = _bits.indices_to_mask([2, 5, 6], 9)
    text = graphs.mask_to_json(mask)
    assert text == "[2, 5, 6]"
    assert np.array_equal(graphs.mask_from_json(text, 9), mask)
