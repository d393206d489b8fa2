"""Graph families, shift operators, Kronecker sums, and test signals."""
import hashlib

import numpy as np
import pytest

from glct import (
    Graph,
    GsoKind,
    ValidationError,
    bipolar_rect_signal,
    cartesian_product,
    decompose_graph,
    gso,
    kronecker_sum,
    make_comet,
    make_complete,
    make_family,
    make_low_stretch_tree,
    make_path,
    make_ring,
)
from glct.graphs import GRAPH_FAMILIES, MAX_DEGREE


def edge_pairs(g):
    return {(i, j) for i, j, _ in g.edges}


def is_tree(g):
    """Union-find check: connected and acyclic."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _ in g.edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False  # cycle
        parent[ri] = rj
    return len({find(v) for v in range(g.n)}) == 1


class TestFamilies:
    def test_ring4_edges(self):
        assert edge_pairs(make_ring(4)) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_ring14_is_2_regular(self):
        g = make_ring(14)
        assert g.edge_count == 14
        degrees = gso(g, GsoKind.ADJACENCY).sum(axis=1)
        assert np.all(degrees == 2)

    def test_ring4_laplacian_spectrum_closed_form(self):
        lam = np.linalg.eigvalsh(gso(make_ring(4)))
        expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(4) / 4))
        np.testing.assert_allclose(lam, expected, atol=1e-12)

    def test_path2_single_edge(self):
        assert edge_pairs(make_path(2)) == {(0, 1)}

    def test_complete8_edge_count(self):
        assert make_complete(8).edge_count == 28

    def test_comet_default_shape(self):
        g = make_comet(6)
        # center 0 with 3 leaves and a 2-vertex tail attached to the center
        assert edge_pairs(g) == {(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)}
        assert is_tree(g)

    def test_comet_full_star(self):
        g = make_comet(5, head=4)
        assert edge_pairs(g) == {(0, 1), (0, 2), (0, 3), (0, 4)}

    def test_low_stretch_tree_16(self):
        g = make_low_stretch_tree(16)
        assert g.edge_count == 15
        assert is_tree(g)

    def test_low_stretch_tree_larger_sizes(self):
        for n in (4, 9, 25, 36):
            g = make_low_stretch_tree(n)
            assert g.edge_count == n - 1
            assert is_tree(g)

    def test_low_stretch_edges_are_pinned(self):
        # any change to the order in which regions are joined changes this digest
        edges = repr([make_low_stretch_tree(k * k).edges for k in range(2, 41)])
        digest = hashlib.sha256(edges.encode()).hexdigest()
        assert digest == "c41d4377d9e309fbe2f6e46ae20e26fc04bcb625ebaa0923b8c1feb638d07c54"

    def test_trees_have_n_minus_1_edges(self):
        for g in (make_comet(9), make_comet(9, head=2), make_low_stretch_tree(16)):
            assert g.edge_count == g.n - 1
            assert is_tree(g)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_ring(2),
            lambda: make_path(1),
            lambda: make_complete(1),
            lambda: make_comet(2),
            lambda: make_comet(6, head=0),
            lambda: make_comet(6, head=6),
            lambda: make_low_stretch_tree(8),
            lambda: make_low_stretch_tree(15),
            lambda: make_family("unknown", 5),
            lambda: make_family("ring", 5, head=2),
            lambda: Graph(True, ()),
            lambda: Graph(np.bool_(True), ()),
            lambda: Graph(3.0, ()),
            lambda: Graph(np.float64(3.0), ()),
            lambda: make_low_stretch_tree(-3),
            lambda: make_ring(-1),
            lambda: make_comet(6, head=2.0),
            lambda: make_comet(6, head=True),
        ],
    )
    def test_invalid_sizes_raise(self, build):
        with pytest.raises(ValidationError):
            build()

    def test_make_family_dispatch(self):
        assert make_family("ring", 5).edge_count == 5
        assert make_family("comet", 7, head=2).edge_count == 6

    @pytest.mark.parametrize("size", [16.0, "16", True, np.float64(16)], ids=["float", "str", "bool", "np-float"])
    @pytest.mark.parametrize("family", GRAPH_FAMILIES)
    def test_non_integer_size_raises(self, family, size):
        """Each builder checks its size with Graph's rule for a vertex count
        before it compares the size or calls range() on it."""
        with pytest.raises(ValidationError, match="size must be an integer"):
            make_family(family, size)

    @pytest.mark.parametrize("family", GRAPH_FAMILIES)
    def test_numpy_integer_size_for_every_family(self, family):
        g = make_family(family, np.int64(16))
        assert g == make_family(family, 16) and type(g.n) is int

    @pytest.mark.parametrize("build", [make_ring, lambda n: make_family("path", n)], ids=["ring", "path"])
    def test_numpy_integer_vertex_count(self, build):
        g = build(np.int64(5))
        assert g == build(5) and type(g.n) is int


class TestGraphType:
    def test_edges_are_normalized_and_sorted(self):
        g = Graph(3, ((1, 2, 1.0), (0, 1, 2.0)))
        assert g.edges == ((0, 1, 2.0), (1, 2, 1.0))

    @pytest.mark.parametrize(
        "edges",
        [((0, 0, 1.0),), ((1, 0, 1.0),), ((0, 3, 1.0),), ((0, 1, 0.0),), ((0, 1, -2.0),),
         ((0, 1, 1.0), (0, 1, 2.0)), ((0, 1, float("nan")),), ((0, 1, float("inf")),)],
    )
    def test_bad_edges_raise(self, edges):
        with pytest.raises(ValidationError):
            Graph(3, edges)


    @pytest.mark.parametrize("index", [0.7, True, np.bool_(True), "1", None])
    def test_non_integer_vertex_index_raises(self, index):
        with pytest.raises(ValidationError, match="vertex index"):
            Graph(3, ((index, 2, 1.0),))

    @pytest.mark.parametrize("weight", [True, np.bool_(True), "2.5", None, 1 + 0j, [1.0]])
    def test_non_real_weight_raises(self, weight):
        with pytest.raises(ValidationError, match="edge weight must be a real number"):
            Graph(3, ((0, 2, weight),))

    def test_real_weights_are_read_as_floats(self):
        g = Graph(3, ((0, 1, 2), (0, 2, np.int64(3)), (1, 2, np.float32(0.5))))
        assert g.edges == ((0, 1, 2.0), (0, 2, 3.0), (1, 2, 0.5))
        assert all(type(w) is float for _, _, w in g.edges)

    @pytest.mark.parametrize("weight", [10 ** 400, -10 ** 400])
    def test_integer_weight_beyond_the_float_range_raises(self, weight):
        with pytest.raises(ValidationError, match="positive and finite"):
            Graph(3, ((0, 2, weight),))

    def test_integral_vertex_indices_are_read_as_ints(self):
        g = Graph(3, ((np.int64(0), 1.0, 1.0), (1, np.float64(2.0), 1.0)))
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))
        assert all(type(i) is int and type(j) is int for i, j, _ in g.edges)

    def test_weighted_degree_must_stay_below_the_bound(self):
        Graph(3, ((0, 1, MAX_DEGREE / 2), (0, 2, MAX_DEGREE / 2)))
        with pytest.raises(ValidationError, match="weighted degree"):
            Graph(3, ((0, 1, MAX_DEGREE / 2), (0, 2, MAX_DEGREE)))
        with pytest.raises(ValidationError, match="weighted degree inf"):
            Graph(3, ((0, 1, 1e308), (0, 2, 1e308)))


class TestShiftOperators:
    def test_path2_laplacian(self):
        np.testing.assert_array_equal(gso(make_path(2)), [[1.0, -1.0], [-1.0, 1.0]])

    def test_ring4_adjacency_properties(self):
        a = gso(make_ring(4), GsoKind.ADJACENCY)
        np.testing.assert_array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert set(np.unique(a)) == {0.0, 1.0}

    def test_kind_given_by_value(self):
        g = make_comet(6)
        for kind in GsoKind:
            np.testing.assert_array_equal(gso(g, kind.value), gso(g, kind))
            assert decompose_graph(g, kind.value).kind is kind
        with pytest.raises(ValidationError, match="shift operator"):
            gso(g, "adjacenc")
        with pytest.raises(ValidationError, match="shift operator"):
            decompose_graph(g, "adjacenc")

    def test_laplacian_row_sums_zero(self):
        lap = gso(make_ring(4))
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)

    def test_laplacians_are_psd(self):
        for g in (make_ring(14), make_complete(8), make_comet(6), make_low_stretch_tree(16)):
            lam = np.linalg.eigvalsh(gso(g))
            assert lam.min() >= -1e-10


class TestProducts:
    def test_kronecker_sum_convention(self):
        z1 = gso(make_ring(4))
        z2 = gso(make_path(3))
        expected = np.kron(np.eye(3), z1) + np.kron(z2, np.eye(4))
        np.testing.assert_allclose(kronecker_sum([z1, z2]), expected, atol=0)

    def test_product_spectrum_is_pairwise_sums(self):
        g1, g2 = make_ring(4), make_path(3)
        lam = np.linalg.eigvalsh(kronecker_sum([gso(g) for g in (g1, g2)]))
        l1 = np.linalg.eigvalsh(gso(g1))
        l2 = np.linalg.eigvalsh(gso(g2))
        expected = np.sort(np.add.outer(l1, l2).ravel())
        np.testing.assert_allclose(np.sort(lam), expected, atol=1e-8)

    def test_product_spectrum_three_factors(self):
        factors = [make_path(2), make_ring(3), make_path(2)]
        lam = np.sort(np.linalg.eigvalsh(kronecker_sum([gso(g) for g in factors])))
        parts = [np.linalg.eigvalsh(gso(g)) for g in factors]
        sums = parts[0]
        for more in parts[1:]:
            sums = np.add.outer(sums, more).ravel()
        np.testing.assert_allclose(lam, np.sort(sums), atol=1e-8)

    def test_vertex_and_edge_counts(self):
        pg = cartesian_product([make_ring(4), make_path(2)])
        assert pg.n == 8
        adjacency = kronecker_sum([gso(g, GsoKind.ADJACENCY) for g in pg.factors])
        assert np.count_nonzero(np.triu(adjacency, 1)) == 4 * 2 + 4 * 1  # |E1|*N2 + N1*|E2|
        assert cartesian_product([make_ring(14), make_path(8)]).n == 112

    def test_product_gso_matches_vertex_linearization(self):
        # edge (i1, j1) at fixed i2 must connect linear indices i1 + N1*i2, j1 + N1*i2
        g1, g2 = make_path(2), make_path(3)
        a = kronecker_sum([gso(g, GsoKind.ADJACENCY) for g in (g1, g2)])
        expected = np.zeros((6, 6))
        for i2 in range(3):
            expected[0 + 2 * i2, 1 + 2 * i2] = expected[1 + 2 * i2, 0 + 2 * i2] = 1
        for i1 in range(2):
            for i2 in range(2):
                u, v = i1 + 2 * i2, i1 + 2 * (i2 + 1)
                expected[u, v] = expected[v, u] = 1
        np.testing.assert_array_equal(a, expected)

    def test_empty_product_raises(self):
        with pytest.raises(ValidationError):
            cartesian_product([])


class TestBipolarSignal:
    def test_small_examples(self):
        np.testing.assert_array_equal(bipolar_rect_signal(4), [1, 1, -1, -1])
        np.testing.assert_array_equal(bipolar_rect_signal(5), [1, 1, 1, -1, -1])

    def test_sum_parity(self):
        for n in range(2, 30):
            assert bipolar_rect_signal(n).sum() == (n % 2)

    def test_too_small_raises(self):
        with pytest.raises(ValidationError):
            bipolar_rect_signal(1)

    @pytest.mark.parametrize("size", [16.0, "16", True], ids=["float", "str", "bool"])
    def test_non_integer_size_raises(self, size):
        with pytest.raises(ValidationError, match="size must be an integer"):
            bipolar_rect_signal(size)

    def test_numpy_integer_size(self):
        assert bipolar_rect_signal(np.int64(16)).tobytes() == bipolar_rect_signal(16).tobytes()
