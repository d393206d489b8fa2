"""Symmetric and unitary eigendecompositions and fractional operator powers."""
import numpy as np
import pytest

from glct import (
    FourierEigen,
    Graph,
    GsoKind,
    NumericalError,
    ValidationError,
    make_family,
    eig_sym,
    frac_diag_power,
    gft_matrix,
    gso,
    make_comet,
    make_complete,
    make_low_stretch_tree,
    make_path,
    make_ring,
)
from glct import spectral
from glct.kernels import decompose_graph
from glct.spectral import _canonical_order, eig_unitary_angles, eig_unitary_vectors, principal_angle

from conftest import frac_operator

RT2 = np.sqrt(2.0)


def eig_unitary(f):
    """The full unitary eigendecomposition: the values stage, then the eigenvector stage."""
    return eig_unitary_vectors(eig_unitary_angles(f))


class TestEigSym:
    def test_hand_solved_2x2(self):
        basis = eig_sym(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        np.testing.assert_allclose(basis.values, [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(
            basis.vectors, [[1 / RT2, 1 / RT2], [1 / RT2, -1 / RT2]], atol=1e-12
        )

    def test_zero_matrix_gives_identity_basis(self):
        basis = eig_sym(np.zeros((3, 3)))
        np.testing.assert_allclose(basis.values, 0.0, atol=0)
        np.testing.assert_allclose(basis.vectors, np.eye(3), atol=0)

    def test_ring4_spectrum(self):
        basis = eig_sym(gso(make_ring(4)))
        np.testing.assert_allclose(basis.values, [0.0, 2.0, 2.0, 4.0], atol=1e-12)

    def test_sign_convention(self):
        basis = eig_sym(gso(make_ring(6)))
        for col in basis.vectors.T:
            nz = np.flatnonzero(np.abs(col) > 1e-8)
            assert col[nz[0]] > 0

    def test_invariants_on_families(self):
        for g in (make_ring(14), make_complete(8), make_comet(6), make_low_stretch_tree(16)):
            z = gso(g)
            basis = eig_sym(z)
            n = g.n
            assert np.abs(basis.vectors.T @ basis.vectors - np.eye(n)).max() < 1e-12
            recon = (basis.vectors * basis.values) @ basis.vectors.T
            assert np.abs(z - recon).max() < 1e-10 * (1 + np.abs(z).max())
            assert np.all(np.diff(basis.values) >= 0)

    def test_non_symmetric_raises(self):
        with pytest.raises(ValidationError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestGftMatrix:
    def test_path2(self):
        f = gft_matrix(eig_sym(gso(make_path(2))))
        np.testing.assert_allclose(f, np.array([[1, 1], [1, -1]]) / RT2, atol=1e-12)

    def test_dc_projection_on_ring4(self):
        f = gft_matrix(eig_sym(gso(make_ring(4))))
        np.testing.assert_allclose(f @ np.ones(4), [2.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_norm_preservation(self):
        f = gft_matrix(eig_sym(gso(make_comet(7))))
        rng = np.random.default_rng(3)
        x = rng.normal(size=7)
        assert np.linalg.norm(f @ x) == pytest.approx(np.linalg.norm(x), abs=1e-12)


class TestEigUnitary:
    def test_identity(self):
        fe = eig_unitary(np.eye(4))
        np.testing.assert_allclose(fe.values, 1.0, atol=1e-12)
        np.testing.assert_allclose(fe.vectors, np.eye(4), atol=1e-12)

    def test_reflection(self):
        fe = eig_unitary(np.array([[1, 1], [1, -1]]) / RT2)
        # ascending principal argument: +1 before -1
        np.testing.assert_allclose(fe.values, [1.0, -1.0], atol=1e-12)

    def test_rotation(self):
        fe = eig_unitary(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(fe.values, [-1j, 1j], atol=1e-12)

    def test_invariants_on_families(self):
        for g in (make_ring(14), make_complete(8), make_comet(6), make_low_stretch_tree(16)):
            f = gft_matrix(eig_sym(gso(g)))
            fe = eig_unitary(f)
            n = g.n
            assert np.abs(np.abs(fe.values) - 1.0).max() < 1e-10
            assert np.abs(fe.vectors.conj().T @ fe.vectors - np.eye(n)).max() < 1e-10
            recon = (fe.vectors * fe.values) @ fe.vectors.conj().T
            assert np.abs(f - recon).max() < 1e-9
            assert np.all(np.diff(np.angle(fe.values)) >= -1e-15)

    def test_non_orthogonal_raises(self):
        with pytest.raises(ValidationError):
            eig_unitary(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestNonFinite:
    """A NaN fails every bound: a NaN or inf input is rejected with
    ValidationError, and a NaN residual raises NumericalError."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_eig_sym_rejects_non_finite_input(self, bad, at):
        z = np.eye(3)
        z[at] = z[at[::-1]] = bad
        with pytest.raises(ValidationError, match="not finite"):
            eig_sym(z)

    def test_eig_sym_rejects_an_overflowing_asymmetry_without_a_warning(self):
        with pytest.raises(ValidationError, match="symmetric"):
            eig_sym(np.array([[0.0, 1e308], [-1e308, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_eig_unitary_angles_rejects_non_finite_input(self, bad):
        f = np.eye(3)
        f[1, 0] = bad
        with pytest.raises(ValidationError, match="not finite"):
            eig_unitary_angles(f)

    @pytest.mark.parametrize("mu", [[np.nan, 1.0], [complex(1.0, np.nan)]])
    def test_frac_diag_power_rejects_nan(self, mu):
        with pytest.raises(ValidationError, match="unimodular"):
            frac_diag_power(np.array(mu, dtype=complex), 0.5)

    @pytest.mark.parametrize("which,message", [(1, "orthonormality"), (0, "reconstruction")])
    def test_eig_sym_nan_residuals_fail(self, monkeypatch, which, message):
        real = np.linalg.eigh

        def eigh(a):
            out = [x.copy() for x in real(a)]
            out[which].flat[0] = np.nan
            return tuple(out)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(NumericalError, match=message):
            eig_sym(gso(make_ring(5)))

    @pytest.mark.parametrize("which,message", [(1, "orthonormality"), (0, "reconstruction")])
    def test_eig_unitary_vectors_nan_residuals_fail(self, monkeypatch, which, message):
        stage = eig_unitary_angles(gft_matrix(eig_sym(gso(make_ring(5)))))
        real = spectral._canonical_order

        def canonical_order(mu, p):
            out = list(real(mu, p))
            out[which].flat[0] = np.nan
            return tuple(out)

        monkeypatch.setattr(spectral, "_canonical_order", canonical_order)
        with pytest.raises(NumericalError, match=message):
            eig_unitary_vectors(stage)


class TestFracDiagPower:
    def test_fixed_points_and_branch(self):
        assert frac_diag_power(np.array([1.0 + 0j]), 7.3)[0] == pytest.approx(1.0)
        assert frac_diag_power(np.array([1j]), 2.0)[0] == pytest.approx(-1.0)
        # principal branch puts -1 at argument +pi, so its square root is +i
        assert frac_diag_power(np.array([-1.0 + 0j]), 0.5)[0] == pytest.approx(1j)

    def test_negative_zero_imaginary_part_is_safe(self):
        mu = np.array([complex(-1.0, -0.0)])
        assert frac_diag_power(mu, 0.5)[0] == pytest.approx(1j)

    def test_output_unimodular(self):
        rng = np.random.default_rng(0)
        mu = np.exp(1j * rng.uniform(-np.pi, np.pi, size=50))
        out = frac_diag_power(mu, 3.7)
        assert np.abs(np.abs(out) - 1.0).max() < 1e-12

    def test_non_unimodular_raises(self):
        with pytest.raises(ValidationError):
            frac_diag_power(np.array([2.0 + 0j]), 0.5)


@pytest.fixture(scope="module")
def fe():
    return eig_unitary(gft_matrix(eig_sym(gso(make_ring(6)))))


class TestFracOperator:

    def test_zero_power_is_identity(self, fe):
        assert np.abs(frac_operator(fe, 0.0) - np.eye(6)).max() < 1e-10

    def test_unit_power_reproduces_source(self, fe):
        assert np.abs(frac_operator(fe, 1.0) - fe.source).max() < 1e-9

    def test_half_powers_compose(self, fe):
        h = frac_operator(fe, 0.5)
        assert np.abs(h @ h - fe.source).max() < 1e-9

    def test_power_additivity(self, fe):
        rng = np.random.default_rng(11)
        for s, t in rng.uniform(-2, 2, size=(10, 2)):
            lhs = frac_operator(fe, s) @ frac_operator(fe, t)
            rhs = frac_operator(fe, s + t)
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_unitarity(self, fe):
        for t in (-1.3, 0.25, 0.5, 0.9, 2.0):
            u = frac_operator(fe, t)
            assert np.abs(u.conj().T @ u - np.eye(6)).max() < 1e-9

    def test_degeneracy_independence(self):
        """Re-orthonormalizing a degenerate eigenspace must not change powers."""
        fe = eig_unitary(gft_matrix(eig_sym(gso(make_ring(8)))))
        mu = fe.values
        pairs = [
            (i, j)
            for i in range(mu.size)
            for j in range(i + 1, mu.size)
            if abs(mu[i] - mu[j]) < 1e-12
        ]
        assert pairs, "expected a degenerate eigenvalue pair on the ring graph"
        i, j = pairs[0]
        theta, phi = 0.7, 0.3
        u2 = np.array(
            [
                [np.cos(theta), -np.sin(theta) * np.exp(1j * phi)],
                [np.sin(theta) * np.exp(-1j * phi), np.cos(theta)],
            ]
        )
        vectors = fe.vectors.copy()
        vectors[:, [i, j]] = vectors[:, [i, j]] @ u2
        rotated = FourierEigen(vectors=vectors, values=fe.values, source=fe.source)
        for t in (0.3, 0.5, 1.7):
            assert np.abs(frac_operator(fe, t) - frac_operator(rotated, t)).max() < 1e-8


# ---------------------------------------------------------------------------
# Frozen per-column loop implementation of the eigendecompositions, kept as
# the reference that the array implementation is compared against.


def _reference_fix_signs(v, tol=1e-8):
    w = v.copy()
    for j in range(w.shape[1]):
        nz = np.flatnonzero(np.abs(w[:, j]) > tol)
        if nz.size and w[nz[0], j] < 0:
            w[:, j] = -w[:, j]
    return w


def _reference_canonical_order(mu, p):
    n = mu.size
    cols = []
    keys = []
    for k in range(n):
        v = p[:, k]
        nz = np.flatnonzero(np.abs(v) > 1e-8)
        lead = int(nz[0]) if nz.size else n
        if nz.size:
            v = v * np.exp(-1j * np.angle(v[lead]))
        cols.append(v)
        lex = tuple(np.round(np.column_stack([v.real, v.imag]).ravel(), 12))
        keys.append((float(np.angle(mu[k])), lead, lex))
    order = sorted(range(n), key=lambda k: keys[k])
    return mu[order], np.column_stack([cols[k] for k in order])


def _reference_eig_unitary(f, gap_tol=1e-9):
    n = f.shape[0]
    h1 = (f + f.T) / 2.0
    h2 = (f - f.T) / 2j
    h, q = np.linalg.eigh(h1)
    mu = np.zeros(n, dtype=complex)
    p = np.zeros((n, n), dtype=complex)
    start = 0
    for stop in range(1, n + 1):
        if stop < n and h[stop] - h[stop - 1] <= gap_tol:
            continue
        qc = q[:, start:stop]
        _, w = np.linalg.eigh(qc.T @ h2 @ qc)
        pc = qc @ w
        for k in range(stop - start):
            v = pc[:, k]
            lam = np.vdot(v, f @ v)
            mu[start + k] = lam / abs(lam)
        p[:, start:stop] = pc
        start = stop
    re, im = mu.real.copy(), mu.imag.copy()
    im[np.abs(im) < 1e-13] = 0.0
    re[np.abs(re) < 1e-13] = 0.0
    mu = re + 1j * im
    mu = mu / np.abs(mu)
    mu, p = _reference_canonical_order(mu, p)
    return FourierEigen(vectors=p, values=mu, source=f)


# path(60) adjacency: F has two 30-member clusters
_DIFFERENTIAL_GRAPHS = [
    ("ring", 7), ("ring", 14), ("ring", 64), ("ring", 100),
    ("path", 2), ("path", 9), ("path", 60), ("path", 100),
    ("complete", 8), ("complete", 33),
    ("comet", 6), ("comet", 40),
    ("lowstretch", 16), ("lowstretch", 100),
]


@pytest.mark.parametrize("kind", list(GsoKind), ids=lambda k: k.value)
@pytest.mark.parametrize("family,n", _DIFFERENTIAL_GRAPHS, ids=lambda x: str(x))
def test_matches_loop_reference(family, n, kind):
    z = gso(make_family(family, n), kind)
    basis = eig_sym(z)
    _, raw = np.linalg.eigh((z + z.T) / 2.0)
    np.testing.assert_array_equal(basis.vectors, _reference_fix_signs(raw))

    f = gft_matrix(basis)
    fe = eig_unitary(f)
    ref = _reference_eig_unitary(f)
    assert np.abs(fe.values - ref.values).max() < 1e-12
    for t in (0.13, 0.5, 0.77, -0.4):
        assert np.abs(frac_operator(fe, t) - frac_operator(ref, t)).max() < 1e-12

    # on identical input the sort must pick the reference's permutation, ties included
    rng = np.random.default_rng(n)
    perm = rng.permutation(f.shape[0])
    mu = fe.values[perm]
    p = fe.vectors[:, perm] * np.exp(1j * rng.uniform(-np.pi, np.pi, size=perm.size))
    got_mu, got_p = _canonical_order(mu, p)
    ref_mu, ref_p = _reference_canonical_order(mu, p)
    np.testing.assert_array_equal(got_mu, ref_mu)
    assert np.abs(got_p - ref_p).max() < 1e-15


# ---------------------------------------------------------------------------
# The values stage of eig_unitary: sorted angles, bounded without eigenvectors.

# each family from its smallest size; path(40) adjacency and larger paths have
# tied angles whose values differ by an ulp
_ANGLE_GRAPHS = [
    ("single", 1), ("ring", 3), ("ring", 16), ("ring", 40), ("ring", 100),
    ("path", 2), ("path", 16), ("path", 40), ("path", 100),
    ("complete", 2), ("complete", 16), ("complete", 40),
    ("comet", 3), ("comet", 16), ("comet", 40), ("comet", 100),
    ("lowstretch", 4), ("lowstretch", 16), ("lowstretch", 64),
]


@pytest.mark.parametrize("kind", list(GsoKind), ids=lambda k: k.value)
@pytest.mark.parametrize("family,n", _ANGLE_GRAPHS, ids=lambda x: str(x))
def test_values_stage_angles_equal_eig_unitary(family, n, kind):
    g = Graph(n=1, edges=()) if family == "single" else make_family(family, n)
    f = gft_matrix(eig_sym(gso(g, kind)))
    angles = eig_unitary_angles(f).angles
    assert angles.tobytes() == principal_angle(eig_unitary(f).values).tobytes()


@pytest.mark.parametrize("kind", list(GsoKind), ids=lambda k: k.value)
@pytest.mark.parametrize("family,n", _ANGLE_GRAPHS + [("ring", 300)], ids=lambda x: str(x))
def test_both_stages_on_the_transposed_view_equal_them_on_a_copy(family, n, kind):
    """decompose_graph runs the values stage on V^T as a view of V, not on a
    C-contiguous copy; with this BLAS build both give the same bytes."""
    g = Graph(n=1, edges=()) if family == "single" else make_family(family, n)
    basis = eig_sym(gso(g, kind))
    view, copy = eig_unitary_angles(basis.vectors.T), eig_unitary_angles(gft_matrix(basis))
    for name in ("angles", "_q", "_mu"):
        assert getattr(view, name).tobytes() == getattr(copy, name).tobytes(), name
    assert {k: float(v).hex() for k, v in view.residuals.items()} == \
        {k: float(v).hex() for k, v in copy.residuals.items()}
    assert len(view._clusters) == len(copy._clusters)
    for (idx_v, w_v), (idx_c, w_c) in zip(view._clusters, copy._clusters):
        assert idx_v.tobytes() == idx_c.tobytes() and w_v.tobytes() == w_c.tobytes()
    vectors_v, vectors_c = eig_unitary_vectors(view), eig_unitary_vectors(copy)
    assert vectors_v.vectors.tobytes() == vectors_c.vectors.tobytes()
    assert vectors_v.values.tobytes() == vectors_c.values.tobytes()


def test_path40_adjacency_ties_differ_in_value_not_angle():
    f = gft_matrix(eig_sym(gso(make_path(40), GsoKind.ADJACENCY)))
    mu = eig_unitary(f).values
    angles = principal_angle(mu)
    assert ((angles[1:] == angles[:-1]) & (mu[1:] != mu[:-1])).any()


class TestValuesStageBounds:
    """Each bound of the values stage raises NumericalError when an eigensolver
    hands back a perturbed basis: of the symmetric part (2-D input) or of the
    stacked cluster blocks (3-D input)."""

    @pytest.fixture
    def f(self):
        return gft_matrix(eig_sym(gso(make_ring(12))))

    @staticmethod
    def _perturb(monkeypatch, ndim, change):
        real = np.linalg.eigh

        def eigh(a, *args, **kwargs):
            values, vectors = real(a, *args, **kwargs)
            return values, change(vectors.copy()) if a.ndim == ndim else vectors

        monkeypatch.setattr(np.linalg, "eigh", eigh)

    @staticmethod
    def _rotate(v, i, j, angle=1e-6):
        """Rotate columns i and j of the last two axes: the basis stays orthonormal."""
        vi, vj = v[..., i].copy(), v[..., j].copy()
        v[..., i] = np.cos(angle) * vi - np.sin(angle) * vj
        v[..., j] = np.sin(angle) * vi + np.cos(angle) * vj
        return v

    def test_unperturbed_residuals_are_inside_the_bounds(self, f):
        res = eig_unitary_angles(f).residuals
        assert res["q_orthonormality"] < 1e-10 and res["off_cluster"] < 1e-9
        assert res["cluster_unitarity"] < 1e-10 and res["cluster_reconstruction"] < 1e-9
        assert res["unimodularity"] < 1e-10

    def test_q_orthonormality(self, f, monkeypatch):
        self._perturb(monkeypatch, 2, lambda q: q * (1 + 1e-7))
        with pytest.raises(NumericalError, match="eigenbasis orthonormality"):
            eig_unitary_angles(f)

    def test_off_cluster_entries(self, f, monkeypatch):
        # the first and last columns lie in different clusters
        self._perturb(monkeypatch, 2, lambda q: self._rotate(q, 0, -1))
        with pytest.raises(NumericalError, match="off the cluster blocks"):
            eig_unitary_angles(f)

    def test_cluster_unitarity(self, f, monkeypatch):
        self._perturb(monkeypatch, 3, lambda w: w * (1 + 1e-7))
        with pytest.raises(NumericalError, match="cluster eigenbasis unitarity"):
            eig_unitary_angles(f)

    def test_cluster_reconstruction(self, f, monkeypatch):
        self._perturb(monkeypatch, 3, lambda w: self._rotate(w, 0, 1))
        with pytest.raises(NumericalError, match="cluster reconstruction"):
            eig_unitary_angles(f)


def test_diagnostics_keep_both_decompositions_residuals():
    dec = decompose_graph(make_ring(12))
    diag = dec.diagnostics
    assert set(diag) == {
        "sym_orthonormality", "sym_reconstruction", "q_orthonormality", "off_cluster",
        "cluster_unitarity", "cluster_reconstruction", "unimodularity", "clusters", "max_cluster",
    }
    assert diag["sym_orthonormality"] < 1e-12 and diag["sym_reconstruction"] < 1e-10 * (1 + np.abs(dec.z).max())
    assert 1 <= diag["max_cluster"] <= 12 and 1 <= diag["clusters"] <= 12
    assert "fourier" not in dec.__dict__
