"""Per-factor spectral data: each factor graph's shift operator and its two
eigendecompositions.

The product transforms in :mod:`glct.product` read one
:class:`FactorDecomposition` per factor. Their chirps apply the eigenvalue
diagonal of the transform matrix directly in the vertex domain, in the
ascending order of principal argument fixed in :mod:`glct.spectral`.

The unitary eigendecomposition of the transform matrix F = V^T is one
:class:`~glct.spectral.UnitaryAngles`, ``eig_unitary_angles(f)``, held as
:attr:`FactorDecomposition.spectrum`. Its values stage, which gives the
chirps their angles, runs when the factor is decomposed, on V^T as a view of
the eigenbasis V. Its eigenvectors P (``spectrum.vectors``) are built from
that stage's state on first read, which only the fractional transform,
cddhfs and the dense oracle make; a context that runs cmccm alone never
builds them. P lives on the spectrum, and its conjugate P-bar, the
executor's operand for P^H, on the factor
(:attr:`FactorDecomposition.fourier_conj`).

Each factor matrix is held once. After set-up a factor holds V, the values
stage's q, its cluster blocks and the angles; the shift operator Z
(:attr:`FactorDecomposition.z`) and a C-contiguous copy of F
(:attr:`FactorDecomposition.f`) are built on first read, by the ``scale``
and ``ft`` ops and the dense oracle. So are the pair operands of V, F and Z
(:func:`pair_operand`), which the executor applies on a small first axis.

``FactorDecomposition.diagnostics`` reports the residuals both
decompositions checked against their bounds (entrywise maxima):

- ``sym_orthonormality``: |V^T V - I| of the shift operator's eigenbasis V.
  F^T F - I has the spectrum of V^T V - I, so this residual r bounds the
  computed |F^T F - I| by n (r + gamma_n) + gamma_n, gamma_n = n u / (1 - n u),
  u = 2^-53 (Higham 2002); set-up skips that n^3 check of F while this is below 1e-8;
- ``sym_reconstruction``: |Z - V diag(lambda) V^T|, bounded by
  1e-10 * (1 + max |Z|);
- ``q_orthonormality``: |q^T q - I| of the eigenbasis q of F's symmetric part;
- ``off_cluster``: the largest entry of q^T F q off its cluster blocks;
- ``cluster_unitarity`` and ``cluster_reconstruction``: the worst over
  clusters of |W^H W - I| and |g_c - W diag(mu_c) W^H|;
- ``unimodularity``: the largest ||mu| - 1|;
- ``clusters`` and ``max_cluster``: the cluster count and the largest
  cluster size;
- ``mirrored_pairs``: k, the values stage's mirror. The first k angles,
  reversed, are the exact negations of the k angles from the first positive
  one on; k is the number of negative angles where that holds and 0 where it
  does not. F is real, so its eigenvalues come in conjugate pairs, but
  rounding may leave a pair's angles a few ulps from negations of each other
  (ring(800) under the Laplacian, by up to 7e-18). Chirp diagonals take cos
  and sin of the other n - k angles only and write the first k as conjugates
  (:meth:`glct.product.ProductContext.diag_powers`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph, GsoKind, gso
from .spectral import (
    _ORTHOGONAL_TOL,
    SpectralBasis,
    UnitaryAngles,
    _angles,
    eig_sym,
    eig_unitary_angles,
    gft_matrix,
)


def pair_operand(m: np.ndarray) -> np.ndarray:
    """kron(M, I_2)^T of a real n x n matrix M, as an F-ordered view of a
    C-contiguous (2n, 2n) array, the layout that ``M.T`` has. A block of
    first-axis fibres whose float view interleaves real and imaginary parts,
    (re_0, im_0, re_1, im_1, ...), times this matrix is M applied to each
    fibre: one real GEMM, with no copy into separate parts."""
    return np.ascontiguousarray(np.kron(m, np.eye(2))).T


@dataclass(frozen=True)
class FactorDecomposition:
    """All spectral data needed to transform signals on one graph.

    Set-up stores the eigenbasis V (:attr:`basis`) and the unitary
    eigendecomposition of F (:attr:`spectrum`), whose ``source`` is V^T, a
    view of V. The shift operator, F as its own array, the unitary
    eigenvectors P (``spectrum.vectors``) and their conjugate, and the pair
    operands of V, F and Z are built on first read and then kept.
    """

    graph: Graph
    kind: GsoKind
    basis: SpectralBasis
    spectrum: UnitaryAngles

    @cached_property
    def z(self) -> np.ndarray:
        """The shift operator, rebuilt from :attr:`graph` on first read."""
        return gso(self.graph, self.kind)

    @cached_property
    def f(self) -> np.ndarray:
        """The orthogonal analysis matrix V^T as a C-contiguous copy, made on
        first read; the ``ft`` op needs its own layout for block rows to match
        one-row calls bit for bit."""
        return gft_matrix(self.basis)

    @cached_property
    def fourier_conj(self) -> np.ndarray:
        """The entrywise conjugate of P (``spectrum.vectors``), whose transpose is P^H."""
        return self.spectrum.vectors.conj()

    @cached_property
    def v_pairs(self) -> np.ndarray:
        """V's pair operand (:func:`pair_operand`), made on first read."""
        return pair_operand(self.basis.vectors)

    @cached_property
    def f_pairs(self) -> np.ndarray:
        """F = V^T's pair operand (:func:`pair_operand`), made on first read."""
        return pair_operand(self.basis.vectors.T)

    @cached_property
    def z_pairs(self) -> np.ndarray:
        """The shift operator's pair operand (:func:`pair_operand`), made on first read."""
        return pair_operand(self.z)

    @property
    def diagnostics(self) -> dict:
        """Residuals and cluster counts of both eigendecompositions."""
        return {**self.basis.residuals, **self.spectrum.residuals}


def decompose_graph(graph: Graph, kind: GsoKind = GsoKind.LAPLACIAN) -> FactorDecomposition:
    """Eigendecompose a graph's shift operator, and its transform matrix up to
    the eigenvalues. Neither Z nor a copy of F outlives the call. ``kind`` is
    a :class:`GsoKind` or its value."""
    kind = GsoKind(kind)
    basis = eig_sym(gso(graph, kind))
    f, n, r = basis.vectors.T, graph.n, basis.residuals["sym_orthonormality"]
    gamma = n * 2.0**-53 / (1.0 - n * 2.0**-53)  # the implied bound on |F^T F - I| (module docstring)
    spectrum = _angles(f) if n * (r + gamma) + gamma < _ORTHOGONAL_TOL else eig_unitary_angles(f)
    return FactorDecomposition(graph=graph, kind=kind, basis=basis, spectrum=spectrum)
