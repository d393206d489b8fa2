"""Per-factor spectral data: each factor graph's shift operator and its two
eigendecompositions.

The product transforms in :mod:`glct.product` read one
:class:`FactorDecomposition` per factor. Their chirps apply the eigenvalue
diagonal of the transform matrix directly in the vertex domain, so their
effect depends on the canonical eigenvalue order fixed in
:mod:`glct.spectral`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GsoKind, gso
from .spectral import FourierEigen, SpectralBasis, eig_sym, eig_unitary, gft_matrix


@dataclass(frozen=True)
class FactorDecomposition:
    """All spectral data needed to transform signals on one graph."""

    graph: Graph
    kind: GsoKind
    z: np.ndarray
    basis: SpectralBasis
    fourier: FourierEigen

    @property
    def f(self) -> np.ndarray:
        """The orthogonal analysis matrix."""
        return self.fourier.source


def decompose_graph(graph: Graph, kind: GsoKind = GsoKind.LAPLACIAN) -> FactorDecomposition:
    """Eigendecompose a graph's shift operator and its transform matrix."""
    z = gso(graph, kind)
    basis = eig_sym(z, kind)
    fourier = eig_unitary(gft_matrix(basis))
    return FactorDecomposition(graph=graph, kind=kind, z=z, basis=basis, fourier=fourier)
