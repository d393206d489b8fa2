"""Eigenstructure of graph shift operators and of orthogonal transform matrices.

Two decompositions are provided: the symmetric eigendecomposition of a shift
operator (real orthonormal basis, ascending eigenvalues, deterministic signs)
and the unitary eigendecomposition of the resulting orthogonal transform
matrix (unimodular eigenvalues by ascending principal argument). The unitary
one is one object, :class:`UnitaryAngles`, made by :func:`eig_unitary_angles`:
it bounds and holds the eigenvalues and their sorted angles without forming
an eigenvector, and builds the eigenvectors (:attr:`UnitaryAngles.vectors`)
from its own state on first read. No code picks a basis
inside an eigenspace: a fractional power P diag(mu^t) P^H is the matrix
function F^t, the same for every eigenbasis P up to rounding. Fractional
powers are taken entrywise on the unimodular eigenvalues with the principal
logarithm (:func:`frac_diag_power`), so repeated powers compose additively
for a fixed branch.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalError, ValidationError

_SIGN_TOL = 1e-8  # below this magnitude a component does not decide a sign/phase
_CLUSTER_GAP = 1e-9  # eigenvalue gap that separates invariant subspaces
_SNAP_TOL = 1e-13  # distance at which eigenvalues snap onto the real/imaginary axes
_ORTHOGONAL_TOL = 1e-8  # how far from orthogonal eig_unitary_angles accepts its input


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal eigenvectors (columns) and ascending eigenvalues of a GSO,
    with the residuals of the bounds :func:`eig_sym` checked."""

    vectors: np.ndarray
    values: np.ndarray
    residuals: dict = field(default_factory=dict)


def _fix_signs(v: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns in place so the first non-negligible component is positive."""
    mask = np.abs(v) > _SIGN_TOL
    cols = np.arange(v.shape[1])
    flip = mask.any(axis=0) & (v[mask.argmax(axis=0), cols] < 0)
    return np.negative(v, out=v, where=flip)


def _eye_residual(m: np.ndarray) -> float:
    """max |m - I| entrywise, worked out in the buffer of ``m``, a square product the caller gives up."""
    m.flat[:: m.shape[0] + 1] -= 1.0
    return float((np.abs(m, out=m) if m.dtype.kind == "f" else np.abs(m)).max())


def eig_sym(z: np.ndarray) -> SpectralBasis:
    """Eigendecompose a real symmetric shift operator.

    Raises ValidationError if ``z`` is not finite and symmetric within 1e-10,
    and NumericalError if the decomposition fails its reconstruction bounds.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {z.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or inf here fails the bound
        sym = np.subtract(z, z.T, order="C")  # C order, as the product it is reused for below
    gap = np.abs(sym, out=sym).max() if z.size else 0.0
    if not gap <= 1e-10:
        raise ValidationError("matrix is not finite and symmetric within 1e-10")
    # z is its own symmetric part when z - z^T is all zero, as for every gso output
    values, vectors = np.linalg.eigh(z if gap == 0.0 else np.divide(np.add(z, z.T, out=sym), 2.0, out=sym))
    vectors = _fix_signs(vectors)
    orth = _eye_residual(vectors.T @ vectors)
    if not orth < 1e-12:
        raise NumericalError("eigenvector basis lost orthonormality")
    scale = 1.0 + (max(z.max(), -z.min()) if z.size else 0.0)
    recon = np.matmul(vectors * values, vectors.T, out=sym)  # sym is free again
    recon = float(np.abs(np.subtract(z, recon, out=recon), out=recon).max())
    if not recon < 1e-10 * scale:
        raise NumericalError("eigendecomposition failed its reconstruction bound")
    residuals = {"sym_orthonormality": orth, "sym_reconstruction": recon}
    return SpectralBasis(vectors=vectors, values=values, residuals=residuals)


def gft_matrix(basis: SpectralBasis) -> np.ndarray:
    """Transform matrix that analyzes a vertex signal: the transposed basis."""
    return basis.vectors.T.copy()


def _runs(breaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run; ``breaks[i]`` is True where a run starts at i + 1."""
    bounds = np.flatnonzero(np.concatenate(([True], breaks, [True])))
    return bounds[:-1], bounds[1:] - bounds[:-1]


@dataclass(frozen=True)
class UnitaryAngles:
    """Unitary eigendecomposition ``source = vectors @ diag(values) @ vectors^H``
    of an orthogonal transform matrix, its eigenvectors built on first read.

    ``values`` holds the unimodular eigenvalues of ``source`` in ascending
    order of principal argument, and ``angles`` those arguments:
    ``principal_angle(values)`` equals ``angles`` bit for bit. ``residuals``
    holds the bound residuals the values stage checked. ``mirror`` is (k, lo):
    the first k angles, reversed, are the exact negations of
    ``angles[lo:lo + k]``, lo being the index of the first positive angle
    (see :func:`_mirror`); k is also ``residuals["mirrored_pairs"]``. The
    private fields are the state :attr:`vectors` is built from: the symmetric
    part's eigenvectors, each stacked cluster solve as (column indices,
    eigenvectors), and the stable argsort of the angles in cluster order.
    """

    angles: np.ndarray
    values: np.ndarray
    source: np.ndarray
    residuals: dict
    mirror: tuple[int, int]
    _q: np.ndarray = field(repr=False)
    _clusters: tuple = field(repr=False)
    _order: np.ndarray = field(repr=False)

    @cached_property
    def vectors(self) -> np.ndarray:
        """The unitary eigenvectors P, columns in the order of :attr:`angles`.

        They are ``q_c @ w`` on each cluster, taken from the values stage's
        state with no second eigensolve. Raises NumericalError if P is not
        unitary within 1e-10 or does not reproduce ``source`` within 1e-9,
        entrywise.
        """
        q, mu, f = self._q, self.values, self.source
        p = q.astype(complex)
        for idx, w in self._clusters:
            p[:, idx] = (q[:, idx].transpose(1, 0, 2) @ w).transpose(1, 0, 2)
        p = p[:, self._order]
        ph = p.conj().T
        if not _eye_residual(ph @ p) < 1e-10:
            raise NumericalError("unitary eigenbasis lost orthonormality")
        if not np.abs((p * mu) @ ph - f).max() < 1e-9:  # numpy subtracts in the product's buffer
            raise NumericalError("unitary eigendecomposition failed its reconstruction bound")
        return p


def _bound(residual: float, tol: float, what: str) -> None:
    if not residual < tol:  # a NaN residual fails too
        raise NumericalError(f"unitary eigenvalue stage: {what} {residual:.3g} not below {tol:g}")


def _mirror(angles: np.ndarray) -> tuple[int, int]:
    """(k, lo) for sorted ``angles``: lo is the index of the first positive
    angle, and k the number of negative ones if, reversed and negated, they
    equal ``angles[lo:lo + k]`` bit for bit, else 0. A real matrix's
    eigenvalues come in conjugate pairs, but the computed angles of a pair
    need not be exact negations of each other; where they are, a chirp
    diagonal takes cos and sin of the positive half only."""
    k, lo = angles.searchsorted(0.0, "left"), angles.searchsorted(0.0, "right")
    return (int(k) if (-angles[:k][::-1]).tobytes() == angles[lo:lo + k].tobytes() else 0), int(lo)


def eig_unitary_angles(f: np.ndarray) -> UnitaryAngles:
    """Eigenvalues of a real orthogonal matrix, without its eigenvectors.

    Because ``f`` is normal, its Hermitian and skew parts commute; the skew
    part is diagonalized inside each eigenspace of the symmetric part, which
    needs only symmetric eigensolvers. Those eigenspaces are the clusters of
    the symmetric part's eigenvalues, split at gaps above ``_CLUSTER_GAP``, with
    eigenvectors ``q``. The product ``g = q.T @ f @ q`` is formed once; for
    a cluster's diagonal block ``g_c``, the Hermitian matrix
    ``(g_c - g_c.T) / 2j`` has the eigenvectors ``w`` that diagonalize ``f``
    on that cluster. All clusters of one size are solved by one stacked
    eigensolve (a one-member cluster has ``w = 1``); the eigenvalues are the
    Rayleigh quotients ``w^H g_c w``. Eigenvalues within _SNAP_TOL of the
    real or imaginary axis are snapped onto it so that branch cuts of
    fractional powers are taken deterministically.

    Raises ValidationError if ``f`` is not finite and orthogonal within 1e-8,
    and NumericalError unless, entrywise, ``q`` is orthonormal within 1e-10,
    ``g`` vanishes off the cluster blocks within 1e-9, every ``w`` is
    unitary within 1e-10 and reproduces its block as ``w diag(mu_c) w^H``
    within 1e-9, and every eigenvalue is unimodular within 1e-10. Together
    these bound ``f - (q w) diag(mu) (q w)^H`` with no eigenvector of ``f``
    formed.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {f.shape}")
    if not (np.isfinite(f).all() and _eye_residual(f.T @ f) < _ORTHOGONAL_TOL):
        raise ValidationError(f"matrix is not finite and orthogonal within {_ORTHOGONAL_TOL:g}")
    return _angles(f)


def _angles(f: np.ndarray) -> UnitaryAngles:
    """:func:`eig_unitary_angles` on a real square ``f`` known to be orthogonal
    within ``_ORTHOGONAL_TOL``."""
    h, q = np.linalg.eigh((f + f.T) / 2.0)  # numpy divides the sum in its own buffer
    g = q.T @ f @ q
    mu = np.diagonal(g).astype(complex)
    starts, sizes = _runs(h[1:] - h[:-1] > _CLUSTER_GAP)
    clusters, solved = [], []
    for m in sorted(set(sizes.tolist()) - {1}):
        idx = starts[sizes == m][:, None] + np.arange(m)  # (clusters, m) column indices
        blocks = g[idx[:, :, None], idx[:, None, :]]
        _, w = np.linalg.eigh((blocks - blocks.transpose(0, 2, 1)) / 2j)
        mu[idx] = (w.conj() * (blocks @ w)).sum(axis=1)
        clusters.append((idx, w))
        solved.append(blocks)
    mu = mu / np.abs(mu)

    re, im = mu.real.copy(), mu.imag.copy()
    im[np.abs(im) < _SNAP_TOL] = 0.0
    re[np.abs(re) < _SNAP_TOL] = 0.0
    mu = re + 1j * im
    mu = mu / np.abs(mu)

    single = starts[sizes == 1]
    unitarity, recon = [0.0], [np.abs(np.diagonal(g)[single] - mu[single]).max(initial=0.0)]
    for (idx, w), blocks in zip(clusters, solved):
        wh = w.conj().transpose(0, 2, 1)
        unitarity.append(np.abs(wh @ w - np.eye(idx.shape[1])).max())
        recon.append(np.abs(blocks - (w * mu[idx][:, None, :]) @ wh).max())
        g[idx[:, :, None], idx[:, None, :]] = 0.0  # what is left of g lies off the cluster blocks
    g[single, single] = 0.0
    residuals = {
        "q_orthonormality": _eye_residual(q.T @ q),
        "off_cluster": float(np.abs(g, out=g).max(initial=0.0)),
        "cluster_unitarity": float(max(unitarity)),
        "cluster_reconstruction": float(max(recon)),
        "unimodularity": float(np.abs(np.abs(mu) - 1.0).max()),
        "clusters": int(sizes.size),
        "max_cluster": int(sizes.max()),
    }
    _bound(residuals["q_orthonormality"], 1e-10, "symmetric-part eigenbasis orthonormality")
    _bound(residuals["off_cluster"], 1e-9, "entry of q^T f q off the cluster blocks")
    _bound(residuals["cluster_unitarity"], 1e-10, "cluster eigenbasis unitarity")
    _bound(residuals["cluster_reconstruction"], 1e-9, "cluster reconstruction")
    _bound(residuals["unimodularity"], 1e-10, "eigenvalue modulus deviation from 1")
    angles = principal_angle(mu)
    order = np.argsort(angles, kind="stable")
    angles = angles[order]
    mirror = _mirror(angles)
    residuals["mirrored_pairs"] = mirror[0]
    return UnitaryAngles(angles=angles, values=mu[order], source=f, residuals=residuals, mirror=mirror,
                         _q=q, _clusters=tuple(clusters), _order=order)


def principal_angle(mu: np.ndarray) -> np.ndarray:
    """Principal argument in (-pi, pi]; values on the negative real axis get +pi."""
    # adding +0.0 turns an imaginary part of -0.0 into +0.0; np.angle would
    # otherwise put such a negative real value at -pi
    return np.angle(np.asarray(mu, dtype=complex) + 0.0)


def frac_diag_power(mu: np.ndarray, t: float) -> np.ndarray:
    """Entrywise fractional power of unimodular values via the principal log.

    The argument is taken by :func:`principal_angle`, so (-1)**0.5 == 1j.
    Inputs must be unimodular within 1e-8; outputs lie on the unit circle.
    """
    mu = np.asarray(mu, dtype=complex)
    if mu.size and not np.abs(np.abs(mu) - 1.0).max() <= 1e-8:
        raise ValidationError("fractional powers require unimodular eigenvalues")
    return np.exp(1j * (float(t) * principal_angle(mu)))
