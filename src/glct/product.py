"""Kronecker-factored transforms for signals on Cartesian product graphs.

Every transform here is separable: it applies per-factor matrices along the
corresponding tensor axes (axis k for factor k, processed in ascending axis
order) and never materializes a Kronecker product. ``dense_operator`` builds
the same transforms the expensive way, as explicit Kronecker-product
matrices, and exists purely as a differential-testing oracle.

Fractional Kronecker diagonals are computed per factor and then combined, so
mode-wise application, exact power additivity, and separability all hold by
construction. The two LCT factorizations fold their chirps into at most three
N_k x N_k factor matrices per axis and apply each axis with matrix products
on the flat signal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .graphs import GsoKind, ProductGraph, kronecker_sum
from .kernels import FactorDecomposition, decompose_graph
from .params import (
    CmCcCmBranch,
    LctParams,
    ZeroBVariant,
    cddhfs_decompose,
    cmccm_decompose,
)
from .spectral import frac_diag_power, principal_angle

OPS = ("gft", "igft", "gfrft", "gcm", "gscale", "glct_cddhfs", "glct_cmccm")
DENSE_SIZE_CAP = 4096


@dataclass(frozen=True)
class SignalNd:
    """Complex signal on a product graph, stored flat in linearized order.

    The linear order puts the first factor's index fastest, matching
    ``tensor.flatten(order="F")`` for a tensor of shape ``shape``.
    """

    shape: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in self.shape)
        values = np.array(self.values, dtype=complex).ravel()
        if values.size != int(np.prod(shape)):
            raise ValidationError(
                f"signal has {values.size} values but shape {shape} needs {int(np.prod(shape))}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_tensor(cls, tensor: np.ndarray) -> "SignalNd":
        tensor = np.asarray(tensor)
        return cls(tensor.shape, tensor.flatten(order="F"))

    def tensor(self) -> np.ndarray:
        return self.values.reshape(self.shape, order="F")

    @property
    def n(self) -> int:
        return self.values.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


class ProductContext:
    """Per-factor spectral decompositions for one product graph and GSO kind."""

    def __init__(self, graph: ProductGraph, kind: GsoKind = GsoKind.LAPLACIAN) -> None:
        self.graph = graph
        self.kind = kind
        self.factors: tuple[FactorDecomposition, ...] = tuple(
            decompose_graph(g, kind) for g in graph.factors
        )
        self._angles = tuple(principal_angle(dec.fourier.values) for dec in self.factors)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.graph.shape

    def check(self, x: SignalNd) -> None:
        if x.shape != self.shape:
            raise ValidationError(f"signal shape {x.shape} does not match graph shape {self.shape}")

    def diag_powers(self, t: float) -> list[np.ndarray]:
        """Per factor, the transform eigenvalues to the power ``t``: the chirp
        diagonal of rate t, equal to :func:`~glct.spectral.frac_diag_power`."""
        t = float(t)
        return [np.exp(1j * (t * angle)) for angle in self._angles]


def _mode_product(values: np.ndarray, shape: tuple[int, ...], axis: int, mat: np.ndarray) -> np.ndarray:
    """Apply ``mat`` along ``axis`` of flat first-index-fastest ``values``.

    In C order the flat array is an (L, N_axis, R) block, R being the product
    of the earlier axes, so one matmul applies ``mat`` to every fibre.
    """
    n = shape[axis]
    r = math.prod(shape[:axis])
    if r == 1:
        return (values.reshape(-1, n) @ mat.T).ravel()
    return (mat @ values.reshape(-1, n, r)).ravel()


def _axis_apply(
    values: np.ndarray, shape: tuple[int, ...], axis: int, mats: Sequence[np.ndarray]
) -> np.ndarray:
    """Apply the product ``mats[0] @ mats[1] @ ...`` along ``axis``.

    Forming the product costs N^3 per extra factor and applying one factor
    costs N * P for P signal entries, so the product is formed only when
    N^2 <= P, the comparison ``np.linalg.multi_dot`` makes; otherwise the
    factors are applied right to left.
    """
    if shape[axis] ** 2 <= values.size:
        return _mode_product(values, shape, axis, reduce(np.matmul, mats))
    for mat in reversed(mats):
        values = _mode_product(values, shape, axis, mat)
    return values


def _kron_sum_apply(values: np.ndarray, shape: tuple[int, ...], mats: Sequence[np.ndarray]) -> np.ndarray:
    """Apply the Kronecker sum of ``mats``: the sum of their mode products."""
    return sum(_mode_product(values, shape, axis, m) for axis, m in enumerate(mats))


def _kron_diag_tensor(diags: Sequence[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Tensor D with D[i_1, ..., i_m] = prod_k diags[k][i_k]."""
    d = np.ones(shape, dtype=complex)
    for axis, vec in enumerate(diags):
        view = [1] * len(shape)
        view[axis] = shape[axis]
        d = d * vec.reshape(view)
    return d


def gft_nd(x: SignalNd, ctx: ProductContext) -> SignalNd:
    """Separable analysis transform: factor-k matrix along axis k."""
    ctx.check(x)
    values = x.values
    for axis, dec in enumerate(ctx.factors):
        values = _mode_product(values, ctx.shape, axis, dec.f)
    return SignalNd(ctx.shape, values)


def igft_nd(xhat: SignalNd, ctx: ProductContext) -> SignalNd:
    """Inverse of :func:`gft_nd`."""
    ctx.check(xhat)
    values = xhat.values
    for axis, dec in enumerate(ctx.factors):
        values = _mode_product(values, ctx.shape, axis, dec.basis.vectors)
    return SignalNd(ctx.shape, values)


def gfrft_nd(x: SignalNd, alpha_norm: float, ctx: ProductContext) -> SignalNd:
    """Separable fractional transform of normalized order ``alpha_norm``.

    Along axis k this is P diag(mu**alpha) P^H with (P, mu) the unitary
    eigendecomposition of the factor's transform matrix.
    """
    ctx.check(x)
    values = x.values
    for axis, (dec, d) in enumerate(zip(ctx.factors, ctx.diag_powers(alpha_norm))):
        p = dec.fourier.vectors
        values = _axis_apply(values, ctx.shape, axis, [p * d, p.conj().T])
    return SignalNd(ctx.shape, values)


def gcm_nd(x: SignalNd, xi: float, ctx: ProductContext) -> SignalNd:
    """Chirp multiplication by the Kronecker product of per-factor diagonals."""
    ctx.check(x)
    return SignalNd.from_tensor(x.tensor() * _kron_diag_tensor(ctx.diag_powers(xi), ctx.shape))


def gscale_nd(x: SignalNd, sigma: float, ctx: ProductContext) -> SignalNd:
    """Scaling transform: apply the Kronecker-sum shift operator over sigma."""
    if sigma == 0:
        raise ValidationError("scaling factor must be nonzero")
    ctx.check(x)
    values = _kron_sum_apply(x.values, ctx.shape, [dec.z for dec in ctx.factors])
    return SignalNd(ctx.shape, values / sigma)


def glct_cddhfs_nd(x: SignalNd, p: LctParams, ctx: ProductContext) -> SignalNd:
    """Linear canonical transform as chirp o scaling o fractional transform.

    Along axis k the chirp and the fractional transform combine into
    (D_xi P D_alpha) P^H. The chirp diagonal D_xi is unimodular, so moving it
    in front of the Kronecker-sum scaling turns each shift operator Z_k into
    D_xi Z_k D_xi^* / delta.
    """
    ctx.check(x)
    dp = cddhfs_decompose(p)
    values = x.values
    scales = []
    for axis, (dec, dxi, dalpha) in enumerate(
        zip(ctx.factors, ctx.diag_powers(dp.xi), ctx.diag_powers(dp.alpha_norm))
    ):
        pv = dec.fourier.vectors
        values = _axis_apply(values, ctx.shape, axis, [dxi[:, None] * pv * dalpha, pv.conj().T])
        scales.append(dxi[:, None] * dec.z * (dxi.conj() / dp.delta))
    return SignalNd(ctx.shape, _kron_sum_apply(values, ctx.shape, scales))


def glct_cmccm_nd(
    x: SignalNd,
    p: LctParams,
    ctx: ProductContext,
    zero_b_variant: ZeroBVariant = ZeroBVariant.EQ30,
) -> SignalNd:
    """Linear canonical transform as chirp / chirp-convolution / chirp factors.

    Every factor of the chain is a Kronecker product, so along axis k the
    general-b transform is (D1 V D2)(V^T D3), with V the factor's GFT
    synthesis basis and D1, D2, D3 its chirp diagonals of rates x1, x2, x3;
    eq30 applies V^T in front of it and eq31 V behind it. The branch's
    constant phase (1 for general b) multiplies the result once.
    """
    ctx.check(x)
    cp = cmccm_decompose(p, zero_b_variant)
    values = x.values
    diags = zip(ctx.factors, *(ctx.diag_powers(g) for g in cp.chirps))
    for axis, (dec, d1, d2, d3) in enumerate(diags):
        v = dec.basis.vectors
        mats = [d1[:, None] * v * d2, dec.f * d3]
        if cp.branch is CmCcCmBranch.ZERO_B_EQ30:
            mats.insert(0, dec.f)
        elif cp.branch is CmCcCmBranch.ZERO_B_EQ31:
            mats.append(v)
        values = _axis_apply(values, ctx.shape, axis, mats)
    return SignalNd(ctx.shape, cp.phase * values)


# ---------------------------------------------------------------------------
# transform descriptors


@dataclass(frozen=True)
class TransformSpec:
    """Serializable description of one transform, for dispatch and oracles."""

    op: str
    params: Mapping[str, Any] = field(default_factory=dict)
    gso: str = "laplacian"
    zero_b_variant: str = "eq30"

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValidationError(f"unknown op {self.op!r}; choose from {OPS}")
        GsoKind(self.gso)
        ZeroBVariant(self.zero_b_variant)
        object.__setattr__(self, "params", dict(self.params))

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "params": dict(self.params),
            "gso": self.gso,
            "zero_b_variant": self.zero_b_variant,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TransformSpec":
        return cls(
            op=d["op"],
            params=d.get("params", {}),
            gso=d.get("gso", "laplacian"),
            zero_b_variant=d.get("zero_b_variant", "eq30"),
        )

    def abcd(self) -> LctParams:
        try:
            a, b, c, d = self.params["abcd"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"op {self.op!r} needs params['abcd'] = (a, b, c, d)") from exc
        return LctParams(a, b, c, d)


def apply_spec(x: SignalNd, spec: TransformSpec, ctx: ProductContext) -> SignalNd:
    """Apply the described transform using the factored implementation."""
    if ctx.kind.value != spec.gso:
        raise ValidationError(f"context uses gso {ctx.kind.value!r} but spec asks {spec.gso!r}")
    if spec.op == "gft":
        return gft_nd(x, ctx)
    if spec.op == "igft":
        return igft_nd(x, ctx)
    if spec.op == "gfrft":
        return gfrft_nd(x, float(spec.params["alpha"]), ctx)
    if spec.op == "gcm":
        return gcm_nd(x, float(spec.params["xi"]), ctx)
    if spec.op == "gscale":
        return gscale_nd(x, float(spec.params["sigma"]), ctx)
    if spec.op == "glct_cddhfs":
        return glct_cddhfs_nd(x, spec.abcd(), ctx)
    return glct_cmccm_nd(x, spec.abcd(), ctx, ZeroBVariant(spec.zero_b_variant))


def _kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    # first factor fastest: global matrix is M_m (x) ... (x) M_1
    return reduce(np.kron, list(mats)[::-1])


def _kron_diag(diags: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, list(diags)[::-1])


def dense_operator(spec: TransformSpec, graph: ProductGraph) -> np.ndarray:
    """Explicit matrix of the described transform, built from Kronecker products.

    Intended as a test oracle; refuses product graphs with more than
    ``DENSE_SIZE_CAP`` vertices.
    """
    if graph.n > DENSE_SIZE_CAP:
        raise ValidationError(f"dense operator capped at {DENSE_SIZE_CAP} vertices, got {graph.n}")
    ctx = ProductContext(graph, GsoKind(spec.gso))

    def dense_gft() -> np.ndarray:
        return _kron_all([dec.f for dec in ctx.factors]).astype(complex)

    def dense_igft() -> np.ndarray:
        return _kron_all([dec.basis.vectors for dec in ctx.factors]).astype(complex)

    def dense_gfrft(alpha: float) -> np.ndarray:
        pk = _kron_all([dec.fourier.vectors for dec in ctx.factors])
        dk = _kron_diag([frac_diag_power(dec.fourier.values, alpha) for dec in ctx.factors])
        return (pk * dk) @ pk.conj().T

    def dense_gcm(xi: float) -> np.ndarray:
        return np.diag(_kron_diag([frac_diag_power(dec.fourier.values, xi) for dec in ctx.factors]))

    def dense_gscale(sigma: float) -> np.ndarray:
        if sigma == 0:
            raise ValidationError("scaling factor must be nonzero")
        return kronecker_sum([dec.z for dec in ctx.factors]).astype(complex) / sigma

    if spec.op == "gft":
        return dense_gft()
    if spec.op == "igft":
        return dense_igft()
    if spec.op == "gfrft":
        return dense_gfrft(float(spec.params["alpha"]))
    if spec.op == "gcm":
        return dense_gcm(float(spec.params["xi"]))
    if spec.op == "gscale":
        return dense_gscale(float(spec.params["sigma"]))
    if spec.op == "glct_cddhfs":
        dp = cddhfs_decompose(spec.abcd())
        return dense_gcm(dp.xi) @ dense_gscale(dp.delta) @ dense_gfrft(dp.alpha_norm)
    cp = cmccm_decompose(spec.abcd(), ZeroBVariant(spec.zero_b_variant))
    x1, x2, x3 = cp.chirps
    if cp.branch is CmCcCmBranch.GENERAL:
        return dense_gcm(x1) @ dense_igft() @ dense_gcm(x2) @ dense_gft() @ dense_gcm(x3)
    if cp.branch is CmCcCmBranch.ZERO_B_EQ30:
        return cp.phase * (
            dense_gft() @ dense_gcm(x1) @ dense_igft() @ dense_gcm(x2) @ dense_gft() @ dense_gcm(x3)
        )
    return cp.phase * (
        dense_gcm(x1) @ dense_igft() @ dense_gcm(x2) @ dense_gft() @ dense_gcm(x3) @ dense_igft()
    )


def mult_count(spec: TransformSpec, shape: Sequence[int]) -> int:
    """Real multiplications used to apply the factored transform once.

    Counts the paper's chained factorization, one elementary op after another,
    which is what the complexity comparison between cddhfs and cmccm is about;
    the per-axis executor folds chirps into factor matrices and does other
    arithmetic. Counts the run phase only, with all per-factor operators and diagonals
    precomputed: a complex-complex scalar multiply costs 4 real multiplies, a
    real-complex one costs 2. Applying an N_k x N_k factor along axis k of a
    complex tensor with P entries therefore costs 2*N_k*P (real factor) or
    4*N_k*P (complex factor); a precomputed Kronecker diagonal costs one
    complex multiply per entry. Eigendecompositions and operator assembly are
    setup and excluded.
    """
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape) or not shape:
        raise ValidationError(f"invalid shape {shape}")
    p = int(np.prod(shape))
    s = int(np.sum(shape))
    if spec.op in ("gft", "igft"):
        return 2 * p * s
    if spec.op == "gfrft":
        return 4 * p * s
    if spec.op == "gcm":
        return 4 * p
    if spec.op == "gscale":
        return 2 * p * s + 2 * p
    if spec.op == "glct_cddhfs":
        # fractional transform + scaling + chirp
        return (4 * p * s) + (2 * p * s + 2 * p) + 4 * p
    # cmccm: three chirps and two transforms, plus one extra transform and a
    # phase multiply on the zero-b branches
    cp = cmccm_decompose(spec.abcd(), ZeroBVariant(spec.zero_b_variant))
    if cp.branch is CmCcCmBranch.GENERAL:
        return 3 * 4 * p + 2 * (2 * p * s)
    return 3 * 4 * p + 3 * (2 * p * s) + 4 * p
