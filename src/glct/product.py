"""Kronecker-factored transforms for signals on Cartesian product graphs.

Every transform here is separable: it applies per-factor matrices along the
corresponding tensor axes (axis k for factor k, processed in ascending axis
order) and never materializes a Kronecker product. ``dense_operator`` builds
the same transforms the expensive way, as explicit Kronecker-product
matrices, and exists purely as a differential-testing oracle.

Fractional Kronecker diagonals are computed per factor and then combined, so
mode-wise application, exact power additivity, and separability all hold by
construction.

The fractional transform and the two LCT factorizations run on blocks: T
signals on one graph, one parameter set per row. Along an axis with
N_k^2 <= P (P entries per signal) each row's factors are multiplied into one
N_k x N_k matrix; along the others the matrices every row shares (V, V^T, P,
P^H, Z_k) are applied once over the whole block and each row's chirps as
diagonals. The one-signal functions are the T = 1 case.
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
    CddhfsParams,
    CmCcCmBranch,
    CmCcCmParams,
    LctParams,
    ZeroBVariant,
    cddhfs_decompose,
    cmccm_decompose,
)
from .spectral import frac_diag_power, principal_angle

OPS = ("gft", "igft", "gfrft", "gcm", "gscale", "glct_cddhfs", "glct_cmccm")
DENSE_SIZE_CAP = 4096
#: Byte budget of one block: 16 rows of the largest benchmark signal (x2,
#: 288 entries). Larger blocks buy little speed and raise peak memory.
BLOCK_BYTES = 16 * 288 * 16


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
        self.shape: tuple[int, ...] = graph.shape
        self.factors: tuple[FactorDecomposition, ...] = tuple(
            decompose_graph(g, kind) for g in graph.factors
        )
        self._angles = tuple(principal_angle(dec.fourier.values) for dec in self.factors)

    def check(self, x: SignalNd) -> None:
        if x.shape != self.shape:
            raise ValidationError(f"signal shape {x.shape} does not match graph shape {self.shape}")

    def diag_powers(self, t: float | np.ndarray) -> list[np.ndarray]:
        """Per factor, the transform eigenvalues to the power ``t``: the chirp
        diagonal of rate t, equal to :func:`~glct.spectral.frac_diag_power`.

        A scalar rate gives one (N_k,) diagonal per factor; an array of T
        rates gives a (T, N_k) stack, one row per rate.
        """
        t = np.asarray(t, dtype=float)[..., None]
        return [np.exp(1j * (t * angle)) for angle in self._angles]


# ---------------------------------------------------------------------------
# blocks: T signals on one product graph, one row each, transformed together
#
# A block is a C-contiguous complex (T, P) array. Along axis k a row is an
# (L, N_k, R) array, R being the product of the earlier axes, so the whole
# block is a (T * L, N_k, R) stack. Row t of every result depends on row t of
# the block and its own parameters only, never on T.


def block_rows(n: int) -> int:
    """Rows of ``n`` complex entries that fit in one block of BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (16 * n))


def _chunks(rows: np.ndarray, n: int):
    """Split row indices into block-sized runs; slices when ``rows`` is all of them."""
    step = block_rows(n)
    whole = rows.size and rows[-1] == rows.size - 1
    for i in range(0, rows.size, step):
        yield slice(i, i + step) if whole else rows[i:i + step]


def _dims(shape: tuple[int, ...], axis: int) -> tuple[int, int]:
    return shape[axis], math.prod(shape[:axis])


def _shared(x: np.ndarray, shape: tuple[int, ...], axis: int, mat: np.ndarray) -> np.ndarray:
    """Apply one matrix along ``axis`` of every row of block ``x``.

    On the first axis (R = 1) this is one GEMM over all T * L fibres. A real
    matrix acts on real and imaginary parts separately: on the first axis
    stacked as 2 * T * L rows, on later axes through the float view of the
    block, whose (N_k, 2R) slices interleave real and imaginary parts.
    """
    t = x.shape[0]
    n, r = _dims(shape, axis)
    real = mat.dtype.kind == "f"
    if r == 1:
        rows = x.reshape(-1, n)
        if not real:
            return (rows @ mat.T).reshape(t, -1)
        half = rows.shape[0]
        res = np.concatenate((rows.real, rows.imag)) @ mat.T
        out = np.empty(rows.shape, dtype=complex)
        out.real, out.imag = res[:half], res[half:]
        return out.reshape(t, -1)
    if not real:
        return (mat @ x.reshape(-1, n, r)).reshape(t, -1)
    return (mat @ x.reshape(-1, n, r).view(float)).view(complex).reshape(t, -1)


def _diag(x: np.ndarray, shape: tuple[int, ...], axis: int, d: np.ndarray) -> np.ndarray:
    """Multiply along ``axis`` of row t by the diagonal ``d[t]`` (d is (T, N_k))."""
    t = x.shape[0]
    n, r = _dims(shape, axis)
    return (x.reshape(t, -1, n, r) * d[:, None, :, None]).reshape(t, -1)


def _stacked(x: np.ndarray, shape: tuple[int, ...], axis: int, mats: np.ndarray) -> np.ndarray:
    """Apply ``mats[t]`` along ``axis`` of row t (mats is (T, N_k, N_k))."""
    t = x.shape[0]
    n, r = _dims(shape, axis)
    if r == 1:
        return (x.reshape(t, -1, n) @ mats.transpose(0, 2, 1)).reshape(t, -1)
    return (mats[:, None] @ x.reshape(t, -1, n, r)).reshape(t, -1)


def _formed(n: int, x: np.ndarray) -> bool:
    """Whether an axis's factors are multiplied into one matrix per row.

    Forming the product costs N^3 per extra factor and applying one factor
    costs N * P for P signal entries, so the product is formed only when
    N^2 <= P, the comparison ``np.linalg.multi_dot`` makes. P is the entry
    count of one row, so the choice never depends on T.
    """
    return n * n <= x.shape[1]


def _block(values: np.ndarray, ctx: ProductContext, t: int) -> np.ndarray:
    values = np.ascontiguousarray(values, dtype=complex)
    if values.shape != (t, math.prod(ctx.shape)):
        raise ValidationError(
            f"block has shape {values.shape}; {t} parameter rows on shape {ctx.shape} "
            f"need ({t}, {math.prod(ctx.shape)})"
        )
    return values


def _kron_sum(x: np.ndarray, ctx: ProductContext) -> np.ndarray:
    """Apply the Kronecker sum of the shift operators: the sum of their mode products."""
    return sum(_shared(x, ctx.shape, axis, dec.z) for axis, dec in enumerate(ctx.factors))


def _frac(x: np.ndarray, alphas: np.ndarray, ctx: ProductContext) -> np.ndarray:
    """Fractional transform of order ``alphas[t]`` on row t: (P D_alpha) P^H per axis."""
    for axis, (dec, d) in enumerate(zip(ctx.factors, ctx.diag_powers(alphas))):
        p = dec.fourier.vectors
        if _formed(p.shape[0], x):
            x = _stacked(x, ctx.shape, axis, (p * d[:, None, :]) @ p.conj().T)
        else:
            x = _shared(x, ctx.shape, axis, p.conj().T)
            x = _shared(_diag(x, ctx.shape, axis, d), ctx.shape, axis, p)
    return x


def gfrft_block(values: np.ndarray, alphas: Sequence[float], ctx: ProductContext) -> np.ndarray:
    """Row t of ``values`` (T, P) through :func:`gfrft_nd` of order ``alphas[t]``."""
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    values = _block(values, ctx, alphas.size)
    out = np.empty_like(values)
    for rows in _chunks(np.arange(alphas.size), values.shape[1]):
        out[rows] = _frac(values[rows], alphas[rows], ctx)
    return out


def cddhfs_block(values: np.ndarray, dps: Sequence[CddhfsParams], ctx: ProductContext) -> np.ndarray:
    """Row t of ``values`` (T, P) through :func:`glct_cddhfs_nd` with ``dps[t]``.

    Each chunk runs the fractional transform, then the Kronecker-sum scaling
    (every Z_k is shared by all rows), then the chirp of rate xi as one
    diagonal per axis, with 1 / delta folded into the first.
    """
    xi = np.array([dp.xi for dp in dps], dtype=float)
    delta = np.array([dp.delta for dp in dps], dtype=float)
    alpha = np.array([dp.alpha_norm for dp in dps], dtype=float)
    values = _block(values, ctx, xi.size)
    out = np.empty_like(values)
    for rows in _chunks(np.arange(xi.size), values.shape[1]):
        x = _frac(values[rows], alpha[rows], ctx)
        x = _kron_sum(x, ctx)
        for axis, d in enumerate(ctx.diag_powers(xi[rows])):
            x = _diag(x, ctx.shape, axis, d / delta[rows, None] if axis == 0 else d)
        out[rows] = x
    return out


def _cmccm_rows(x: np.ndarray, branch: CmCcCmBranch, chirps: np.ndarray, phases: np.ndarray,
                ctx: ProductContext) -> np.ndarray:
    """One chunk of rows on one cmccm branch. Along each axis the branch's
    chain is D1 V D2 V^T D3, with V^T in front (eq30) or V behind (eq31); the
    phase is folded into the first axis's D1."""
    eq30, eq31 = branch is CmCcCmBranch.ZERO_B_EQ30, branch is CmCcCmBranch.ZERO_B_EQ31
    diags = zip(ctx.factors, *(ctx.diag_powers(chirps[:, j]) for j in range(3)))
    for axis, (dec, d1, d2, d3) in enumerate(diags):
        v, f = dec.basis.vectors, dec.f
        if axis == 0:
            d1 = d1 * phases[:, None]
        if _formed(v.shape[0], x):
            m = (d1[:, :, None] * v * d2[:, None, :]) @ (f * d3[:, None, :])
            if eq30:
                m = f @ m
            elif eq31:
                m = m @ v
            x = _stacked(x, ctx.shape, axis, m)
            continue
        if eq31:
            x = _shared(x, ctx.shape, axis, v)
        x = _shared(_diag(x, ctx.shape, axis, d3), ctx.shape, axis, f)
        x = _shared(_diag(x, ctx.shape, axis, d2), ctx.shape, axis, v)
        x = _diag(x, ctx.shape, axis, d1)
        if eq30:
            x = _shared(x, ctx.shape, axis, f)
    return x


def cmccm_block(values: np.ndarray, cps: Sequence[CmCcCmParams], ctx: ProductContext) -> np.ndarray:
    """Row t of ``values`` (T, P) through :func:`glct_cmccm_nd` with ``cps[t]``.

    Rows are grouped by branch (general, eq30, eq31) and each group runs in
    chunks of at most :func:`block_rows` rows.
    """
    chirps = np.array([cp.chirps for cp in cps], dtype=float).reshape(-1, 3)
    phases = np.array([cp.phase for cp in cps], dtype=complex)
    values = _block(values, ctx, phases.size)
    out = np.empty_like(values)
    for branch in CmCcCmBranch:
        group = np.flatnonzero([cp.branch is branch for cp in cps])
        for rows in _chunks(group, values.shape[1]):
            out[rows] = _cmccm_rows(values[rows], branch, chirps[rows], phases[rows], ctx)
    return out


# ---------------------------------------------------------------------------
# one signal: a block of one row


def gft_nd(x: SignalNd, ctx: ProductContext) -> SignalNd:
    """Separable analysis transform: factor-k matrix along axis k."""
    ctx.check(x)
    values = x.values[None]
    for axis, dec in enumerate(ctx.factors):
        values = _shared(values, ctx.shape, axis, dec.f)
    return SignalNd(ctx.shape, values[0])


def igft_nd(xhat: SignalNd, ctx: ProductContext) -> SignalNd:
    """Inverse of :func:`gft_nd`."""
    ctx.check(xhat)
    values = xhat.values[None]
    for axis, dec in enumerate(ctx.factors):
        values = _shared(values, ctx.shape, axis, dec.basis.vectors)
    return SignalNd(ctx.shape, values[0])


def gfrft_nd(x: SignalNd, alpha_norm: float, ctx: ProductContext) -> SignalNd:
    """Separable fractional transform of normalized order ``alpha_norm``.

    Along axis k this is P diag(mu**alpha) P^H with (P, mu) the unitary
    eigendecomposition of the factor's transform matrix.
    """
    ctx.check(x)
    return SignalNd(ctx.shape, gfrft_block(x.values[None], [alpha_norm], ctx)[0])


def gcm_nd(x: SignalNd, xi: float, ctx: ProductContext) -> SignalNd:
    """Chirp multiplication by the Kronecker product of per-factor diagonals."""
    ctx.check(x)
    values = x.values[None]
    for axis, d in enumerate(ctx.diag_powers([xi])):
        values = _diag(values, ctx.shape, axis, d)
    return SignalNd(ctx.shape, values[0])


def gscale_nd(x: SignalNd, sigma: float, ctx: ProductContext) -> SignalNd:
    """Scaling transform: apply the Kronecker-sum shift operator over sigma."""
    if sigma == 0:
        raise ValidationError("scaling factor must be nonzero")
    ctx.check(x)
    return SignalNd(ctx.shape, _kron_sum(x.values[None], ctx)[0] / sigma)


def glct_cddhfs_nd(x: SignalNd, p: LctParams, ctx: ProductContext) -> SignalNd:
    """Linear canonical transform as chirp o scaling o fractional transform.

    The one-row case of :func:`cddhfs_block`: the fractional transform
    (P D_alpha) P^H along each axis, the Kronecker-sum shift operator over
    delta, and the Kronecker-product chirp of rate xi.
    """
    ctx.check(x)
    return SignalNd(ctx.shape, cddhfs_block(x.values[None], [cddhfs_decompose(p)], ctx)[0])


def glct_cmccm_nd(
    x: SignalNd,
    p: LctParams,
    ctx: ProductContext,
    zero_b_variant: ZeroBVariant = ZeroBVariant.EQ30,
) -> SignalNd:
    """Linear canonical transform as chirp / chirp-convolution / chirp factors.

    The one-row case of :func:`cmccm_block`. Every factor of the chain is a
    Kronecker product, so along axis k the general-b transform is
    D1 V D2 V^T D3, with V the factor's GFT synthesis basis and D1, D2, D3
    its chirp diagonals of rates x1, x2, x3; eq30 applies V^T in front of it
    and eq31 V behind it, and the branch's constant phase (1 for general b)
    multiplies the result.
    """
    ctx.check(x)
    return SignalNd(ctx.shape, cmccm_block(x.values[None], [cmccm_decompose(p, zero_b_variant)], ctx)[0])


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
    the block executors multiply small axes' factors into one matrix per row
    and do other arithmetic. Counts the run phase only, with all per-factor operators and diagonals
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
