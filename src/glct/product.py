"""Transforms on Cartesian product graphs, run from op programs.

A transform is a :class:`~glct.params.ProgramGroup`: op kinds in the order
they are applied, and the rates of the ops that take one and a constant phase
for each of its rows. The factorizations take their kinds from
``glct.params.KINDS`` and the five single ops from ``_SINGLE_OPS``. Four
interpreters read a program: the block executor here and, on one row,
``dense_operator`` (explicit Kronecker-product matrices, a differential-testing
oracle), ``mult_count`` and ``glct.params.recompose``.

Transforms run on blocks: T signals on one graph, one program per row. The
executor splits a program at its ``scale`` ops, which apply the Kronecker sum
of the shift operators. Between them it goes axis by axis and never forms a
Kronecker product: along an axis with N_k^2 <= P (P entries per signal) each
row's ops are multiplied into one N_k x N_k matrix; along the others the
matrices every row shares (V, V^T, P, P^H) are applied once over the whole
block and each row's chirps as diagonals. Chirps are per-factor diagonals, so
mode-wise application, exact power additivity and separability hold by
construction. The one-signal functions are the T = 1 case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .graphs import GsoKind, ProductGraph, kronecker_sum
from .kernels import FactorDecomposition, decompose_graph
from .params import RATED_KINDS, LctParams, ParamBlock, ProgramGroup, ZeroBVariant
from .spectral import frac_diag_power

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

    def check(self, x: SignalNd) -> None:
        if x.shape != self.shape:
            raise ValidationError(f"signal shape {x.shape} does not match graph shape {self.shape}")

    def diag_powers(self, t: float | np.ndarray) -> list[np.ndarray]:
        """Per factor, the transform eigenvalues to the power ``t``: the chirp
        diagonal of rate t, equal to :func:`~glct.spectral.frac_diag_power`.

        A scalar rate gives one (N_k,) diagonal per factor; an array of T
        rates gives a (T, N_k) stack, one row per rate. The real and imaginary
        parts are the cosine and sine of t times the eigenvalue angles, the
        values ``np.exp(1j * (t * angle))`` has, without a complex exp.
        """
        t = np.asarray(t, dtype=float)[..., None]
        out = []
        for dec in self.factors:
            angle = t * dec.spectrum.angles
            d = np.empty(angle.shape, dtype=complex)
            d.real, d.imag = np.cos(angle), np.sin(angle)
            out.append(d)
        return out


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


@lru_cache(maxsize=None)  # one entry per distinct kinds tuple: the op tables' rows
def _layout(kinds: tuple[str, ...]):
    """A program's runs of (kind, rate column) ops between its ``scale`` ops,
    each flagged when it holds a matrix and a per-row diagonal (so an axis may
    form it), and its diagonal, scale and fold columns: the phase and each
    1 / sigma fold into the axis-0 diagonal of the last chirp."""
    runs, diag_cols, scale_cols, fold, col = [[]], [], [], None, 0
    for kind in kinds:
        if kind == "scale":
            runs.append([])
            scale_cols.append(col)
        elif kind in RATED_KINDS:
            runs[-1].append((kind, col))
            diag_cols.append(col)
            fold = col if kind == "cm" else fold
        else:
            runs[-1].append((kind, None))
        col += kind in RATED_KINDS
    formable = [any(k != "cm" for k, _ in r) and any(j is not None for _, j in r) for r in runs]
    return tuple(zip(map(tuple, runs), formable)), diag_cols, scale_cols, fold


def _form(run, axis: int, dec: FactorDecomposition, diags: dict) -> np.ndarray:
    """One run's ops along ``axis`` multiplied into one (T, N_k, N_k) matrix per row."""
    m = pending = None
    for kind, j in run:
        if kind == "cm":
            d = diags[j][axis]
            if m is None:
                pending = d if pending is None else pending * d
            else:
                m = d[:, :, None] * m
            continue
        if kind == "frac":
            p = dec.fourier.vectors
            a = (p * diags[j][axis][:, None, :]) @ p.conj().T
        else:
            a = dec.f if kind == "ft" else dec.basis.vectors
        if m is None:
            m = a if pending is None else a * pending[:, None, :]
        elif a.dtype.kind == "f" and m.dtype.kind == "c":  # real and imaginary parts as one real GEMM
            m = (a @ m.view(float)).view(complex)
        else:
            m = a @ m
    return m


def _chain(x: np.ndarray, run, axis: int, dec: FactorDecomposition, diags: dict,
           shape: tuple[int, ...]) -> np.ndarray:
    """One run's ops along ``axis`` one after another: shared matrices over the
    whole block, chirps and fractional powers as (T, N_k) diagonals."""
    for kind, j in run:
        if kind == "cm":
            x = _diag(x, shape, axis, diags[j][axis])
        elif kind == "frac":
            p = dec.fourier.vectors
            x = _shared(x, shape, axis, p.conj().T)
            x = _shared(_diag(x, shape, axis, diags[j][axis]), shape, axis, p)
        else:
            x = _shared(x, shape, axis, dec.f if kind == "ft" else dec.basis.vectors)
    return x


def _run(x: np.ndarray, kinds: tuple[str, ...], rates: np.ndarray, phases: np.ndarray | None,
         ctx: ProductContext) -> np.ndarray:
    """One chunk of rows through one program: row t has rates ``rates[:, t]``
    and phase ``phases[t]`` (None: all ones)."""
    runs, diag_cols, scale_cols, fold = _layout(kinds)
    diags = {j: ctx.diag_powers(rates[j]) for j in diag_cols}
    sigma = None
    for j in scale_cols:
        sigma = rates[j, :, None] if sigma is None else sigma * rates[j, :, None]
    if fold is not None:
        d = diags[fold]
        if phases is not None:
            d[0] = d[0] * phases[:, None]
        if sigma is not None:
            d[0] = d[0] / sigma
    for i, (run, formable) in enumerate(runs):
        if i:
            x = _kron_sum(x, ctx)
        for axis, dec in enumerate(ctx.factors):
            if formable and _formed(ctx.shape[axis], x):
                x = _stacked(x, ctx.shape, axis, _form(run, axis, dec, diags))
            else:
                x = _chain(x, run, axis, dec, diags, ctx.shape)
    if fold is None:  # no chirp to fold the scalars into
        if phases is not None:
            x = x * phases[:, None]
        if sigma is not None:
            x = x / sigma
    return x


def program_block(values: np.ndarray, groups: Sequence[ProgramGroup], ctx: ProductContext) -> np.ndarray:
    """The rows ``g.rows`` of ``values`` (T, P) through the program of each
    group ``g`` (see :class:`~glct.params.ProgramGroup`; the groups partition
    the rows), each group in chunks of at most :func:`block_rows` rows."""
    values = _block(values, ctx, sum(len(g.rows) for g in groups))
    out = np.empty_like(values)
    step = block_rows(values.shape[1])
    whole = len(groups) == 1
    for kinds, rows, rates, phases in groups:
        x = values if whole else values[rows]
        for i in range(0, len(rows), step):
            chunk = slice(i, i + step)
            y = _run(x[chunk], kinds, rates[:, chunk], None if phases is None else phases[chunk], ctx)
            out[chunk if whole else rows[chunk]] = y
    return out


def gfrft_block(values: np.ndarray, alphas: Sequence[float], ctx: ProductContext) -> np.ndarray:
    """Row t of ``values`` (T, P) through :func:`gfrft_nd` of order ``alphas[t]``."""
    return program_block(values, [_single("gfrft", alphas)], ctx)


def cddhfs_block(values: np.ndarray, params: ParamBlock, ctx: ProductContext) -> np.ndarray:
    """Row t of ``values`` (T, P) through :func:`glct_cddhfs_nd` with row t of ``params``."""
    return program_block(values, params.cddhfs(), ctx)


def cmccm_block(values: np.ndarray, params: ParamBlock, ctx: ProductContext,
                zero_b_variant: ZeroBVariant = ZeroBVariant.EQ30) -> np.ndarray:
    """Row t of ``values`` (T, P) through :func:`glct_cmccm_nd` with row t of ``params``."""
    return program_block(values, params.cmccm(zero_b_variant), ctx)


# ---------------------------------------------------------------------------
# one signal: a block of one row

#: The single ops: op name -> (program kinds, the TransformSpec params key of its rate).
_SINGLE_OPS = {
    "gft": (("ft",), None),
    "igft": (("ift",), None),
    "gfrft": (("frac",), "alpha"),
    "gcm": (("cm",), "xi"),
    "gscale": (("scale",), "sigma"),
}
#: The factorized ops: op name -> programs of a parameter block and zero-b variant.
_FACTORIZED = {
    "glct_cddhfs": lambda params, zero_b_variant: params.cddhfs(),
    "glct_cmccm": ParamBlock.cmccm,
}
OPS = (*_SINGLE_OPS, *_FACTORIZED)


def _single(op: str, rates: float | Sequence[float] = ()) -> ProgramGroup:
    """The program of one single op on one row, or on T rows for T rates."""
    kinds, key = _SINGLE_OPS[op]
    if key is None:
        return ProgramGroup(kinds, np.arange(1), np.empty((0, 1)), None)
    rates = np.array(rates, dtype=float).reshape(1, -1)
    if not np.isfinite(rates).all():
        raise ValidationError(f"op {op!r} needs a finite {key}, got {rates[~np.isfinite(rates)][0]}")
    if kinds == ("scale",) and (rates == 0).any():
        raise ValidationError("scaling factor must be nonzero")
    return ProgramGroup(kinds, np.arange(rates.shape[1]), rates, None)


def _one(x: SignalNd, groups: Sequence[ProgramGroup], ctx: ProductContext) -> SignalNd:
    """``x`` through the program of ``groups``, as a block of one row."""
    ctx.check(x)
    return SignalNd(ctx.shape, program_block(x.values[None], groups, ctx)[0])


def gft_nd(x: SignalNd, ctx: ProductContext) -> SignalNd:
    """Separable analysis transform: factor-k matrix along axis k."""
    return _one(x, [_single("gft")], ctx)


def igft_nd(xhat: SignalNd, ctx: ProductContext) -> SignalNd:
    """Inverse of :func:`gft_nd`."""
    return _one(xhat, [_single("igft")], ctx)


def gfrft_nd(x: SignalNd, alpha_norm: float, ctx: ProductContext) -> SignalNd:
    """Separable fractional transform of normalized order ``alpha_norm``.

    Along axis k this is P diag(mu**alpha) P^H with (P, mu) the unitary
    eigendecomposition of the factor's transform matrix.
    """
    return _one(x, [_single("gfrft", alpha_norm)], ctx)


def gcm_nd(x: SignalNd, xi: float, ctx: ProductContext) -> SignalNd:
    """Chirp multiplication by the Kronecker product of per-factor diagonals."""
    return _one(x, [_single("gcm", xi)], ctx)


def gscale_nd(x: SignalNd, sigma: float, ctx: ProductContext) -> SignalNd:
    """Scaling transform: apply the Kronecker-sum shift operator over sigma."""
    return _one(x, [_single("gscale", sigma)], ctx)


def glct_cddhfs_nd(x: SignalNd, p: LctParams, ctx: ProductContext) -> SignalNd:
    """Linear canonical transform as chirp o scaling o fractional transform.

    The one-row case of :func:`cddhfs_block`: the fractional transform
    (P D_alpha) P^H along each axis, the Kronecker-sum shift operator over
    delta, and the Kronecker-product chirp of rate xi.
    """
    return _one(x, ParamBlock.from_params([p]).cddhfs(), ctx)


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
    return _one(x, ParamBlock.from_params([p]).cmccm(zero_b_variant), ctx)


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

    def program(self) -> ProgramGroup:
        """The described transform as a program group of one row."""
        if self.op in _FACTORIZED:
            (group,) = _FACTORIZED[self.op](ParamBlock.from_params([self.abcd()]), self.zero_b_variant)
            return group
        key = _SINGLE_OPS[self.op][1]
        if key is None:
            return _single(self.op)
        try:
            rate = float(self.params[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"op {self.op!r} needs a number params[{key!r}]") from exc
        return _single(self.op, rate)


def apply_spec(x: SignalNd, spec: TransformSpec, ctx: ProductContext) -> SignalNd:
    """Apply the described transform using the factored implementation."""
    if ctx.kind.value != spec.gso:
        raise ValidationError(f"context uses gso {ctx.kind.value!r} but spec asks {spec.gso!r}")
    return _one(x, [spec.program()], ctx)


def _kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    # first factor fastest: global matrix is M_m (x) ... (x) M_1
    return reduce(np.kron, list(mats)[::-1])


def _dense_op(kind: str, rate: float | None, ctx: ProductContext) -> np.ndarray:
    """Explicit matrix of one op on the whole product graph."""
    if kind == "ft":
        return _kron_all([dec.f for dec in ctx.factors]).astype(complex)
    if kind == "ift":
        return _kron_all([dec.basis.vectors for dec in ctx.factors]).astype(complex)
    if kind == "scale":
        return kronecker_sum([dec.z for dec in ctx.factors]).astype(complex) / rate
    d = _kron_all([frac_diag_power(dec.fourier.values, rate) for dec in ctx.factors])
    if kind == "cm":
        return np.diag(d)
    pk = _kron_all([dec.fourier.vectors for dec in ctx.factors])
    return (pk * d) @ pk.conj().T


def dense_operator(spec: TransformSpec, graph: ProductGraph) -> np.ndarray:
    """Explicit matrix of the described transform: the product of its ops'
    Kronecker-product matrices, times its phase.

    Intended as a test oracle; refuses product graphs with more than
    ``DENSE_SIZE_CAP`` vertices.
    """
    if graph.n > DENSE_SIZE_CAP:
        raise ValidationError(f"dense operator capped at {DENSE_SIZE_CAP} vertices, got {graph.n}")
    ctx = ProductContext(graph, GsoKind(spec.gso))
    kinds, _, rates, phases = spec.program()
    rates = iter(rates[:, 0].tolist())
    out = None
    for kind in kinds:
        op = _dense_op(kind, next(rates) if kind in RATED_KINDS else None, ctx)
        out = op if out is None else op @ out
    return (1.0 if phases is None else complex(phases[0])) * out


#: Real multiplications of one op per (P * sum(N_k), P), P the signal's entry count.
_OP_MULTS = {"ft": (2, 0), "ift": (2, 0), "frac": (4, 0), "cm": (0, 4), "scale": (2, 2)}


def mult_count(spec: TransformSpec, shape: Sequence[int]) -> int:
    """Real multiplications used to apply the factored transform once.

    Counts the paper's chained factorization, one elementary op after another,
    which is what the complexity comparison between cddhfs and cmccm is about;
    the block executors multiply small axes' factors into one matrix per row
    and do other arithmetic. Counts the run phase only, with all per-factor operators and diagonals
    precomputed: a complex-complex scalar multiply costs 4 real multiplies, a
    real-complex one costs 2. Applying an N_k x N_k factor along axis k of a
    complex tensor with P entries therefore costs 2*N_k*P (real factor) or
    4*N_k*P (complex factor); a precomputed Kronecker diagonal, and a phase
    other than 1, costs one complex multiply per entry. Eigendecompositions
    and operator assembly are setup and excluded.
    """
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape) or not shape:
        raise ValidationError(f"invalid shape {shape}")
    p = math.prod(shape)
    ps = p * sum(shape)
    kinds, _, _, phases = spec.program()
    count = sum(_OP_MULTS[kind][0] * ps + _OP_MULTS[kind][1] * p for kind in kinds)
    return count + (4 * p if phases is not None else 0)
