"""Transforms on Cartesian product graphs, run from op programs.

A transform is a :class:`~glct.params.ProgramGroup`: op kinds in the order
they are applied, and the rates of the ops that take one and a constant phase
for each of its rows. The factorizations come from
:meth:`glct.params.ParamBlock.factorize` and the five single ops from
``_SINGLE_OPS``. Three interpreters read a program: the block executor
:func:`program_block` here, which runs what
:meth:`~glct.params.ProgramGroup.check` accepts, and, on one row,
``dense_operator`` (explicit Kronecker-product matrices, a differential-testing
oracle) and ``mult_count``. The tests hold a fourth, which multiplies a
program's 2x2 parameter matrices back into (a, b; c, d).

Transforms run on blocks: T signals on one graph, one program per row. The
executor splits a program at its ``scale`` ops, which apply the Kronecker sum
of the shift operators. Between them it goes axis by axis, one op after
another, and never forms a Kronecker product: along each axis the matrices
every row shares (V, V^T, P, P^H) are applied once over the whole block, and
each row's chirps and fractional powers as (T, N_k) diagonals. Chirps are
per-factor diagonals, so mode-wise application, exact power additivity and
separability hold by construction. The one-signal functions are the T = 1
case. A block runs in chunks of at most BLOCK_BYTES, in work arrays that each
thread keeps between calls (see the blocks section below).
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .graphs import GsoKind, ProductGraph, kronecker_sum
from .kernels import FactorDecomposition, decompose_graph
from .params import RATED_KINDS, VARIANTS, LctParams, ParamBlock, ProgramGroup, ZeroBVariant
from .spectral import frac_diag_power

DENSE_SIZE_CAP = 4096
#: Byte budget of one block: 48 rows of the largest benchmark signal (x2, 288
#: entries), 9 rows of the 100 x 15 compression-study signal. Larger blocks
#: spread numpy's per-call cost over more rows; the per-thread workspace keeps
#: them from costing page faults, and its size grows with the budget.
BLOCK_BYTES = 48 * 288 * 16


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


class ProductContext:
    """Per-factor spectral decompositions for one product graph and GSO kind
    (a :class:`GsoKind` or its value). A factor graph that appears on several
    axes is decomposed once, and its axes share that decomposition."""

    def __init__(self, graph: ProductGraph, kind: GsoKind = GsoKind.LAPLACIAN) -> None:
        self.graph = graph
        self.kind = kind = GsoKind(kind)
        self.shape: tuple[int, ...] = graph.shape
        factors: list[FactorDecomposition] = []
        for g in graph.factors:
            shared = next((dec for dec in factors if dec.graph == g), None)
            factors.append(decompose_graph(g, kind) if shared is None else shared)
        self.factors: tuple[FactorDecomposition, ...] = tuple(factors)

    def check(self, x: SignalNd) -> None:
        if x.shape != self.shape:
            raise ValidationError(f"signal shape {x.shape} does not match graph shape {self.shape}")

    def diag_powers(self, t: float | np.ndarray) -> list[np.ndarray]:
        """Per factor, the transform eigenvalues to the power ``t``: the chirp
        diagonal of rate t, equal to :func:`~glct.spectral.frac_diag_power`.

        A scalar rate gives one (N_k,) diagonal per factor; an array of T
        rates gives a (T, N_k) stack, one row per rate. The real and imaginary
        parts are the cosine and sine of t times the eigenvalue angles, the
        values ``np.exp(1j * (t * angle))`` has, without a complex exp; they
        are written straight into the diagonal's parts.
        """
        t = np.asarray(t, dtype=float)[..., None]
        out = []
        for dec in self.factors:
            angle = t * dec.spectrum.angles
            d = np.empty(angle.shape, dtype=complex)
            np.cos(angle, out=d.real)
            np.sin(angle, out=d.imag)
            out.append(d)
        return out


# ---------------------------------------------------------------------------
# blocks: T signals on one product graph, one row each, transformed together
#
# A block is a C-contiguous complex (T, P) array. Along axis k a row is an
# (L, N_k, R) array, R being the product of the earlier axes, so the whole
# block is a (T * L, N_k, R) stack. Row t of every result depends on row t of
# the block and its own parameters only, never on T.
#
# The ops write into the work arrays of a per-thread workspace, never into a
# fresh array: a chunk's rows alternate between two block-sized buffers, and
# chirps multiply in place. The workspace grows to the largest chunk seen and
# stays allocated for the thread's next call. So no op allocates a block, and
# no freed block makes the allocator return memory to the system that the
# next op faults back in.


class _Workspace:
    """Work arrays by slot name: one flat buffer per slot, grown to the
    largest request and reused by every later one."""

    def __init__(self) -> None:
        self.slots: dict = {}

    def take(self, slot, shape: tuple[int, ...], dtype=complex) -> np.ndarray:
        """An uninitialized C-contiguous array of ``shape`` in the buffer of ``slot``."""
        count = math.prod(shape) * np.dtype(dtype).itemsize // 8
        buf = self.slots.get(slot)
        if buf is None or buf.size < count:
            buf = self.slots[slot] = np.empty(count)
        return buf[:count].view(dtype).reshape(shape)


class _PerThread(threading.local):
    def __init__(self) -> None:
        self.workspace = _Workspace()


_THREAD = _PerThread()


def _workspace(p: int) -> _Workspace:
    """The calling thread's workspace for rows of ``p`` entries, kept between
    calls while a row fits in BLOCK_BYTES. Then every work array fits in the
    budget too, since each holds one chunk: the two block buffers, the
    Kronecker-sum term and the stacked real and imaginary parts. A larger row
    gets a workspace of its own that the call drops, so what a thread keeps
    allocated is bounded by the budget."""
    return _THREAD.workspace if 16 * p <= BLOCK_BYTES else _Workspace()


def block_rows(n: int) -> int:
    """Rows of ``n`` complex entries that fit in one block of BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (16 * n))


def _dims(shape: tuple[int, ...], axis: int) -> tuple[int, int]:
    return shape[axis], math.prod(shape[:axis])


class _Buffers:
    """The workspace's two block buffers, which a chunk's ops alternate between."""

    def __init__(self, ws: _Workspace, shape: tuple[int, int]) -> None:
        self.ws = ws
        self.pair = (ws.take("x0", shape), ws.take("x1", shape))

    def other(self, x: np.ndarray) -> np.ndarray:
        """The buffer that does not hold ``x``: where a product of ``x`` goes."""
        return self.pair[x is self.pair[0]]

    def own(self, x: np.ndarray) -> np.ndarray:
        """``x`` if it is a buffer, else the first: where an elementwise op on ``x`` goes."""
        return x if x is self.pair[1] else self.pair[0]


def _shared(x: np.ndarray, shape: tuple[int, ...], axis: int, mat: np.ndarray, out: np.ndarray,
            ws: _Workspace) -> np.ndarray:
    """Apply one matrix along ``axis`` of every row of block ``x`` into ``out``.

    On the first axis (R = 1) this is one GEMM over all T * L fibres. A real
    matrix acts on real and imaginary parts separately: on the first axis
    stacked as 2 * T * L rows in the memory of ``out``, with the product in
    the workspace slot "b"; on later axes through the float view of the block,
    whose (N_k, 2R) slices interleave real and imaginary parts.
    """
    n, r = _dims(shape, axis)
    real = mat.dtype.kind == "f"
    if r == 1:
        rows, res = x.reshape(-1, n), out.reshape(-1, n)
        if not real:
            np.matmul(rows, mat.T, out=res)
            return out
        half = rows.shape[0]
        parts = out.reshape(-1).view(float).reshape(2 * half, n)
        parts[:half], parts[half:] = rows.real, rows.imag
        prod = np.matmul(parts, mat.T, out=ws.take("b", parts.shape, float))
        res.real, res.imag = prod[:half], prod[half:]
        return out
    if real:
        np.matmul(mat, x.reshape(-1, n, r).view(float), out=out.reshape(-1, n, r).view(float))
    else:
        np.matmul(mat, x.reshape(-1, n, r), out=out.reshape(-1, n, r))
    return out


def _diag(x: np.ndarray, shape: tuple[int, ...], axis: int, d: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Multiply along ``axis`` of row t by the diagonal ``d[t]`` (d is (T, N_k))
    into ``out``, which may be ``x``."""
    t = x.shape[0]
    n, r = _dims(shape, axis)
    np.multiply(x.reshape(t, -1, n, r), d[:, None, :, None], out=out.reshape(t, -1, n, r))
    return out


def _block(values: np.ndarray, groups: Sequence[ProgramGroup], ctx: ProductContext) -> tuple[np.ndarray, bool]:
    """``values`` as a complex (T, P) block, and whether one group holds its
    rows in order, after checking that the groups' rows name each of its T rows once."""
    t = sum(len(g.rows) for g in groups)
    values = np.ascontiguousarray(values, dtype=complex)
    if values.shape != (t, math.prod(ctx.shape)):
        raise ValidationError(
            f"block has shape {values.shape}; {t} parameter rows on shape {ctx.shape} "
            f"need ({t}, {math.prod(ctx.shape)})"
        )
    rows = np.concatenate([g.rows for g in groups] or [np.arange(0)])
    listed, order = rows.tolist(), list(range(t))
    in_order = listed == order
    if rows.dtype.kind not in "iu" or not (in_order or sorted(listed) == order):
        raise ValidationError(f"the groups' rows must name each of the block's {t} rows once")
    return values, in_order and len(groups) == 1


def _kron_sum(x: np.ndarray, ctx: ProductContext, out: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Apply the Kronecker sum of the shift operators into ``out``: the sum of
    their mode products, each after the first made in the workspace slot "a".
    The sum starts from 0, as ``sum`` does, which turns -0.0 into +0.0."""
    _shared(x, ctx.shape, 0, ctx.factors[0].z, out, ws)
    np.add(out, 0, out=out)
    term = ws.take("a", x.shape)
    for axis, dec in enumerate(ctx.factors[1:], 1):
        np.add(out, _shared(x, ctx.shape, axis, dec.z, term, ws), out=out)
    return out


@lru_cache(maxsize=None)  # one entry per distinct kinds tuple: the op tables' rows
def _layout(kinds: tuple[str, ...]):
    """A program's runs of (kind, rate column) ops between its ``scale`` ops,
    and its diagonal, scale and fold columns: the phase and each 1 / sigma
    fold into the axis-0 diagonal of the last chirp."""
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
    return tuple(map(tuple, runs)), diag_cols, scale_cols, fold


def _prepare(kinds: tuple[str, ...], rates: np.ndarray, phases: np.ndarray | None, ctx: ProductContext):
    """What the rows of one program with rates ``rates`` (R, T) and phases
    ``phases`` share between chunks: the chirp diagonals, with the phase and
    each 1 / sigma folded in where a chirp takes them. Returns them with the
    runs, the phases and the product of the sigmas, or None where folded, for
    :func:`_apply`."""
    runs, diag_cols, scale_cols, fold = _layout(kinds)
    diags = {j: ctx.diag_powers(rates[j]) for j in diag_cols}
    sigma = None
    for j in scale_cols:
        sigma = rates[j, :, None] if sigma is None else sigma * rates[j, :, None]
    if fold is not None:
        d = diags[fold][0]
        if phases is not None:
            np.multiply(d, phases[:, None], out=d)
        if sigma is not None:
            np.divide(d, sigma, out=d)
        phases = sigma = None
    return runs, diags, phases, sigma


def _apply(x: np.ndarray, prepared, ctx: ProductContext, buf: _Buffers) -> np.ndarray:
    """One chunk of rows through a program prepared by :func:`_prepare` for
    its rows, or for one rate column that every row shares: along each axis,
    the matrices every row shares over the whole chunk, and chirps and
    fractional powers as (T, N_k) diagonals. The result is one of the buffers
    ``buf``, and so may be ``x``."""
    runs, diags, phases, sigma = prepared
    shape, ws = ctx.shape, buf.ws
    for i, run in enumerate(runs):
        if i:
            x = _kron_sum(x, ctx, buf.other(x), ws)
        for axis, dec in enumerate(ctx.factors):
            for kind, j in run:
                if kind == "cm":
                    x = _diag(x, shape, axis, diags[j][axis], buf.own(x))
                elif kind == "frac":
                    x = _shared(x, shape, axis, dec.fourier_conj.T, buf.other(x), ws)
                    x = _diag(x, shape, axis, diags[j][axis], x)
                    x = _shared(x, shape, axis, dec.fourier.vectors, buf.other(x), ws)
                else:
                    x = _shared(x, shape, axis, dec.f if kind == "ft" else dec.basis.vectors, buf.other(x), ws)
    if phases is not None:  # no chirp to fold the scalars into
        x = np.multiply(x, phases[:, None], out=buf.own(x))
    if sigma is not None:
        x = np.divide(x, sigma, out=buf.own(x))
    return x


def program_block(values: np.ndarray, groups: Sequence[ProgramGroup], ctx: ProductContext) -> np.ndarray:
    """The rows ``g.rows`` of ``values`` (T, P) through the program of each
    group ``g`` (see :class:`~glct.params.ProgramGroup`), each group in chunks
    of at most :func:`block_rows` rows, in the calling thread's workspace; the
    result is a new array. The groups' rows must name each row of the block
    once, and each group must pass :meth:`~glct.params.ProgramGroup.check`.

    A group with one rate column prepares it once for all its chunks: its
    (1, N_k) diagonals broadcast over the rows of every chunk."""
    for group in groups:
        group.check()
    return _run_groups(values, groups, ctx)


def _run_groups(values: np.ndarray, groups: Sequence[ProgramGroup], ctx: ProductContext) -> np.ndarray:
    """:func:`program_block` on groups that the caller has checked."""
    values, whole = _block(values, groups, ctx)
    out = np.empty_like(values)
    p = values.shape[1]
    step, ws = block_rows(p), _workspace(p)
    for kinds, rows, rates, phases in groups:
        shared = rates.shape[1] == 1
        if shared:
            prepared = _prepare(kinds, rates, phases, ctx)
        for i in range(0, len(rows), step):
            chunk = slice(i, i + step)
            if not shared:
                prepared = _prepare(kinds, rates[:, chunk], None if phases is None else phases[chunk], ctx)
            buf = _Buffers(ws, (len(rows[chunk]), p))
            if whole:
                out[chunk] = _apply(values[chunk], prepared, ctx, buf)
            else:  # gathered into a buffer (numpy copies into out= first only in mode "raise")
                x = np.take(values, rows[chunk], axis=0, out=buf.pair[0], mode="clip")
                out[rows[chunk]] = _apply(x, prepared, ctx, buf)
    return out


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
#: The single ops, then the factorized ones: "glct_" and the variant name.
OPS = (*_SINGLE_OPS, *(f"glct_{variant}" for variant in VARIANTS))


def _single(op: str, rates: float | Sequence[float] = ()) -> ProgramGroup:
    """The program of one single op on one row, or on T rows for T rates."""
    kinds, key = _SINGLE_OPS[op]
    if key is None:
        return ProgramGroup(kinds, np.arange(1), np.empty((0, 1)), None)
    rates = np.array(rates, dtype=float).reshape(1, -1)
    group = ProgramGroup(kinds, np.arange(rates.shape[1]), rates, None)
    group.check()
    return group


def _one(x: SignalNd, groups: Sequence[ProgramGroup], ctx: ProductContext) -> SignalNd:
    """``x`` through the program of ``groups``, as a block of one row."""
    ctx.check(x)
    return SignalNd(ctx.shape, program_block(x.values[None], groups, ctx)[0])


def gft_nd(x: SignalNd, ctx: ProductContext) -> SignalNd:
    """Separable analysis transform: factor-k matrix along axis k."""
    return _one(x, [_single("gft")], ctx)


def gfrft_nd(x: SignalNd, alpha_norm: float, ctx: ProductContext) -> SignalNd:
    """Separable fractional transform of normalized order ``alpha_norm``.

    Along axis k this is P diag(mu**alpha) P^H with (P, mu) the unitary
    eigendecomposition of the factor's transform matrix.
    """
    return _one(x, [_single("gfrft", alpha_norm)], ctx)


def glct_cddhfs_nd(x: SignalNd, p: LctParams, ctx: ProductContext) -> SignalNd:
    """Linear canonical transform as chirp o scaling o fractional transform.

    The one-row case of :meth:`ParamBlock.cddhfs`: the fractional transform
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

    The one-row case of :meth:`ParamBlock.cmccm`. Every factor of the chain is a
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
    """Description of one transform on one signal, for the dense oracle and
    the operation count."""

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

    def abcd(self) -> LctParams:
        try:
            a, b, c, d = self.params["abcd"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"op {self.op!r} needs params['abcd'] = (a, b, c, d)") from exc
        return LctParams(a, b, c, d)

    def program(self) -> ProgramGroup:
        """The described transform as a program group of one row."""
        if self.op not in _SINGLE_OPS:
            variant = self.op.removeprefix("glct_")
            (group,) = ParamBlock.from_params([self.abcd()]).factorize(variant, self.zero_b_variant)
            return group
        key = _SINGLE_OPS[self.op][1]
        try:
            rate = () if key is None else float(self.params[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"op {self.op!r} needs a number params[{key!r}]") from exc
        return _single(self.op, rate)


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
    which is what the complexity comparison between cddhfs and cmccm is about.
    Counts the run phase only, with all per-factor operators and diagonals
    precomputed: a complex-complex scalar multiply costs 4 real multiplies, a
    real-complex one costs 2. Applying an N_k x N_k factor along axis k of a
    complex tensor with P entries therefore costs 2*N_k*P (real factor) or
    4*N_k*P (complex factor); a precomputed Kronecker diagonal, and a phase
    other than 1, costs one complex multiply per entry. Eigendecompositions
    and operator assembly are setup and excluded.

    The block executor runs this chain except that it applies ``frac`` as P^H,
    a diagonal and P (8*N_k*P + 4*P per axis, counted 4*N_k*P), each chirp as
    one diagonal per axis (4*P per axis, counted 4*P in all), and folds the
    phase and each 1/sigma into the last chirp's axis-0 diagonal if there is
    a chirp. Real factors act on stacked real and imaginary parts, 2*N_k*P as
    counted.
    """
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape) or not shape:
        raise ValidationError(f"invalid shape {shape}")
    p = math.prod(shape)
    ps = p * sum(shape)
    kinds, _, _, phases = spec.program()
    count = sum(_OP_MULTS[kind][0] * ps + _OP_MULTS[kind][1] * p for kind in kinds)
    return count + (4 * p if phases is not None else 0)
