"""Transforms on Cartesian product graphs, run from op programs.

A transform is a :class:`~glct.params.ProgramGroup`: op kinds in the order
they are applied, and the rates of the ops that take one and a constant phase
for each of its rows. The factorizations come from
:meth:`glct.params.ParamBlock.factorize` and the five single ops from
``_SINGLE_OPS``. A group checks when it is made that it can run, so every
group that exists can. Three interpreters read a program: the block executor
:func:`program_block` here, which runs any group, and, on one row,
``dense_operator`` (explicit Kronecker-product matrices, a differential-testing
oracle) and ``mult_count``. The tests hold a fourth, which multiplies a
program's 2x2 parameter matrices back into (a, b; c, d).

Transforms run on blocks: T signals on one graph, one program per row. The
executor splits a program at its ``scale`` ops, which apply the Kronecker sum
of the shift operators. Between them it goes axis by axis, one op after
another, and never forms a Kronecker product: along each axis the matrices
every row shares (V, V^T, and the unitary eigenbasis P of V^T and P^H, which
the factor's ``spectrum`` builds on first read) are applied once over the
whole block, and each row's chirps and fractional powers as (T, N_k)
diagonals. A real matrix on a first axis of at most PAIR_MAX vertices acts
as one GEMM on the block's interleaved (re, im) pairs, with the factor's
pair operand kron(M, I_2)^T; on a larger first axis, on stacked real and
imaginary parts. Chirps are per-factor diagonals, so mode-wise application,
exact power additivity and separability hold by construction. The one-signal
functions are the T = 1 case. A block runs in chunks of at most BLOCK_BYTES,
in work arrays that each thread keeps between calls (see the blocks section
below), through a chain of programs: each chunk through every program before
the next chunk starts, a program of p^-1 taking the chirp diagonals of p's.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import attrgetter
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .graphs import GsoKind, ProductGraph, _is_count, kronecker_sum
from .kernels import FactorDecomposition, decompose_graph
from .params import RATED_KINDS, VARIANTS, LctParams, ParamBlock, ProgramGroup, ZeroBVariant
from .spectral import frac_diag_power

DENSE_SIZE_CAP = 4096
#: Byte budget of one block: 48 rows of the largest benchmark signal (x2, 288
#: entries), 9 rows of the 100 x 15 compression-study signal. Larger blocks
#: spread numpy's per-call cost over more rows; the per-thread workspace keeps
#: them from costing page faults, and its size grows with the budget.
BLOCK_BYTES = 48 * 288 * 16
#: Largest first factor whose real mode products run in pair form (see
#: :func:`_shared`). The pair form does twice the multiplies of the stacked
#: one and saves its four copies; at one BLAS thread on a 2-CPU x86 (AVX-512,
#: OpenBLAS 0.3.31) a chunk took 57 against 83 us at 14 vertices, and the
#: pair form stayed faster up to about 32. It also rounds every fibre as the
#: stacked form does, whatever the chunk's height, only while its GEMM's
#: inner dimension 2 N_0 stays below 32: from 16 vertices on, the BLAS takes
#: another kernel for a product of at most 1200 / (2 N_0) fibres, whose
#: roundings differ, and block rows would no longer equal one-row calls.
PAIR_MAX = 15


def _sizes(shape: Sequence[int]) -> tuple[int, ...]:
    """``shape`` as a tuple of ints, after checking that every size is a
    positive int or numpy integer, never a bool or a float, as
    :class:`~glct.graphs.Graph` requires of its vertex count."""
    shape = tuple(shape)
    if not all(_is_count(s) and s >= 1 for s in shape):
        raise ValidationError(f"sizes must be positive integers, got {shape!r}")
    return tuple(map(int, shape))


@dataclass(frozen=True)
class SignalNd:
    """Complex signal on a product graph, stored flat in linearized order.

    The linear order puts the first factor's index fastest, matching
    ``tensor.flatten(order="F")`` for a tensor of shape ``shape``.
    """

    shape: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = _sizes(self.shape)
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

        ``t`` is a scalar, a (T,) or a (C, T) array of rates; each factor's
        diagonals come as one array of shape ``t.shape + (N_k,)``, so a chunk
        of a program takes all its chirp columns in one trig pass per factor.
        The real and imaginary parts are the cosine and sine of t times the
        eigenvalue angles, the values ``np.exp(1j * (t * angle))`` has, without
        a complex exp; they are written straight into the diagonal's parts.

        Where the values stage found a mirror (``spectrum.mirror`` = (k, lo):
        the first k angles are the exact negations of angles lo ... lo + k - 1,
        in reverse), cos and sin run on ``angles[k:]`` only, and the first k
        entries are the reversed conjugates of entries lo ... lo + k - 1. This
        is what direct evaluation gives, bit for bit: t * (-a) is -(t * a)
        exactly, and numpy's cos is even and its sin odd on finite arguments.
        With k = 0 the same code takes every angle.
        """
        t = np.asarray(t, dtype=float)[..., None]
        out = []
        for dec in self.factors:
            angles, (k, lo) = dec.spectrum.angles, dec.spectrum.mirror
            angle = t * angles[k:]
            d = np.empty(angle.shape[:-1] + angles.shape, dtype=complex)
            np.cos(angle, out=d.real[..., k:])
            np.sin(angle, out=d.imag[..., k:])
            np.conjugate(d[..., lo:lo + k][..., ::-1], out=d[..., :k])
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
        #: the blocks that the studies of :mod:`glct.experiments` keep between
        #: their calls of the executor, apart from the executor's own
        self.studies = _Workspace()


_THREAD = _PerThread()


def _workspace(p: int) -> _Workspace:
    """The calling thread's workspace for rows of ``p`` entries, kept between
    calls while a row fits in BLOCK_BYTES. Then every work array fits in the
    budget too, since each holds one chunk: the two block buffers, the
    Kronecker-sum term and the stacked real and imaginary parts. A larger row
    gets a workspace of its own that the call drops, so what a thread keeps
    allocated is bounded by the budget."""
    return _THREAD.workspace if 16 * p <= BLOCK_BYTES else _Workspace()


def _study_array(slot: str, shape: tuple[int, ...], dtype=complex) -> np.ndarray:
    """A work array of ``shape`` in slot ``slot`` of the calling thread's
    study workspace, or a fresh one if it would exceed BLOCK_BYTES. Each slot
    holds one block at a time: what a caller keeps it copies before the next
    call that takes the slot."""
    fits = math.prod(shape) * np.dtype(dtype).itemsize <= BLOCK_BYTES
    return (_THREAD.studies if fits else _Workspace()).take(slot, shape, dtype)


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


#: The real factor matrix of each op that applies one, and its pair operand:
#: attribute paths on a FactorDecomposition.
_REAL_MATS = {"ft": ("f", "f_pairs"), "ift": ("basis.vectors", "v_pairs"), "scale": ("z", "z_pairs")}


def _real(dec: FactorDecomposition, kind: str, shape: tuple[int, ...], axis: int) -> np.ndarray:
    """The real matrix that op ``kind`` applies along ``axis``, as :func:`_shared`
    takes it: the pair operand on a first axis of at most PAIR_MAX vertices of
    a graph with more than one fibre along it, else the matrix itself. Neither
    is built before it is first needed. (With one fibre, a one-row call's
    float view is a single row, whose product numpy makes as a GEMV, rounded
    unlike a GEMM's rows.)"""
    mat, pairs = _REAL_MATS[kind]
    small = axis == 0 and shape[0] <= PAIR_MAX and math.prod(shape) > shape[0]
    return attrgetter(pairs if small else mat)(dec)


def _shared(x: np.ndarray, shape: tuple[int, ...], axis: int, mat: np.ndarray, out: np.ndarray,
            ws: _Workspace) -> np.ndarray:
    """Apply one matrix along ``axis`` of every row of block ``x`` into ``out``.

    On the first axis (R = 1) this is one GEMM over all T * L fibres. A real
    matrix acts on real and imaginary parts separately. On a first axis of at
    most PAIR_MAX vertices (see :func:`_real`) ``mat`` is its
    (2 N_0, 2 N_0) pair operand kron(M, I_2)^T
    (:func:`~glct.kernels.pair_operand`), and the GEMM runs on the block's
    float view, whose (T * L, 2 N_0) rows interleave real and imaginary
    parts: no copy, and no work array. On any other first axis the
    parts are stacked as 2 * T * L rows in the memory of ``out``, with the
    product in the workspace slot "b"; on later axes the matrix acts through
    the float view of the block, whose (N_k, 2R) slices interleave the parts.
    """
    n, r = _dims(shape, axis)
    real = mat.dtype.kind == "f"
    if r == 1:
        rows, res = x.reshape(-1, n), out.reshape(-1, n)
        if mat.shape[0] == 2 * n:  # a pair operand
            np.matmul(rows.view(float), mat, out=res.view(float))
            return out
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


def _block(values: np.ndarray, chain: Sequence[Sequence[ProgramGroup]], ctx: ProductContext) -> tuple[np.ndarray, list[bool]]:
    """``values`` as a complex (T, P) block, and for each program of ``chain``
    whether one group holds its rows in order, after checking that the groups
    of every program name each of the block's T rows once."""
    t = sum(len(g.rows) for g in chain[0])
    values = np.ascontiguousarray(values, dtype=complex)
    if values.shape != (t, math.prod(ctx.shape)):
        raise ValidationError(
            f"block has shape {values.shape}; {t} parameter rows on shape {ctx.shape} "
            f"need ({t}, {math.prod(ctx.shape)})"
        )
    order, wholes = list(range(t)), []
    for groups in chain:
        rows = np.concatenate([g.rows for g in groups] or [np.arange(0)])
        listed = rows.tolist()
        in_order = listed == order
        if rows.dtype.kind not in "iu" or not (in_order or sorted(listed) == order):
            raise ValidationError(f"the groups' rows must name each of the block's {t} rows once")
        wholes.append(in_order and len(groups) == 1)
    return values, wholes


def _kron_sum(x: np.ndarray, ctx: ProductContext, out: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Apply the Kronecker sum of the shift operators into ``out``: the sum of
    their mode products, each after the first made in the workspace slot "a".
    The sum starts from 0, as ``sum`` does, which turns -0.0 into +0.0."""
    _shared(x, ctx.shape, 0, _real(ctx.factors[0], "scale", ctx.shape, 0), out, ws)
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


def _prepare(kinds: tuple[str, ...], rates: np.ndarray, phases: np.ndarray | None, ctx: ProductContext,
             stacks: list[np.ndarray] | None = None):
    """What the rows of one program with rates ``rates`` (R, T) and phases
    ``phases`` share between chunks: the chirp diagonals, with the phase and
    each 1 / sigma folded in where a chirp takes them. Returns them with the
    runs, the phases and the product of the sigmas, or None where folded, and
    the diagonal stacks, for :func:`_apply` and :func:`_mirror`.

    The C diagonal columns come from one :meth:`ProductContext.diag_powers`
    call on their (C, T) rates, one trig pass per factor, unless ``stacks``
    gives that call's result; column j's diagonal on axis k is a view into
    factor k's (C, T, N_k) stack, and the folds write into the fold column's
    axis-0 view in place."""
    runs, diag_cols, scale_cols, fold = _layout(kinds)
    if stacks is None:
        stacks = ctx.diag_powers(rates[diag_cols])
    diags = {j: [stack[i] for stack in stacks] for i, j in enumerate(diag_cols)}
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
    return runs, diags, phases, sigma, stacks


def _mirrors(group: ProgramGroup, earlier: ProgramGroup) -> bool:
    """Whether the chirp diagonals of ``group`` are those of ``earlier``, run
    just before it on the same rows, conjugated and in reverse column order.

    They are when the two have the same kinds, neither has a ``scale`` op or a
    phase (so nothing is folded into a diagonal), their rows are the same and
    the rates of ``group`` are those of ``earlier`` negated in reverse order,
    bit for bit. Then every rate column of one is a diagonal column, and
    diag_powers(-t) is the conjugate of diag_powers(t) bit for bit: t * (-a)
    is -(t * a) exactly, numpy's cos is even and its sin odd. cmccm's
    factorization of p^-1 is so the mirror of p's, since (d - 1) / (-b) is
    -((d - 1) / b) exactly."""
    rates, back = group.rates, earlier.rates
    return (group.kinds == earlier.kinds and "scale" not in group.kinds
            and group.phases is None and earlier.phases is None
            and rates.shape == back.shape and rates.dtype == back.dtype
            and np.array_equal(group.rows, earlier.rows)
            and rates.tobytes() == np.negative(back[::-1]).tobytes())


def _mirror(kinds: tuple[str, ...], earlier, reuse: bool) -> tuple:
    """A program of ``kinds`` prepared from ``earlier``, what :func:`_prepare`
    made for the group it mirrors (see :func:`_mirrors`), without a trig pass:
    the stacks of ``earlier`` conjugated, in their own memory if ``reuse``
    (once that group has run on the chunk, nothing reads them again), and
    read in reverse column order."""
    stacks = [np.conjugate(stack, out=stack if reuse else None)[::-1] for stack in earlier[-1]]
    return _prepare(kinds, None, None, None, stacks)


def _apply(x: np.ndarray, prepared, ctx: ProductContext, buf: _Buffers) -> np.ndarray:
    """One chunk of rows through a program prepared by :func:`_prepare` for
    its rows, or for one rate column that every row shares: along each axis,
    the matrices every row shares over the whole chunk, and chirps and
    fractional powers as (T, N_k) diagonals. The result is one of the buffers
    ``buf``, and so may be ``x``."""
    runs, diags, phases, sigma, _ = prepared
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
                    x = _shared(x, shape, axis, dec.spectrum.vectors, buf.other(x), ws)
                else:
                    x = _shared(x, shape, axis, _real(dec, kind, shape, axis), buf.other(x), ws)
    if phases is not None:  # no chirp to fold the scalars into
        x = np.multiply(x, phases[:, None], out=buf.own(x))
    if sigma is not None:
        x = np.divide(x, sigma, out=buf.own(x))
    return x


def program_block(values: np.ndarray, groups: Sequence[ProgramGroup], ctx: ProductContext, *,
                  then: Sequence[Sequence[ProgramGroup]] = (), out: np.ndarray | None = None) -> np.ndarray:
    """The rows ``g.rows`` of ``values`` (T, P) through the program of each
    group ``g`` of ``groups``, then through each program of ``then`` in turn:
    a chain of programs, each a list of groups. The chain runs in chunks of
    at most :func:`block_rows` rows, each chunk through every program before
    the next starts, in the calling thread's workspace. The result goes into
    ``out``, a C-contiguous complex (T, P) array, or a new array.

    Each program's groups must name each row of the block once, and each
    group must be a :class:`~glct.params.ProgramGroup`, which checked when it
    was made that it can run; a plain tuple never was, and is rejected.

    A group with one rate column prepares it once for all its chunks: its
    (1, N_k) diagonals broadcast over the rows of every chunk. A group whose
    diagonals mirror those of the group at its place in the program before it
    (see :func:`_mirrors`) takes them, conjugated and reversed, instead of a
    trig pass of its own: the inverse of a cmccm program does."""
    chain = (groups, *then)
    if not all(isinstance(group, ProgramGroup) for program in chain for group in program):
        raise ValidationError("the executor runs only ProgramGroup programs, which check themselves when made")
    values, wholes = _block(values, chain, ctx)
    if out is None:
        out = np.empty_like(values)
    elif out.shape != values.shape or out.dtype != complex or not (out.flags.c_contiguous and out.flags.writeable):
        raise ValidationError(f"out= must be a writable C-contiguous complex array of shape {values.shape}")
    p = values.shape[1]
    step, ws = block_rows(p), _workspace(p)
    mirrored = [[k > 0 and i < len(chain[k - 1]) and _mirrors(group, chain[k - 1][i])
                 for i, group in enumerate(program)] for k, program in enumerate(chain)]
    once = [[None] * len(program) for program in chain]  # what a group with one rate column prepared

    def prepared(k, i, sel, earlier):
        """What group i of program k takes for its members ``sel`` of a chunk:
        mirrored from ``earlier[i]``, what the group it mirrors prepared for
        the chunk, or made by :func:`_prepare`; once for all chunks if the
        group has one rate column."""
        group = chain[k][i]
        shared = group.rates.shape[1] == 1
        if once[k][i] is not None:
            return once[k][i]
        if mirrored[k][i]:
            prep = _mirror(group.kinds, earlier[i], reuse=not shared)
        else:
            sel = slice(None) if shared else sel
            prep = _prepare(group.kinds, group.rates[:, sel], None if group.phases is None else group.phases[sel], ctx)
        if shared:
            once[k][i] = prep
        return prep

    for start in range(0, len(values), step):
        chunk = slice(start, start + step)
        first = x = values[chunk]
        dest, before = out[chunk], None
        buf = _Buffers(ws, x.shape)  # one for the chunk: which buffer x is in is told by identity
        for k, program in enumerate(chain):
            # the previous program's diagonals are dropped before this one makes
            # its own, unless it mirrors them
            earlier, before = before if any(mirrored[k]) else None, None
            if wholes[k]:
                before = [prepared(k, 0, chunk, earlier)]
                x = _apply(x, before[0], ctx, buf)
                continue
            if x is not first and x is not dest:  # in a block buffer, which each group's rows go through
                np.copyto(dest, x)
                x = dest
            now = [None] * len(program)
            for i, group in enumerate(program):
                sel = np.flatnonzero((group.rows >= start) & (group.rows < start + step))
                if sel.size:
                    now[i] = prepared(k, i, sel, earlier)
                    rows, own = group.rows[sel] - start, _Buffers(ws, (sel.size, p))
                    # gathered into a buffer (numpy copies into out= first only in mode "raise")
                    dest[rows] = _apply(np.take(x, rows, axis=0, out=own.pair[0], mode="clip"), now[i], ctx, own)
            x, before = dest, now
        if x is not dest:
            dest[...] = x
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


def _single(op: str, rate: float | None = None) -> ProgramGroup:
    """The program of the single op ``op`` on one row, at ``rate`` if it takes one."""
    kinds, key = _SINGLE_OPS[op]
    rates = np.empty((0, 1)) if key is None else np.array([[rate]], dtype=float)
    return ProgramGroup(kinds, np.arange(1), rates, None)


def _one(x: SignalNd, groups: Sequence[ProgramGroup], ctx: ProductContext) -> SignalNd:
    """``x`` through the program of ``groups``, as a block of one row."""
    ctx.check(x)
    return SignalNd(ctx.shape, program_block(x.values[None], groups, ctx)[0])


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
            rate = None if key is None else float(self.params[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"op {self.op!r} needs a number params[{key!r}]") from exc
        return _single(self.op, rate)


def _kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    # first factor fastest: global matrix is M_m (x) ... (x) M_1
    return reduce(np.kron, list(mats)[::-1])


def _dense_op(kind: str, rate: float | None, ctx: ProductContext) -> np.ndarray:
    """Explicit matrix of one op on the whole product graph. Chirps read each
    factor's eigenvalues (``spectrum.values``); only ``frac`` reads P
    (``spectrum.vectors``) and so builds it."""
    if kind == "ft":
        return _kron_all([dec.f for dec in ctx.factors]).astype(complex)
    if kind == "ift":
        return _kron_all([dec.basis.vectors for dec in ctx.factors]).astype(complex)
    if kind == "scale":
        return kronecker_sum([dec.z for dec in ctx.factors]).astype(complex) / rate
    d = _kron_all([frac_diag_power(dec.spectrum.values, rate) for dec in ctx.factors])
    if kind == "cm":
        return np.diag(d)
    pk = _kron_all([dec.spectrum.vectors for dec in ctx.factors])
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
    a chirp. Real factors act on real and imaginary parts, 2*N_k*P as counted,
    except on a first axis of at most ``PAIR_MAX`` vertices (of a graph with
    more than one fibre along it): there the one GEMM on interleaved (re, im)
    pairs does 4*N_0*P real multiplies, half of them by zero.
    """
    shape = _sizes(shape)
    if not shape:
        raise ValidationError(f"invalid shape {shape}")
    p = math.prod(shape)
    ps = p * sum(shape)
    kinds, _, _, phases = spec.program()
    count = sum(_OP_MULTS[kind][0] * ps + _OP_MULTS[kind][1] * p for kind in kinds)
    return count + (4 * p if phases is not None else 0)
