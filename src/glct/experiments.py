"""Quantitative studies: additivity and reversibility NMSE, the paper's cost
model of the two factorizations, and a transform-domain compression pipeline
with RE / NRMS / CC quality metrics. A variant (:data:`VARIANTS`) names a
factorization, which :meth:`~glct.params.ParamBlock.factorize` runs on a block
of parameter sets.

All randomized routines take an explicit master seed; every trial derives its
own sub-seed from (seed, signal index, trial index), so results do not depend
on evaluation order and are reproducible run to run.

Studies that transform one signal under many parameter sets (the NMSE
suites, the parameter search, the ratios of the compression study) run their
transforms as blocks of rows through the block executors of
:mod:`glct.product`; row t of a block is computed as the one-signal call
computes it (bit for bit with single-threaded BLAS). Their parameters stay
arrays (:class:`~glct.params.ParamBlock`) from the draw to the executor: a
suite draws every trial's rows in one array pass (:func:`glct.seeding.trial_abc`,
byte-equal to a numpy generator per trial), then composes or inverts the
whole block once and factorizes it one chunk at a time. A chunk's transform
pair, p and p^-1 or p2 and p1, runs as one chain of programs, and the blocks
the studies keep between transforms live in a per-thread workspace
(:func:`~glct.product._study_array`).

The suites keep at most 8 small contexts per process: the set-up of each
(benchmark signal, :class:`~glct.graphs.GsoKind`) pair, its signal and its
:class:`~glct.product.ProductContext`, is built by the first suite call that
needs it (:func:`_benchmark_setup`) and reused by every later one, with the
eigenvectors that cddhfs builds on first use. ``ProductContext`` itself is
never cached, and neither is the compression study's context.

Every compression entry point runs :func:`_study`. Before the first
transform it builds every method's forward and backward programs: an order
alpha is undone by -alpha, a parameter set p by p^-1, whose b = 0 rows take
the other six-factor form (:attr:`~glct.params.ZeroBVariant.inverse_form`).
A program group checks itself when it is made, so a method that cannot run
fails before any work. It also builds the signal's constants
(:func:`_target`), once for all the blocks it scores. The methods of one
family run forward together, one method a row, in blocks of at most
:func:`~glct.product.block_rows` rows: the orders as one ``frac`` group with
one rate per row, the parameter sets as their block's factorization, whose
b = 0 rows form a group of their own. The pipeline sorts the
magnitudes of each coefficient row once for all its ratios. A ratio that keeps
k entries reads the k-th largest magnitude v from the sorted row and keeps
every entry above v and, of the entries equal to v, the lowest-index ones
until it has k: the set a stable sort by descending magnitude would put first.
The ratios of one parameter set or fractional order are reconstructed as one
block run by one program, one rate column shared by every row (see
:class:`~glct.params.ProgramGroup`). RE / NRMS / CC are reductions along the
rows of the reconstruction block, taken in one pass (:func:`_score_rows`), so
a row's metrics do not depend on the block's height.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .graphs import (
    GsoKind,
    ProductGraph,
    _is_count,
    bipolar_rect_signal,
    cartesian_product,
    make_family,
)
from .params import (
    KINDS,
    VARIANTS,
    LctParams,
    ParamBlock,
    ProgramGroup,
    ZeroBVariant,
    check_variant,
    inverse,
    sample_abc,
)
from .product import (
    ProductContext,
    SignalNd,
    _single,
    _sizes,
    _study_array,
    block_rows,
    glct_cddhfs_nd,
    glct_cmccm_nd,
    program_block,
)
from .seeding import trial_abc

#: Benchmark product graphs: name -> one (family, size) per factor
BENCHMARK_GRAPHS: dict[str, tuple[tuple[str, int], ...]] = {
    "x1": (("ring", 14), ("path", 8)),
    "x2": (("ring", 18), ("lowstretch", 16)),
    "x3": (("complete", 14), ("comet", 6)),
    "x4": (("complete", 8), ("lowstretch", 16)),
}
BENCHMARK_SIGNALS = tuple(BENCHMARK_GRAPHS)

#: Reference parameter sets for the compression study, one row per
#: (quality metric, compression ratio 0.1..0.9); printed to two decimals, so
#: validate them with LctParams.from_loose rather than the strict constructor.
COMPRESSION_REFERENCE_PARAMS: tuple[tuple[float, float, float, float], ...] = (
    # selected for relative error
    (0.10, 0.60, -0.20, 8.80),
    (0.40, 0.10, -0.60, 2.35),
    (0.10, -0.20, 0.90, 8.20),
    (0.30, -0.20, -1.40, 4.27),
    (0.80, -1.20, 1.40, -0.85),
    (1.20, 1.40, -0.30, 0.48),
    (-1.30, 0.50, 0.40, -0.92),
    (-0.90, 0.30, -1.20, -0.71),
    (0.40, -1.10, 0.70, 0.58),
    # selected for normalized RMS
    (-1.80, 0.30, -1.20, -0.36),
    (-0.40, 0.30, 1.50, -3.60),
    (0.30, 0.10, -0.60, 3.13),
    (0.40, -1.00, 0.70, 0.75),
    (1.30, -0.20, 1.40, 0.55),
    (1.20, 0.50, -1.00, 0.42),
    (1.50, -1.40, 0.20, 0.48),
    (-0.70, 0.30, 1.50, -2.07),
    (0.30, -0.20, 1.80, 2.13),
    # selected for correlation coefficient
    (-0.20, 0.70, 0.40, -6.40),
    (-0.20, 0.50, 1.10, -7.75),
    (0.30, 0.40, -0.80, 2.27),
    (1.40, 0.10, -0.60, 0.67),
    (0.90, -1.10, 0.40, 0.62),
    (-0.60, 1.40, 0.90, -3.77),
    (0.70, 1.80, -0.50, 0.14),
    (0.40, 0.10, -0.60, 2.35),
    (0.10, 0.50, 1.20, 16.00),
)


def apply_glct(
    x: SignalNd,
    p: LctParams,
    ctx: ProductContext,
    variant: str = "cmccm",
    zero_b_variant: ZeroBVariant = ZeroBVariant.EQ30,
) -> SignalNd:
    """Dispatch to the chosen factorization; ``zero_b_variant`` must name a
    zero-b form under either variant."""
    check_variant(variant)
    zero_b_variant = ZeroBVariant(zero_b_variant)
    if variant == "cddhfs":
        return glct_cddhfs_nd(x, p, ctx)
    return glct_cmccm_nd(x, p, ctx, zero_b_variant)


def _square_row_sums(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``np.sum(np.abs(z) ** 2, axis=1)`` of a complex (T, P) ``z``, with the
    squares made in the memory of ``scratch``, a C-contiguous array of at
    least T * P floats that it overwrites."""
    squares = scratch.reshape(-1).view(float)[:z.size].reshape(z.shape)
    np.abs(z, out=squares)
    return np.square(squares, out=squares).sum(axis=1)


def _rows(x: SignalNd, t: int, slot: str = "rows") -> np.ndarray:
    """A block of ``t`` copies of ``x``, in slot ``slot`` of the study workspace."""
    rows = _study_array(slot, (t, x.n))
    rows[...] = x.values
    return rows


# ---------------------------------------------------------------------------
# NMSE figures of merit


def nmse_additivity(
    x: SignalNd,
    p1: LctParams,
    p2: LctParams,
    ctx: ProductContext,
    variant: str = "cmccm",
    zero_b_variant: ZeroBVariant = ZeroBVariant.EQ30,
) -> float:
    """Squared-error ratio between the one-step transform at p1*p2 and the
    two-step cascade: ||T_{p1 p2} x - T_{p1} T_{p2} x||^2 / ||T_{p1 p2} x||^2.

    The one-row case of the additivity suite: p1, p2 and their product as
    one-row blocks through :func:`_nmse_additivity_block`."""
    b1, b2 = ParamBlock.from_params([p1]), ParamBlock.from_params([p2])
    return float(_nmse_additivity_block(x, b1, b2, b1.compose(b2), ctx, variant, zero_b_variant)[0])


def _nmse_additivity_block(x, p1, p2, p12, ctx, variant, zero_b_variant) -> np.ndarray:
    """The additivity NMSE of every row pair of the blocks ``p1`` and ``p2``,
    whose composition is ``p12``: the one-step block, and the two-step one as
    one chain of p2's and p1's programs."""
    ctx.check(x)
    block = _rows(x, len(p1))
    one = program_block(block, p12.factorize(variant, zero_b_variant), ctx)
    two = program_block(block, p2.factorize(variant, zero_b_variant), ctx, then=[p1.factorize(variant, zero_b_variant)])
    den = _square_row_sums(one, block)
    if (den == 0.0).any():
        raise ValidationError("degenerate signal: the reference transform is identically zero")
    return _square_row_sums(np.subtract(one, two, out=two), block) / den


def nmse_reversibility(
    x: SignalNd,
    p: LctParams,
    ctx: ProductContext,
    variant: str = "cmccm",
    zero_b_variant: ZeroBVariant = ZeroBVariant.EQ30,
) -> float:
    """Reconstruction error ||x - T_{p^-1} T_p x||^2 / ||x||^2, with T_{p^-1}
    in the zero-b form that undoes ``zero_b_variant``."""
    den = float(np.sum(np.abs(x.values) ** 2))
    if den == 0.0:
        raise ValidationError("degenerate signal: ||x|| = 0")
    form = ZeroBVariant(zero_b_variant)
    recon = apply_glct(apply_glct(x, p, ctx, variant, form), inverse(p), ctx, variant, form.inverse_form)
    num = float(np.sum(np.abs(x.values - recon.values) ** 2))
    return num / den


def _nmse_reversibility_block(x, params, inverses, ctx, variant, zero_b_variant) -> np.ndarray:
    """:func:`nmse_reversibility` of every row of the block ``params``, whose
    inverse is ``inverses``, as one chain of the forward and inverse programs."""
    ctx.check(x)
    den = float(np.sum(np.abs(x.values) ** 2))
    if den == 0.0:
        raise ValidationError("degenerate signal: ||x|| = 0")
    block = _rows(x, len(params))
    recon = program_block(block, params.factorize(variant, zero_b_variant), ctx,
                          then=[inverses.factorize(variant, zero_b_variant.inverse_form)])
    return _square_row_sums(np.subtract(x.values, recon, out=recon), block) / den


# ---------------------------------------------------------------------------
# operation-count model


#: The paper's per-axis cost of each op kind in real multiplies, as coefficients
#: of (N, N log2 N, N^2) on an axis of length N: a chirp or a scale is N complex
#: multiplies, a fast (inverse) transform (N/2) log2 N, the fractional one N^2.
PAPER_AXIS_COSTS = {"cm": (4, 0, 0), "scale": (4, 0, 0), "ft": (0, 2, 0), "ift": (0, 2, 0), "frac": (0, 0, 4)}
#: The program the paper's model counts for each variant; eq31 has eq30's totals.
MODEL_PROGRAMS = {"cddhfs": KINDS["cddhfs"], "cmccm": KINDS["general-b"], "cmccm_zero_b": KINDS["eq30"]}


def complexity_model(shape: Sequence[int], variant: str) -> float:
    """The paper's real-multiplication count of one M-D transform of ``shape``.

    Sums :data:`PAPER_AXIS_COSTS` over the op kinds of the variant's program
    (:data:`MODEL_PROGRAMS`) and over every axis, as the ops are mode-wise
    products: ``lin*sum(N) + log*sum(N log2 N) + sq*sum(N^2)``. The model
    assumes fast transforms, so it reflects the asymptotic regime rather than
    the dense chain counted by :func:`glct.product.mult_count`.
    """
    shape = _sizes(shape)
    if not shape:
        raise ValidationError("shape needs at least one axis")
    if min(shape) < 2:
        raise ValidationError(f"sizes must be >= 2, got {shape}")
    if variant not in MODEL_PROGRAMS:
        raise ValidationError(f"unknown variant {variant!r}; choose cddhfs, cmccm, or cmccm_zero_b")
    lin, log, sq = (sum(c) for c in zip(*(PAPER_AXIS_COSTS[kind] for kind in MODEL_PROGRAMS[variant])))
    return float(lin * sum(shape) + log * sum(n * math.log2(n) for n in shape) + sq * sum(n * n for n in shape))


# ---------------------------------------------------------------------------
# benchmark signals and suites


def benchmark_signal(name: str) -> tuple[ProductGraph, SignalNd]:
    """Benchmark M-D signal: outer product of per-factor rectangular signals,
    one per factor of its graph.

    Each factor carries the +1/-1 rectangular signal, so the product signal
    is itself +1/-1 valued.
    """
    try:
        specs = BENCHMARK_GRAPHS[name]
    except KeyError:
        raise ValidationError(f"unknown benchmark signal {name!r}; choose from {BENCHMARK_SIGNALS}")
    factors = [make_family(fam, n) for fam, n in specs]
    graph = cartesian_product(factors)
    parts = [bipolar_rect_signal(g.n) for g in factors]
    return graph, SignalNd.from_tensor(reduce(np.multiply.outer, parts))


@lru_cache(maxsize=None)  # at most 8 keys: 4 benchmark signals x 2 GsoKinds
def _benchmark_setup(name: str, kind: GsoKind) -> tuple[SignalNd, ProductContext]:
    """The benchmark signal ``name`` and its context under the shift operator
    ``kind``, a GsoKind member, built once per process. Every suite call reads
    them here, so only its first call on a (signal, GSO) pair builds them."""
    graph, x = benchmark_signal(name)
    return x, ProductContext(graph, kind)


@dataclass(frozen=True)
class NmseReport:
    """Per-trial NMSE values for one (study, variant, signal) combination."""

    kind: str
    variant: str
    signal: str
    seed: int
    values: np.ndarray
    params: tuple

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0 or (values < 0).any():
            raise ValidationError("NMSE values must be a non-empty vector of non-negative reals")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def trials(self) -> int:
        return self.values.size

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    def sorted_values(self) -> np.ndarray:
        return np.sort(self.values)

    def summary_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "signal": self.signal,
            "seed": self.seed,
            "trials": self.trials,
            "mean": self.mean,
            "values": [float(v) for v in self.sorted_values()],
        }


def _check_seed(seed) -> int:
    """A master seed, a non-negative integer (numpy ints accepted), as an int."""
    if not _is_count(seed) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _suite(
    kind: str,
    signals: Sequence[str],
    trials: int,
    seed: int,
    variants: Sequence[str],
    gso_kind: GsoKind,
    zero_b_variant: ZeroBVariant,
) -> list[NmseReport]:
    seed, zero_b_variant, gso_kind = _check_seed(seed), ZeroBVariant(zero_b_variant), GsoKind(gso_kind)
    if not _is_count(trials) or trials < 1:
        raise ValidationError(f"trials must be a positive integer, got {trials!r}")
    signals, variants = tuple(signals), tuple(variants)
    if not signals:
        raise ValidationError("signals must name at least one benchmark signal")
    if not variants:
        raise ValidationError(f"variants must name at least one of {VARIANTS}")
    trials = int(trials)
    for v in variants:
        check_variant(v)
    unknown = [name for name in signals if name not in BENCHMARK_SIGNALS]
    if unknown:
        raise ValidationError(f"unknown benchmark signals {unknown}; choose from {BENCHMARK_SIGNALS}")
    reports: list[NmseReport] = []
    for name in signals:
        sig_index = BENCHMARK_SIGNALS.index(name)
        x, ctx = _benchmark_setup(name, gso_kind)
        # one row per trial, or two for a pair
        abc = trial_abc(seed, sig_index, trials, 2 if kind == "additivity" else 1)
        if kind == "additivity":
            nmse = _nmse_additivity_block
            p1, p2 = ParamBlock.from_abc(abc[0::2]), ParamBlock.from_abc(abc[1::2])
            blocks = (p1, p2, p1.compose(p2))
            params = tuple(zip(p1.astuples(), p2.astuples()))
        else:
            nmse = _nmse_reversibility_block
            p = ParamBlock.from_abc(abc)
            blocks = (p, p.inverse())
            params = p.astuples()
        step = block_rows(x.n)
        for v in variants:
            values = np.concatenate([nmse(x, *(b[i:i + step] for b in blocks), ctx, v, zero_b_variant)
                                     for i in range(0, trials, step)])
            reports.append(NmseReport(kind=kind, variant=v, signal=name, seed=seed, values=values, params=params))
    return reports


def suite_additivity(
    signals: Sequence[str] = BENCHMARK_SIGNALS,
    trials: int = 1000,
    seed: int = 0,
    variants: Sequence[str] = VARIANTS,
    gso_kind: GsoKind = GsoKind.LAPLACIAN,
    zero_b_variant: ZeroBVariant = ZeroBVariant.EQ30,
) -> list[NmseReport]:
    """Additivity NMSE over seeded random parameter pairs, per signal and variant."""
    return _suite("additivity", signals, trials, seed, variants, gso_kind, zero_b_variant)


def suite_reversibility(
    signals: Sequence[str] = BENCHMARK_SIGNALS,
    trials: int = 1000,
    seed: int = 0,
    variants: Sequence[str] = VARIANTS,
    gso_kind: GsoKind = GsoKind.LAPLACIAN,
    zero_b_variant: ZeroBVariant = ZeroBVariant.EQ30,
) -> list[NmseReport]:
    """Reversibility NMSE over seeded random parameters, per signal and variant."""
    return _suite("reversibility", signals, trials, seed, variants, gso_kind, zero_b_variant)


# ---------------------------------------------------------------------------
# compression


#: The real signal ``x`` (P,) that reconstructions are scored against, and the
#: constants every score of it shares: |x|_1, x - mean(x) and its norm.
_Target = NamedTuple("_Target", [("x", np.ndarray), ("l1", float), ("centred", np.ndarray), ("spread", float)])


def _target(x: np.ndarray) -> _Target:
    """``x`` as a :class:`_Target`, after checking that every metric is defined on it."""
    l1 = np.abs(x).sum()
    if l1 == 0.0:
        raise ValidationError("relative error undefined for an all-zero signal")
    centred = x - x.mean()
    spread = np.sqrt((centred * centred).sum())
    if spread == 0.0:
        raise ValidationError("normalized RMS undefined for a constant signal")
    return _Target(x, l1, centred, spread)


def _score_rows(target: _Target, xc: np.ndarray, scratch: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relative error, normalized RMS and Pearson correlation of every row of
    ``xc`` (T, P) against ``target``, from one difference x - xc and one work
    array, ``scratch`` (a float (2, T, P) array) if it is given."""
    d, work = np.empty((2, *xc.shape)) if scratch is None else scratch
    np.subtract(target.x, xc, out=d)
    np.abs(d, out=work)
    re = work.sum(axis=1) / target.l1
    nrms = np.sqrt(np.multiply(d, d, out=work).sum(axis=1)) / target.spread
    dc = np.subtract(xc, xc.mean(axis=1, keepdims=True), out=d)
    den = target.spread * np.sqrt(np.multiply(dc, dc, out=work).sum(axis=1))
    if (den == 0.0).any():
        raise ValidationError("correlation undefined for a constant signal")
    return re, nrms, np.multiply(target.centred, dc, out=work).sum(axis=1) / den


@dataclass(frozen=True)
class CompressionReport:
    """Quality metrics for one compressed reconstruction."""

    method: str
    gamma: float
    re: float
    nrms: float
    cc: float
    alpha: float | None = None
    params: tuple[float, float, float, float] | None = None
    variant: str | None = None
    seed: int | None = None

    def row(self) -> dict:
        return {
            "method": self.method,
            "variant": "" if self.variant is None else self.variant,
            "alpha": "" if self.alpha is None else self.alpha,
            "a": "" if self.params is None else self.params[0],
            "b": "" if self.params is None else self.params[1],
            "c": "" if self.params is None else self.params[2],
            "d": "" if self.params is None else self.params[3],
            "gamma": self.gamma,
            "re": self.re,
            "nrms": self.nrms,
            "cc": self.cc,
        }


def _sorted_magnitudes(coeffs: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The magnitudes of ``coeffs`` (R, P) and each of their rows sorted
    ascending: the one sort per coefficient row that every ratio kept from it
    shares. They are made in ``out``, a float (2, R, P) array, or new arrays."""
    mags, ordered = (np.empty((2, *coeffs.shape)) if out is None else out)
    np.abs(coeffs, out=mags)
    np.copyto(ordered, mags)
    ordered.sort(axis=1)
    return mags, ordered


def _forward(x: SignalNd, forward: Sequence[ProgramGroup], ctx: ProductContext):
    """The rows of the program ``forward`` on copies of ``x``: their
    coefficients and :func:`_sorted_magnitudes`, in the study workspace
    (:func:`~glct.product._study_array`). The copies of ``x`` go in slot
    "back", which holds no reconstruction while a forward block runs, the
    coefficients in slot "coeffs" and the magnitudes in slot "mags"; each
    holds them until the next forward block."""
    shape = (sum(len(group.rows) for group in forward), x.n)
    coeffs = program_block(_rows(x, shape[0], "back"), forward, ctx, out=_study_array("coeffs", shape))
    return coeffs, _sorted_magnitudes(coeffs, _study_array("mags", (2, *shape), float))


def _keep_top(coeffs: np.ndarray, magnitudes: tuple[np.ndarray, np.ndarray], ks: Sequence[int],
              out: np.ndarray | None = None) -> np.ndarray:
    """Row t keeps the ``ks[t]`` largest-magnitude entries of its row of
    ``coeffs`` and zeroes the rest, in ``out`` (a (T, P) array) or a new
    array of the dtype of ``coeffs``; one row of ``coeffs`` may serve every t.

    With v the ks[t]-th largest magnitude, read from the sorted row of
    ``magnitudes`` (see :func:`_sorted_magnitudes`), the row keeps every entry
    above v and, of the entries equal to v, the lowest-index ones until it has
    ks[t]: the set that a stable sort by descending magnitude puts first.
    The others are set to +0, as ``np.where(keep, coeffs, 0)`` sets them."""
    mags, ordered = magnitudes
    ks = np.asarray(ks)
    v = np.take_along_axis(ordered, (coeffs.shape[1] - ks)[:, None], axis=1)
    drop = mags < v
    extra = drop.shape[1] - drop.sum(axis=1) - ks  # entries kept beyond ks[t]
    if extra.any():  # ties at v beyond ks[t]: drop the highest-index ones
        ties = mags == v
        drop |= ties & (np.cumsum(ties, axis=1) > (ties.sum(axis=1) - extra)[:, None])
    if out is None:
        out = np.empty(drop.shape, coeffs.dtype)
    np.copyto(out, coeffs)
    np.putmask(out, drop, 0)
    return out


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 < gamma <= 1.0:
        raise ValidationError(f"compression ratio must lie in (0, 1], got {gamma}")
    return gamma


def _compress_rows(target, coeffs, magnitudes, gammas, backward, ctx) -> tuple[np.ndarray, tuple]:
    """Row t keeps the ceil(gammas[t] * P) largest entries of its row of
    ``coeffs`` (one row per t, or one row shared by every t, with their
    :func:`_sorted_magnitudes`), the program groups ``backward`` reconstruct
    every row in one block, and the real parts are scored against ``target``.
    Returns the real reconstructions (T, P) and the RE, NRMS and CC of every row.

    Every block lives in the study workspace
    (:func:`~glct.product._study_array`): the kept coefficients in slot
    "kept", whose memory then holds the real parts, and the backward block
    in slot "back", whose memory then holds the scores' work arrays. The
    reconstructions returned are so overwritten by the next call on the same
    thread: a caller that keeps them copies them."""
    ks = [math.ceil(g * target.x.size) for g in gammas]
    shape = (len(ks), target.x.size)
    kept = _keep_top(coeffs, magnitudes, ks, out=_study_array("kept", shape))
    back = program_block(kept, backward, ctx, out=_study_array("back", shape))
    recon = _study_array("kept", shape, float)
    np.copyto(recon, back.real)
    return recon, _score_rows(target, recon, back.view(float).reshape(2, *shape))


def _reported(recon_metrics, gammas, **fields) -> tuple[np.ndarray, list[CompressionReport]]:
    """The real reconstructions and metrics of one method from
    :func:`_compress_rows`, with one report per ratio of ``gammas`` carrying ``fields``."""
    recon, metrics = recon_metrics
    return recon, [CompressionReport(gamma=g, re=float(re), nrms=float(nrms), cc=float(cc), **fields)
                   for g, re, nrms, cc in zip(gammas, *metrics)]


def compress(
    x: SignalNd,
    p: LctParams,
    ctx: ProductContext,
    gamma: float,
    variant: str = "cmccm",
    zero_b_variant: ZeroBVariant = ZeroBVariant.EQ30,
    seed: int | None = None,
) -> tuple[SignalNd, CompressionReport]:
    """Keep the ceil(gamma * N) largest transform coefficients and reconstruct.

    The reconstruction applies the same factorization at the inverse
    parameters, a b = 0 set in the other six-factor form; metrics compare
    real parts against the original.
    """
    ((recon, (report,)),) = _study(x, ctx, [gamma], params=[p], variant=variant,
                                    zero_b_variant=zero_b_variant, seed=seed)
    return SignalNd(x.shape, recon[0]), report  # SignalNd copies the row out of the study workspace


def compress_gfrft(
    x: SignalNd,
    alpha: float,
    ctx: ProductContext,
    gamma: float,
    seed: int | None = None,
) -> tuple[SignalNd, CompressionReport]:
    """Fractional-transform baseline for the compression pipeline."""
    ((recon, (report,)),) = _study(x, ctx, [gamma], alphas=[alpha], seed=seed)
    return SignalNd(x.shape, recon[0]), report  # SignalNd copies the row out of the study workspace


DEFAULT_GAMMAS = tuple(round(0.1 * k, 1) for k in range(1, 10))
#: The compression metrics, in the order :func:`_compress_rows` returns them.
METRICS = ("re", "nrms", "cc")
DEFAULT_ALPHA_GRID = tuple(round(0.05 * k, 2) for k in range(21))


def study_signal(n1: int = 100, n2: int = 15, seed: int = 0) -> tuple[ProductGraph, SignalNd]:
    """Default compression-study setup: ring x path with uniform [-10, 10] data."""
    rng = np.random.default_rng(np.random.SeedSequence((_check_seed(seed),)))
    graph = cartesian_product([make_family("ring", n1), make_family("path", n2)])
    values = rng.uniform(-10.0, 10.0, size=graph.n)
    return graph, SignalNd(graph.shape, values)


def _study(x, ctx, gammas, alphas=(), params=(), variant="cmccm", zero_b_variant=ZeroBVariant.EQ30,
           seed=None, budget=None, metric="nrms"):
    """The compression run behind every entry point: yields (real reconstructions,
    reports) at every ratio of ``gammas`` for each order of ``alphas``, each
    :class:`LctParams` of ``params`` and, given a ``budget``, the search; checks
    its inputs and builds every method's programs before the first transform.

    Each chunk of at most :func:`block_rows` methods of one family runs
    forward as one block and sorts its magnitudes once; then each method
    reconstructs its own coefficient row at every ratio as one block of its
    backward program, one rate column widened to one row per ratio. A
    method's reconstructions are in the study workspace (see
    :func:`_compress_rows`) until the next method runs; the search's are its own."""
    gammas = [_check_gamma(g) for g in gammas]
    if not gammas:
        raise ValidationError("compression needs at least one ratio")
    check_variant(variant)
    zero_b_variant = ZeroBVariant(zero_b_variant)
    search = None if budget is None else _check_search(budget, seed, metric)
    ctx.check(x)
    target = _target(x.values.real)  # rejects an all-zero or constant signal
    step, ratios = block_rows(x.n), np.arange(len(gammas))

    def widened(groups):  # a one-row program run on one row per ratio
        return [group._replace(rows=ratios) for group in groups]

    alphas, params = list(map(float, alphas)), list(params)
    chunks = []  # (forward groups of k methods, each method's (backward groups, report fields))
    for i in range(0, len(alphas), step):
        chunk = alphas[i:i + step]
        chunks.append(([ProgramGroup(("frac",), np.arange(len(chunk)), np.array([chunk]), None)],
                       [(widened([_single("gfrft", -alpha)]), {"method": "gfrft", "alpha": alpha})
                        for alpha in chunk]))
    for i in range(0, len(params), step):
        chunk = params[i:i + step]
        chunks.append((ParamBlock.from_params(chunk).factorize(variant, zero_b_variant),
                       [(widened(ParamBlock.from_params([inverse(p)]).factorize(variant, zero_b_variant.inverse_form)),
                         {"method": "glct", "params": p.astuple(), "variant": variant}) for p in chunk]))
    for forward, methods in chunks:
        coeffs, (mags, ordered) = _forward(x, forward, ctx)
        for t, (backward, fields) in enumerate(methods):
            row = slice(t, t + 1)
            yield _reported(_compress_rows(target, coeffs[row], (mags[row], ordered[row]), gammas, backward, ctx),
                            gammas, seed=seed, **fields)
    if search is not None:
        yield _search_sweep(x, target, ctx, gammas, *search, metric, variant, zero_b_variant)


def compression_study(
    seed: int = 0,
    gammas: Sequence[float] = DEFAULT_GAMMAS,
    alpha_grid: Sequence[float] | None = DEFAULT_ALPHA_GRID,
    glct_param_sets: Sequence[Sequence[float]] | None = COMPRESSION_REFERENCE_PARAMS,
    n1: int = 100,
    n2: int = 15,
    variant: str = "cmccm",
    gso_kind: GsoKind = GsoKind.LAPLACIAN,
    zero_b_variant: ZeroBVariant = ZeroBVariant.EQ30,
) -> list[CompressionReport]:
    """Sweep the fractional baseline and parameter sets across ratios.

    Parameter sets are accepted with two-decimal rounding; d is renormalized
    to keep ad - bc = 1 exact before transforming. Each order's and each
    parameter set's coefficients are computed once and serve every ratio.
    The orders, then the sets, run forward in blocks of at most
    :func:`~glct.product.block_rows` methods, one method a row, so a default
    study on 100 x 15 runs 6 forward blocks and 48 backward ones. Row t of a
    block is computed as a block of row t alone, so the reports equal those
    of :func:`compress_gfrft` and :func:`compress` (bit for bit with
    single-threaded BLAS).
    """
    graph, x = study_signal(n1, n2, seed)
    ctx = ProductContext(graph, gso_kind)
    params = [LctParams.from_loose(*row) for row in glct_param_sets or ()]
    reports: list[CompressionReport] = []
    for _, method in _study(x, ctx, gammas, alpha_grid or (), params, variant, zero_b_variant, seed):
        reports += method
    return reports


def _check_search(budget, seed, metric) -> tuple[int, int]:
    """A search's budget and master seed as ints, after checking them and its metric."""
    if not _is_count(budget) or budget < 1:
        raise ValidationError(f"search budget must be >= 1, as an integer; got {budget!r}")
    seed = _check_seed(seed)
    if metric not in METRICS:
        raise ValidationError(f"unknown metric {metric!r}; choose re, nrms, or cc")
    return int(budget), seed


def _search_sweep(x, target, ctx, gammas, budget, seed, metric, variant,
                  zero_b_variant) -> tuple[np.ndarray, list[CompressionReport]]:
    """:func:`search_glct_params` at every ratio of ``gammas`` over one draw of
    the budget (checked by :func:`_check_search`): each block of draws is
    transformed forward and sorted once, then reconstructed once per ratio.
    Returns what :func:`_study` yields for one method; row j is the
    reconstruction that ratio j's winning report scored."""
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    drawn = ParamBlock.from_abc(sample_abc(rng, budget))
    inverses = drawn.inverse()
    which = METRICS.index(metric)
    sign = -1.0 if metric == "cc" else 1.0
    best: list[CompressionReport | None] = [None] * len(gammas)
    recons = np.empty((len(gammas), x.n))
    step = block_rows(x.n)
    for i in range(0, budget, step):
        ps = drawn[i:i + step]
        coeffs, magnitudes = _forward(x, ps.factorize(variant, zero_b_variant), ctx)
        back = inverses[i:i + step].factorize(variant, zero_b_variant.inverse_form)
        for j, g in enumerate(gammas):
            recon, metrics = _compress_rows(target, coeffs, magnitudes, [g] * len(ps), back, ctx)
            scores = sign * metrics[which]
            t = int(np.argmin(scores))  # the first draw of the block's best
            if best[j] is None or scores[t] < sign * getattr(best[j], metric):
                re, nrms, cc = (float(m[t]) for m in metrics)
                best[j] = CompressionReport(method="glct", gamma=g, re=re, nrms=nrms, cc=cc,
                                            params=tuple(ps.abcd[t].tolist()), variant=variant, seed=seed)
                recons[j] = recon[t]
    return recons, best


def search_glct_params(
    x: SignalNd,
    ctx: ProductContext,
    gamma: float,
    budget: int = 50,
    seed: int = 0,
    metric: str = "nrms",
    variant: str = "cmccm",
    zero_b_variant: ZeroBVariant = ZeroBVariant.EQ30,
) -> CompressionReport:
    """Random search over (a, b, c) with d = (1 + bc) / a; returns the best report.

    The budget is drawn in order and run in blocks (forward transform,
    keep-largest, backward transform); ties keep the earliest draw.
    """
    ((_, (report,)),) = _study(x, ctx, [gamma], variant=variant, zero_b_variant=zero_b_variant,
                               seed=seed, budget=budget, metric=metric)
    return report
