"""Transform parameter matrices (a, b; c, d) and their factorizations.

A parameter set is a real 2x2 matrix [[a, b], [c, d]] with ad - bc = 1. Two
factorizations into elementary graph operations are supported:

- ``cddhfs``: chirp multiplication o scaling o fractional transform, an
  Iwasawa-type factorization with chirp rate xi, scale delta and normalized
  fractional order alpha (alpha = 1 is the plain transform).
- ``cmccm``: chirp multiplication o chirp convolution o chirp multiplication,
  where the middle chirp convolution is realized as a transform-conjugated
  chirp multiplication. For b = 0 the general factorization degenerates and
  one of two six-factor forms is used instead (tokens "eq30" and "eq31"),
  each carrying a constant unimodular phase.

Both are programs of ops: ``cm`` (chirp, rate xi), ``ft``/``ift`` (transform
and inverse), ``frac`` (fractional transform, order alpha) and ``scale`` (shift
operator over sigma). A :class:`ProgramGroup` holds the program of many rows:
its op ``kinds``, the member ``rows``, their ``rates`` and their ``phases``.

Many parameter sets at once are a :class:`ParamBlock`, a (T, 4) array of
(a, b, c, d) rows. The 2x2 matrices with unit determinant form a group, so
validation, inverse, composition and both factorizations are arithmetic on
its columns, and a factorization yields the groups that the block executor
of :mod:`glct.product` runs. :meth:`ParamBlock.factorize` maps a variant name
(:data:`VARIANTS`) to its factorization; a parameter set is the one-row block.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

DET_TOL = 1e-9
ZERO_B_TOL = 1e-9
#: How far ad - bc may stray from 1 in a parameter set rounded for print.
LOOSE_DET_TOL = 0.02


class ZeroBVariant(enum.Enum):
    """Which six-factor form realizes the b = 0 case.

    EQ30 applies transform, chirp, inverse transform, chirp, transform, chirp
    with phase exp(-i pi/4); EQ31 applies chirp, inverse transform, chirp,
    transform, chirp, inverse transform with phase exp(+i pi/4). Each is
    undone by the other at the inverse parameters (:attr:`inverse_form`).
    """

    EQ30 = "eq30"
    EQ31 = "eq31"

    @classmethod
    def _missing_(cls, value):
        raise ValidationError(f"unknown zero-b variant {value!r}; choose eq30 or eq31")

    @property
    def inverse_form(self) -> "ZeroBVariant":
        """The other form: eq30(p) = V^T C(1/d) V C(d) V^T C((c+1)/d) e^(-i pi/4) is undone
        factor by factor by eq31(p^-1) = C(-(c+1)/d) V C(-d) V^T C(-1/d) V e^(i pi/4)."""
        return ZeroBVariant.EQ31 if self is ZeroBVariant.EQ30 else ZeroBVariant.EQ30


#: Ops that take a rate: chirp rate, fractional order, scale factor.
RATED_KINDS = frozenset(("cm", "frac", "scale"))
#: Every op a program may name: the rated ones, the transform and its inverse.
OP_KINDS = RATED_KINDS | {"ft", "ift"}
#: The factorizations, by the variant name :meth:`ParamBlock.factorize` takes.
VARIANTS = ("cddhfs", "cmccm")
#: Parameter draws redraw rows with |a| below this, which keeps |d| bounded.
MIN_ABS_A = 0.05

_GENERAL_B = ("cm", "ft", "cm", "ift", "cm")
#: Op kinds of each factorization, in the order they are applied, keyed by
#: cmccm branch ("general-b", or the zero-b variant) or "cddhfs".
KINDS = {
    "general-b": _GENERAL_B,
    "eq30": _GENERAL_B + ("ft",),
    "eq31": ("ift",) + _GENERAL_B,
    "cddhfs": ("frac", "scale", "cm"),
}


class ProgramGroup(NamedTuple):
    """The rows ``rows`` of a block that run one program: its op kinds in the
    order they are applied, the rates of its ops in ``RATED_KINDS`` as a
    contiguous (R, T) array (row j holds the j-th rated op's rate of every
    member row) and the member rows' constant phases, or None if all are 1.

    A group whose ``rates`` has one column runs that parameter set on every
    member row, and its ``phases``, if any, has one entry. A sweep that
    transforms many rows with one parameter set so factorizes it once, and
    computes its chirp diagonals once for all its rows instead of once per
    row."""

    kinds: tuple[str, ...]
    rows: np.ndarray
    rates: np.ndarray
    phases: np.ndarray | None

    def check(self) -> None:
        """Raise ValidationError unless the block executor can run the group:
        its kinds are in ``OP_KINDS``, its rates and phases are finite, its
        ``scale`` rates nonzero, and rates and phases have the shapes given
        above."""
        kinds, rows, rates, phases = self
        if not OP_KINDS.issuperset(kinds):
            raise ValidationError(f"unknown op kinds {sorted(set(kinds) - OP_KINDS)}; choose from {sorted(OP_KINDS)}")
        rated = [kind for kind in kinds if kind in RATED_KINDS]
        r = len(rated)
        if rates.shape not in ((r, 1), (r, len(rows))) or (phases is not None and phases.shape != rates.shape[1:]):
            raise ValidationError(
                f"a group of {len(rows)} rows with {r} rated ops needs rates of shape ({r}, 1) or "
                f"({r}, {len(rows)}) and one phase per rate column, got {rates.shape} and {np.shape(phases)}"
            )
        if not np.isfinite(rates).all():
            raise ValidationError(f"op rates must be finite, got {rates[~np.isfinite(rates)][0]}")
        for j, kind in enumerate(rated):
            if kind == "scale" and not rates[j].all():
                raise ValidationError("scaling factor must be nonzero")
        if phases is not None and not np.isfinite(phases).all():
            raise ValidationError("phases must be finite")


@dataclass(frozen=True)
class LctParams:
    """Validated (a, b; c, d) parameter matrix with ad - bc = 1."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, float(getattr(self, name)))
        det = self.a * self.d - self.b * self.c
        if not np.isfinite(det) or abs(det - 1.0) >= DET_TOL:
            raise _det_error(det)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def from_abc(cls, a: float, b: float, c: float) -> "LctParams":
        """Build parameters from (a, b, c) with d = (1 + bc) / a."""
        a, b, c = float(a), float(b), float(c)
        if a == 0.0:
            raise ValidationError(_FROM_ABC_NEEDS_A)
        return cls(a, b, c, (1.0 + b * c) / a)

    @classmethod
    def from_loose(cls, a: float, b: float, c: float, d: float) -> "LctParams":
        """Accept a rounded parameter set and renormalize d to (1 + bc) / a.

        Useful for parameter values printed to two decimals; rejects sets
        whose determinant is off by more than ``LOOSE_DET_TOL``.
        """
        det = float(a) * float(d) - float(b) * float(c)
        if not np.isfinite(det) or abs(det - 1.0) > LOOSE_DET_TOL:
            raise ValidationError(
                f"parameters fail ad - bc = 1 beyond the rounding tolerance {LOOSE_DET_TOL:g}; "
                f"got ad - bc = {det!r}"
            )
        return cls.from_abc(a, b, c)


_FROM_ABC_NEEDS_A = "from_abc requires a != 0"


def check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; choose from {VARIANTS}")


def _det_error(det: float) -> ValidationError:
    return ValidationError(
        f"parameters must satisfy ad - bc = 1 within {DET_TOL:g}; got ad - bc = {det!r}"
    )


def inverse(p: LctParams) -> LctParams:
    """Symplectic inverse: (a, b; c, d) -> (d, -b; -c, a)."""
    return LctParams(p.d, -p.b, -p.c, p.a)


#: Column arithmetic overflows to inf and NaN silently, as Python floats do.
_AS_FLOATS = np.errstate(over="ignore", invalid="ignore")


@_AS_FLOATS
def _check_det(abcd: np.ndarray) -> None:
    a, b, c, d = abcd.T
    det = a * d - b * c
    bad = ~(np.abs(det - 1.0) < DET_TOL)  # NaN fails too
    if bad.any():
        raise _det_error(float(det[bad.argmax()]))


class ParamBlock:
    """T parameter matrices: a read-only C-contiguous float (T, 4) array
    ``abcd`` of (a, b, c, d) rows, each with ad - bc = 1 as :class:`LctParams`
    checks it.

    Row t equals ``LctParams(*abcd[t])`` bit for bit, and so does row t of
    :meth:`inverse` against :func:`inverse`. Composition is a stacked
    (T, 2, 2) matmul, the same BLAS product as ``p1.matrix @ p2.matrix`` on
    each pair of rows; spelled out elementwise it would round differently
    wherever the GEMM fuses a multiply-add.
    """

    __slots__ = ("abcd",)

    def __init__(self, abcd) -> None:
        abcd = np.array(abcd, dtype=float, order="C")
        if abcd.ndim != 2 or abcd.shape[1] != 4:
            raise ValidationError(f"a parameter block is a (T, 4) array of (a, b, c, d) rows, got shape {abcd.shape}")
        _check_det(abcd)
        abcd.setflags(write=False)
        self.abcd = abcd

    @classmethod
    def _of(cls, abcd: np.ndarray) -> "ParamBlock":
        """A block of rows already known to be valid, taking ``abcd`` as it is."""
        block = cls.__new__(cls)
        abcd.setflags(write=False)
        block.abcd = abcd
        return block

    @classmethod
    def from_params(cls, ps: Sequence[LctParams]) -> "ParamBlock":
        return cls._of(np.array([p.astuple() for p in ps], dtype=float).reshape(-1, 4))

    @classmethod
    def from_abc(cls, abc) -> "ParamBlock":
        """Rows (a, b, c) of ``abc`` (T, 3) with d = (1 + bc) / a, as
        :meth:`LctParams.from_abc` builds them."""
        abc = np.asarray(abc, dtype=float).reshape(-1, 3)
        a, b, c = abc.T
        if (a == 0.0).any():
            raise ValidationError(_FROM_ABC_NEEDS_A)
        abcd = np.empty((abc.shape[0], 4))
        abcd[:, :3] = abc
        abcd[:, 3] = (1.0 + b * c) / a
        _check_det(abcd)
        return cls._of(abcd)

    def __len__(self) -> int:
        return self.abcd.shape[0]

    def __getitem__(self, rows: int | slice) -> "ParamBlock":
        """The rows ``rows`` as a block; an integer gives a block of one row."""
        return ParamBlock._of(np.ascontiguousarray(self.abcd[rows]).reshape(-1, 4))

    def astuples(self) -> tuple[tuple[float, float, float, float], ...]:
        """Each row as :meth:`LctParams.astuple` gives it."""
        return tuple(map(tuple, self.abcd.tolist()))

    def inverse(self) -> "ParamBlock":
        """Row-wise :func:`inverse`: (a, b, c, d) -> (d, -b, -c, a)."""
        return ParamBlock._of(self.abcd[:, [3, 1, 2, 0]] * np.array([1.0, -1.0, -1.0, 1.0]))

    def compose(self, other: "ParamBlock") -> "ParamBlock":
        """Row-wise parameter matrix product: row t is ``self`` row t times
        ``other`` row t, so the transforms compose as T_self o T_other."""
        if len(self) != len(other):
            raise ValidationError(f"cannot compose blocks of {len(self)} and {len(other)} rows")
        m = self.abcd.reshape(-1, 2, 2) @ other.abcd.reshape(-1, 2, 2)
        abcd = m.reshape(-1, 4)
        _check_det(abcd)
        return ParamBlock._of(abcd)

    def factorize(self, variant: str, zero_b_variant: ZeroBVariant = ZeroBVariant.EQ30) -> list[ProgramGroup]:
        """The program groups of factorization ``variant`` (one of
        :data:`VARIANTS`): :meth:`cddhfs`, or :meth:`cmccm` with ``zero_b_variant``."""
        check_variant(variant)
        return self.cddhfs() if variant == "cddhfs" else self.cmccm(zero_b_variant)

    @_AS_FLOATS
    def cddhfs(self) -> list[ProgramGroup]:
        """Every row split into chirp o scale o fractional-transform factors.

        The fractional order is normalized so that (0, 1; -1, 0) maps to order
        1: alpha_norm = atan2(b, a) / (pi / 2).
        """
        a, b, c, d = self.abcd.T
        rr = a * a + b * b
        rates = np.array((np.arctan2(b, a) / (np.pi / 2.0), np.hypot(a, b), (a * c + b * d) / rr))
        return [ProgramGroup(KINDS["cddhfs"], np.arange(len(self)), rates, None)]

    @_AS_FLOATS
    def cmccm(self, zero_b_variant: ZeroBVariant = ZeroBVariant.EQ30) -> list[ProgramGroup]:
        """Every row split into chirp / chirp-convolution / chirp factors: one
        group for the rows with |b| > ``ZERO_B_TOL`` and one for the others,
        which take the six-factor form ``zero_b_variant``."""
        zero_b_variant = ZeroBVariant(zero_b_variant)
        general = np.abs(self.abcd[:, 1]) > ZERO_B_TOL
        if general.all():
            return [_general_b(np.arange(len(self)), self.abcd.T)]
        rows = np.flatnonzero(general)
        groups = [_general_b(rows, self.abcd[rows].T)] if rows.size else []
        # |b| <= ZERO_B_TOL does not make ad = 1 + bc nonzero: (5, 1e-10, -1e10, 0) is
        # valid, so each form checks the entry it divides by
        rows = np.flatnonzero(~general)
        a, _, c, d = self.abcd[rows].T
        if zero_b_variant is ZeroBVariant.EQ30:
            if (d == 0.0).any():
                raise ValidationError("zero-b factorization eq30 requires d != 0")
            phase, rates = np.exp(-1j * np.pi / 4.0), ((c + 1.0) / d, d, 1.0 / d)
        else:
            if (a == 0.0).any():
                raise ValidationError("zero-b factorization eq31 requires a != 0")
            phase, rates = np.exp(1j * np.pi / 4.0), (-1.0 / a, -a, (c - 1.0) / a)
        groups.append(ProgramGroup(KINDS[zero_b_variant.value], rows, np.array(rates), np.full(rows.size, phase)))
        return groups


def _general_b(rows: np.ndarray, columns: np.ndarray) -> ProgramGroup:
    """The general-b cmccm group of ``rows``, from their (4, R) columns."""
    a, b, _, d = columns
    return ProgramGroup(KINDS["general-b"], rows, np.array(((a - 1.0) / b, -b, (d - 1.0) / b)), None)


def sample_abc(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` rows (a, b, c) uniformly from [-2, 2), redrawing rows with
    |a| < ``MIN_ABS_A``; returns them as one (n, 3) array.

    The accepted rows come in draw order and drawing stops after the n-th,
    so the rows and the final state of ``rng`` equal those of n draws of one
    row each. All n rows are drawn at once; only the shortfall left by small
    |a| is drawn again. The bounds are fixed: :func:`glct.seeding.trial_abc`
    reproduces these draws with them.
    """
    rows = rng.uniform(-2.0, 2.0, size=(n, 3))
    kept = rows[np.abs(rows[:, 0]) >= MIN_ABS_A]
    while kept.shape[0] < n:
        more = rng.uniform(-2.0, 2.0, size=(n - kept.shape[0], 3))
        kept = np.concatenate((kept, more[np.abs(more[:, 0]) >= MIN_ABS_A]))
    return kept


def sample_random_params(rng: np.random.Generator | int) -> LctParams:
    """Draw (a, b, c) uniformly from [-2, 2) and set d = (1 + bc) / a,
    redrawing triples with |a| < ``MIN_ABS_A``. Accepts a seed or a
    generator; pass a generator to draw a reproducible sequence.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return LctParams.from_abc(*sample_abc(rng, 1)[0])
