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
operator over sigma), exposed as ``kinds``, ``rates`` and ``phase``.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DET_TOL = 1e-9
ZERO_B_TOL = 1e-9


class ZeroBVariant(enum.Enum):
    """Which six-factor form realizes the b = 0 case.

    EQ30 applies transform, chirp, inverse transform, chirp, transform, chirp
    with phase exp(-i pi/4); EQ31 applies chirp, inverse transform, chirp,
    transform, chirp, inverse transform with phase exp(+i pi/4).
    """

    EQ30 = "eq30"
    EQ31 = "eq31"


class CmCcCmBranch(enum.Enum):
    GENERAL = "general-b"
    ZERO_B_EQ30 = "eq30"
    ZERO_B_EQ31 = "eq31"


#: Ops that take a rate: chirp rate, fractional order, scale factor.
RATED_KINDS = frozenset(("cm", "frac", "scale"))

_GENERAL_B = ("cm", "ft", "cm", "ift", "cm")
#: Op kinds of each factorization, in the order they are applied, keyed by
#: cmccm branch value or "cddhfs".
KINDS = {
    CmCcCmBranch.GENERAL.value: _GENERAL_B,
    CmCcCmBranch.ZERO_B_EQ30.value: _GENERAL_B + ("ft",),
    CmCcCmBranch.ZERO_B_EQ31.value: ("ift",) + _GENERAL_B,
    "cddhfs": ("frac", "scale", "cm"),
}


@dataclass(frozen=True)
class Program:
    """Op kinds in the order they are applied, the rates of the ops in
    ``RATED_KINDS`` in the same order, and a constant phase."""

    kinds: tuple[str, ...]
    rates: tuple[float, ...] = ()
    phase: complex = 1.0


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
            raise ValidationError(
                f"parameters must satisfy ad - bc = 1 within {DET_TOL:g}; "
                f"got ad - bc = {det!r}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def identity(cls) -> "LctParams":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def from_abc(cls, a: float, b: float, c: float) -> "LctParams":
        """Build parameters from (a, b, c) with d = (1 + bc) / a."""
        a, b, c = float(a), float(b), float(c)
        if a == 0.0:
            raise ValidationError("from_abc requires a != 0")
        return cls(a, b, c, (1.0 + b * c) / a)

    @classmethod
    def from_loose(cls, a: float, b: float, c: float, d: float, tol: float = 0.02) -> "LctParams":
        """Accept a rounded parameter set and renormalize d to (1 + bc) / a.

        Useful for parameter values printed to two decimals; rejects sets
        whose determinant is off by more than ``tol``.
        """
        det = float(a) * float(d) - float(b) * float(c)
        if not np.isfinite(det) or abs(det - 1.0) > tol:
            raise ValidationError(
                f"parameters fail ad - bc = 1 beyond the rounding tolerance {tol:g}; "
                f"got ad - bc = {det!r}"
            )
        return cls.from_abc(a, b, c)


def inverse(p: LctParams) -> LctParams:
    """Symplectic inverse: (a, b; c, d) -> (d, -b; -c, a)."""
    return LctParams(p.d, -p.b, -p.c, p.a)


def compose(p1: LctParams, p2: LctParams) -> LctParams:
    """Parameter matrix product, so transforms compose as T_p1 o T_p2."""
    m = p1.matrix @ p2.matrix
    return LctParams(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


@dataclass(frozen=True)
class CddhfsParams:
    """Chirp rate, scale factor, and normalized fractional order."""

    xi: float
    delta: float
    alpha_norm: float

    kinds = KINDS["cddhfs"]
    phase = 1.0

    @property
    def rates(self) -> tuple[float, float, float]:
        return (self.alpha_norm, self.delta, self.xi)


@dataclass(frozen=True)
class CmCcCmParams:
    """Three chirp rates (x1, x2, x3 of D1 V D2 V^T D3) plus a constant phase
    for one cmccm branch."""

    branch: CmCcCmBranch
    chirps: tuple[float, float, float]
    phase: complex

    @property
    def kinds(self) -> tuple[str, ...]:
        return KINDS[self.branch.value]

    @property
    def rates(self) -> tuple[float, float, float]:
        return self.chirps[::-1]  # D3 is applied first


def cddhfs_decompose(p: LctParams) -> CddhfsParams:
    """Split (a, b; c, d) into chirp o scale o fractional-transform factors.

    The fractional order is normalized so that (0, 1; -1, 0) maps to order 1:
    alpha_norm = atan2(b, a) / (pi / 2).
    """
    a, b, c, d = p.astuple()
    rr = a * a + b * b
    return CddhfsParams(
        xi=(a * c + b * d) / rr,
        delta=float(np.hypot(a, b)),
        alpha_norm=float(np.arctan2(b, a) / (np.pi / 2.0)),
    )


def cmccm_decompose(
    p: LctParams,
    zero_b_variant: ZeroBVariant = ZeroBVariant.EQ30,
    b_tol: float = ZERO_B_TOL,
) -> CmCcCmParams:
    """Split (a, b; c, d) into chirp / chirp-convolution / chirp factors."""
    a, b, c, d = p.astuple()
    if abs(b) > b_tol:
        return CmCcCmParams(
            branch=CmCcCmBranch.GENERAL,
            chirps=((d - 1.0) / b, -b, (a - 1.0) / b),
            phase=1.0 + 0.0j,
        )
    # b = 0 forces ad = 1, so a and d are both nonzero
    if zero_b_variant is ZeroBVariant.EQ30:
        if d == 0.0:
            raise ValidationError("zero-b factorization eq30 requires d != 0")
        return CmCcCmParams(
            branch=CmCcCmBranch.ZERO_B_EQ30,
            chirps=(1.0 / d, d, (c + 1.0) / d),
            phase=complex(np.exp(-1j * np.pi / 4.0)),
        )
    if zero_b_variant is ZeroBVariant.EQ31:
        if a == 0.0:
            raise ValidationError("zero-b factorization eq31 requires a != 0")
        return CmCcCmParams(
            branch=CmCcCmBranch.ZERO_B_EQ31,
            chirps=((c - 1.0) / a, -a, -1.0 / a),
            phase=complex(np.exp(1j * np.pi / 4.0)),
        )
    raise ValidationError(f"unknown zero-b variant {zero_b_variant!r}")


def _op_matrix(kind: str, rate: float | None) -> np.ndarray:
    """Parameter matrix of one op; ``ft`` is ``frac(1)`` and ``ift`` ``frac(-1)``."""
    if kind == "ft":
        return np.array([[0.0, 1.0], [-1.0, 0.0]])
    if kind == "ift":
        return np.array([[0.0, -1.0], [1.0, 0.0]])
    if kind == "cm":
        return np.array([[1.0, 0.0], [rate, 1.0]])
    if kind == "scale":
        return np.diag([rate, 1.0 / rate])
    angle = rate * np.pi / 2.0
    return np.array([[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]])


def recompose(program) -> np.ndarray:
    """Multiply a program's op matrices back into (a, b; c, d), the last op
    leftmost. The constant phase has no 2x2 counterpart."""
    rates = iter(program.rates)
    m = np.eye(2)
    for kind in program.kinds:
        m = _op_matrix(kind, next(rates) if kind in RATED_KINDS else None) @ m
    return m


def sample_random_params(
    rng: np.random.Generator | int,
    low: float = -2.0,
    high: float = 2.0,
    min_abs_a: float = 0.05,
) -> LctParams:
    """Draw (a, b, c) uniformly and set d = (1 + bc) / a.

    Triples with |a| < min_abs_a are redrawn to keep |d| bounded. Accepts a
    seed or a generator; pass a generator to draw a reproducible sequence.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    while True:
        a, b, c = rng.uniform(low, high, size=3)
        if abs(a) >= min_abs_a:
            return LctParams.from_abc(float(a), float(b), float(c))
