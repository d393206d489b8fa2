import numpy as np
import pytest

from glct import (
    LctParams,
    ProductContext,
    SignalNd,
    ValidationError,
    ZeroBVariant,
    apply_glct,
    cartesian_product,
    make_path,
    make_ring,
)
from glct.experiments import _benchmark_setup
from glct.graphs import GsoKind
from glct.params import RATED_KINDS
from glct.product import program_block
from glct.spectral import _CLUSTER_GAP, _SIGN_TOL, _SNAP_TOL, _runs, frac_diag_power, principal_angle


def frac_operator(p, mu, t):
    """Fractional power P diag(mu**t) P^H of a unitary eigendecomposition with
    eigenvectors ``p`` and eigenvalues ``mu``, with mu**t from
    ``frac_diag_power``: the dense matrix the transforms' fractional op stands for."""
    return (p * frac_diag_power(mu, t)) @ p.conj().T


def run_spec(x, spec, ctx):
    """The values of ``x`` through the program of ``spec`` (a TransformSpec),
    run by the block executor as a block of one row."""
    return program_block(x.values[None], [spec.program()], ctx)[0]


def _op_matrix(kind, rate):
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


def recompose(group):
    """Multiply the op matrices of a one-row ProgramGroup, which checked its
    kinds and rates when it was made, back into (a, b; c, d), the last op
    leftmost. The constant phase has no 2x2 counterpart."""
    if len(group.rows) != 1:
        raise ValidationError(f"recompose takes a program group of one row, got {len(group.rows)} rows")
    rates = iter(group.rates[:, 0].tolist())
    m = np.eye(2)
    for kind in group.kinds:
        m = _op_matrix(kind, next(rates) if kind in RATED_KINDS else None) @ m
    return m


def compose(p1, p2):
    """Parameter matrix product p1 p2 of two LctParams, one 2x2 matmul."""
    return LctParams(*(p1.matrix @ p2.matrix).ravel())


def nmse_additivity_scalar(x, p1, p2, ctx, variant="cmccm", zero_b_variant=ZeroBVariant.EQ30):
    """Additivity NMSE of one parameter pair as two one-signal cascades:
    ||T_{p1 p2} x - T_{p1} T_{p2} x||^2 / ||T_{p1 p2} x||^2."""
    one = apply_glct(x, compose(p1, p2), ctx, variant, zero_b_variant)
    den = float(np.sum(np.abs(one.values) ** 2))
    if den == 0.0:
        raise ValidationError("degenerate signal: the reference transform is identically zero")
    two = apply_glct(apply_glct(x, p2, ctx, variant, zero_b_variant), p1, ctx, variant, zero_b_variant)
    num = float(np.sum(np.abs(one.values - two.values) ** 2))
    return num / den


# The compression metrics as three functions, each computing x - xc and the
# signal's constants on its own: the form the one scoring pass
# (experiments._score_rows) replaced, kept as its bit-for-bit reference.


def relative_error_rows(x, xc):
    """Relative error of every row of ``xc`` (T, P) against ``x`` (P,)."""
    den = np.abs(x).sum()
    if den == 0.0:
        raise ValidationError("relative error undefined for an all-zero signal")
    d = np.subtract(x, xc)
    return np.abs(d, out=d).sum(axis=1) / den


def normalized_rms_rows(x, xc):
    """Normalized RMS of every row of ``xc`` (T, P) against ``x`` (P,)."""
    dx = x - x.mean()
    den = np.sqrt((dx * dx).sum())
    if den == 0.0:
        raise ValidationError("normalized RMS undefined for a constant signal")
    d = np.subtract(x, xc)
    return np.sqrt(np.multiply(d, d, out=d).sum(axis=1)) / den


def correlation_rows(x, xc):
    """Pearson correlation of every row of ``xc`` (T, P) with ``x`` (P,)."""
    dx = x - x.mean()
    dc = xc - xc.mean(axis=1, keepdims=True)
    products = dc * dc
    den = np.sqrt((dx * dx).sum()) * np.sqrt(products.sum(axis=1))
    if (den == 0.0).any():
        raise ValidationError("correlation undefined for a constant signal")
    return np.multiply(dx, dc, out=products).sum(axis=1) / den


REFERENCE_METRICS = (relative_error_rows, normalized_rms_rows, correlation_rows)


# A factor's set-up written plainly, with a fresh temporary for each step and
# each residual and the explicit |F^T F - I| check: the reference that
# decompose_graph, which works in place and derives that check, matches to the bit.


def reference_setup(graph, kind=GsoKind.LAPLACIAN):
    """The shift operator Z, the eigenbasis V and values, the values stage's
    q, and the diagnostics, each computed with its reference expression."""
    a = graph.adjacency()
    z = a if GsoKind(kind) is GsoKind.ADJACENCY else np.diag(a.sum(axis=1)) - a
    n = z.shape[0]
    values, v = np.linalg.eigh((z + z.T) / 2.0)
    mask = np.abs(v) > _SIGN_TOL
    flip = mask.any(axis=0) & (v[mask.argmax(axis=0), np.arange(n)] < 0)
    v = v.copy()
    v[:, flip] = -v[:, flip]
    f = v.T
    h, q = np.linalg.eigh((f + f.T) / 2.0)
    g = q.T @ f @ q
    starts, sizes = _runs(h[1:] - h[:-1] > _CLUSTER_GAP)
    mu, solved = np.diagonal(g).astype(complex), []
    for m in sorted(set(sizes.tolist()) - {1}):
        idx = starts[sizes == m][:, None] + np.arange(m)
        blocks = g[idx[:, :, None], idx[:, None, :]]
        _, w = np.linalg.eigh((blocks - blocks.transpose(0, 2, 1)) / 2j)
        mu[idx] = (w.conj() * (blocks @ w)).sum(axis=1)
        solved.append((idx, w, blocks))
    mu = mu / np.abs(mu)
    re, im = mu.real.copy(), mu.imag.copy()
    im[np.abs(im) < _SNAP_TOL] = 0.0
    re[np.abs(re) < _SNAP_TOL] = 0.0
    mu = re + 1j * im
    mu = mu / np.abs(mu)
    single = starts[sizes == 1]
    unitarity, recon = [0.0], [np.abs(np.diagonal(g)[single] - mu[single]).max(initial=0.0)]
    for idx, w, blocks in solved:
        wh = w.conj().transpose(0, 2, 1)
        unitarity.append(np.abs(wh @ w - np.eye(idx.shape[1])).max())
        recon.append(np.abs(blocks - (w * mu[idx][:, None, :]) @ wh).max())
    labels = np.repeat(np.arange(sizes.size), sizes)
    angles = np.sort(principal_angle(mu))
    neg, pos = angles[angles < 0], angles[angles > 0]
    mirrored = neg.size if (-neg[::-1]).tobytes() == pos[:neg.size].tobytes() else 0
    diagnostics = {
        "sym_orthonormality": float(np.abs(v.T @ v - np.eye(n)).max()),
        "sym_reconstruction": float(np.abs(z - (v * values) @ v.T).max()),
        "q_orthonormality": float(np.abs(q.T @ q - np.eye(n)).max()),
        "off_cluster": float(np.abs(g[labels[:, None] != labels]).max(initial=0.0)),
        "cluster_unitarity": float(max(unitarity)),
        "cluster_reconstruction": float(max(recon)),
        "unimodularity": float(np.abs(np.abs(mu) - 1.0).max()),
        "clusters": int(sizes.size),
        "max_cluster": int(sizes.max()),
        "mirrored_pairs": mirrored,
    }
    return {"z": z, "vectors": v, "values": values, "q": q, "mu": mu, "diagnostics": diagnostics,
            "f_orthogonality": float(np.abs(f.T @ f - np.eye(n)).max())}


@pytest.fixture
def fresh_suite_setup():
    """Empty the suites' per-process set-up cache before and after the test,
    so a test that patches set-up code sees every build and leaves none
    behind that was built under its patch."""
    _benchmark_setup.cache_clear()
    yield _benchmark_setup
    _benchmark_setup.cache_clear()


@pytest.fixture(scope="session")
def ctx_ring4_path3():
    return ProductContext(cartesian_product([make_ring(4), make_path(3)]))


@pytest.fixture(scope="session")
def ctx_3d():
    return ProductContext(cartesian_product([make_path(2), make_path(3), make_ring(4)]))


@pytest.fixture
def rand_signal():
    def make(ctx, seed=0, complex_valued=True):
        rng = np.random.default_rng(seed)
        n = ctx.graph.n
        values = rng.normal(size=n)
        if complex_valued:
            values = values + 1j * rng.normal(size=n)
        return SignalNd(ctx.shape, values)

    return make
