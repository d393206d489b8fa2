"""Print one SHA-256 digest per output of a fixed list of glct calls.

Two trees that print the same lines on one build of numpy and its BLAS give
the same outputs there, bit for bit. Byte identity of block rows needs one
BLAS thread, so run it as

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python tests/outputs.py > digests.txt

once per tree and compare the two files with ``diff``. The script calls only
long-standing public names, so it runs unchanged on earlier trees. pytest
does not collect it (its name does not start with ``test_``).
"""
from __future__ import annotations

import hashlib
import itertools
import sys

import numpy as np

from glct import (
    BENCHMARK_SIGNALS,
    GsoKind,
    LctParams,
    ProductContext,
    SignalNd,
    TransformSpec,
    ZeroBVariant,
    apply_glct,
    benchmark_signal,
    cartesian_product,
    compression_study,
    dense_operator,
    inverse,
    make_path,
    make_ring,
    search_glct_params,
    suite_additivity,
    suite_reversibility,
)
from glct.experiments import study_signal
from glct.io import signal_text

VARIANTS = ("cddhfs", "cmccm")
ABCD = (0.6, 0.8, -0.5, 1.0)
ZERO_B_ABCD = (2.0, 0.0, 0.7, 0.5)
#: First-factor sizes on both sides of the executor's first-axis rule: real
#: mode products run in pair form up to 15 vertices and stacked above.
FIRST_AXIS_SIZES = (15, 16)
#: Trials per suite call. 40 and 20 fit in one block on every signal (the
#: block rows of x1..x4 are 123, 48, 164 and 108); 130 crosses a block
#: boundary on each, so a suite runs several chunks.
SUITE_TRIALS = (40, 20, 130)
DENSE_SPECS = [
    TransformSpec("gft"),
    TransformSpec("igft"),
    TransformSpec("gfrft", {"alpha": 0.4}),
    TransformSpec("gcm", {"xi": 0.8}),
    TransformSpec("gscale", {"sigma": 1.7}),
    TransformSpec("glct_cddhfs", {"abcd": ABCD}),
    TransformSpec("glct_cmccm", {"abcd": ABCD}),
    TransformSpec("glct_cmccm", {"abcd": (2.0, 0.0, 0.7, 0.5)}, zero_b_variant="eq30"),
    TransformSpec("glct_cmccm", {"abcd": (2.0, 0.0, 0.7, 0.5)}, zero_b_variant="eq31"),
]


def digest(*parts) -> str:
    """SHA-256 over the parts: an array by its bytes, anything else by its repr."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def outputs():
    """(label, digest) for each output, in a fixed order."""
    for suite, trials, kind, form in itertools.product((suite_additivity, suite_reversibility), SUITE_TRIALS,
                                                       GsoKind, ZeroBVariant):
        for r in suite(BENCHMARK_SIGNALS, trials, 0, VARIANTS, kind, form):
            yield (f"{suite.__name__} trials={trials} gso={kind.value} zero_b={form.value} "
                   f"{r.variant} {r.signal}"), digest(r.kind, r.variant, r.signal, r.seed, r.values, r.params)
    for variant, seed in itertools.product(VARIANTS, (0, 1)):
        reports = compression_study(seed=seed, variant=variant)
        yield f"compression_study {variant} seed={seed}", digest(reports)
    graph, x = study_signal()  # ring(100) x path(15)
    ctx = ProductContext(graph)
    for metric in ("re", "nrms", "cc"):
        yield f"search_glct_params budget=50 {metric}", digest(search_glct_params(x, ctx, 0.5, 50, 0, metric))
    p = LctParams(*ABCD)
    for variant in VARIANTS:
        y = apply_glct(x, p, ctx, variant)
        yield f"apply_glct ring100xpath15 {variant} forward", digest(y.values)
        back = apply_glct(y, inverse(p), ctx, variant, ZeroBVariant.EQ30.inverse_form)
        yield f"apply_glct ring100xpath15 {variant} inverse", digest(back.values)
        if variant == "cmccm":
            yield "signal_text json", digest(signal_text(y, "json"))
            yield "signal_text csv", digest(signal_text(y, "csv"))
    for n1, kind in itertools.product(FIRST_AXIS_SIZES, GsoKind):
        graph = cartesian_product([make_ring(n1), make_path(6)])
        ctx = ProductContext(graph, kind)
        x = SignalNd(graph.shape, np.array([1.0, 1j]) @ np.random.default_rng(n1).normal(size=(2, graph.n)))
        for variant, abcd in itertools.product(VARIANTS, (ABCD, ZERO_B_ABCD)):
            y = apply_glct(x, LctParams(*abcd), ctx, variant)
            yield f"apply_glct ring{n1}xpath6 gso={kind.value} {variant} {abcd}", digest(y.values)
        for variant in VARIANTS:
            reports = compression_study(seed=0, n1=n1, n2=6, variant=variant, gso_kind=kind)
            yield f"compression_study ring{n1}xpath6 gso={kind.value} {variant}", digest(reports)
    x1, _ = benchmark_signal("x1")
    for spec in DENSE_SPECS:
        yield f"dense_operator x1 {spec.op} {spec.zero_b_variant}", digest(dense_operator(spec, x1))


def main() -> int:
    for label, value in outputs():
        sys.stdout.write(f"{value}  {label}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
