"""Spans around glct's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the layer modules with a
timing wrapper at every name it is bound to in a loaded ``glct`` module (so
``experiments.glct_cmccm_nd`` is wrapped as well as
``product.glct_cmccm_nd``), and ``ProductContext.__init__`` on its class.
``Tracer.remove`` puts the originals back. Nothing under ``src/`` changes.

A span is ``[id, parent, name, start, end, info]``. ``id`` is its index in
the tracer's list and ``parent`` the id of the innermost span open when it
started. ``info`` holds counts taken from the arguments and result of a few
functions (see ``_INFO`` and ``_op_info``), read after the span has ended so
they cost the span nothing.
"""
from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
import types

import numpy as np

LAYERS = ("graphs", "spectral", "kernels", "params", "product", "experiments", "io", "cli")

#: Functions reported as per-layer metrics: ``<name>.calls``, ``.s``, ``.self_s``.
REPORTED = (
    "graphs.gso",
    "kernels.decompose_graph",
    "spectral.eig_sym",
    "spectral.eig_unitary",
    "spectral.frac_diag_power",
    "spectral.frac_operator",
    "params.cmccm_decompose",
    "params.cddhfs_decompose",
    "product.ProductContext",
    "product.gcm_nd",
    "product.gft_nd",
    "product.igft_nd",
    "product.gscale_nd",
    "product.gfrft_nd",
    "product.glct_cmccm_nd",
    "product.glct_cddhfs_nd",
    "experiments.suite_reversibility",
    "experiments.suite_additivity",
    "experiments.compression_study",
    "experiments.compress",
    "experiments.compress_gfrft",
    "experiments.search_glct_params",
    "io.read_graph",
    "io.read_signal",
    "io.write_signal",
    "cli.main",
)

#: Computed per-layer counts, with their units.
DERIVED_UNITS = {
    "spectral.eig_unitary.clusters": "count",
    "spectral.eig_unitary.max_cluster": "count",
    "product.mults": "count",
    "product.bytes": "B",
    "product.mults_per_s": "1/s",
    "io.bytes_written": "B",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_share": "share",
}

# product op -> (TransformSpec op, its scalar argument, the TransformSpec params key)
_PRODUCT_OPS = {
    "product.gft_nd": ("gft", None, None),
    "product.igft_nd": ("igft", None, None),
    "product.gfrft_nd": ("gfrft", "alpha_norm", "alpha"),
    "product.gcm_nd": ("gcm", "xi", "xi"),
    "product.gscale_nd": ("gscale", "sigma", "sigma"),
    "product.glct_cddhfs_nd": ("glct_cddhfs", "p", "abcd"),
    "product.glct_cmccm_nd": ("glct_cmccm", "p", "abcd"),
}
CLUSTER_GAP = 1e-9  # eigenvalues closer than this share a degenerate eigenspace


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name in REPORTED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


def _glct_modules() -> list[types.ModuleType]:
    return [m for n, m in sorted(sys.modules.items()) if n == "glct" or n.startswith("glct.")]


def public_functions() -> dict[int, tuple[object, str]]:
    """``id(fn) -> (fn, "<layer>.<name>")`` for each public layer function."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"glct.{layer}"]
        for attr, val in vars(mod).items():
            if (
                not attr.startswith("_")
                and isinstance(val, types.FunctionType)
                and val.__module__ == mod.__name__
            ):
                found[id(val)] = (val, f"{layer}.{attr}")
    return found


def installed_wrappers() -> list[str]:
    """Names of tracing wrappers currently bound in glct; empty when clean."""
    from glct.product import ProductContext

    names = [
        f"{m.__name__}.{attr}"
        for m in _glct_modules()
        for attr, val in vars(m).items()
        if hasattr(val, "_perfbench_span")
    ]
    if hasattr(ProductContext.__init__, "_perfbench_span"):
        names.append("glct.product.ProductContext.__init__")
    return names


def _eig_info(args, kwargs, result) -> dict:
    # eig_unitary returns its eigenvalues sorted by argument, so equal ones are adjacent
    breaks = np.flatnonzero(np.abs(np.diff(result.values)) > CLUSTER_GAP)
    sizes = np.diff(np.concatenate(([0], breaks + 1, [result.values.size])))
    return {"clusters": int(sizes.size), "max_cluster": int(sizes.max())}


def _write_info(args, kwargs, result) -> dict:
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes_written": len(text.encode())}


_INFO = {"spectral.eig_unitary": _eig_info, "io.atomic_write_text": _write_info}


class Tracer:
    """Records spans in memory while installed; one tracer per traced pass.

    Times come from ``time.monotonic``, one clock for every process, so the
    spans a CLI child records line up with its parent's.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from glct.product import ProductContext

        if self._patches or installed_wrappers():
            raise RuntimeError("tracing wrappers are already installed")
        wrappers = {}
        for key, (fn, name) in public_functions().items():
            wrappers[key] = self._wrap(fn, name)
        for mod in _glct_modules():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and val is wrappers[id(val)].__wrapped__:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        init = ProductContext.__init__
        self._patches.append((ProductContext, "__init__", init))
        ProductContext.__init__ = self._wrap(init, "product.ProductContext")

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        left = installed_wrappers()
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {left}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.monotonic
        info_of = _INFO.get(name)
        op = _PRODUCT_OPS.get(name)
        signature = inspect.signature(fn) if op else None

        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if info_of is not None:
                span[5] = info_of(args, kwargs, result)
            elif op is not None and (span[1] is None or spans[span[1]][2] not in _PRODUCT_OPS):
                span[5] = _op_info(op, signature.bind(*args, **kwargs).arguments, result)
            return result

        functools.update_wrapper(wrapper, fn)
        wrapper._perfbench_span = name
        return wrapper

    def open_span(self, name: str) -> list:
        """Start a span the benchmark itself owns (not a glct function)."""
        span = [len(self.spans), self._stack[-1] if self._stack else None, name, time.monotonic(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close_span(self, span: list) -> None:
        span[4] = time.monotonic()
        self._stack.pop()

    def adopt(self, child_spans: list[list], parent: list) -> None:
        """Append spans recorded by a child process under ``parent``."""
        offset = len(self.spans)
        for sid, par, name, start, end, info in child_spans:
            self.spans.append([sid + offset, parent[0] if par is None else par + offset, name, start, end, info])


def _op_info(op: tuple, bound: dict, result) -> dict:
    """Inputs to ``mult_count`` and bytes moved for one top-level product op."""
    spec_op, arg, key = op
    x = next(iter(bound.values()))
    params = {}
    if key == "abcd":
        params[key] = list(bound[arg].astuple())
    elif key is not None:
        params[key] = float(bound[arg])
    zbv = bound.get("zero_b_variant")
    return {
        "op": spec_op,
        "params": params,
        "zero_b_variant": "eq30" if zbv is None else zbv.value,
        "shape": list(x.shape),
        "bytes": x.values.nbytes + result.values.nbytes,
    }


def _mults(info: dict, cache: dict) -> int:
    from glct.product import TransformSpec, mult_count

    key = json.dumps([info["op"], info["params"], info["zero_b_variant"], info["shape"]])
    if key not in cache:
        spec = TransformSpec(info["op"], info["params"], zero_b_variant=info["zero_b_variant"])
        cache[key] = mult_count(spec, info["shape"])
    return cache[key]


def summarize(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (call with the wrappers removed).

    ``.s`` is inclusive time of the outermost span of each name, so recursion
    is not counted twice; ``.self_s`` subtracts the time of direct children.
    Spans whose name starts with ``bench.`` belong to the benchmark and only
    group child-process spans; ``trace.uncovered_share`` is the share of the
    pass that no glct span covers.
    """
    mult_cache: dict[str, int] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[4] - s[3])
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    covered = 0.0
    mults = nbytes = written = clusters = max_cluster = 0
    op_time = 0.0
    startups = []
    for s in spans:
        sid, parent, name, start, end, info = s
        if name.startswith("bench."):
            continue
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(sid, 0.0)
        ancestors = []
        p = parent
        while p is not None:
            ancestors.append(spans[p])
            p = spans[p][1]
        if not any(a[2] == name for a in ancestors):
            incl[name] = incl.get(name, 0.0) + dur
        if all(a[2].startswith("bench.") for a in ancestors):
            covered += dur
            if ancestors and name == "cli.main":
                startups.append(start - ancestors[0][3])
        if info:
            if "op" in info:
                mults += _mults(info, mult_cache)
                nbytes += info["bytes"]
                op_time += dur
            clusters += info.get("clusters", 0)
            max_cluster = max(max_cluster, info.get("max_cluster", 0))
            written += info.get("bytes_written", 0)
    out: dict[str, float] = {}
    for name in REPORTED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = incl.get(name, 0.0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out.update({
        "spectral.eig_unitary.clusters": clusters,
        "spectral.eig_unitary.max_cluster": max_cluster,
        "product.mults": mults,
        "product.bytes": nbytes,
        "product.mults_per_s": mults / op_time if op_time > 0 else 0.0,
        "io.bytes_written": written,
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        "trace.uncovered_share": max(0.0, 1.0 - covered / wall_s),
    })
    return out
