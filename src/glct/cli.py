"""Command-line interface.

Commands: ``gen-graph``, ``transform``, ``bench`` (kinds ``additivity``,
``reversibility``, ``complexity``; options follow the kind), ``compress``.
Each takes only the options it uses and is deterministic given its inputs (and
``--seed``, where taken); persisted outputs embed the resolved configuration
as a JSON key, a leading CSV comment, or a ``<out>.run.json`` sidecar for
fixed-schema files.

Exit codes: 0 success, 2 usage or validation error or a failed write,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import experiments as xp
from . import io as gio
from .errors import NumericalError, ValidationError
from .graphs import GRAPH_FAMILIES, GsoKind, cartesian_product, make_family
from .params import LctParams, ZeroBVariant, inverse
from .product import ProductContext, SignalNd

_BENCH_FIELDS = ("kind", "variant", "signal", "seed", "rank", "nmse")
_COMPRESS_FIELDS = ("method", "variant", "alpha", "a", "b", "c", "d", "gamma", "re", "nrms", "cc")
_MAX_RATIOS = 1000  # bound on what one --gammas range may expand to


def _parse_params(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValidationError(f"--params expects a,b,c,d (four comma-separated numbers), got {text!r}")
    try:
        a, b, c, d = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"malformed parameter string {text!r}: {exc}") from exc
    return a, b, c, d


def _parse_gammas(text: str) -> list[float]:
    """Parse 'start:stop:step' into an inclusive list of distinct ratios, each
    rounded to 10 decimals; at most ``_MAX_RATIOS`` of them."""
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ValidationError(f"--gammas expects start:stop:step, got {text!r}") from exc
    for field, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ValidationError(f"--gammas {field} must be a finite number, got {value}")
    if step <= 0:
        raise ValidationError("--gammas step must be positive")
    if not 0.0 < start <= 1.0:
        raise ValidationError(f"--gammas start must lie in (0, 1], got {start}")
    out = []
    for k in range(_MAX_RATIOS + 1):
        g = round(start + k * step, 10)
        if g > stop + 1e-12:
            break
        if out and g == out[-1]:
            raise ValidationError(f"--gammas step {step} repeats a ratio: ratios are rounded to 10 decimals")
        out.append(g)
    else:
        raise ValidationError(f"--gammas range {text!r} spans more than {_MAX_RATIOS} ratios")
    if not out:
        raise ValidationError(f"--gammas range {text!r} is empty")
    return out


def _emit(payload: dict, out: str | None, fmt: str | None, csv_fields, csv_rows, config: dict) -> None:
    """Write ``payload`` as JSON, or ``csv_rows`` as CSV with ``config`` in a
    leading comment, to --out or to stdout; :func:`glct.io.output_format`
    picks the format."""
    if gio.output_format(out, fmt) == "csv":
        text = gio.csv_text(csv_fields, csv_rows, config)
    else:
        text = gio.dumps_json(payload)
    if out is None:
        sys.stdout.write(text)
    else:
        gio.atomic_write_text(out, text)


def _check_outputs(args: argparse.Namespace) -> None:
    """Raise ValidationError, before any work, where an output cannot be
    written: an --out that is a directory, or an output directory
    (--curves-dir, --recon-dir, or the one --out lies in) that is or lies
    under something other than a directory."""
    dirs = [(f"--{opt.replace('_', '-')} {path}", Path(path))
            for opt in ("curves_dir", "recon_dir") if (path := getattr(args, opt, None))]
    out = getattr(args, "out", None)
    if out:
        if Path(out).is_dir():
            raise ValidationError(f"--out {out} is a directory")
        dirs.append((f"--out {out}", Path(out).parent))
    for what, base in dirs:
        while not base.exists() and base != base.parent:
            base = base.parent
        if not base.is_dir():
            raise ValidationError(f"{what}: {base} exists and is not a directory")


def _sidecar(out: str, config: dict, **extra) -> None:
    gio.write_json(str(out) + ".run.json", {"config": config, **extra})


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="glct", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    # option groups shared by several commands, added through parents=
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="output file; stdout when omitted")
    output.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default csv when --out ends in .csv, else json)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="master seed (non-negative integer)")
    gso = argparse.ArgumentParser(add_help=False)
    gso.add_argument("--gso", choices=[k.value for k in GsoKind], default=GsoKind.LAPLACIAN.value,
                     help="graph shift operator")
    zero_b = argparse.ArgumentParser(add_help=False)
    zero_b.add_argument("--zero-b-variant", choices=[v.value for v in ZeroBVariant],
                        default=ZeroBVariant.EQ30.value,
                        help="six-factor form of cmccm for parameter sets within 1e-9 of b = 0, "
                             "and for no other; a draw of b uniform on [-2, 2), as the bench "
                             "suites and compress --search make, lands there with probability "
                             "about 5e-10")

    g = sub.add_parser("gen-graph", help="generate a graph family and write it as JSON")
    g.add_argument("family", choices=GRAPH_FAMILIES)
    g.add_argument("n", type=int, help="vertex count")
    g.add_argument("--head", type=int, help="comet only: number of star leaves")
    g.add_argument("--out", help="output file; stdout when omitted")

    t = sub.add_parser("transform", parents=[output, gso, zero_b],
                       help="apply a linear canonical transform to a signal file")
    t.add_argument("--signal", required=True, help="input signal file (csv or json)")
    t.add_argument("--graph", action="append", required=True,
                   help="factor graph file; repeat once per dimension")
    t.add_argument("--params", required=True, help="a,b,c,d with ad-bc=1")
    t.add_argument("--variant", choices=xp.VARIANTS, default="cmccm")
    t.add_argument("--inverse", action="store_true",
                   help="undo the transform: the inverse parameters, a b = 0 set in the other zero-b form")

    b = sub.add_parser("bench", help="run the additivity / reversibility / complexity studies")
    kinds = b.add_subparsers(dest="kind", required=True)
    for kind in ("additivity", "reversibility"):
        suite = kinds.add_parser(kind, parents=[seed, output, gso, zero_b],
                                 help=f"{kind} NMSE suite on the benchmark signals")
        suite.add_argument("--signal", action="append", choices=xp.BENCHMARK_SIGNALS,
                           help="benchmark signal; repeatable, default all")
        suite.add_argument("--trials", type=int, default=1000)
        suite.add_argument("--variant", choices=xp.VARIANTS + ("both",), default="both")
        suite.add_argument("--curves-dir", help="write one sorted (rank, nmse) CSV per signal and variant")
    k = kinds.add_parser("complexity", parents=[output],
                         help="the paper's real-multiplication count of each variant")
    k.add_argument("--shape", type=int, nargs="+", required=True, metavar="N",
                   help="axis lengths N1 N2 ... of the M-D signal")

    c = sub.add_parser("compress", parents=[seed, output, gso, zero_b],
                       help="transform-domain compression study")
    c.add_argument("--gamma", action="append", type=float, help="compression ratio; repeatable")
    c.add_argument("--gammas", help="ratio range start:stop:step")
    c.add_argument("--alpha", action="append", type=float,
                   help="fractional baseline order; repeatable")
    c.add_argument("--sweep-gfrft", action="store_true",
                   help="sweep the fractional baseline over orders 0..1 in steps of 0.05")
    c.add_argument("--glct-params", action="append",
                   help="a,b,c,d parameter set; repeatable; d is renormalized to ad-bc=1")
    c.add_argument("--search", type=int, metavar="BUDGET",
                   help="random-search BUDGET parameter sets per ratio and report the best")
    c.add_argument("--variant", choices=xp.VARIANTS, default="cmccm")
    c.add_argument("--n1", type=int, default=100, help="ring size of the study graph")
    c.add_argument("--n2", type=int, default=15, help="path size of the study graph")
    c.add_argument("--metric", choices=xp.METRICS, default="nrms",
                   help="objective for --search")
    c.add_argument("--curves-dir", help="write one (gamma, metric) CSV per method and metric")
    c.add_argument("--recon-dir", help="write reconstructed signals, one JSON per method and ratio")
    return ap


def _config_echo(args: argparse.Namespace) -> dict:
    cfg = {}
    for key, val in sorted(vars(args).items()):
        if key in ("out",) or val is None:
            continue
        cfg[key.replace("_", "-")] = val
    return cfg


def _cmd_gen_graph(args) -> int:
    g = make_family(args.family, args.n, args.head)
    config = _config_echo(args)
    if args.out is None:
        sys.stdout.write(gio.dumps_json(gio.graph_to_dict(g)))
    else:
        gio.write_graph(args.out, g)
        _sidecar(args.out, config)
    return 0


def _cmd_transform(args) -> int:
    graph = cartesian_product([gio.read_graph(p) for p in args.graph])
    p, form = LctParams(*_parse_params(args.params)), ZeroBVariant(args.zero_b_variant)
    if args.inverse:
        p, form = inverse(p), form.inverse_form
    ctx = ProductContext(graph, GsoKind(args.gso))
    # read after set-up: held through it, the signal raises the peak resident memory
    sig = gio.read_signal(args.signal, shape=graph.shape)
    out_sig = xp.apply_glct(sig, p, ctx, args.variant, form)
    config = _config_echo(args)
    if args.out is None:
        sys.stdout.write(gio.signal_text(out_sig, args.format or "json", compact=False))
    else:
        gio.write_signal(args.out, out_sig, fmt=args.format)
        # one entry per axis: its size, shift operator and the set-up's residuals
        factors = [{"n": dec.graph.n, "gso": dec.kind.value, "diagnostics": dec.diagnostics}
                   for dec in ctx.factors]
        _sidecar(args.out, config, factors=factors)
    return 0


def _bench_complexity(args, config) -> int:
    counts = {v: xp.complexity_model(args.shape, v) for v in xp.MODEL_PROGRAMS}
    payload = {"config": config, "complexity": counts}
    rows = [{"variant": k, "count": v} for k, v in counts.items()]
    _emit(payload, args.out, args.format, ("variant", "count"), rows, config)
    return 0


def _cmd_bench(args) -> int:
    config = _config_echo(args)
    if args.kind == "complexity":
        return _bench_complexity(args, config)
    signals = tuple(args.signal) if args.signal else xp.BENCHMARK_SIGNALS
    variants = xp.VARIANTS if args.variant == "both" else (args.variant,)
    suite = xp.suite_additivity if args.kind == "additivity" else xp.suite_reversibility
    reports = suite(signals=signals, trials=args.trials, seed=args.seed, variants=variants,
                    gso_kind=GsoKind(args.gso), zero_b_variant=ZeroBVariant(args.zero_b_variant))
    payload = {"config": config, "reports": [r.summary_dict() for r in reports]}
    rows = []
    for r in reports:
        for rank, v in enumerate(r.sorted_values(), start=1):
            rows.append({"kind": r.kind, "variant": r.variant, "signal": r.signal,
                         "seed": r.seed, "rank": rank, "nmse": float(v)})
    _emit(payload, args.out, args.format, _BENCH_FIELDS, rows, config)
    if args.curves_dir:
        for r in reports:
            path = Path(args.curves_dir) / f"{r.kind}_{r.signal}_{r.variant}.csv"
            curve = [{"rank": i + 1, "nmse": float(v)} for i, v in enumerate(r.sorted_values())]
            gio.write_csv(path, ("rank", "nmse"), curve, config)
    return 0


def _compress_reports(args, gammas, ctx, x) -> list:
    """(reconstruction, report) pairs, one per method and ratio, in the order
    of :func:`glct.experiments._study`. Reconstructions are real rows, kept
    only for --recon-dir; a search winner's is the row its report scored."""
    alphas = list(args.alpha or [])
    if args.sweep_gfrft:
        alphas.extend(a for a in xp.DEFAULT_ALPHA_GRID if a not in alphas)
    param_sets = [LctParams.from_loose(*_parse_params(t)) for t in (args.glct_params or [])]
    if not alphas and not param_sets and args.search is None:
        alphas = [1.0]  # plain-transform baseline
    results = []
    for recon, reports in xp._study(x, ctx, gammas, alphas, param_sets, args.variant, args.zero_b_variant,
                                    args.seed, args.search, args.metric):
        # a method's reconstructions live in a workspace that the next method overwrites
        recon = recon.copy() if args.recon_dir else [None] * len(reports)
        results.extend(zip(recon, reports))
    return results


def _method_label(rep) -> str:
    if rep.method == "gfrft":
        return f"gfrft_alpha{gio.fmt_num(rep.alpha)}"
    abcd = "_".join(gio.fmt_num(v) for v in rep.params)
    return f"glct_{abcd}"


def _cmd_compress(args) -> int:
    gammas = list(args.gamma or [])
    if args.gammas:
        gammas.extend(_parse_gammas(args.gammas))
    if not gammas:
        gammas = list(xp.DEFAULT_GAMMAS)
    graph, x = xp.study_signal(args.n1, args.n2, args.seed)
    ctx = ProductContext(graph, GsoKind(args.gso))
    results = _compress_reports(args, gammas, ctx, x)
    reports = [rep for _, rep in results]
    config = _config_echo(args)
    rows = [r.row() for r in reports]
    payload = {"config": config, "rows": rows}
    _emit(payload, args.out, args.format, _COMPRESS_FIELDS, rows, config)
    if args.curves_dir:
        by_label: dict[str, list] = {}
        for rep in reports:
            by_label.setdefault(_method_label(rep), []).append(rep)
        for label, reps in by_label.items():
            for metric in xp.METRICS:
                path = Path(args.curves_dir) / f"{label}_{metric}.csv"
                curve = [{"gamma": r.gamma, metric: getattr(r, metric)}
                         for r in sorted(reps, key=lambda r: r.gamma)]
                gio.write_csv(path, ("gamma", metric), curve, config)
    if args.recon_dir:
        for recon, rep in results:
            path = Path(args.recon_dir) / f"{_method_label(rep)}_gamma{gio.fmt_num(rep.gamma)}.json"
            gio.write_signal(path, SignalNd(x.shape, recon), fmt="json")
    return 0


_COMMANDS = {
    "gen-graph": _cmd_gen_graph,
    "transform": _cmd_transform,
    "bench": _cmd_bench,
    "compress": _cmd_compress,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValidationError("--seed must be non-negative")
        _check_outputs(args)
        return _COMMANDS[args.command](args)
    except (ValidationError, OSError) as exc:  # OSError: an output could not be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
