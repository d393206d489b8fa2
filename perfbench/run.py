"""glct benchmark: one workload, one run, metrics on the last line as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload nmse_suites --seed 1 --seconds 30 --trace 0

Workloads are listed in ``BENCHMARK.json`` and described in
``perfbench/README.md``. A run measures the peak memory of one pass in a
fresh interpreter, builds the workload's inputs from ``--seed``, then
repeats rounds for ``--seconds`` seconds: a burst of context builds (timed
for ``setup_s``) and one pass, timed step by step. Every pass's outputs are
checked outside the timed region.

``--trace 0`` times untraced passes and reports the end-to-end metrics.
Before the set-up burst and before every step it times a short burst of
reference work that uses no glct code (``calibrate.py``), and divides each
timed set-up build and step by how slow the reference work ran around it,
so that the machine's changing speed cancels out of the metrics.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (medians over traced passes) plus ``trace.overhead_s``.

The package is imported from ``src/`` next to this directory; the run fails
with exit code 2 if it is not there.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set before numpy is imported, here and in every child: BLAS runs
# single-threaded, below nproc, so a run does not contend with itself.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PASSES = {"full": 3, "tiny": 1}
# Set-up is timed in a burst of at least this long before a pass, so that its
# median, like the passes', spans the whole run and not one moment of it. A
# round skips the burst while set-up has taken more than this share of the
# steps' time, so that a long set-up (about 2.5 s a build on large_graph_cli)
# leaves most of a run to the passes; the other workloads stay below it.
SETUP_BURST_S = 0.1
SETUP_SHARE = 0.2
# Reference work (calibrate.py) timed before every step of a pass: short and
# frequent, so that it samples the machine's speed through the whole run. A
# burst lasts at least 0.04 s and a tenth of the step before it, so that a
# long step is not scaled by a few milliseconds of reference work.
CALIBRATION_BURST_S = 0.04
CALIBRATION_SHARE = 0.1
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "peak_mem_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(MIN_PASSES), default="full",
                    help="'tiny' shrinks every workload for the smoke tests")
    ap.add_argument("--probe-memory", action="store_true",
                    help="internal: run one untraced pass and exit (peak_mem_mb probe)")
    return ap.parse_args(argv)


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Threads OpenBLAS reports it will use, or None where that cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "pinned_env": PINNED_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
    }


def peak_mem_mb(args) -> float:
    """Peak RSS of the largest process in one fresh-interpreter pass, in MB.

    Linux carries a parent's peak RSS into the ``ru_maxrss`` of a child it
    starts, so this runs first, while the calling process is still small.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--probe-memory"]
    subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True, timeout=PROBE_TIMEOUT_S)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Run:
    """Timed passes of one workload with their output checks.

    With ``scale`` set, a burst of reference work (``calibrate.py``) runs
    before the set-up burst and before every step of a pass, and once more
    at the end. ``timeline`` keeps every burst's slowness and every timed
    set-up build and step in the order they ran.
    """

    def __init__(self, workload, scale: bool) -> None:
        self.workload = workload
        self.scale = scale
        self.walls: list[float] = []
        self.timeline: list[tuple[str, float]] = []  # ("slowness" | "setup" | "step", value)
        self.last_step_s = 0.0
        self.traced_walls: list[float] = []
        self.layers: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def checked(self, fn, *args):
        try:
            attempted, failed = fn(*args)
        except Exception:  # a crashing check is a failed check, reported with its traceback
            traceback.print_exc()
            attempted, failed = 1, 1
        self.attempted += attempted
        self.failed += failed

    def calibrate(self) -> None:
        from calibrate import burst

        if self.scale:
            seconds = max(CALIBRATION_BURST_S, CALIBRATION_SHARE * self.last_step_s)
            self.timeline.append(("slowness", burst(self.workload.reference, seconds)))

    def setup_burst(self) -> None:
        spent = {"setup": 0.0, "step": 0.0, "slowness": 0.0}
        for kind, value in self.timeline:
            spent[kind] += value
        if spent["setup"] > SETUP_SHARE * spent["step"]:
            return
        self.calibrate()
        started = time.perf_counter()
        while self.timeline[-1][0] != "setup" or time.perf_counter() - started < SETUP_BURST_S:
            t0 = time.perf_counter()
            self.workload.setup()
            self.timeline.append(("setup", time.perf_counter() - t0))

    def untraced_pass(self) -> None:
        from tracer import installed_wrappers

        left = installed_wrappers()
        if left:
            raise RuntimeError(f"untraced pass found tracing wrappers installed: {left}")
        out, wall = [], 0.0
        for step in self.workload.steps():
            self.calibrate()
            t0 = time.perf_counter()
            out += step()
            self.last_step_s = time.perf_counter() - t0
            self.timeline.append(("step", self.last_step_s))
            wall += self.last_step_s
        self.walls.append(wall)
        if self.digest is None:
            self.digest = self.workload.digest(out)
        self.checked(self.workload.check, out)

    def traced_pass(self) -> None:
        from tracer import Tracer, summarize

        tracer = Tracer()
        with tracer:
            t0 = time.perf_counter()
            out = self.workload.run_pass(tracer)
            wall = time.perf_counter() - t0
        self.traced_walls.append(wall)
        self.checked(self.workload.check, out)
        self.layers.append(summarize(tracer.spans, wall))

    def timed(self, scaled: bool) -> dict[str, list[float]]:
        """Set-up and step seconds; when ``scaled``, each divided by the mean
        slowness of the bursts just before and just after it."""
        out: dict[str, list[float]] = {"setup": [], "step": []}
        before, pending = None, []
        for kind, value in self.timeline:
            if kind != "slowness":
                pending.append((kind, value))
                continue
            for k, seconds in pending:
                out[k].append(seconds / ((before + value) / 2) if scaled else seconds)
            before, pending = value, []
        return out

    def end_to_end(self, scaled: bool = True) -> dict[str, float]:
        timed = self.timed(scaled)
        return {"setup_s": statistics.median(timed["setup"]),
                "items_per_s": self.workload.items_per_pass * len(self.walls) / sum(timed["step"])}

    def unscaled(self) -> dict[str, float]:
        raw = self.end_to_end(scaled=False)
        slowness = [v for kind, v in self.timeline if kind == "slowness"]
        return {"wall_s": statistics.median(self.walls), "step_s": statistics.median(self.timed(False)["step"]),
                "setup_s_unscaled": raw["setup_s"],
                "items_per_s_unscaled": raw["items_per_s"], "slowness": statistics.median(slowness)}

    def per_layer(self) -> dict[str, float]:
        names = self.layers[0]
        out = {k: statistics.median(layer[k] for layer in self.layers) for k in names}
        out["trace.overhead_s"] = statistics.median(self.traced_walls) - statistics.median(self.walls)
        return out


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED_ENV)
    if not (SRC / "glct" / "__init__.py").is_file():
        print(f"error: the glct package is not at {SRC / 'glct'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)  # child interpreters import the same package
    # memory is an end-to-end metric, so a traced run skips it
    mem = None if args.trace or args.probe_memory else peak_mem_mb(args)
    import glct.cli  # noqa: F401  (loads every layer module before tracing)
    from tracer import metric_units
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
    try:
        if args.probe_memory:
            workload.run_pass()
            return 0
        env = environment(args)
        print(json.dumps({"env": env}, sort_keys=True))
        run = Run(workload, scale=not args.trace)
        deadline = time.perf_counter() + args.seconds
        while True:
            started = time.perf_counter()
            if args.trace:
                run.untraced_pass()
                run.traced_pass()
            else:
                run.setup_burst()
                run.untraced_pass()
            # stop once less than half a round is left, so a run ends near --seconds
            now = time.perf_counter()
            if len(run.walls) >= MIN_PASSES[args.size] and deadline - now < (now - started) / 2:
                break
        run.calibrate()
        run.checked(workload.check_once)
    finally:
        workload.close()
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()
    named = {} if args.trace else {"peak_mem_mb": mem, **run.end_to_end()}
    unscaled = {} if args.trace else run.unscaled()
    print(json.dumps({"inputs_digest": run.digest, "pass_walls": run.walls, "traced_walls": run.traced_walls,
                      "attempted": run.attempted, "failed": run.failed,
                      "error_rate": run.failed / run.attempted, **named, **unscaled}, sort_keys=True))
    if args.trace:
        values, units = run.per_layer(), metric_units()
    else:
        values, units = named, END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
