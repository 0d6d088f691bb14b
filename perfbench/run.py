"""Benchmark for the cubicpoints package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from src/ next to this
directory.  The seed gives a workload's inputs, one pass over them.  With
--trace 0 whole passes run back to back for as long as another one fits in S
seconds (at least one), so every input runs equally often however fast the
code is; the last stdout line is a JSON object with the end-to-end metrics.
With --trace 1 one pass runs untraced and once traced; the last line then
carries the per-layer metrics and the spans go to .perfbench/.  The line
before the last is a report: the environment, and the figures that have no
place in the last line (op count, fail_frac, max_residual, wall-clock
latencies).  Every output is checked against an independent reference, and a
wrong output counts as a failed op.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # for re-checking a claim on a seed not used while writing it
SETUP_REPEATS = 9
IMPORT_REPEATS = 5


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Benchmark for the cubicpoints package.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed; {HELD_OUT_SEED} is held out for re-checking claims")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest inputs, for the self-test")
    p.add_argument("--perturb", action="store_true", help="corrupt every output, for the self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _build(args, workloads):
    import numpy as np

    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    return wl, wl.build(np.random.default_rng(args.seed), args.smoke, workdir)


def _setup_probe(args) -> None:
    """A fresh interpreter that imports the package and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    subprocess.run(cmd + (["--smoke"] if args.smoke else []), check=True, stdout=subprocess.DEVNULL)


def _import_s() -> float:
    """Median time of `import cubicpoints.cli` inside a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import cubicpoints.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def _no_sample() -> None:
    pass


class Tally:
    """Start and end of correct ops, failures, and the worst residual of any checked point."""

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.child_rss_kb = 0
        self.walls: dict[str, list[float]] = {}

    def run(self, wl, inp, i: int, args, op, sample=_no_sample, tracer=None) -> None:
        from workloads import CheckFailed

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op(inp, sample)
            else:
                with tracer.op(i):
                    out = op(inp, sample)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        t1 = time.perf_counter()
        if args.perturb:
            out = wl.perturb(out)
        try:
            self.worst = max(self.worst, wl.check(inp, out))
        except (CheckFailed, ValueError, KeyError, TypeError) as exc:
            self.failed += 1
            print(f"op {i}: wrong output: {exc!r}", file=sys.stderr)
            return
        self.spans.append((t0, t1))
        if "runs" in out:  # cli_session: one entry per subcommand
            self.child_rss_kb = max([self.child_rss_kb] + [r[3] for r in out["runs"].values()])
            for name, r in out["runs"].items():
                self.walls.setdefault(name, []).append(r[2])

    def wall(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.spans)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.worst = max(self.worst, other.worst)

    def report(self) -> dict:
        return {"ops": self.attempted, "fail_frac": self.failed / self.attempted, "max_residual": self.worst}


def _timed(args, wl, inputs) -> tuple[dict, dict, Tally]:
    """Set-up probes, then whole passes over the inputs for args.seconds, on the calibrated clock.

    Each set-up probe is timed between two calibrations, with the timer
    paused while the child runs.
    """
    import clock
    import reference

    tally = Tally()
    probes: list[tuple[float, float]] = []
    timer = wl.op_in_process is None  # ops that wait on children sample the clock themselves
    with clock.CalibratedClock(reference.calibration_unit(), timer) as clk:

        def probe() -> None:
            clk.sample()
            with clk.paused():
                t = time.perf_counter()
                _setup_probe(args)
                probes.append((t, time.perf_counter()))
            clk.sample()

        for _ in range(SETUP_REPEATS):
            probe()
        t0 = time.perf_counter()
        i = passes = 0
        # another pass only if one more of the mean length still ends within the time
        while passes == 0 or (time.perf_counter() - t0) * (passes + 1) / passes <= args.seconds:
            for inp in inputs:
                clk.sample_if_due()
                tally.run(wl, inp, i, args, wl.op, clk.sample_if_due)
                i += 1
            passes += 1
    secs, cal = zip(*(clk.measure(a, b) for a, b in tally.spans)) if tally.spans else ((), ())
    setup_cal = [clk.measure(a, b)[1] for a, b in probes]
    rss_kb = tally.child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (clock.UNIT_S * statistics.median(setup_cal), "s"),
        "ops_per_kcal": (1e3 * len(cal) / sum(cal) if cal else 0.0, "ops/kcal"),
        "op_p50_cal": (statistics.median(cal) if cal else 0.0, "cal"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    report = tally.report()
    report.update(
        passes=passes,
        setup_wall_s=statistics.median(b - a for a, b in probes),
        op_latency_samples=len(secs),
        ops_per_s=len(secs) / sum(secs) if secs else 0.0,
        op_p50_ms=1e3 * statistics.median(secs) if secs else 0.0,
        # the highest percentile with ten samples beyond it
        op_p90_ms=1e3 * statistics.quantiles(secs, n=10)[-1] if len(secs) >= 100 else None,
        op_p90_cal=statistics.quantiles(cal, n=10)[-1] if len(cal) >= 100 else None,
        cal_unit_ms=1e3 * statistics.median(m[2] for m in clk.marks),
        calibrations=len(clk.marks),
    )
    return metrics, report, tally


def _traced(args, wl, inputs) -> tuple[dict, dict, Tally]:
    """One pass untraced, then traced; per-layer metrics from the traced pass."""
    import spans
    import workloads

    op = wl.op_in_process or wl.op
    base = Tally()
    for i, inp in enumerate(inputs):
        base.run(wl, inp, i, args, op)
    tracer = spans.Tracer()
    traced = Tally()
    tracer.install()
    try:
        for i, inp in enumerate(inputs):
            traced.run(wl, inp, i, args, op, tracer=tracer)
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    overhead = traced.wall() / base.wall() - 1.0 if base.spans and traced.spans else 0.0
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    metrics["cli.import_s"] = (_import_s(), "s")
    whole = Tally()
    if wl.op_in_process:  # the subcommands as whole processes, untraced
        for i, inp in enumerate(inputs):
            whole.run(wl, inp, i, args, wl.op)
    for name in workloads.CLI_COMMANDS:
        walls = whole.walls.get(name)
        metrics[f"cli.{name}.wall_ms"] = (1e3 * statistics.median(walls) if walls else 0.0, "ms")
    OUT.mkdir(parents=True, exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_file)
    total = Tally()
    for t in (base, traced, whole):
        total.add(t)
    report = total.report()
    report.update(
        traced_ops=len(inputs),
        steps_per_track=tracer.steps_per_track(),
        absent=tracer.absent,
        spans=len(tracer.spans),
        spans_file=str(spans_file.relative_to(ROOT)),
    )
    return metrics, report, total


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def _environment(args) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": _git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "cubicpoints" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cubicpoints'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # child processes (set-up probes, CLI calls) import the same source
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import cubicpoints

    if SRC not in Path(cubicpoints.__file__).resolve().parents:
        print(f"error: imported cubicpoints from {cubicpoints.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl, inputs = _build(args, workloads)
    if args.setup_only:
        return 0
    metrics, report, tally = (_traced if args.trace else _timed)(args, wl, inputs)
    print(json.dumps({"report": dict(report, environment=_environment(args))}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
