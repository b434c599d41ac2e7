"""Closed-loop benchmark of the cstar-frames command line.

    python3 bench/run.py --workload spectral --seed 1 --seconds 15 --trace 0

One caller drives ``cstar_frames.cli.main(argv)`` in-process, one call at
a time, cycling through the workload's commands until the calls have taken
``--seconds`` in total.  The package is imported from ``src/`` of the
checkout this file sits in.  Every report, and every file a command
writes, is checked by the independent oracle outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics, in seconds at
a reference host speed (see timing.py).  With ``--trace 1`` it alternates
untraced and traced cycles and reports the per-layer metrics per traced
cycle; the traced reports must equal the untraced ones, and each command
must make exactly the eigensolves its workload lists, or the run exits
with code 3.

Readable lines (every metric with its unit, the per-command medians and
tails, and the environment) come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Results and spans are also written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import oracle
import spans
import timing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREADS_ENV = "CSTAR_FRAMES_THREADS"
SETUPS = 3              # set-ups per untraced run; setup_s is their median
TAIL_BEYOND = 10        # a tail percentile needs at least this many samples above it


END_TO_END_UNITS = {
    "setup_s": "s",
    "cycle_p50_s": "s",
    "calls_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "linalg.eigen_calls": "count",
    "linalg.eigen_s": "s",
    "linalg.eigen_us_per_call": "us",
    "linalg.eigen_m3": "count",
    "frame_io.load_calls": "count",
    "frame_io.load_s": "s",
    "frame_io.load_mb": "MB",
    "frame_io.load_mb_per_s": "MB/s",
    "frame_io.save_calls": "count",
    "frame_io.save_s": "s",
    "frame_io.save_mb": "MB",
    "frame_io.save_mb_per_s": "MB/s",
    "frames.gram_calls": "count",
    "frames.gram_vectors": "count",
    "frames.gram_s": "s",
    "frames.self_s": "s",
    "frames.eigen_calls": "count",
    "module_space.vector_calls": "count",
    "module_space.self_s": "s",
    "decomposition.self_s": "s",
    "decomposition.eigen_calls": "count",
    "constructors.calls": "count",
    "constructors.self_s": "s",
    "weaving.partitions": "count",
    "weaving.enum_s": "s",
    "weaving.enum_us_per_partition": "us",
    "weaving.eigen_calls_per_partition": "count",
    "weaving.sweep_s": "s",
    "cli.self_s": "s",
    "cli.eigen_calls": "count",
    "trace.overhead_ratio": "ratio",
}


def import_cli():
    """Import cstar_frames afresh from the checkout's src/ and return its cli module."""
    init = SRC / "cstar_frames" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a checkout that has src/cstar_frames")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "cstar_frames" or m.startswith("cstar_frames.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("cstar_frames.cli")
    if Path(cli.__file__).resolve().parent != init.parent.resolve():
        raise SystemExit(f"error: imported cstar_frames from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv, timer) -> tuple[int | None, float, float, str, str]:
    """One CLI call: (exit code, raw_s, scaled_s, stdout, stderr).

    cli.main is looked up at call time, so trace wrappers apply.
    """
    out, err = io.StringIO(), io.StringIO()

    def invoke():
        try:
            return cli.main(argv)
        except Exception as exc:  # an unmapped error is a failed call, not a crashed benchmark
            print(f"{type(exc).__name__}: {exc}", file=err)
            return None

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, raw, scaled = timer.measure(invoke)
    return code, raw, scaled, out.getvalue(), err.getvalue()


def checked(step, code, out: str, err: str) -> tuple[dict | None, str | None]:
    """The parsed report and None, or None and why the call failed."""
    if code != 0:
        return None, f"{step.command}: exit code {code}: {err.strip()[-500:]}"
    try:
        report = json.loads(out)
        step.check(report)
    except (oracle.OracleError, ValueError, KeyError, TypeError, IndexError) as exc:
        return None, f"{step.command}: oracle: {type(exc).__name__}: {exc}"
    return report, None


def without_timing(report):
    return None if report is None else {k: v for k, v in report.items() if k != "timing"}


class Phase:
    """Closed-loop cycles over a workload's steps, one call at a time.

    Only the CLI call is inside the timed interval; the oracle runs between calls.
    """

    def __init__(self, cli, steps, timer):
        self.cli, self.steps, self.timer = cli, steps, timer
        self.commands = [step.command for step in steps]
        self.raw: dict[str, list[float]] = {command: [] for command in self.commands}
        self.scaled: dict[str, list[float]] = {command: [] for command in self.commands}
        self.cycles: list[float] = []
        self.reports: list[list] = []
        self.failures: list[str] = []
        self.busy = 0.0

    def cycle(self) -> None:
        reports = []
        cycle = 0.0
        for step in self.steps:
            code, raw, scaled, out, err = call(self.cli, step.argv, self.timer)
            report, failure = checked(step, code, out, err)
            self.raw[step.command].append(raw)
            self.scaled[step.command].append(scaled)
            if failure is not None:
                self.failures.append(failure)
            reports.append(without_timing(report))
            cycle += scaled
            self.busy += raw
        self.cycles.append(cycle)
        self.reports.append(reports)

    def run(self, seconds: float) -> "Phase":
        """Cycle until the calls took `seconds` in total (at least one cycle)."""
        deadline = time.perf_counter() + 2 * seconds + 30
        self.cycle()
        while self.busy < seconds and time.perf_counter() < deadline:
            self.cycle()
        return self

    @property
    def attempted(self) -> int:
        return len(self.cycles) * len(self.commands)

    def partitions(self) -> int:
        """Partitions checked by the weave calls of this phase."""
        if "weave" not in self.commands:
            return 0
        position = self.commands.index("weave")
        return sum(r[position]["partitionsChecked"] for r in self.reports if r[position])


def setup(workload, seed: int, workdir: Path):
    """Import the package, generate the seeded inputs, warm up each command once."""
    cli = import_cli()
    workdir.mkdir()
    steps = workload.prepare(seed, workdir, cli.main)
    failures = []
    for step in steps:    # the commands of a cycle are distinct: one warm-up call each
        code, _, _, out, err = call(cli, step.argv, timing.WallTimer())
        failures.append(checked(step, code, out, err)[1])
    return cli, steps, [f for f in failures if f]


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND samples above it: (percentile, value)."""
    if len(values) <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def environment() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]

    def run(*argv):
        try:
            done = subprocess.run(argv, capture_output=True, text=True, timeout=30, cwd=ROOT)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    toplevel = run("git", "rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel).resolve() == ROOT
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{deps['blas'].get('name')} {deps['blas'].get('version')}",
        "lapack": f"{deps['lapack'].get('name')} {deps['lapack'].get('version')}",
        "nproc": run("nproc"),
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        THREADS_ENV: os.environ.get(THREADS_ENV, "unset"),
        "git_commit": run("git", "rev-parse", "HEAD") if in_repo else None,
    }


def line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<36} {value:<12.6g} {unit:<6} {note}".rstrip()


def end_to_end(phase: Phase, setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "cycle_p50_s": statistics.median(phase.cycles),
        "calls_per_s": phase.attempted / sum(phase.cycles),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_cycles = [sum(c) for c in zip(*phase.raw.values())]
    lines = [
        line("setup_s", metrics["setup_s"], "s",
             f"median of {len(setups)} set-ups; raw {statistics.median(r for r, _ in setups):.6g} s"),
        line("cycle_p50_s", metrics["cycle_p50_s"], "s",
             f"n={len(phase.cycles)}; raw {statistics.median(raw_cycles):.6g} s"),
        line("calls_per_s", metrics["calls_per_s"], "1/s"),
        line("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
    ]
    for command in phase.commands:
        values = phase.scaled[command]
        lines.append(line(f"{command}_p50_s", statistics.median(values), "s",
                          f"n={len(values)}; raw {statistics.median(phase.raw[command]):.6g} s"))
        found = tail(values)
        if found is None:
            lines.append(f"  {command + '_tail_s':<36} {'n/a':<12} {'s':<6} "
                         f"needs more than {TAIL_BEYOND} samples, have {len(values)}")
        else:
            lines.append(line(f"{command}_tail_s", found[1], "s", f"p{found[0]:.1f}, n={len(values)}"))
    if "weave" in phase.commands:
        lines.append(line("partitions_per_s", phase.partitions() / sum(phase.scaled["weave"]), "1/s"))
    lines.append(line("failed_ratio", len(phase.failures) / phase.attempted, "ratio",
                      f"{len(phase.failures)} of {phase.attempted} calls"))
    return metrics, lines


def per_layer(workload, cli, steps, seconds: float, tag: str):
    """Untraced and traced cycles in turn on the plain clock, so that both see
    the same host speed; per-layer figures per traced cycle."""
    plain = Phase(cli, steps, timing.WallTimer())
    traced = Phase(cli, steps, timing.WallTimer())
    recorder = spans.Recorder()
    deadline = time.perf_counter() + 2 * seconds + 30
    while not traced.cycles or (plain.busy + traced.busy < seconds and time.perf_counter() < deadline):
        plain.cycle()
        with recorder.installed():
            traced.cycle()
    recorder.write(OUT / f"spans-{tag}.json")

    seen = spans.eigen_calls_per_command(recorder.spans)
    expected = {command: {count} for command, count in workload.eigen_calls.items()}
    if seen != expected:
        print(f"error: eigensolves per call {seen} differ from the expected {expected}; "
              "a trace binding was missed or the workload changed", file=sys.stderr)
        raise SystemExit(3)
    metrics = spans.layer_metrics(recorder.spans, len(traced.cycles), traced.partitions())
    metrics["trace.overhead_ratio"] = statistics.median(traced.cycles) / statistics.median(plain.cycles)
    lines = [line(name, metrics[name], unit) for name, unit in PER_LAYER_UNITS.items()]
    lines.append(f"  per cycle over {len(traced.cycles)} traced cycles ({len(recorder.spans)} spans); "
                 "times are wall time")
    return metrics, lines, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.environ.pop(THREADS_ENV, None)    # weaving enumerates on one worker
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{tag}-", dir=OUT))
    probe = timing.SpeedProbe()
    failures = []
    setups = []
    try:
        for i in range(SETUPS if args.trace == 0 else 1):
            (cli, steps, warm_failures), raw, scaled = probe.measure(
                lambda: setup(workload, args.seed, workdir / f"setup{i}"))
            setups.append((raw, scaled))
            failures += warm_failures
        if args.trace == 0:
            phases = [Phase(cli, steps, probe).run(args.seconds)]
            metrics, lines = end_to_end(phases[0], setups)
            units = END_TO_END_UNITS
        else:
            metrics, lines, phases = per_layer(workload, cli, steps, args.seconds, tag)
            units = PER_LAYER_UNITS
            if any(r != phases[0].reports[0] for p in phases for r in p.reports):
                failures.append("traced reports differ from the untraced reports")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures += [f for p in phases for f in p.failures]
    env = environment()
    result = {
        "correct": not failures,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(len(p.failures) for p in phases),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    speeds = [timing.REFERENCE_S / s for s in probe.history]
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "result": result, "failures": failures[:20],
        "setup_s": setups,
        "phases": [{"scaled": p.scaled, "raw": p.raw} for p in phases],
        "probe_s": probe.history,
    }, indent=2) + "\n")

    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"(closed loop, 1 caller, {args.seconds:g} s of calls per phase)")
    print("\n".join(lines))
    print(f"  host speed over reference: median {statistics.median(speeds):.3f}, "
          f"range {min(speeds):.3f}-{max(speeds):.3f} over {len(speeds)} probes")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
