"""graphcurv benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client issues the commands of a workload pass one after
another through ``graphcurv.cli.run(argv)`` in this process, with stdout
and stderr captured to memory, and repeats passes for about ``--seconds``.
Every command's report is checked by an oracle outside the timed region.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (pass time with
each command at its fastest), ``setup_s`` (median of several
fresh-interpreter set-ups),
``peak_rss_mb`` and ``ok_ratio`` (1 - failed_ratio).  ``--trace 1``
alternates traced and untraced passes and reports the per-layer metrics of
tracing.py.  Human-readable lines start with ``#``; the last line of
stdout is the JSON result.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK_ROOT = BENCH_DIR / "_work"
WORKLOADS = ("curvature_mix", "estimates_sweep", "estimates_dimensional", "large_graph")
MIN_SETUP_SAMPLES = 5
MIN_PASSES = 3  # untraced passes behind wall_s
MIN_TRACED_PASSES = 2  # exact counters are compared between these
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXACT_UNITS = ("count", "bytes")


def _fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args()


# -- one pass ---------------------------------------------------------------------


class Runner:
    """Runs passes of one workload and keeps what the oracles need afterwards.

    A command's stdout is reduced to a digest right after it returns; the
    first report with each digest is written to disk, so that the oracles
    check every distinct report once and held reports do not count in
    peak RSS.
    """

    def __init__(self, cli, commands, out_dir: Path):
        self.cli = cli
        self.commands = commands
        self.out_dir = out_dir
        self.outcomes: dict[tuple[int, int | str, str], int] = {}  # -> times seen
        self.saved: dict[tuple[int, int | str, str], Path] = {}
        self.command_seconds: list[list[float]] = [[] for _ in commands]

    def run_pass(self) -> tuple[float, int]:
        """Run every command once; returns (timed seconds, stdout bytes)."""
        gc.collect()
        total = 0.0
        out_bytes = 0
        for i, command in enumerate(self.commands):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    rc: int | str = self.cli.run(list(command.argv))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    rc = "uncaught " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
                elapsed = time.perf_counter() - start
            total += elapsed
            self.command_seconds[i].append(elapsed)
            data = out.getvalue().encode("utf-8")
            out_bytes += len(data)
            key = (i, rc, hashlib.blake2b(data, digest_size=16).hexdigest())
            self.outcomes[key] = self.outcomes.get(key, 0) + 1
            if key not in self.saved:
                path = self.out_dir / f"report-{len(self.saved)}.json"
                path.write_bytes(data)
                self.saved[key] = path
        return total, out_bytes

    def check(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, failure messages) over every command run so far."""
        attempted = failed = 0
        messages = []
        for key, times in self.outcomes.items():
            i, rc, _ = key
            command = self.commands[i]
            attempted += times
            if rc != 0:
                reason = f"exit code {rc}"
            else:
                try:
                    reason = command.check(json.loads(self.saved[key].read_text("utf-8")))
                except (ValueError, KeyError, TypeError) as exc:
                    reason = f"unreadable report: {exc!r}"
            if reason is not None:
                failed += times
                messages.append(f"{command.label}: {reason} ({times}x)")
        return attempted, failed, messages


def _setup_sample(workload: str, seed: int, out_dir: Path) -> float:
    out_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), workload, str(seed),
         str(out_dir)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        _fail(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


# -- the two kinds of run --------------------------------------------------------


def _end_to_end(args, runner: Runner, work_dir: Path) -> dict[str, tuple[float, str]]:
    def sample_setup() -> float:
        return _setup_sample(args.workload, args.seed, work_dir / f"setup-{len(setup)}")

    # set-up samples alternate with passes, so that both span the run: the
    # host's speed drifts over tens of seconds
    setup: list[float] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        setup.append(sample_setup())
        walls.append(runner.run_pass()[0])
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > args.seconds:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(sample_setup())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the host alternates between a fast mode and one about 1.5x slower, in
    # phases of seconds to a minute; the fastest run of each command tracks
    # the program's cost, where the median pass tracks the share of slow phases
    wall = sum(min(seconds) for seconds in runner.command_seconds)
    q1, med, q3 = statistics.quantiles(walls, n=4)
    print(f"# wall_s {wall:.4f}; pass time median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
          f"over {len(walls)} passes")
    print(f"# set-up samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    for command, seconds in zip(runner.commands, runner.command_seconds):
        print(f"#   {min(seconds):9.4f} s fastest {statistics.median(seconds):9.4f} s median"
              f"  {command.label}")
    return {"wall_s": (wall, "s"), "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB")}


def _per_layer(args, runner: Runner) -> dict[str, tuple[float, str]]:
    import tracing

    tracer = tracing.Tracer()
    traced: list[dict[str, float | None]] = []
    traced_walls: list[float] = []
    plain_walls: list[float] = []
    coverage: list[float] = []
    by_command = None
    start = time.perf_counter()
    while True:
        if len(traced) <= len(plain_walls):
            tracer.reset()
            tracing.install_graphcurv(tracer)
            try:
                wall, out_bytes = runner.run_pass()
            finally:
                tracer.uninstall()
            metrics = tracing.pass_metrics(tracer)
            metrics["cli.output_bytes"] = out_bytes
            traced.append(metrics)
            traced_walls.append(wall)
            coverage.append(sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) / wall)
            by_command = by_command or tracing.per_command(tracer)
        else:
            plain_walls.append(runner.run_pass()[0])
        elapsed = time.perf_counter() - start
        done = len(traced) >= MIN_TRACED_PASSES and plain_walls
        if done and elapsed + statistics.median(traced_walls) > args.seconds:
            break

    units = {**tracing.PER_LAYER_UNITS, "cli.output_bytes": "bytes"}
    result: dict[str, tuple[float, str]] = {}
    absent, mismatched = [], []
    for name, unit in units.items():
        values = [m[name] for m in traced]
        if values[0] is None:
            absent.append(name)
            result[name] = (0.0, unit)
        elif unit in EXACT_UNITS:
            if len(set(values)) > 1:
                mismatched.append(f"{name} {values}")
            result[name] = (values[0], unit)
        else:
            result[name] = (statistics.median(values), unit)
    traced_med, plain_med = statistics.median(traced_walls), statistics.median(plain_walls)
    result["trace.pass_s"] = (traced_med, "s")
    result["trace.overhead_s"] = (traced_med - plain_med, "s")
    result["trace.coverage"] = (statistics.median(coverage), "ratio")
    result["trace.counter_mismatches"] = (len(mismatched), "count")

    print(f"# traced passes {len(traced_walls)}, median {traced_med:.4f} s; "
          f"untraced passes {len(plain_walls)}, median {plain_med:.4f} s")
    print("# layer self time (s, median traced pass): " + ", ".join(
        f"{layer} {result[layer + '.self_s'][0]:.4f}" for layer in tracing.LAYERS))
    for command, names in zip(runner.commands, by_command):
        top = sorted(names.items(), key=lambda kv: -kv[1][1])[:4]
        print(f"# {command.label}: " + ", ".join(f"{n} {s:.4f} s/{c}" for n, (c, s) in top))
    if absent:
        print(f"# absent (call site not found; reported as 0): {', '.join(absent)}")
    for line in mismatched:
        print(f"# WARNING exact counter differs between traced passes: {line}")
        print(f"exact counter differs between traced passes: {line}", file=sys.stderr)
    return result


def main() -> None:
    args = _parse_args()
    if not (SRC / "graphcurv" / "__init__.py").is_file():
        _fail(f"no graphcurv sources under {SRC}; run from the root of a source checkout")
    # BLAS reads its thread count when numpy is first imported
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import graphcurv
    import numpy
    from graphcurv import cli

    if Path(graphcurv.__file__).resolve().parent != SRC / "graphcurv":
        _fail(f"graphcurv imported from {graphcurv.__file__}, not from {SRC}")
    import workloads

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
           "blas_threads": BLAS_THREADS, "python": platform.python_version(),
           "numpy": numpy.__version__, "graphcurv": graphcurv.__version__,
           "machine": platform.machine()}
    print(f"# environment {json.dumps(env)}")

    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        work_dir = Path(tmp)
        inputs, reports = work_dir / "inputs", work_dir / "reports"
        inputs.mkdir()
        reports.mkdir()
        runner = Runner(cli, workloads.prepare(args.workload, args.seed, inputs), reports)
        if args.trace:
            metrics = _per_layer(args, runner)
        else:
            metrics = _end_to_end(args, runner, work_dir)
        attempted, failed, messages = runner.check()
    with contextlib.suppress(OSError):
        WORK_ROOT.rmdir()  # only if no other run is using it

    for message in messages:
        print(f"# FAILED {message}")
    print(f"# failed_ratio {failed / attempted:.6g} ({failed} of {attempted} commands)")
    if not args.trace:
        metrics["ok_ratio"] = (1.0 - failed / attempted, "ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
