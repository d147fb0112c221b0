"""End-to-end benchmark of the relfacts CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload {exact,sampled,verify,parity} \
        --seed N --seconds S --trace {0,1}

One client drives `relfacts.cli.main(argv)` in this process as a closed
loop: each command runs to completion, its report is read back from
`--out` and checked by the oracle, then the next command is sent. The
package is imported from src/ of the checkout the script sits in and
nowhere else. The last line of stdout is a JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics of a traced pass (--trace 1);
the lines before it repeat them for people, with the environment. Full
results and the span log go to .perfbench_out/ at the repository root.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread, as in a plain single-threaded baseline: with the default
# of one thread per core, the dense matmuls of `verify` also wait on
# whichever core a neighbouring process holds. Set before numpy is
# imported; an explicit setting is kept and recorded.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from oracle import OracleError, OutputOracle  # noqa: E402
from tracer import COUNTER_METRICS, SPAN_METRICS, Tracer  # noqa: E402

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)
MIN_BEYOND = 10
STATEVECTOR_BYTES = 512 * 16

END_TO_END = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "commands_per_s": "1/s", "peak_mem_mb": "MB",
}
PER_LAYER = {name: ("count" if kind == "calls" else "ms") for name, kind, _ in SPAN_METRICS}
PER_LAYER.update(COUNTER_METRICS)
PER_LAYER["trace.overhead_pct"] = "%"


class BenchmarkError(Exception):
    """The benchmark cannot run here (for example, no src/relfacts)."""


def import_cli():
    """relfacts.cli from this checkout's src/, never from site-packages."""
    if not (SRC / "relfacts" / "cli.py").is_file():
        raise BenchmarkError(f"no relfacts package under {SRC}")
    sys.path.insert(0, str(SRC))
    import relfacts.cli

    if not Path(relfacts.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"relfacts imported from {relfacts.cli.__file__}, not {SRC}")
    return relfacts.cli


class Session:
    """Runs commands against one oracle and tallies attempts and failures."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.out = workdir / "report.out"
        self.oracle = OutputOracle()
        self.attempted = 0
        self.failures = []

    def execute(self, command) -> tuple:
        """Run and check one command; return (wall seconds, sampled shots)."""
        elapsed, code = self.invoke(command)
        return elapsed, self.record(command, code)

    def invoke(self, command) -> tuple:
        """Run one command in process; return (wall seconds, exit code)."""
        argv = [*command.argv, "--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        with redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crashing command is a failed command
                code = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        return elapsed, code

    def record(self, command, code) -> int:
        self.attempted += 1
        data = self.out.read_bytes() if self.out.exists() else None
        try:
            return self.oracle.check(command, code, data)
        except OracleError as exc:
            self.failures.append(f"{' '.join(command.argv)}: {exc}")
            return 0

    def probe(self, command) -> float:
        """Wall seconds for a fresh interpreter to import and run `command`."""
        self.out.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(SRC), *command.argv,
             "--out", str(self.out)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # A blocking wait, with a timer to kill a hung probe: waiting with a
        # timeout polls the child in steps of up to 50 ms, which would
        # quantise the measurement.
        killer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            proc.wait()
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
        self.record(command, proc.returncode)
        return elapsed


def closed_loop(session: Session, cycle, seconds: float, pauses=()) -> tuple:
    """Send the cycle's commands back to back until `seconds` of command
    time have passed. Each callable in `pauses` runs once, untimed, at
    evenly spaced points of the loop. Returns (latencies, sampled shots,
    busy seconds)."""
    latencies = []
    shots = 0
    busy = 0.0
    due = [(seconds * i / len(pauses), pause) for i, pause in enumerate(pauses)]
    while busy < seconds:
        while due and busy >= due[0][0]:
            due.pop(0)[1]()
        elapsed, drawn = session.execute(cycle[len(latencies) % len(cycle)])
        latencies.append(elapsed)
        shots += drawn
        busy += elapsed
    for _, pause in due:  # a slow last command can overrun the last points
        pause()
    return latencies, shots, busy


def peak_memory(session: Session, cycle) -> int:
    """Largest tracemalloc peak, in bytes, of any one command of the cycle.
    The peak is read before the oracle parses the report. Each command
    starts from a collected heap; otherwise when the cyclic collector runs
    depends on earlier commands, and the peak moves by about 2%."""
    peaks = []
    for command in cycle:
        gc.collect()
        tracemalloc.start()
        try:
            code = session.invoke(command)[1]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        session.record(command, code)
    return max(peaks)


def tail(latencies, percentile: float) -> tuple:
    """(percentile, value, samples beyond) for the workload's percentile,
    stepping down the ladder until at least MIN_BEYOND samples lie beyond
    it; the ladder's last step (the median) when a run is too short."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in (percentile,) + tuple(q for q in PERCENTILE_LADDER if q < percentile):
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= MIN_BEYOND or p == PERCENTILE_LADDER[-1]:
            return p, ordered[rank - 1], n - rank


def _openblas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _cache_bytes() -> dict:
    # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE;
    # Python's os.sysconf_names does not list them.
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return {}
    except (ValueError, OSError):
        return {}
    sizes = {}
    for level, name in ((1, 188), (2, 191), (3, 194)):
        try:
            sizes[f"L{level}{'d' if level == 1 else ''}"] = os.sysconf(name)
        except (ValueError, OSError):
            pass
    return sizes


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cache_bytes": _cache_bytes(),
        "statevector_bytes": STATEVECTOR_BYTES,
    }


def _describe_environment(env: dict) -> str:
    caches = ", ".join(f"{k} {v // 1024} KiB" for k, v in env["cache_bytes"].items())
    l2 = env["cache_bytes"].get("L2")
    fits = "" if l2 is None else (" (fits in L2)" if STATEVECTOR_BYTES <= l2 else " (exceeds L2)")
    return (f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']} "
            f"(affinity {env['affinity_cpus']}), openblas threads {env['openblas_threads']}, "
            f"{caches or 'cache sizes unknown'}; 9-qubit state vector "
            f"{STATEVECTOR_BYTES // 1024} KiB{fits}. Bytes are computed from array "
            "sizes; no bandwidth or roofline figure is reported.")


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload and return its metrics and the details behind them."""
    cli = import_cli()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        workload = workloads.build(name, seed, Path(work))
        session = Session(cli, Path(work))
        cycle = workload.cycle
        session.execute(cycle[0])  # warm-up: the first command, not timed
        # Set-up probes are spread over the timed loop rather than run back
        # to back, so they sample the host's speed over the same window.
        setup = []
        probes = [] if trace else [lambda: setup.append(session.probe(cycle[0]))] * SETUP_REPEATS
        latencies, shots, busy = closed_loop(session, cycle, seconds, probes)
        details = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "environment": environment(), "commands_timed": len(latencies),
            "busy_s": busy, "latencies_ms": [x * 1e3 for x in latencies],
        }
        p50 = statistics.median(latencies)
        if trace:
            tracer = Tracer()
            traced = []
            with tracer.installed():
                for command in cycle * workload.traced_cycles:
                    traced.append(session.execute(command)[0])
            span_log = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
            tracer.write(span_log)
            totals = tracer.layer_totals()
            metrics = {metric: totals[metric] / len(traced) for metric in PER_LAYER
                       if metric != "trace.overhead_pct"}
            metrics["trace.overhead_pct"] = (statistics.median(traced) / p50 - 1.0) * 100.0
            details.update(commands_traced=len(traced), spans=len(tracer.spans),
                           span_log=str(span_log.relative_to(ROOT)),
                           layer_totals=totals)
            units = PER_LAYER
        else:
            percentile, tail_s, beyond = tail(latencies, workload.tail_percentile)
            metrics = {
                "setup_s": statistics.median(setup),
                "latency_p50_ms": p50 * 1e3,
                "latency_tail_ms": tail_s * 1e3,
                "commands_per_s": len(latencies) / busy,
                "peak_mem_mb": peak_memory(session, cycle) / 1e6,
            }
            details.update(
                setup_samples_s=setup, tail_percentile=percentile, tail_samples=len(latencies),
                tail_beyond=beyond,
                shots_per_s=shots / busy if shots else None)
            units = END_TO_END
    details.update(attempted=session.attempted, failed=len(session.failures),
                   failed_ratio=len(session.failures) / session.attempted,
                   failures=session.failures[:20])
    details["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return details


def _human_lines(d: dict) -> list:
    lines = [f"perfbench workload={d['workload']} seed={d['seed']} seconds={d['seconds']} "
             f"trace={d['trace']}",
             "environment: " + _describe_environment(d["environment"])]
    notes = {}
    if not d["trace"]:
        notes["setup_s"] = (f"median of {len(d['setup_samples_s'])} fresh interpreters, "
                            "import plus the first command")
        notes["latency_tail_ms"] = (f"p{d['tail_percentile']:g} of {d['tail_samples']} "
                                    f"commands, {d['tail_beyond']} beyond it")
    else:
        notes["trace.overhead_pct"] = (f"traced p50 of {d['commands_traced']} commands "
                                       "against the untraced p50")
    for name, m in d["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:32s} {m['value']:14.6f} {m['unit']}{note}")
    if not d["trace"]:
        shots = d["shots_per_s"]
        lines.append(f"  {'shots_per_s':32s} " + (
            f"{shots:14.1f} 1/s" if shots else
            "           n/a (no report of this workload gives timing.sampled_shots)"))
    lines.append(f"  {'failed_ratio':32s} {d['failed_ratio']:14.6f}    "
                 f"({d['failed']} of {d['attempted']} commands)")
    lines += [f"  FAILED {f}" for f in d["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    try:
        details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(details, indent=2) + "\n")
    for line in _human_lines(details):
        print(line)
    print(f"details: {result_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": details["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
