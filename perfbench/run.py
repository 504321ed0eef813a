"""End-to-end and per-layer benchmark of the `dnacodes` command line.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0
    for w in stream small-files counting verify; do python3 perfbench/run.py --workload $w; done

Run from the root of a source checkout; the benchmark imports nothing
from it and runs the CLI from `src/` in child processes.  Each workload
(see workloads.py) is a fixed sequence of CLI commands, run one at a
time from this process.  This process and its children are pinned to
one CPU, so at most one CPU is busy.  Every output is checked (gate.py);
a non-zero exit or a failed check counts as a failed operation.

--trace 0 runs passes of the command sequence for --seconds and reports
the end-to-end metrics: set-up time (the median of several set-ups),
the median time of a pass, and the median over passes of the largest
peak RSS of any command.  Times are in reference seconds: CPU seconds
rescaled by the speed of a fixed probe loop that this process runs on
the same CPU while it waits for each child (see Runner).  On a shared
host, other tenants move the CPU speed by up to 1.5x within seconds;
wall time follows that, while reference seconds vary by a few percent.
Every pass's wall, CPU and reference time is printed.  Wall time is
about 1.2 times the CPU time, as the probe takes about a tenth of the
CPU.  --trace 1 runs without the probe and alternates plain passes with
passes that run each command under tracing.py, then makes one
tracemalloc pass over the codec commands, and reports the per-layer
metrics as medians over the traced passes.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gate
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, Command, commands, write_inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = BENCH_DIR / ".work"
SETUP_REPEATS = 11
# At least one pass, even when it outlasts --seconds.
MIN_PASSES = 1
# The speed probe: loop iterations per chunk, and the reference speed in
# iterations per CPU second (about this loop's speed on an idle 2.1 GHz
# Xeon vCPU under CPython 3.11).  Reference seconds are CPU seconds
# times probe speed / reference speed: what the CPU time would have been
# at the reference speed.
PROBE_CHUNK = 20_000
REF_RATE = 15e6
# The probe sleeps this long between chunks (a chunk takes about 1.3 ms),
# so it takes about a tenth of the CPU from the child it times.
PROBE_GAP_S = 0.01
# The whole run must end within 180 s; stop a command that hangs before that.
RUN_LIMIT_S = 170


def _probe_chunk() -> int:
    s = 0
    for i in range(PROBE_CHUNK):
        s += i * i % 7
    return s


@dataclass
class Sample:
    """One child command, as reaped."""
    wall: float
    cpu: float  # the child's user + system CPU seconds
    speed: float  # probe speed over the child's lifetime / REF_RATE; 1.0 unprobed
    rss_mb: float
    code: int

    @property
    def ref_s(self) -> float:
        return self.cpu * self.speed


@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    ref_s: float = 0.0
    # Per command kind ("encode", "decode"): summed reference seconds, and
    # the payload bytes those commands read or restored.
    op_seconds: Counter = field(default_factory=Counter)
    op_bytes: Counter = field(default_factory=Counter)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    spans: list = field(default_factory=list)
    peaks: list = field(default_factory=list)


class Runner:
    """Starts one child at a time and reaps it with its resource usage.

    With probe set, this process runs a chunk of the speed probe every
    PROBE_GAP_S while it waits, on the one CPU it shares with the child
    (main() pins both), so the probe samples the same host speed as the
    child.  The host's speed changes by up to 1.5x within seconds, as
    other tenants come and go; the child's CPU time rescaled by the
    probe's speed (Sample.ref_s) varies far less than its wall time.
    """

    def __init__(self, workload: str, workdir: Path, probe: bool):
        self.workload = workload
        self.workdir = workdir
        self.probe = probe
        self.env = dict(os.environ)
        self.env.pop("DNACODES_OUTDIR", None)
        # Children import from compiled bytecode, as an installed package
        # does; the set-up's import child writes it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get(
            "PYTHONPATH") else src
        self.stderr_path = workdir / "stderr.txt"

    def run(self, argv: list[str]) -> Sample:
        """Run argv to completion."""
        speed = 1.0
        with open(self.stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            try:
                if self.probe:
                    c0, chunks = time.thread_time(), 0
                    while True:
                        _probe_chunk()
                        chunks += 1
                        probe_cpu = time.thread_time() - c0
                        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                        if pid:
                            break
                        time.sleep(PROBE_GAP_S)
                    speed = chunks * PROBE_CHUNK / probe_cpu / REF_RATE
                else:
                    _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(wall, usage.ru_utime + usage.ru_stime, speed, usage.ru_maxrss / 1024,
                      proc.returncode)

    def cli(self, cmd: Command, mode: str | None) -> list[str]:
        if mode is None:
            return [sys.executable, "-m", "dnacodes.cli", *cmd.argv]
        return [sys.executable, str(BENCH_DIR / "tracing.py"), "--mode", mode,
                "--workload", self.workload, "--spans", "spans.json",
                *(["--case", cmd.route.id] if cmd.route else []), "--", *cmd.argv]

    def run_pass(self, cmds: list[Command], mode: str | None = None) -> PassResult:
        """One pass over cmds; mode is None (plain CLI), "time" or "mem" (traced)."""
        result = PassResult()
        for cmd in cmds:
            (self.workdir / cmd.out).unlink(missing_ok=True)
            sample = self.run(self.cli(cmd, mode))
            code = sample.code
            result.wall += sample.wall
            result.cpu += sample.cpu
            result.ref_s += sample.ref_s
            result.peak_rss_mb = max(result.peak_rss_mb, sample.rss_mb)
            if cmd.payload is not None:
                result.op_seconds[cmd.kind] += sample.ref_s
                result.op_bytes[cmd.kind] += (self.workdir / cmd.payload).stat().st_size
            problems = [f"exit code {code}: {self.stderr_path.read_text().strip()[-300:]}"] \
                if code else gate.check_output(cmd, self.workdir)
            result.attempted += 1
            if problems:
                result.failed += 1
                print(f"FAILED {' '.join(cmd.argv)}: {'; '.join(problems[:3])}",
                      file=sys.stderr)
            if mode is not None and not code:
                traced = json.loads((self.workdir / "spans.json").read_text())
                result.spans.append(traced["spans"])
                result.peaks += traced["peaks"]
        return result


def setup(runner: Runner, workload: str, seed: int) -> tuple[float, float]:
    """Write the seeded inputs and import the CLI once in a child.

    Repeated SETUP_REPEATS times; returns the median set-up time in
    reference seconds (this process's CPU time for the inputs, at the
    speed the probe saw during the import, plus the import's) and the
    median wall time of the import.
    """
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        c0 = time.thread_time()
        write_inputs(workload, seed, runner.workdir)
        write_cpu = time.thread_time() - c0
        sample = runner.run([sys.executable, "-c", "import dnacodes.cli"])
        if sample.code:
            raise RuntimeError(f"importing dnacodes.cli failed: "
                               f"{runner.stderr_path.read_text().strip()[-300:]}")
        setups.append(write_cpu * sample.speed + sample.ref_s)
        imports.append(sample.wall)
    return statistics.median(setups), statistics.median(imports)


def src_lines() -> int:
    """Lines in the library's source files (2390 at the first benchmarked commit)."""
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "dnacodes").glob("*.py"))


def _time_left(start: float, passes: int, seconds: float, min_passes: int) -> bool:
    """Whether to start another pass: below min_passes, or if one more is
    expected to end within the time allowed."""
    elapsed = time.perf_counter() - start
    return passes < min_passes or elapsed + elapsed / passes <= seconds


def measure(runner: Runner, cmds: list[Command], seconds: float) -> tuple[dict, list, list]:
    """--trace 0: plain passes for the time allowed.

    Returns the metrics, every pass made, and the plain passes.
    """
    passes = []
    start = time.perf_counter()
    while _time_left(start, len(passes), seconds, MIN_PASSES):
        passes.append(runner.run_pass(cmds))
    return {
        "ref_cpu_s": (statistics.median(p.ref_s for p in passes), "s"),
        "peak_rss_MB": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
    }, passes, passes


def measure_traced(runner: Runner, cmds: list[Command], seconds: float
                   ) -> tuple[dict, list, list, list]:
    """--trace 1: plain and traced passes in turn, then one memory pass.

    Returns the metrics, every pass made, the plain passes and the spans
    of each traced pass.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while _time_left(start, len(traced), seconds, 1):
        plain.append(runner.run_pass(cmds))
        traced.append(runner.run_pass(cmds, "time"))
    # Memory peaks do not depend on the payload, so each codec command runs once.
    seen, mem_cmds = set(), []
    for cmd in cmds:
        if cmd.route is not None and (cmd.kind, cmd.route.id) not in seen:
            seen.add((cmd.kind, cmd.route.id))
            mem_cmds.append(cmd)
    mem = runner.run_pass(mem_cmds, "mem")
    merged = [tracing.merge(p.spans) for p in traced]
    values = tracing.median_metrics([tracing.timed_metrics(records) for records in merged])
    values.update(tracing.memory_metrics(mem.peaks))
    values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                  - statistics.median(p.wall for p in plain))
    units = dict(tracing.per_layer_names())
    spans = [{"pass": i, "records": records} for i, records in enumerate(merged)]
    metrics = {name: (values.get(name, 0.0), unit) for name, unit in units.items()}
    return metrics, [*plain, *traced, mem], plain, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dnacodes" / "cli.py").is_file():
        print(f"error: no dnacodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    def out_of_time(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")

    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(RUN_LIMIT_S)

    workdir = WORK_ROOT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    gate.self_test(workdir / "gate-self-test")
    # One CPU for this process and its children, so the speed probe
    # shares it with the command it times.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = Runner(args.workload, workdir, probe=not args.trace)
    setup_s, import_s = setup(runner, args.workload, args.seed)
    cmds = commands(args.workload, args.seed)

    if args.trace:
        metrics, passes, plain, spans = measure_traced(runner, cmds, args.seconds)
        metrics["cli.import_s"] = (import_s, "s")
        metrics["repo.src_lines"] = (src_lines(), "count")
        trace_file = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "passes": spans}))
    else:
        metrics, passes, plain = measure(runner, cmds, args.seconds)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
    signal.alarm(0)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # Wall time, rates and the failure share are printed for reading; the
    # JSON keeps only steady metrics that are never zero, and `failed`
    # carries the failures.  With the probe running, wall_s is about 1.2
    # times what the commands alone would take.
    readable = dict(metrics)
    readable["wall_s"] = (statistics.median(p.wall for p in plain), "s")
    for op in plain[0].op_seconds:
        readable[f"{op}_MBps"] = (statistics.median(
            p.op_bytes[op] / 1e6 / p.op_seconds[op] for p in plain), "MB/s")
    readable["fail_frac"] = (failed / attempted, "fraction")
    print(f"workload {args.workload}, seed {args.seed}, {attempted} commands in {len(passes)}"
          f" passes; plain passes, wall / CPU / reference s: "
          + ", ".join(f"{p.wall:.3f} / {p.cpu:.3f} / {p.ref_s:.3f}" for p in plain))
    for name, (value, unit) in readable.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    if args.trace and metrics["cli.main_s"][0]:
        shares = sorted(((metrics[f"{layer}.self_s"][0] / metrics["cli.main_s"][0], layer)
                         for layer in tracing.LAYERS), reverse=True)
        print("  self-time share of cli.main_s: "
              + ", ".join(f"{layer} {share:.1%}" for share, layer in shares if share >= 0.005))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
