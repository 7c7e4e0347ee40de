"""agdeform benchmark: time to a verdict on three CLI workloads.

Usage (from the repository root):

  python3 perfbench/run.py --workload verify-n4 --seed 1 --seconds 35 --trace 0
  python3 perfbench/run.py --workload all        # every workload, one table

Each workload is one `agdeform` CLI command, run as a child process
(`python -m agdeform.cli ... --format json --timings` with src/ on the path),
one at a time, in a closed loop: the next child starts when the previous
one exits.  The run launches children until the next one would end after
--seconds; it always runs at least one.

--trace 0 reports the end-to-end metrics as medians over the children:
  wall_s       spawn to exit of the child, the time a user waits for a verdict,
               in seconds of the reference host (see below)
  setup_s      wall_s minus the summed elapsedMs of the reports: interpreter
               start, import, per-n builds outside any check, and output,
               likewise in seconds of the reference host
  peak_rss_mb  the child's peak resident set (ru_maxrss from wait4)

On a shared host the CPU's speed jumps between states that differ by up to
1.6x and last a few seconds, and the mix drifts over minutes, so raw wall
times of one command spread by 25% between runs.  The benchmark therefore
pins itself and its child to one CPU and, while the child runs, wakes every
PROBE_EVERY_S to time a fixed piece of Fraction arithmetic in CPU time.  The
mean of PROBE_REF_S / probe time is the host's speed relative to a reference
host on which one probe takes PROBE_REF_S; a child's times are multiplied by
it.  The raw wall times are kept in the run record.

--trace 1 runs the command once untraced and once under perfbench/tracer.py
and reports the per-layer metrics; the two runs' verdicts must agree.
tracer.TARGETS names each traced function and the end-to-end metric it
should move.

Every child's output is checked: each expected check id present and
passing, an exit code that agrees with the reports, and on the sweep every
point's verdicts.  A check that is missing, failing or unparseable counts
in `failed`.  The last line of stdout is the JSON result; the exit code is
1 if any output was wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import metrics
from workloads import WORKLOADS, Judged, Workload, density_id, judge, verdicts

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0
PROBE_EVERY_S = 0.025
PROBE_REF_S = 0.0006


@dataclass(frozen=True)
class Child:
    raw_wall_s: float
    speed: float
    rss_mb: float
    judged: Judged

    @property
    def wall_s(self) -> float:
        return self.raw_wall_s * self.speed

    @property
    def setup_s(self) -> float:
        return metrics.setup_seconds(self.raw_wall_s, self.judged.payload) * self.speed


def probe() -> float:
    """CPU seconds this thread takes for a fixed piece of Fraction arithmetic."""
    start = time.thread_time()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i * i + 1)
    return time.thread_time() - start


def pin_to_one_cpu() -> int:
    """Keep the benchmark and its children on one CPU, so probes see the child's CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: Workload, argv: list[str], deadline: float) -> Child:
    """Run one child to completion, probing the host's speed, and judge its output.

    Output goes to unnamed files in the checkout so a large report cannot
    block on a pipe.  The child's pidfd wakes the loop the moment it exits,
    so probes do not delay the end of the timing; the child is reaped with
    wait4 to read its rusage, and killed if it outlives the run's deadline.
    """
    probes = [probe()]
    with tempfile.TemporaryFile(dir=ROOT) as out, tempfile.TemporaryFile(dir=ROOT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.poll()
            exited.register(pidfd, select.POLLIN)
            while not exited.poll(PROBE_EVERY_S * 1000):
                if time.monotonic() > deadline:
                    proc.kill()
                probes.append(probe())
            wall_s = time.perf_counter() - start
        except BaseException:
            proc.kill()
            raise
        finally:
            os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", errors="replace")
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode("utf-8", errors="replace")[-2000:])
    return Child(wall_s, metrics.relative_speed(probes, PROBE_REF_S), usage.ru_maxrss / 1024,
                 judge(workload, proc.returncode, stdout))


def _cli_argv(workload: Workload, seed: int) -> list[str]:
    return [sys.executable, "-m", "agdeform.cli", *workload.cli_args(seed)]


def run_untraced(workload: Workload, seed: int, seconds: int, deadline: float) -> list[Child]:
    children: list[Child] = []
    start = time.perf_counter()
    while True:
        children.append(spawn(workload, _cli_argv(workload, seed), deadline))
        elapsed = time.perf_counter() - start
        if elapsed * (len(children) + 1) / len(children) > seconds:
            return children


def run_traced(workload: Workload, seed: int, deadline: float) -> tuple[Child, Child, dict]:
    plain = spawn(workload, _cli_argv(workload, seed), deadline)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        trace_out = Path(tmp) / "trace.json"
        argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_out), "--",
                *workload.cli_args(seed)]
        traced = spawn(workload, argv, deadline)
        snapshot = json.loads(trace_out.read_text()) if trace_out.exists() else {}
    return plain, traced, snapshot


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def run_record(args: argparse.Namespace) -> dict:
    """Where and on what a run was made; the load average is read before it starts."""
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(workload: Workload, seed: int, seconds: int, trace: bool) -> tuple[dict, list[Child]]:
    """One run of one workload: the result the last line carries, and its children."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        plain, traced, snapshot = run_traced(workload, seed, deadline)
        children = [plain, traced]
        agree = bool(snapshot) and verdicts(plain.judged.payload) == verdicts(traced.judged.payload)
        values = metrics.layer_metrics(
            snapshot, traced.raw_wall_s, traced.wall_s - plain.wall_s,
            metrics.sweep_points_per_s(plain.judged.payload, density_id(workload)))
        units = {name: unit for name, unit, _ in metrics.per_layer_spec()}
    else:
        children = run_untraced(workload, seed, seconds, deadline)
        agree = True
        values = {
            "wall_s": statistics.median(c.wall_s for c in children),
            "setup_s": statistics.median(c.setup_s for c in children),
            "peak_rss_mb": statistics.median(c.rss_mb for c in children),
        }
        units = dict(metrics.END_TO_END)
    failed = sum(c.judged.failed for c in children)
    result = {
        "correct": failed == 0 and agree,
        "attempted": sum(len(c.judged.passed) for c in children),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, children


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "agdeform" / "cli.py").is_file():
        sys.stderr.write(f"error: no agdeform sources under {SRC}\n")
        return 2
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                           stdout=subprocess.DEVNULL, check=False)
    if build.returncode != 0:
        sys.stderr.write("error: compiling the sources failed\n")
        return 2

    record = run_record(args)
    record["cpu"] = pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, children = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        results[name] = result
        record.setdefault("children", {})[name] = [
            {"wall_s": c.wall_s, "setup_s": c.setup_s, "raw_wall_s": c.raw_wall_s,
             "speed": c.speed, "rss_mb": c.rss_mb,
             "fail_ratio": metrics.fail_ratio(c.judged.passed)} for c in children]
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
        print(f"{name} fail_ratio = {result['failed']}/{result['attempted']}"
              f"{'' if result['correct'] else '  INCORRECT'}")
    print("record " + json.dumps(record))

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
