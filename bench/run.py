#!/usr/bin/env python3
"""End-to-end benchmark of the skewhowe command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` with nothing installed.  One client runs a closed loop: it
starts one fresh ``skewhowe`` process, waits for it to exit, checks its
output, and starts the next, until the next run would overrun
``--seconds``.  A fresh process is the unit because every CLI user pays
for the imports and the cold ``q_factorial`` cache on every invocation.
``--threads`` is never passed.

``--trace 0`` reports the end-to-end metrics: median wall time, median
set-up time (spawn until ``skewhowe.cli`` is imported and its parser is
built, from separate probe processes) and median peak resident memory.
Times are scaled to a nominal machine speed measured while each process
runs (see ``reference_slice``); the per-run lines show the raw times.
``--trace 1`` alternates untraced runs with runs under ``bench/tracer.py``
and reports the per-layer metrics, the medians over the traced runs
(their times scaled the same way).

Every run is checked: it must exit 0, print no traceback and pass its
workload's output check.  A failed run counts in ``failed`` and does not
stop the benchmark.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name the environment and give a readable summary.
``--workload all`` runs every workload in turn and prints only the
readable summary.
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
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
TRACER = BENCH_DIR / "tracer.py"

CLI_MAIN = "from skewhowe.cli import main; main()"
SETUP_PROBE = ("import time; from skewhowe.cli import build_parser; "
               "build_parser(); print(time.monotonic_ns())")

SETUP_PROBES = 6      # set-up probe processes before each untraced run
MIN_RUNS = 2          # workload processes per benchmark run, even if late
HARD_LIMIT_S = 150.0  # a process still running this long after start is killed
SUP_DISTANCE_BOUND = 0.1  # acceptance criterion 8
SAMPLE_INTERVAL_S = 0.05     # pause between reference slices while a child runs
REFERENCE_NOMINAL_S = 1.6e-3  # reference_slice() on an uncontended core
TIME_UNITS = {"s", "ms", "us"}  # per-layer metrics scaled like wall_s


@dataclass(frozen=True)
class Workload:
    """CLI arguments ("{seed}" is replaced) and the check on each run's stdout.

    With a pinned ``digest`` the stdout sha256 must equal it; without one
    every run of the same seed must print the same bytes.
    """
    argv: tuple[str, ...]
    digest: str | None = None
    contains: str | None = None
    max_sup_distance: float | None = None


# Why each workload is here is in bench/NOTES.md.  Digests are the stdout
# of the program at the commit that defined the benchmark.
WORKLOADS = {
    "mult-bc8": Workload(
        ("mult", "--series", "BC", "--n", "8", "--k", "8",
         "--lambda", "3,2,1", "--json"),
        digest=("e28d8ced625bdaaab06429aa6e906a06"
                "5d46fca1e63ba4fca085a5deacd41f4f")),
    "verify-a5x6": Workload(
        ("verify", "--series", "A", "--n", "5", "--k", "6"),
        digest=("b7af67e1b7af42c8ee9d7e4bc1c9af7b"
                "01273360b7431fa6d2055e059b7e21e9"),
        contains="all identities hold"),
    "compare-gl": Workload(
        ("compare", "--pair", "GL", "--n", "50", "--k", "150",
         "--count", "200", "--seed", "{seed}"),
        max_sup_distance=SUP_DISTANCE_BOUND),
    "measure-gl": Workload(
        ("measure", "--pair", "GL", "--n", "6", "--k", "12"),
        digest=("eb831cffea6d41202d4334b7447c235c"
                "c676a2a77df6533d8c22f66e3a9fb3cb")),
}


@dataclass
class ProcessResult:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    slices: list[float]  # reference_slice() times taken while it ran

    @property
    def slowdown(self) -> float:
        """Machine speed while it ran, relative to nominal (1.0)."""
        return slowdown(self.slices)

    @property
    def adjusted_s(self) -> float:
        """Wall time less the reference slices, at nominal machine speed."""
        return (self.wall_s - sum(self.slices)) / self.slowdown


_REF_A = [(7 ** i) % (1 << 61) for i in range(64)]
_REF_B = [(11 ** i) % (1 << 61) for i in range(64)]


def reference_slice() -> float:
    """Seconds taken by a fixed slice of interpreter and big-int work.

    On a shared virtual machine speed is not constant: the host moves
    between levels up to about 1.7x apart as other tenants come and go,
    holding each for seconds to minutes.  spawn() times a slice every SAMPLE_INTERVAL_S on
    the core the child runs on, so the median slice time says how fast
    that core was while the child ran.  The slice is the benchmark's own
    code, so no change to the program can move it.
    """
    t0 = time.perf_counter()
    for _ in range(3):
        out = [0] * (len(_REF_A) + len(_REF_B) - 1)
        for i, x in enumerate(_REF_A):
            for j, y in enumerate(_REF_B):
                out[i + j] += x * y
    return time.perf_counter() - t0


def slowdown(slices: list[float]) -> float:
    """Median reference_slice() time over nominal; 1.0 with no slices."""
    return statistics.median(slices) / REFERENCE_NOMINAL_S if slices else 1.0


def spawn(argv: list[str], env: dict, workdir: Path, deadline: float
          ) -> ProcessResult:
    """Run argv to completion with stdout and stderr in unlinked files,
    timing a reference_slice() every SAMPLE_INTERVAL_S meanwhile.

    The process is killed if it is still running at ``deadline``
    (a ``time.perf_counter`` value), and it is always reaped.
    """
    slices = []
    with tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        reaped = False
        try:
            pidfd = os.pidfd_open(pid)
            try:
                while True:
                    left = deadline - time.perf_counter()
                    wait = max(0.0, min(left, SAMPLE_INTERVAL_S))
                    if select.select([pidfd], [], [], wait)[0]:
                        break
                    if left <= 0:
                        os.kill(pid, signal.SIGKILL)
                        break
                    slices.append(reference_slice())
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
            reaped = True
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        out.seek(0)
        err.seek(0)
        return ProcessResult(wall, usage.ru_maxrss / 1024.0,
                             os.waitstatus_to_exitcode(status),
                             out.read(), err.read(), slices)


def check(wl: Workload, proc: ProcessResult, first_digest: str | None
          ) -> str | None:
    """Why the run failed, or None if it passed."""
    if proc.returncode != 0:
        return f"exit code {proc.returncode}"
    if b"Traceback" in proc.stderr or b"Traceback" in proc.stdout:
        return "traceback printed"
    digest = hashlib.sha256(proc.stdout).hexdigest()
    if wl.digest is not None and digest != wl.digest:
        return f"stdout sha256 {digest[:16]} != pinned {wl.digest[:16]}"
    if wl.digest is None and first_digest not in (None, digest):
        return "stdout differs from an earlier run of the same seed"
    if wl.contains is not None and wl.contains.encode() not in proc.stdout:
        return f"stdout lacks {wl.contains!r}"
    if wl.max_sup_distance is not None:
        try:
            dist = json.loads(proc.stdout)["sup_distance"]
        except (ValueError, KeyError, TypeError):
            return "stdout is not the compare JSON"
        if not dist <= wl.max_sup_distance:
            return f"sup_distance {dist} > {wl.max_sup_distance}"
    return None


def environment(root: Path, workload: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(),
            "commit": git_commit(root), "src_sha256": src.hexdigest()}


def git_commit(root: Path) -> str:
    """HEAD of a git checkout at root, read without running git."""
    git = root / ".git"
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
    return "unknown (not a git checkout)"


def measure(name: str, wl: Workload, seed: int, seconds: float, trace: bool,
            root: Path, setup_probes: int = SETUP_PROBES) -> dict:
    """One benchmark run of one workload; returns the result object plus
    the ``runs`` and ``self_frac`` details the summary prints.

    This process and its children are pinned to one core for the run, so
    that the reference slices spawn() times run on the children's core.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return _measure(wl, seed, seconds, trace, root, setup_probes)
    finally:
        os.sched_setaffinity(0, cpus)


def _measure(wl: Workload, seed: int, seconds: float, trace: bool,
             root: Path, setup_probes: int) -> dict:
    workdir = root / ".bench_run"
    workdir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    py = sys.executable
    start = time.perf_counter()
    hard_deadline = start + HARD_LIMIT_S
    argv = [a.replace("{seed}", str(seed)) for a in wl.argv]

    def probe_setup(setups: list, slices: list) -> None:
        t0 = time.monotonic_ns()
        probe = spawn([py, "-c", SETUP_PROBE], env, workdir, hard_deadline)
        if probe.returncode != 0:
            raise RuntimeError("set-up probe failed:\n"
                               + probe.stderr.decode(errors="replace"))
        setups.append((int(probe.stdout) - t0) / 1e9 - sum(probe.slices))
        slices += probe.slices

    setups, probe_slices = [], []
    probe_setup([], [])  # may compile bytecode, which users pay once
    runs = []   # (traced, ProcessResult, failure reason or None, layer report)
    first_digest = None
    deadline = start + seconds
    while True:
        if not trace:
            for _ in range(setup_probes):
                probe_setup(setups, probe_slices)
        traced = trace and len(runs) % 2 == 1
        report = None
        if traced:
            trace_out = workdir / f"trace-{os.getpid()}.json"
            proc = spawn([py, str(TRACER), str(trace_out), *argv],
                         env, workdir, hard_deadline)
            try:
                report = json.loads(trace_out.read_text())
                trace_out.unlink()
            except (OSError, ValueError):
                pass
            else:
                for metric in report["metrics"].values():
                    if metric[1] in TIME_UNITS:
                        metric[0] /= proc.slowdown
        else:
            proc = spawn([py, "-c", CLI_MAIN, *argv], env, workdir,
                         hard_deadline)
        reason = check(wl, proc, first_digest)
        if reason is None and traced and report is None:
            reason = "tracer wrote no metrics"
        if first_digest is None and reason is None:
            first_digest = hashlib.sha256(proc.stdout).hexdigest()
        runs.append((traced, proc, reason, report))

        if trace and len(runs) % 2:
            continue  # every untraced run gets its traced partner
        step = statistics.median(p.wall_s for _, p, _, _ in runs)
        step = 2 * step if trace else step + 0.15 * setup_probes
        now = time.perf_counter()
        if len(runs) >= MIN_RUNS and (now + step > deadline
                                      or now + 2 * step > hard_deadline):
            break

    failed = sum(1 for _, _, reason, _ in runs if reason is not None)

    def kind(traced):
        """Runs of one kind that passed, or all of that kind if none did."""
        same = [r for r in runs if r[0] == traced]
        return [r for r in same if r[2] is None] or same

    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    if not trace:
        plain = [p for _, p, _, _ in kind(False)]
        metrics = {
            "wall_s": (median(p.adjusted_s for p in plain), "s"),
            "setup_s": (median(setups) / slowdown(probe_slices), "s"),
            "peak_rss_mb": (median(p.rss_mb for p in plain), "MB"),
        }
        self_frac = None
    else:
        traced_runs = kind(True)
        reports = [rep for _, _, _, rep in traced_runs if rep]
        layer = reports[0]["metrics"] if reports else {}
        metrics = {name: (median(rep["metrics"][name][0] for rep in reports),
                          unit) for name, (_, unit) in layer.items()}
        metrics["cli.stdout_bytes"] = (
            median(len(p.stdout) for _, p, _, _ in traced_runs), "B")
        untraced = median(p.adjusted_s for _, p, _, _ in kind(False))
        with_trace = median(p.adjusted_s for _, p, _, _ in traced_runs)
        metrics["trace.overhead_frac"] = (
            with_trace / untraced - 1.0 if untraced else 0.0, "frac")
        spans = reports[0]["self_frac"] if reports else {}
        self_frac = {span: median(rep["self_frac"].get(span, 0.0)
                                  for rep in reports) for span in spans}
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
            "runs": runs, "self_frac": self_frac}


def summary(name: str, result: dict) -> list[str]:
    runs = result["runs"]
    lines = []
    for i, (traced, proc, reason, _) in enumerate(runs):
        lines.append(f"  run {i}{' traced' if traced else ''}: "
                     f"{proc.wall_s:.3f} s wall, slowdown {proc.slowdown:.3f}"
                     f" -> {proc.adjusted_s:.3f} s, {proc.rss_mb:.1f} MB, "
                     f"{len(proc.stdout)} B, {reason or 'ok'}")
    n = sum(1 for traced, _, _, _ in runs if not traced)
    for metric, m in result["metrics"].items():
        value = m["value"]
        value = f"{value:.6g}" if isinstance(value, float) else value
        lines.append(f"{name} {metric} {value} {m['unit']}"
                     + (f" (median of {n})" if metric == "wall_s" else ""))
    lines.append(f"{name} failed_frac "
                 f"{result['failed'] / result['attempted']:.6g} frac "
                 f"({result['failed']} of {result['attempted']} runs)")
    if result["self_frac"]:
        top = sorted(result["self_frac"].items(), key=lambda kv: -kv[1])
        lines.append(f"{name} self-time share of cli.run: " + ", ".join(
            f"{span} {frac:.1%}" for span, frac in top if frac >= 0.005))
    for _, proc, reason, _ in runs:
        if reason is not None:
            lines.append(f"{name} first failure: {reason}")
            lines.extend("  " + line for line in proc.stderr.decode(
                errors="replace").splitlines()[-5:])
            break
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "skewhowe" / "cli.py").is_file():
        print("error: run from the root of a skewhowe source checkout "
              "(src/skewhowe/cli.py not found)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = None
    for name in names:
        print("env: " + json.dumps(environment(root, name, args.seed)))
        result = measure(name, WORKLOADS[name], args.seed, args.seconds,
                         bool(args.trace), root)
        print("\n".join(summary(name, result)), flush=True)
    if args.workload != "all":
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
