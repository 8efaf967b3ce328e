"""Shared plumbing: repository paths, run metadata, statistics, output.

Nothing here imports the program under test; ``require_program`` puts
``src/`` on the import path only after checking it is there, so the
benchmark fails fast (exit code 2, no result line) in a directory that
holds the benchmark but not the program.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

#: Repository root: the directory that holds ``repobench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for registries and spill directories; always inside
#: the checkout, removed by :func:`clean_workdir`.
WORK = ROOT / ".bench_work"

#: Thread-count variables the BLAS/OpenMP runtimes read.  They are
#: recorded, never set: the benchmark measures the environment users
#: actually run in.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


#: Fresh-process set-ups timed per run; setup_s is their median.
SETUP_PROBES = 7


class MissingProgram(RuntimeError):
    """The checkout holds the benchmark but not the program."""


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def workdir(name: str) -> Path:
    """A fresh per-process scratch directory under ``.bench_work``."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def clean_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()  # only succeeds once every run has cleaned up
    except OSError:
        pass


# ----------------------------------------------------------------------
# run metadata
# ----------------------------------------------------------------------


def _cpu_times() -> tuple[int, int] | None:
    """(steal, total) jiffies of the aggregate ``cpu`` line."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    vals = [int(v) for v in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user/nice.
    steal = vals[7] if len(vals) > 7 else 0
    return steal, sum(vals[:8])


class StealMeter:
    """CPU steal share of all cores between construction and :meth:`share`."""

    def __init__(self) -> None:
        self.start = _cpu_times()

    def share(self) -> float | None:
        end = _cpu_times()
        if self.start is None or end is None or end[1] <= self.start[1]:
            return None
        return (end[0] - self.start[0]) / (end[1] - self.start[1])


def _git_commit() -> str:
    """HEAD of the checkout read from ``.git`` directly (no git process,
    and nothing outside the checkout); "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.is_file():
            return ref_path.read_text().strip()
        packed = git / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_info() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.25 has no dict mode
        return {"name": "unknown"}
    blas = deps.get("blas", {})
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "config": blas.get("openblas configuration", ""),
    }


def run_metadata(steal: StealMeter) -> dict:
    import numpy as np
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "cores": os.cpu_count(),
        "cores_usable": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "cpu_steal_share": steal.share(),
    }


# ----------------------------------------------------------------------
# statistics and resources
# ----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 < q < 100)."""
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process or, with ``children``, of the
    largest child process waited for so far (Linux reports KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float | None:
    """Peak resident set (VmHWM) of another live process."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


class Deadline:
    """The measurement window of one run."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def expired(self, last_rep: float = 0.0) -> bool:
        """True once another repetition of ``last_rep`` seconds would end
        nearer past the window than the window's end is now."""
        return self.elapsed() + last_rep / 2 >= self.seconds


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(setups, rss_mb: float, throughput: float,
               latency_p50_s: float) -> dict:
    """The end-to-end metrics every workload reports, each workload
    filling in what its own operations are (README, End-to-end metrics)."""
    return {
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "throughput_per_s": metric(throughput, "1/s"),
        "latency_p50_ms": metric(latency_p50_s * 1e3, "ms"),
    }


def emit(meta: dict, detail: dict, correct: bool, attempted: int,
         failed: int, metrics: dict) -> None:
    """Print metadata and detail lines, then the result as the last line."""
    print(json.dumps({"metadata": meta}, sort_keys=True))
    print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    sys.stdout.flush()
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    sys.stdout.flush()


def emit_ledger(steal: StealMeter, detail: dict, attempted: int, failed: int,
                values: dict) -> None:
    """Emit a traced run: every per-layer metric, 0 where not exercised."""
    from ledger import PER_LAYER_UNITS

    metrics = {name: metric(values.get(name, 0.0), unit)
               for name, unit in PER_LAYER_UNITS.items()}
    emit(run_metadata(steal), detail, not failed, attempted, failed, metrics)
