"""Process-level measurement: spawn the CLI, time it, collect rusage.

The program is the checkout's own ``src/hhverify``, started through its
console entry point with ``src`` first on ``PYTHONPATH``; nothing has to
be installed.  One child runs at a time (a closed loop with one client).
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

SRC = Path("src")
PEAK_FILE_ENV = "PERFBENCH_PEAK_FILE"
# The console entry point, plus a record of the peak resident set of the
# process's own address space (VmHWM) at exit.  The child's ru_maxrss
# cannot serve: Linux counts the spawning process's resident set into it
# (the address space the child had before exec), so it would read the
# benchmark's memory whenever that is the larger.
LAUNCH = f"""\
import sys
sys.argv[0] = "hhverify"
from hhverify.cli import entry
try:
    entry()
finally:
    import os
    with open("/proc/self/status", encoding="ascii") as status:
        peak = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    with open(os.environ["{PEAK_FILE_ENV}"], "w", encoding="ascii") as out:
        out.write(peak[0])
"""
IMPORT_PROBE = ("import time; t = time.perf_counter(); import hhverify.cli; "
                "print(time.perf_counter() - t)")


class CheckoutError(RuntimeError):
    """The working directory does not hold the program's sources."""


def require_checkout() -> None:
    if not (SRC / "hhverify" / "cli.py").is_file():
        raise CheckoutError(
            f"no {SRC / 'hhverify' / 'cli.py'} under {Path.cwd()}; "
            "run from the root of a checkout")


def child_env() -> dict:
    """The benchmark's environment with ``src`` first on PYTHONPATH and no
    HHV_THREADS, so every workload runs single-threaded, the CLI default."""
    env = {k: v for k, v in os.environ.items() if k != "HHV_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass(frozen=True)
class ProcessRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float | None     # None unless started through LAUNCH
    stdout: str
    stderr: str


def spawn(args: list[str], env: dict, workdir: Path) -> ProcessRun:
    """Run one child to completion; wall time runs from spawn to reaping."""
    out_file, err_file = workdir / "stdout.txt", workdir / "stderr.txt"
    peak_file = workdir / "peak_rss_kb.txt"
    peak_file.unlink(missing_ok=True)
    env = {**env, PEAK_FILE_ENV: str(peak_file.resolve())}
    with out_file.open("wb") as out, err_file.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessRun(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=_read_peak_mb(peak_file),
        stdout=out_file.read_text(encoding="utf-8", errors="replace"),
        stderr=err_file.read_text(encoding="utf-8", errors="replace"),
    )


def _read_peak_mb(path: Path) -> float | None:
    try:
        return int(path.read_text(encoding="ascii")) / 1024.0  # kB
    except (OSError, ValueError):
        return None


def cli_args(argv) -> list[str]:
    return [sys.executable, "-c", LAUNCH, *argv]


def import_probe_args() -> list[str]:
    return [sys.executable, "-c", IMPORT_PROBE]


def quartiles(values: list[float]) -> dict:
    """Median, quartiles, extremes and count of a sample."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "click": _version("click"),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def loadavg() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]
