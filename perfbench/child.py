"""Run one program process at a time and account for it.

Each child is started with ``posix_spawn`` and reaped with ``os.wait4``,
which gives its exit status, its CPU time and its own peak resident set
size.  The
package runs uninstalled, with ``PYTHONPATH=src`` as the tier-1 tests do.
"""

from __future__ import annotations

import os
import platform
import signal
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path


@dataclass(frozen=True)
class Child:
    returncode: int  # negative: killed by that signal
    wall_s: float  # spawn to exit
    cpu_s: float  # user plus system time of the child
    maxrss_kb: int
    stdout: str
    stderr: str


def program_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run(python_args: list[str], env: dict[str, str], out_dir: Path, timeout_s: float) -> Child:
    """Run ``python <python_args>`` to completion; kill it after `timeout_s`."""
    out_path, err_path = out_dir / "child.stdout", out_dir / "child.stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *python_args], env, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - started
    return Child(os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                 out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def environment(root: Path) -> dict:
    """Versions, processor and commit the numbers were measured on."""
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(root),
    }


def _commit(root: Path) -> str:
    """HEAD's hash read from ``.git``, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
