"""``/proc`` and ``/dev/shm`` readings: descendants, peak RSS, leaks.

Also the process hygiene every run ends with: this process adopts its
orphaned descendants (:func:`become_subreaper`), stops Python's
``multiprocessing`` resource tracker (:func:`stop_resource_tracker`)
and waits for every remaining child (:func:`reap_children`), so no
process it started outlives it.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import Dict, List, Set

__all__ = ["LeakCheck", "become_subreaper", "descendants", "peak_rss_mb",
           "reap_children", "stop_resource_tracker"]

_SHM_DIR = "/dev/shm"
#: ``prctl`` option that makes orphaned descendants this process's children
_PR_SET_CHILD_SUBREAPER = 36


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return ""


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read()
    except OSError:
        return True
    return raw[raw.rindex(b")") + 2:][:1] == b"Z"


def descendants(pid: int = 0) -> List[int]:
    """Live descendants of ``pid`` (default: this process).

    Python's own ``multiprocessing`` resource tracker is skipped: it
    belongs to the interpreter, lives until interpreter exit, and does
    no program work.
    """
    root = pid or os.getpid()
    out: List[int] = []
    stack = _children(root)
    while stack:
        child = stack.pop()
        if _is_zombie(child) or "resource_tracker" in _cmdline(child):
            continue
        out.append(child)
        stack.extend(_children(child))
    return out


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of ``pid`` in kB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pids: Iterable[int]) -> float:
    """VmHWM summed over ``pids``, in MB."""
    return sum(vm_hwm_kb(pid) for pid in pids) / 1024.0


def _shm_entries() -> Set[str]:
    try:
        return set(os.listdir(_SHM_DIR))
    except OSError:
        return set()


def become_subreaper() -> None:
    """Adopt orphaned descendants, so :func:`reap_children` sees them.

    Without it a process whose parent ended first (a daemon's resource
    tracker, say) is re-parented outside the benchmark and may outlive
    it unseen.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def stop_resource_tracker() -> None:
    """Tell this interpreter's ``multiprocessing`` resource tracker to end.

    Python starts it on the first shared-memory segment and otherwise
    leaves it to end only after the interpreter has exited.  Closing
    its pipe ends it once no other holder of the pipe is left; this
    does not wait (:func:`reap_children` does, and kills it if a
    stray holder keeps it alive).  Call once every segment is
    released; a later segment starts a fresh tracker.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = tracker._pid = None


def _reap_zombies() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_children(grace: float = 10.0) -> List[str]:
    """Wait until this process has no children left; return the killed.

    Children still alive after ``grace`` seconds are killed with
    SIGKILL and waited for; the return value names each.  Call only
    once every ``subprocess.Popen`` still held has been waited for:
    it reaps any child.
    """
    deadline = time.monotonic() + grace
    killed: Dict[int, str] = {}
    while True:
        _reap_zombies()
        live = _children(os.getpid())
        if not live:
            return list(killed.values())
        if time.monotonic() >= deadline:
            for pid in live:
                if pid in killed or _is_zombie(pid):
                    continue
                killed[pid] = f"{pid}: {_cmdline(pid)[:80]}"
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


class LeakCheck:
    """Shared-memory segments and processes a run left behind.

    Snapshot before the run, call :meth:`leaks` after everything the
    run started was closed.  Segments are attributed by set difference,
    so one run at a time per host is assumed (the benchmark runs its
    workloads one after another).  A process is a leak if it is still
    alive ``grace`` seconds after the close; it is killed.
    """

    def __init__(self) -> None:
        self._shm = _shm_entries()

    def leaks(self, grace: float = 10.0) -> Dict[str, List]:
        stop_resource_tracker()
        procs = reap_children(grace)
        segments = sorted(_shm_entries() - self._shm)
        out: Dict[str, List] = {}
        if segments:
            out["shm_segments"] = segments
        if procs:
            out["processes"] = procs
        return out
