"""Leave no process behind.

A sharded lap forks shard workers and, through ``SharedMemory``, makes the
interpreter spawn a ``multiprocessing.resource_tracker`` helper.  The program
joins its workers, but the tracker only ends once it sees its pipe close at
interpreter exit — *after* this process is gone, so whoever started the
benchmark finds a process still running.  ``reap()`` therefore runs on every
path out of ``run.py``: it stops the tracker, stops whatever else is still a
child, and waits until each has ended.  ``adopt_orphans()`` makes deeper
descendants (a helper started by a worker, say) re-parent to this process
instead of init, so the same sweep covers them — the benchmark may not be
edited when a later PR changes how the program starts its processes.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import time
from multiprocessing import resource_tracker
from typing import Dict, List

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Become the parent of every descendant whose own parent exits."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False  # not Linux: direct children are still swept


def child_pids() -> List[int]:
    """Live and zombie children of this process, read from /proc."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # pid (comm) state ppid ...; comm may hold spaces and ')'
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while we were looking
        if fields[1] == me:
            found.append(int(entry))
    return found


def _stop_resource_tracker() -> None:
    """Close the tracker's pipe, which ends it, and wait for it.  The rings
    are unlinked by then; the tracker has nothing left to clean up."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, RuntimeError):
            pass  # the sweep below ends it the hard way


def reap(grace_s: float = 3.0) -> int:
    """Stop every process this one started and wait for each to end.
    Returns how many had to be signalled."""
    signalled = 0
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(grace_s)
        signalled += 1
    _stop_resource_tracker()
    # Whatever is left: SIGTERM, then SIGKILL after the grace period (the
    # resource tracker, for one, ignores SIGTERM).
    deadline = time.monotonic() + grace_s
    sent: Dict[int, int] = {}
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return signalled  # no child left, live or zombie
        if pid:
            continue
        sig = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        for child in child_pids():
            if sent.get(child) != sig:
                sent[child] = sig
                signalled += sig == signal.SIGTERM
                try:
                    os.kill(child, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)
