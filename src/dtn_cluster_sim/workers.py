"""The sweep's worker pool, which runs a sweep's points side by side in
forked processes; README's CLI section is its contract."""

import json
import os
import shutil
import sys
import threading
from pathlib import Path


def _processes(n_points: int) -> int:
    """How many processes share a sweep's points: one per usable CPU, at
    most one per point, and 1 where fork is missing or unsafe (another
    thread could hold a lock the child would inherit)."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(n_points, len(os.sched_getaffinity(0)))


def _pin(cpus) -> None:
    """Best-effort: a process the kernel will not move stays where it is."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _run_points(points: list[tuple], run_point, runs_dir: Path) -> list[list]:
    """[run_id, summary row, error] of every sweep point, in point order.
    A point is a tuple that starts with its run_id, and `run_point(*point)`
    gives its [summary row, None], or [None, error] if it failed.
    With W processes, points i::W run in process i: the first share in
    this one, each other share in a forked worker that sends its entries
    back as one JSON document over a pipe; a share that cannot be forked
    runs in this process too. Process i is pinned to CPU i mod n of the
    caller's n-CPU mask, which is restored before this returns or raises.
    A point that a worker did not report fails with the worker's exit
    status, and what the worker may have left of its directory under
    `runs_dir` is removed."""
    width = _processes(len(points))
    shares = [range(i, len(points), width) for i in range(width)]
    if width > 1:
        cpus = sorted(os.sched_getaffinity(0))

    def run_share(share, report: list, parent: int | None = None) -> None:
        for index in share:
            if parent is not None and os.getppid() != parent:
                break   # orphaned: the sweep is over
            report.append([index, *run_point(*points[index])])

    def worker(share, parent: int, write_fd: int, cpu: int):
        report, status = [], 1
        try:
            try:
                _pin({cpu})
                run_share(share, report, parent)
            finally:
                with open(write_fd, "w", encoding="utf-8") as pipe:
                    json.dump(report, pipe)
            status = 0
        except Exception:
            if os.getppid() == parent:   # an orphan has no one to report to
                sys.excepthook(*sys.exc_info())
        finally:
            os._exit(status)   # never the parent's cleanup or exit path

    parent = os.getpid()
    workers = []   # (pid, read end of its pipe, share)
    own = [shares[0]]   # the shares this process runs
    report, sent, statuses = [], [], []
    try:
        for i in range(1, width):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:   # no process to spare: the shares left run here
                os.close(read_fd)
                os.close(write_fd)
                own += shares[i:]
                break
            if pid == 0:
                os.close(read_fd)
                worker(shares[i], parent, write_fd, cpus[i % len(cpus)])
            os.close(write_fd)
            workers.append((pid, read_fd, shares[i]))
        if width > 1:
            _pin({cpus[0]})
        for share in own:
            run_share(share, report)
        for _, read_fd, _ in workers:
            with open(read_fd, "rb", closefd=False) as pipe:
                sent.append(pipe.read())
    finally:
        if width > 1:
            _pin(cpus)
        if len(sent) < len(workers):   # interrupted: no worker outlives the sweep
            import signal
            for pid, _, _ in workers:
                os.kill(pid, signal.SIGKILL)
        for pid, read_fd, _ in workers:
            os.close(read_fd)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (_, _, share), text, status in zip(workers, sent, statuses):
        try:
            entries = json.loads(text)
        except ValueError:
            entries = []
        report += entries
        reported = {index for index, _, _ in entries}
        for index in share:
            if index not in reported:
                # a dead worker may have left a finished or half-written run directory
                shutil.rmtree(runs_dir / points[index][0], ignore_errors=True)
                report.append([index, None, f"worker exited with status {status}"])
    return [[points[index][0], row, error] for index, row, error in sorted(report)]
