"""Counting a capture file on several cores: spans of whole lines, one per forked worker.

``ingest.count_packet_log`` imports this module only for a file at least two
``ingest._MIN_SPAN``s long, so a count of a shorter capture never compiles it.
"""

import io
import marshal
import os
import sys
from typing import NoReturn

from .ingest import _SHOWN_REJECTIONS, Dnp3MessageType, RejectedLine, _count_lines


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def span_cuts(lines, min_span: int) -> list[int] | None:
    """Offsets that cut the rest of a binary file (``lines`` reads a ``FileIO``) into spans
    of whole lines, one per CPU and at least ``min_span`` bytes each.

    None, to count serially: a file too short to split, a platform without ``fork``,
    or a process that runs other threads. (A pipe, socket or device has no size, so
    ``count_packet_log`` never passes one here.)
    """
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or threading is not None and threading.active_count() > 1:
        return None  # forking a threaded process can copy a lock another thread holds
    fd = lines.fileno()
    start, size = lines.tell(), os.fstat(fd).st_size
    n = min(_usable_cpus(), (size - start) // min_span)
    cuts = [start]
    for i in range(1, n):
        at = start + (size - start) * i // n  # then past the first newline from there
        while (chunk := os.pread(fd, 1 << 16, at)) and (nl := chunk.find(b"\n")) < 0:
            at += len(chunk)
        if chunk and cuts[-1] < (cut := at + nl + 1) < size:  # a line longer than a span
            cuts.append(cut)                                 # makes no empty span
    return cuts + [size] if len(cuts) > 1 else None


class _SpanReader(io.RawIOBase):
    """Bytes ``[pos, end)`` of a file descriptor, read by ``os.pread``: no offset is moved."""

    def __init__(self, fd: int, pos: int, end: int):
        self.fd, self.pos, self.end = fd, pos, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self.fd, min(len(buffer), self.end - self.pos), self.pos)
        buffer[:len(data)] = data
        self.pos += len(data)
        return len(data)


def count_span(fd: int, start: int, end: int) -> tuple[dict, int, list, int]:
    """``_count_lines`` over bytes ``[start, end)`` of ``fd``, in a form ``marshal`` sends.

    Keys carry their message type's value, rejections are plain ``(line_no, reason)``
    tuples and line numbers count from the span's start.
    """
    with io.BufferedReader(_SpanReader(fd, start, end), 1 << 16) as lines:
        counts, rejected, rejections, n_lines = _count_lines(lines)
    return ({(src, dst, kind.value): n for (src, dst, kind), n in counts.items()}, rejected,
            [tuple(r) for r in rejections], n_lines)


def work(fd: int, start: int, end: int, out: int) -> NoReturn:
    """A forked worker's life: count a span, send the result (or the traceback) and leave.

    ``os._exit`` skips the parent's ``atexit`` hooks and stdio buffers, which a
    normal exit would run and flush a second time.
    """
    status = 1
    try:
        try:
            reply = marshal.dumps(count_span(fd, start, end))
            status = 0
        except BaseException:
            import traceback
            reply = traceback.format_exc().encode()
        with open(out, "wb") as pipe:
            pipe.write(reply)
    finally:
        os._exit(status)


def count_spans(fd: int, cuts: list[int]) -> tuple[dict, int, tuple[RejectedLine, ...]]:
    """Count each span between ``cuts``, the first here and each other one in a forked
    worker, and merge the results in file order, as one serial count would give them.

    Every worker is reaped before this returns or raises.
    """
    workers = {}  # pid -> (the pipe it writes to, its span), until reaped
    try:
        for start, end in zip(cuts[1:], cuts[2:]):
            read, write = os.pipe()
            try:
                if (pid := os.fork()) == 0:
                    work(fd, start, end, write)
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            workers[pid] = (open(read, "rb"), start, end)
        results = [count_span(fd, cuts[0], cuts[1])]
        for pid, (pipe, start, end) in list(workers.items()):
            with pipe:
                reply = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            if status != 0:
                raise RuntimeError(f"the worker counting capture bytes {start}-{end} failed "
                                   f"(exit status {status}):\n{reply.decode(errors='replace')}")
            results.append(marshal.loads(reply))
    finally:
        for pid, (pipe, _, _) in workers.items():  # after an error: each ends with its span
            pipe.close()
            os.waitpid(pid, 0)

    types = {kind.value: kind for kind in Dnp3MessageType}
    counts: dict[tuple[str, str, Dnp3MessageType], int] = {}
    rejected = lines_before = 0
    rejections: list[RejectedLine] = []
    for span_counts, span_rejected, span_rejections, n_lines in results:
        for (src, dst, kind), n in span_counts.items():  # in file order: the serial key order
            key = (src, dst, types[kind])
            counts[key] = counts.get(key, 0) + n
        rejected += span_rejected
        rejections += [RejectedLine(line_no + lines_before, reason)
                       for line_no, reason in span_rejections[:_SHOWN_REJECTIONS - len(rejections)]]
        lines_before += n_lines
    return counts, rejected, tuple(rejections)
