"""``count_packet_log`` over a file cut into spans, each counted by its own process.

The split count must give the serial count's counts, rejected total and first
rejections with their line numbers, reap every worker before it returns or
raises, and count serially wherever a fork is not safe or not worth it.
"""

import contextlib
import gzip
import io
import os
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cyberdep import ingest, spans
from cyberdep.depgraph import build_graph
from cyberdep.ingest import count_packet_log
from cyberdep.synth import builtin_profile, generate
from test_canonical_lines import canonical, capture_lines

READ = canonical(1, "10.9.0.1", "10.9.1.1", "dnp3", "read")  # 76 bytes
RESPONSE = canonical(2, "10.9.1.1", "10.9.0.1", "dnp3", "response")  # 80 bytes
SAME = canonical(3, "10.9.1.1", "10.9.1.1", "dnp3", "read")  # rejected: src equals dst


def split_count(path, monkeypatch, cpus: int, min_span: int, skip_lines: int = 0):
    """``count_packet_log`` on ``path`` after ``skip_lines`` lines, on up to ``cpus`` spans
    of at least ``min_span`` bytes; also the bytes it counts and the spans' cuts."""
    monkeypatch.setattr(ingest, "_MIN_SPAN", min_span)
    monkeypatch.setattr(spans, "_usable_cpus", lambda: cpus)
    with open(path, "rb") as f:
        for _ in range(skip_lines):
            f.readline()
        cuts = spans.span_cuts(f, ingest._MIN_SPAN)
        rest = path.read_bytes()[f.tell():]
        return count_packet_log(f), rest, cuts


LONG = READ[:-1] + b',"x":"' + b"a" * 600 + b'"}'

#: The property's @examples, each with the index of the first line of each span it cuts.
EXAMPLES = {
    "blank line and rejected line at cuts": (
        dict(lines=[READ, SAME, b"", SAME, READ], final_newline=True, cpus=4, skip_lines=0),
        [0, 2, 3, 4]),
    "crlf": (
        dict(lines=[line + b"\r"
                    for line in [READ, SAME, RESPONSE, b"", READ, SAME, RESPONSE, READ]],
             final_newline=True, cpus=4, skip_lines=0),
        [0, 2, 5, 7]),
    "no final newline": (
        dict(lines=[READ, RESPONSE, SAME, READ, RESPONSE, SAME], final_newline=False, cpus=3,
             skip_lines=0),
        [0, 2, 5]),
    "a line longer than a span": (  # 8 spans asked for; 6 boundaries fall inside LONG
        dict(lines=[READ, LONG, SAME, RESPONSE], final_newline=True, cpus=8, skip_lines=0),
        [0, 2, 3]),
    "opened past two lines": (  # tell() is behind the buffer's read-ahead
        dict(lines=[SAME, b"[1]", READ, SAME, RESPONSE, SAME, READ, RESPONSE], final_newline=True,
             cpus=3, skip_lines=2),
        [2, 5, 7]),
    "a cut inside a line over 64 KiB": (  # the first pread chunk past the midpoint has no newline
        dict(lines=[READ, READ[:-1] + b',"x":"' + b"a" * 200_000 + b'"}', RESPONSE, SAME],
             final_newline=True, cpus=2, skip_lines=0),
        [0, 2]),
}


def with_examples(test):
    for kwargs, _ in reversed(EXAMPLES.values()):
        test = example(**kwargs, min_span=64)(test)
    return test


def write_capture(path, lines, final_newline):
    path.write_bytes(b"\n".join(lines) + (b"\n" if final_newline else b""))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=capture_lines(), final_newline=st.booleans(), cpus=st.integers(2, 8),
       min_span=st.integers(64, 600), skip_lines=st.integers(0, 3))
@with_examples
def test_spans_equal_the_serial_count(tmp_path, monkeypatch, lines, final_newline, cpus,
                                      min_span, skip_lines):
    """Equal counts, rejected totals and first rejections with their line numbers."""
    path = tmp_path / "capture.jsonl"
    write_capture(path, lines, final_newline)
    result, rest, cuts = split_count(path, monkeypatch, cpus, min_span, skip_lines)
    serial = count_packet_log(io.BytesIO(rest))
    assert result == serial
    assert list(result[0]) == list(serial[0])  # keys in order of first sight
    if cuts is not None:
        assert 3 <= len(cuts) <= cpus + 1
        assert all(path.read_bytes()[cut - 1:cut] == b"\n" for cut in cuts[1:-1])


@pytest.mark.parametrize("kwargs, first_lines", EXAMPLES.values(), ids=EXAMPLES)
def test_examples_cut_where_meant(tmp_path, monkeypatch, kwargs, first_lines):
    """Each @example above is cut into the spans its name says."""
    path = tmp_path / "capture.jsonl"
    write_capture(path, kwargs["lines"], kwargs["final_newline"])
    _, _, cuts = split_count(path, monkeypatch, kwargs["cpus"], 64, kwargs["skip_lines"])
    starts = [0]
    for line in kwargs["lines"]:
        starts.append(starts[-1] + len(line) + 1)
    assert cuts == [starts[i] for i in first_lines] + [path.stat().st_size]


@pytest.fixture
def big_capture(tmp_path, wscc):
    """A synth capture of about 117 KB, with a rejected line in each quarter."""
    profile = builtin_profile("dos_only", wscc, n_messages=1200, seed=4, noise_fraction=0.1)
    lines = generate(profile, wscc).splitlines(keepends=True)
    for at in range(150, len(lines), len(lines) // 4):
        lines[at] = b"[%d]\n" % at
    path = tmp_path / "capture.jsonl"
    path.write_bytes(b"".join(lines))
    return path


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_build_leaves_no_child(big_capture, wscc, monkeypatch):
    serial = build_graph(io.BytesIO(big_capture.read_bytes()), wscc)
    assert serial.stats.rejected >= 4
    monkeypatch.setattr(ingest, "_MIN_SPAN", 4096)
    monkeypatch.setattr(spans, "_usable_cpus", lambda: 4)
    with open(big_capture, "rb") as f:
        assert len(spans.span_cuts(f, ingest._MIN_SPAN)) == 5
        assert build_graph(f, wscc) == serial
    assert_no_child()


def test_failed_worker_is_reaped_and_raised(big_capture, wscc, monkeypatch, capfd):
    """A worker's error reaches the parent after every worker is reaped; no span is recounted."""
    parent, here = os.getpid(), []
    count_span = spans.count_span

    def failing(fd, start, end):
        if os.getpid() != parent:
            raise ZeroDivisionError(f"span {start}-{end}")
        here.append((start, end))
        return count_span(fd, start, end)

    monkeypatch.setattr(ingest, "_MIN_SPAN", 4096)
    monkeypatch.setattr(spans, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(spans, "count_span", failing)
    print("before the build")
    with open(big_capture, "rb") as f:
        cuts = spans.span_cuts(f, ingest._MIN_SPAN)
        first_worker = rf"bytes {cuts[1]}-{cuts[2]} failed \(exit status 1\)"
        with pytest.raises(RuntimeError, match=rf"{first_worker}(?s:.*)ZeroDivisionError"):
            build_graph(f, wscc)
    assert here == [tuple(cuts[:2])]
    assert_no_child()
    assert capfd.readouterr().out == "before the build\n"


@pytest.fixture
def no_fork(monkeypatch):
    def fork():
        raise AssertionError("forked")
    monkeypatch.setattr(os, "fork", fork)


def test_threaded_process_counts_serially(big_capture, monkeypatch, no_fork):
    """A fork would copy the locks that other threads hold, so it is never made."""
    monkeypatch.setattr(ingest, "_MIN_SPAN", 4096)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with open(big_capture, "rb") as f:
            result = count_packet_log(f)
    finally:
        release.set()
        thread.join()
    assert result == count_packet_log(io.BytesIO(big_capture.read_bytes()))


@pytest.mark.parametrize("source", ["bytes", "list", "short", "pipe", "gzip"])
def test_streams_that_cannot_split_count_serially(big_capture, monkeypatch, no_fork, source):
    """Only a plain binary file on disk, two spans long past its position, is split."""
    data = big_capture.read_bytes()
    monkeypatch.setattr(ingest, "_MIN_SPAN", len(data) if source == "short" else 256)
    with contextlib.ExitStack() as stack:
        if source == "bytes":
            stream = io.BytesIO(data)
        elif source == "list":
            stream = data.splitlines(keepends=True)
        elif source == "short":
            stream = stack.enter_context(open(big_capture, "rb"))
        elif source == "gzip":  # fileno() is the compressed file's; tell() counts text bytes
            compressed = big_capture.with_suffix(".gz")
            compressed.write_bytes(gzip.compress(data))
            stream = stack.enter_context(gzip.open(compressed))
        else:
            data = data[:60000]  # below a pipe's capacity: no writer thread needed
            read, write = os.pipe()
            stream = stack.enter_context(open(read, "rb"))
            with open(write, "wb") as out:
                out.write(data)
        assert count_packet_log(stream) == count_packet_log(io.BytesIO(data))


def test_no_fork_counts_serially(big_capture, monkeypatch):
    monkeypatch.setattr(ingest, "_MIN_SPAN", 4096)
    monkeypatch.delattr(os, "fork")
    with open(big_capture, "rb") as f:
        assert count_packet_log(f) == count_packet_log(io.BytesIO(big_capture.read_bytes()))


def test_usable_cpus_without_affinity_is_the_cpu_count(monkeypatch):
    """Where ``fork`` exists but ``sched_getaffinity`` does not (macOS), every CPU counts."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert spans._usable_cpus() == os.cpu_count()
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count is unknown: one span
    assert spans._usable_cpus() == 1
