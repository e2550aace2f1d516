"""flow.evolve's sampler in a forked child process: the child samples one
block of a run while the parent marches the next.  Only a run that forks
imports this module (see flow.evolve and flow._forks)."""

from __future__ import annotations

import gc
import mmap
import os
import pickle
import signal

import numpy as np


def _write(fd: int, *buffers) -> None:
    for buffer in buffers:
        view = memoryview(buffer).cast("B")
        while view:     # a signal handler can end a pipe write part way
            view = view[os.write(fd, view):]


def _read(fd: int, out) -> bool:
    """Fill out from fd; False if fd is at its end before the first byte."""
    view = memoryview(out).cast("B")
    size = len(view)
    while view:
        got = os.readv(fd, [view])
        if not got:
            if len(view) < size:
                raise EOFError("a pipe to or from the sampler process ended "
                               "mid-message")
            return False
        view = view[got:]
    return True


class ChildSampler:
    """A sampler run in a forked child process while the parent marches.

    The parent stacks each block's (B, n) fields into one shared anonymous
    mmap and writes (B, its times) down a pipe; the child hands the sampler
    those bytes and writes its (B, W) rows (count, width, rows), or its
    pickled exception (-1, bytes, pickle), up another pipe.  The parent
    reads a block's rows before it stacks and sends the next block, so the
    child is done with the shared fields, each pipe holds at most one
    message, and its reader is waiting for it or will be once it has sent
    or read the one before: no write waits on a blocked writer, at any
    block size.  The child computes a block while the parent marches the
    next, and ends with os._exit at the end of the run's blocks, or at a
    broken pipe once the parent has closed its ends.  pending is cleared
    before a read and set after a write, so after an error mid-message
    (the sampler's, a dead child's, an interrupt) the parent has no block
    left to send or receive."""

    def __init__(self, sampler, n: int, per_block: int):
        self.fields = np.frombuffer(mmap.mmap(-1, 8 * per_block * n)
                                    ).reshape(per_block, n)
        self.head = np.empty(1 + per_block)     # B, then the B times
        down_r, self.down = os.pipe()
        self.up, up_w = os.pipe()
        self.pending = False        # a block sent whose rows are not read
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (down_r, self.down, self.up, up_w):
                os.close(fd)
            raise
        if self.pid:
            os.close(down_r)
            os.close(up_w)
            return
        status = 1
        try:
            # Ctrl-C reaches the child too: it waits to be closed instead,
            # so that the parent's KeyboardInterrupt is the run's error; and
            # the parent's garbage is its own to collect (a finalizer run
            # here could close or remove what the parent still uses)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            gc.disable()
            os.close(self.down)
            os.close(self.up)
            self._serve(sampler, down_r, up_w)
            status = 0
        finally:
            os._exit(status)

    def _serve(self, sampler, down: int, up: int) -> None:
        while _read(down, self.head):
            count = int(self.head[0])
            try:
                rows = np.ascontiguousarray(
                    sampler(self.head[1:1 + count].tolist(),
                            self.fields[:count]), dtype=float)
                _write(up, np.concatenate(([len(rows), rows.shape[1]],
                                           rows.ravel())))
            except Exception as exc:
                try:
                    blob = pickle.dumps(exc)
                    pickle.loads(blob)      # an error that does not round-trip
                except Exception:
                    blob = pickle.dumps(
                        RuntimeError(f"{type(exc).__name__}: {exc}"))
                _write(up, np.array([-1.0, len(blob)]), blob)
                return

    def send(self, times: list, fields: list) -> None:
        count = len(times)
        np.stack(fields, out=self.fields[:count])
        self.head[0] = count
        self.head[1:1 + count] = times
        _write(self.down, self.head)
        self.pending = True

    def receive(self) -> np.ndarray:
        """The rows of the block sent last; the sampler's error raised."""
        self.pending = False
        head = np.empty(2)
        if not _read(self.up, head):
            raise EOFError("the sampler process ended before its rows")
        count, width = int(head[0]), int(head[1])
        out = bytearray(width) if count < 0 else np.empty((count, width))
        _read(self.up, out)
        if count < 0:
            raise pickle.loads(out)
        return out

    def close(self) -> None:
        os.close(self.down)
        os.close(self.up)
        os.waitpid(self.pid, 0)
