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


def _write(fd: int, message) -> None:
    view = memoryview(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
    while view:     # a signal handler can end a pipe write part way
        view = view[os.write(fd, view):]


class ChildSampler:
    """A sampler run in a forked child process while the parent marches.

    The parent stacks each block's (B, n) fields into one shared anonymous
    mmap and writes the block's times down a pipe; the child hands the
    sampler those bytes and writes its (B, W) rows up another pipe, each
    message one pickle.  The parent reads a block's rows before it stacks
    and sends the next block, so the child is done with the shared fields,
    each pipe holds at most one message, and its reader is waiting for it
    or will be once it has sent or read the one before: no write waits on
    a blocked writer, at any block size.  The child computes a block while
    the parent marches the next, and ends with os._exit at the end of the
    run's blocks, at a broken pipe once the parent has closed its ends, or
    when its sampler raises; a child that ends, or dies, before a block's
    rows (or before its times, whose write then finds a broken pipe)
    leaves the parent to sample that block itself, from the same bytes,
    and so to raise the sampler's own error.  pending is cleared before a
    read and set after a write, so after an error mid-message (the
    sampler's, an interrupt) the parent has no block left to send or
    receive.

    The child confines itself to one CPU of the mask it inherits, one the
    parent is not on if there is one.  A pipe write wakes its reader as if
    the writer would now sleep, so the scheduler tends to put the woken
    child on the parent's CPU; the parent marches on, and both share that
    CPU until the load balancer moves one, which it may not do for the
    whole run.  Only the child pins itself: it ends with the run, while a
    mask set on the parent would have to be restored on every way out of
    the run.  A child whose mask cannot be set samples unpinned."""

    def __init__(self, sampler, n: int, per_block: int):
        self.sampler = sampler
        self.fields = np.frombuffer(mmap.mmap(-1, 8 * per_block * n)
                                    ).reshape(per_block, n)
        down_r, self.down = os.pipe()
        up_r, up_w = os.pipe()
        self.pending = None     # the times sent whose rows are not read
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (down_r, self.down, up_r, up_w):
                os.close(fd)
            raise
        if self.pid:
            os.close(down_r)
            os.close(up_w)
            self.up = os.fdopen(up_r, "rb")
            return
        status = 1
        try:
            try:    # the parent's CPU now is the 39th field of its stat
                with open(f"/proc/{os.getppid()}/stat", "rb") as stat:
                    on = int(stat.read().rsplit(b")", 1)[1].split()[36])
                cpus = os.sched_getaffinity(0)
                os.sched_setaffinity(0, {max(cpus - {on} or cpus)})
            except OSError:     # a mask it may not set: sample unpinned
                pass
            # Ctrl-C reaches the child too: it waits to be closed instead,
            # so that the parent's KeyboardInterrupt is the run's error; and
            # the parent's garbage is its own to collect (a finalizer run
            # here could close or remove what the parent still uses)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            gc.disable()
            os.close(self.down)
            os.close(up_r)
            down = os.fdopen(down_r, "rb")
            while True:
                try:
                    times = pickle.load(down)
                except EOFError:
                    break
                _write(up_w, sampler(times, self.fields[:len(times)]))
            status = 0
        finally:
            os._exit(status)

    def send(self, times: list, fields: list) -> None:
        np.stack(fields, out=self.fields[:len(times)])
        try:
            _write(self.down, times)
        except BrokenPipeError:     # the child has ended: receive samples
            pass
        self.pending = times

    def receive(self) -> np.ndarray:
        """The rows of the block sent last; if the child ended before them,
        the sampler's error from sampling that block here."""
        times, self.pending = self.pending, None
        try:
            return pickle.load(self.up)
        except (EOFError, pickle.UnpicklingError):   # at or mid-message
            pass
        self.sampler(times, self.fields[:len(times)])
        raise EOFError("the sampler process ended before its rows")

    def close(self) -> None:
        os.close(self.down)
        self.up.close()
        os.waitpid(self.pid, 0)
