"""flow.evolve's forked sampling path: a run of more than one block with no
stop of the caller's samples in a child process while it marches, when its
process can fork one (flow._forks).  Each test runs tests/forked_runs.py in
a fresh interpreter with a single-threaded BLAS, which runs the same run
in-process and forked, holding the path choice as monkeypatch would."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdelab as F
import fdelab.flow

ROOT = Path(__file__).resolve().parents[1]


def forked_runs(scenario: str, timeout: float = 120) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(ROOT / "tests" / "forked_runs.py"),
                          scenario], env=env, check=True, capture_output=True,
                         text=True, timeout=timeout).stdout
    return json.loads(out)


@pytest.fixture(scope="module")
def entropy_runs():
    return forked_runs("entropy")


@pytest.fixture(scope="module")
def errors():
    return forked_runs("errors")


def assert_same(pair: dict) -> dict:
    """Both paths' results the same, and no child left by either."""
    forked = pair["forked"]
    assert forked == pair["in_process"]
    assert forked["child_left"] is False
    return forked


def test_the_path_choice_reads_the_host():
    # a single-threaded process on two or more CPUs can fork; this one may
    # keep a BLAS thread pool, and then it samples in-process
    host = forked_runs("host")
    assert host["threads"] == 1 and host["forks"] == (host["cpus"] >= 2)
    threads = len(os.listdir("/proc/self/task"))
    assert fdelab.flow._forks() == (
        threads == 1 and len(os.sched_getaffinity(0)) >= 2)


@pytest.mark.parametrize("case", ["interval_p1.5", "ball_N3", "clock_matched"])
def test_entropy_rows_are_the_in_process_bytes(entropy_runs, case):
    # run_rescaled's entropy_report rows (and a clock-matched run's sigmas)
    # over 4 blocks at n = 129, in the buffer sized once to the 200 samples
    forked = assert_same(entropy_runs[case])
    assert forked["samples"] == forked.get("buffer", 200) == 200


def test_linearized_rows_are_the_in_process_bytes():
    assert assert_same(forked_runs("linearized"))["samples"] == 200


def test_only_a_run_of_blocks_with_no_stop_forks():
    paths = forked_runs("paths")
    assert paths["no_stop"] == {"sampled_here": False, "child_left": False}
    assert paths["stop"] == paths["one_block"] == {"sampled_here": True,
                                                   "child_left": False}


@pytest.mark.parametrize("where, error", [
    ("sampler", ["ValueError", "rescaled field must be positive"]),
    ("march", ["NumericalFailure", "rescaled state must be positive"])])
def test_an_error_is_raised_as_in_process_and_the_child_reaped(errors, where,
                                                               error):
    assert assert_same(errors[where])["error"] == error


def test_blocks_larger_than_a_pipe_finish():
    # at n = 8 a block is 1,024 samples, whose 11-column rows are 90 KB
    forked = assert_same(forked_runs("n8", timeout=60))
    assert forked["shape"] == [3000, 11]


def test_an_error_that_does_not_pickle_keeps_its_type():
    # the child that raised it ends, and the parent samples its block
    assert assert_same(forked_runs("unpickled"))["error"] == [
        "Bad", "second block"]


@pytest.fixture(scope="module")
def killed():
    return forked_runs("killed", timeout=60)


@pytest.mark.parametrize("when", ["in_sampler", "writing_rows"])
def test_a_killed_child_ends_the_run_with_an_eof_error(killed, when):
    # the child is killed before its rows, or part way through writing
    # them; the parent samples that block without error, and so names the
    # child's end
    assert killed[when] == {
        "error": ["EOFError", "the sampler process ended before its rows"],
        "child_left": False}


def test_a_failed_fork_samples_in_process(monkeypatch):
    # no process is started: the fork fails as at a process limit, and the
    # run samples here, with its four pipe ends closed
    setup = F.prepare(F.DomainSpec(geometry="interval", nodes=129),
                      F.Exponents.make(p=2.0, c=1.0))

    def rows():
        _, reports = F.run_rescaled(
            setup, F.mode_perturbed_field(setup, [(2, 0.1)]), horizon=1.0,
            dt=5e-3, cadence=5e-3)
        return reports.data

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(fdelab.flow, "_forks", lambda: False)
    in_process = rows()
    monkeypatch.setattr(fdelab.flow, "_forks", lambda: True)
    monkeypatch.setattr(os, "fork", no_fork)
    open_fds = len(os.listdir("/proc/self/fd"))
    assert rows().tobytes() == in_process.tobytes()
    assert len(os.listdir("/proc/self/fd")) == open_fds


def test_the_child_samples_on_one_cpu_and_the_parent_keeps_its_mask():
    # each row is the sampling process's pid and the size of its CPU mask
    runs = forked_runs("pinned")
    pid, mask = runs["pid"], runs["mask"]
    forked, here = runs["returned"]["forked"], runs["returned"]["in_process"]
    assert len(forked["pids"]) == 1 and forked["pids"] != [pid]
    assert forked["cpus"] == [1]
    assert here["pids"] == [pid] and here["cpus"] == [len(mask)]
    assert forked["child_left"] is here["child_left"] is False
    assert assert_same(runs["raised"])["error"] == "second block"
    for out in (forked, here, *runs["raised"].values()):
        assert out["mask_after"] == mask


def test_a_child_that_cannot_set_its_mask_samples_unpinned():
    # os.sched_setaffinity raises EINVAL in the child
    assert assert_same(forked_runs("unpinnable"))["shape"] == [200, 11]
