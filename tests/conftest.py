"""Fixtures every test uses."""

import os

import pytest


def open_pipes():
    """This process's pipe descriptors as (fd, "pipe:[inode]"), or None where /proc is absent."""
    try:
        fds = os.listdir("/proc/self/fd")
    except FileNotFoundError:
        return None
    pipes = set()
    for fd in fds:
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed once it is read
            continue
        if target.startswith("pipe:"):
            pipes.add((int(fd), target))
    return pipes


@pytest.fixture(autouse=True)
def no_child_or_pipe_is_left():
    """A test reaps every child process it starts, directly or through a sweep,
    and closes every pipe it opens."""
    before = open_pipes()
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        pytest.fail(f"a child process is left {'running' if pid == 0 else f'unreaped (pid {pid})'}")
    if before is not None:
        left = sorted(open_pipes() - before)
        if left:
            pytest.fail(f"a pipe is left open: {left}")
