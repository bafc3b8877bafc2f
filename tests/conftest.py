"""Fixtures every test uses."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_is_left():
    """A test reaps every child process it starts, directly or through a sweep."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process is left {'running' if pid == 0 else f'unreaped (pid {pid})'}")
