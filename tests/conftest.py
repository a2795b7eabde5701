"""Suite-wide checks."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    # A test must leave no child process behind, running or unreaped: the
    # coverage harness forks workers and must end every one it starts.
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"unreaped (pid {pid})"
    pytest.fail(f"the test left a child process behind: {state}")
