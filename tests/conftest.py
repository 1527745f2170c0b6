import glob
import os

import pytest


def _children():
    """Process ids of this process's children, or None where the kernel does not list them."""
    paths = glob.glob(f"/proc/{os.getpid()}/task/*/children")
    if not paths:
        return None
    pids = set()
    for path in paths:
        try:
            with open(path, encoding="ascii") as fh:
                pids.update(int(pid) for pid in fh.read().split())
        except OSError:  # the thread ended between the glob and the read
            pass
    return pids


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process running (a model child it never closed)."""
    before = _children()
    yield
    if before is None:
        return
    left = _children() - before
    if left:
        pytest.fail(f"child processes left behind: {sorted(left)}")
