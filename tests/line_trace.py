"""The lines of src/fsp that no tier-1 test executes, with the standard library only.

Runs pytest in this process under sys.settrace and threading.settrace, then prints
each range of executable src/fsp lines that no test reached, one `file:first-last`
line each, and a count.  A line is executable if the compiler gives it bytecode.
Only this process is traced: what a test runs in a subprocess counts as not run.

    PYTHONPATH=src python tests/line_trace.py [--report PATH] [pytest arguments]

The report goes to PATH (default: standard output, after pytest's own output).  It
exits with pytest's exit code.  The trace slows tier-1 down by about 1.7 times.
"""

import argparse
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fsp")
# tracemalloc counts the tracer's own records against this test's memory budget
DESELECTED = ["tests/test_estimator.py::test_a_kept_score_table_holds_columns_not_rows"]


def executable_lines(path):
    """The line numbers that some code object compiled from the file at `path` runs."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(numbers, executable):
    """The sorted `numbers` as [first, last] runs that no other executable line splits."""
    order = sorted(executable)
    position = {line: i for i, line in enumerate(order)}
    out = []
    for line in sorted(numbers):
        if out and position[line] == position[out[-1][1]] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return out


def traced_run(pytest_args):
    """Run pytest on `pytest_args` under the tracer; (exit code, {path: lines run})."""
    seen = {}
    watched = {}  # code object -> its file's set in `seen`, or None for another file

    def local(frame, event, arg):
        if event == "line":
            watched[frame.f_code].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        code = frame.f_code
        if code not in watched:
            path = os.path.abspath(code.co_filename)
            watched[code] = seen.setdefault(path, set()) if path.startswith(PACKAGE + os.sep) else None
        lines = watched[code]
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def report(seen):
    """The unrun ranges of every package file, and the totals."""
    out, unrun, total = [], 0, 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        executable = executable_lines(path)
        missed = executable - seen.get(path, set())
        total += len(executable)
        unrun += len(missed)
        for first, last in ranges(missed, executable):
            out.append(f"src/fsp/{name}:{first}" + (f"-{last}" if last != first else ""))
    out.append(f"{unrun} of {total} executable src/fsp lines unrun")
    return "\n".join(out) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--report", help="write the unrun ranges here instead of standard output")
    args, pytest_args = parser.parse_known_args(argv)
    parent = os.getpid()
    deselect = [arg for test in DESELECTED for arg in ("--deselect", test)]
    code, seen = traced_run(["-q", "-p", "no:cacheprovider", *deselect, *pytest_args])
    if os.getpid() != parent:  # a forked child inherited the tracer; only the parent reports
        os._exit(0)
    text = report(seen)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
