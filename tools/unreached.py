"""Lines of src/fredk2 that the tier-1 tests never reach.

Runs pytest in this process under a ``sys.settrace`` line tracer (standard
library only; ``coverage`` is not a dependency) and prints, per module of
src/fredk2, the executable lines of function bodies that no test reached,
then the total.  Module and class bodies run on import and are not counted.

    python3 tools/unreached.py

The exit status is 0 whatever the tests do, and the report names pytest's
own status.  CI reads the total off the last line and fails above 0.
Python 3.11 or later.
"""

import dis
import inspect
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fredk2") + os.sep


def body_lines(code):
    """Lines of the instructions of every function body under ``code``,
    each function's prologue (up to RESUME, which fires no line event)
    left out."""
    lines = set()
    if code.co_flags & inspect.CO_OPTIMIZED:
        instructions = list(dis.get_instructions(code))
        start = next(i for i, ins in enumerate(instructions) if ins.opname == "RESUME")
        lines.update(ins.positions.lineno for ins in instructions[start + 1:]
                     if ins.positions.lineno)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= body_lines(const)
    return lines


def main():
    reached = set()

    def trace_line(frame, event, _arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_line

    def trace_call(frame, _event, _arg):
        return trace_line if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    sys.settrace(trace_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)

    total = unreached_total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        with open(path, encoding="utf-8") as fh:
            lines = body_lines(compile(fh.read(), path, "exec"))
        missed = sorted(n for n in lines if (path, n) not in reached)
        total, unreached_total = total + len(lines), unreached_total + len(missed)
        print(f"{name}: {len(missed)} of {len(lines)} unreached"
              + (f": {', '.join(map(str, missed))}" if missed else ""))
    print(f"total: {unreached_total} of {total} executable lines unreached "
          f"(pytest exit status {int(status)})")


if __name__ == "__main__":
    main()
