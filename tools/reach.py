"""Line reach of the Tier-1 suite over src/eee/: every executable line must run.

Runs the Tier-1 command (pytest -q --continue-on-collection-errors, with
src/ on the import path) in this process under a stdlib line tracer
(sys.settrace, and threading.settrace for threads the tests start). A line
is executable when the compiled module, or any code object nested in it,
has an instruction on it. The script exits non-zero when the tests fail,
when an executable line outside ALLOWED never ran, or when an ALLOWED entry
names no unreached line.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python tools/reach.py

Only frames whose file lies in src/eee/ get a line tracer, so the suite
runs about 2-3x slower than plain.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eee"

# (file name in src/eee/, stripped source line) -> why the suite cannot reach it.
# Keyed by text, not line number, so an edit elsewhere in the file keeps the entry.
_SUBPROCESS_ONLY = "runs only as `python -m eee`, which tests start in a subprocess the tracer does not follow"
ALLOWED = {
    ("__main__.py", "import sys"): _SUBPROCESS_ONLY,
    ("__main__.py", "from .cli import main"): _SUBPROCESS_ONLY,
    ("__main__.py", 'if __name__ == "__main__":'): _SUBPROCESS_ONLY,
    ("__main__.py", "sys.exit(main())"): _SUBPROCESS_ONLY,
}


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry an instruction in the module or a nested code object."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def run_traced(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in-process; return its exit code and the lines reached per file."""
    prefix = str(PACKAGE) + os.sep
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        # a call event stands for the def line a code object starts at
        reached.setdefault(filename, set()).add(frame.f_code.co_firstlineno)
        return local

    import pytest

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    code, reached = run_traced(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])

    unreached, allowed = [], []
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - reached.get(str(path), set())):
            key = (path.name, source[line - 1].strip())
            if key in ALLOWED:
                allowed.append(key)
            else:
                unreached.append(f"src/eee/{path.name}:{line}: {key[1]}")
    stale = [f"{name}: {text!r}" for name, text in ALLOWED if (name, text) not in allowed]

    print(f"reach: {total - len(unreached) - len(allowed)} of {total} executable lines in src/eee/ ran; "
          f"{len(allowed)} allowed unreached, {len(unreached)} not allowed")
    for line in unreached:
        print(f"unreached {line}")
    for entry in stale:
        print(f"stale allow-list entry (reached or gone) {entry}")
    if code:
        print(f"reach: the test suite failed (pytest exit code {code})")
    return 1 if code or unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
