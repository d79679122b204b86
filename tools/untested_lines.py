"""List the lines of ``src/fairprice/*.py`` that the tier-1 tests never run.

    python3 tools/untested_lines.py [extra pytest arguments]

Run from the root of a source checkout. The script writes a
``sitecustomize.py`` into a temporary directory and puts that directory
first on ``PYTHONPATH``, followed by ``src``. Every Python process of the
run then installs ``sys.settrace`` and ``threading.settrace`` at startup:
pytest itself, and the demo and CLI subprocesses that the tests start. At
exit, each process writes the package lines it executed. The script runs
``python -m pytest -q --continue-on-collection-errors``, then compares the
executed lines with the line table of each compiled module. It prints every
line that some code object holds but no process ran, as ``path:line: text``,
and then their count. It exits with pytest's status when pytest fails, else
0. Only the standard library is used; no coverage package is needed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fairprice")

# Installed in every process of the run through PYTHONPATH. It imports only
# modules that the interpreter has loaded before ``site`` runs, plus
# ``threading``, so that the lazy-import tests see the imports they expect.
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_PREFIX = os.environ["UNTESTED_LINES_PACKAGE"] + os.sep
_OUT = os.environ["UNTESTED_LINES_OUT"]
_seen = set()


def _local(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _call(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(_PREFIX) else None


def _dump():
    sys.settrace(None)
    path = os.path.join(_OUT, "lines-%d.txt" % os.getpid())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines("%s\\t%d\\n" % item for item in _seen)


sys.settrace(_call)
threading.settrace(_call)
atexit.register(_dump)
'''


def executable_lines(path: str) -> set:
    """The line numbers that the code objects of ``path`` can run, without
    the header line of each function or class body (its ``def`` or
    decorator line runs in the enclosing code)."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        body = {line for _, _, line in co.co_lines() if line}  # 0: none
        if co is not code:
            body.discard(co.co_firstlineno)
        lines |= body
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(pytest_args) -> tuple:
    """Run tier-1 under the tracer; return pytest's status and the
    executed ``(realpath, line)`` pairs of every process."""
    with tempfile.TemporaryDirectory(prefix="untested-lines-") as tmp:
        site_dir, out_dir = os.path.join(tmp, "site"), os.path.join(tmp, "out")
        os.makedirs(site_dir)
        os.makedirs(out_dir)
        with open(os.path.join(site_dir, "sitecustomize.py"), "w",
                  encoding="utf-8") as fh:
            fh.write(SITECUSTOMIZE)
        paths = [site_dir, os.path.join(ROOT, "src"),
                 os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
                   UNTESTED_LINES_PACKAGE=PACKAGE, UNTESTED_LINES_OUT=out_dir)
        status = subprocess.call(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", *pytest_args],
            cwd=ROOT, env=env)
        seen = set()
        for name in os.listdir(out_dir):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                for row in fh:
                    path, line = row.rstrip("\n").rsplit("\t", 1)
                    seen.add((os.path.realpath(path), int(line)))
    return status, seen


def main(argv=None) -> int:
    status, seen = run_traced(sys.argv[1:] if argv is None else argv)
    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        real = os.path.realpath(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for line in sorted(executable_lines(path)):
            if (real, line) not in seen:
                missed += 1
                print(f"src/fairprice/{name}:{line}: {text[line - 1].strip()}")
    print(f"{missed} lines of src/fairprice never ran")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
