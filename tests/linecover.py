"""Every executable ``src/`` line runs under tier 1, or ``NAMED`` says why not.

    python3 tests/linecover.py             # judge the lines; exit 1 on a finding
    python3 tests/linecover.py --map FILE  # also write the lines each test runs

The script runs tier 1 in this process under ``sys.settrace`` (and
``threading.settrace``). The executable lines of a file are the line
numbers in ``co_lines()`` of every code object compiled from it. It fails on
an unrun line that ``NAMED`` does not list, and on a listed line that now
runs. ``NAMED`` gives each line as its file, its exact stripped text and the
reason it stays unrun, so an entry survives edits above it. Only lines are
judged, not test results: a tracer keeps frames alive, so a test that counts
reference cycles can fail under it and pass without it. Lines that a test
runs in a subprocess do not count.

The map (``--map``) records, for each test, the ``src/`` lines it runs: in
its setup, call and teardown, and in the set-up of each wider-scoped fixture
it uses. Lines first run outside any test (at import, at collection) are
kept apart, and so are the tests that start a subprocess. ``tests/mutants.py``
builds it on the unmutated copy to choose the tests each mutant runs.

The name keeps pytest from collecting this file; besides pytest, which it
runs, it uses the standard library only. On 2 vCPUs a run took 44 s, against
24 s for tier 1 untraced and 37 s under a tracer that does nothing.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Unrun:
    path: str    # relative to the repository root
    text: str    # the line's stripped text; exactly one line of the file holds it
    reason: str


NAMED = (
    Unrun("src/mocadet/fileio.py",
          "raise ValidationError(f\"cannot write {path}: {head} is not writable\")",
          "tier 1 runs as root, for whom os.access grants W_OK on every directory"),
    Unrun("src/mocadet/tokens.py",
          "raise ValidationError(\"degenerate synthetic embedding (zero norm)\")",
          "needs u1 = 1 in every Box-Muller pair of the embedding: 2**-53 per pair"),
    Unrun("src/mocadet/cli.py", "sys.exit(main())",
          "runs only when the module is __main__; the reachability test runs main "
          "in a subprocess"),
)


def source_files() -> list:
    """The real paths of the ``src/mocadet`` modules."""
    return sorted(os.path.realpath(p) for p in glob.glob(os.path.join(SRC, "mocadet", "*.py")))


def executable_lines(path: str) -> set:
    """The line numbers of ``co_lines()`` of every code object compiled from
    the file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def named_line(entry: Unrun) -> int:
    """The line number of ``entry``: the one line of its file whose stripped
    text is ``entry.text``; ValueError when there is not exactly one."""
    with open(os.path.join(ROOT, entry.path), encoding="utf-8") as fh:
        found = [i for i, line in enumerate(fh, 1) if line.strip() == entry.text]
    if len(found) != 1:
        raise ValueError(f"{entry.path} holds {len(found)} lines {entry.text!r}")
    return found[0]


class Recorder:
    """A settrace tracer that files each ``src/`` line run under its owner:
    ``None`` outside any test, a test's node id within it, or
    ``(argname, baseid)`` while a fixture wider than a function is set up."""

    def __init__(self, files):
        self.files = set(files)
        self.hits = {}          # owner -> {(co_filename, line)}
        # owner -> {code object: True once the owner has run each of its
        # lines, else len(hits[owner]) when that was last found not so}
        self.progress = {}
        self._seen = [None]     # the set of the current owner, where the tracer adds
        self._progress = [None]  # and the progress of the current owner
        self.own(None)
        self.tests = []         # node ids in run order
        self.fixtures = {}      # node id -> the fixture names it uses
        self.spawners = set()   # owners that started a subprocess
        self.real = {}          # co_filename -> its real path if in self.files, else None
        self.trace = self._tracer()

    def own(self, owner) -> None:
        self.owner = owner
        self._seen[0] = self.hits.setdefault(owner, set())
        self._progress[0] = self.progress.setdefault(owner, {})

    def _tracer(self):
        # closures over locals: the tracer runs on every call and every src/
        # line. A code object whose every line the owner has run gets no line
        # events under that owner again: a call of it can add no line but
        # its own first one, which the call event adds.
        seen, progress, real, files = self._seen, self._progress, self.real, self.files
        lines_of = {}  # code object -> {(co_filename, line)} of its co_lines()

        def line(frame, event, arg):
            if event == "line":
                seen[0].add((frame.f_code.co_filename, frame.f_lineno))
            return line

        def call(frame, event, arg):
            code = frame.f_code
            name = code.co_filename
            path = real.get(name, 0)
            if path == 0:
                path = os.path.realpath(name)
                path = real[name] = path if path in files else None
            if path is None:
                return None
            owned = seen[0]
            owned.add((name, frame.f_lineno))
            known = progress[0]
            mark = known.get(code)
            if mark is True:
                return None
            if mark != len(owned):  # a set that has not grown is still short
                need = lines_of.get(code)
                if need is None:
                    need = lines_of[code] = {(name, n) for _, _, n in code.co_lines() if n}
                if need <= owned:
                    known[code] = True
                    return None
                known[code] = len(owned)
            return line

        return call

    def lines(self, owner) -> set:
        """The (real path, line) pairs run under ``owner``."""
        return {(self.real[name], line) for name, line in self.hits.get(owner, ())}

    def run(self, pytest_args) -> int:
        """Runs pytest with ``pytest_args`` under this tracer; pytest's exit code."""
        import pytest

        rec = self

        class Plugin:
            @pytest.hookimpl(tryfirst=True)
            def pytest_runtest_logstart(self, nodeid, location):
                rec.tests.append(nodeid)
                rec.own(nodeid)

            @pytest.hookimpl(tryfirst=True)
            def pytest_runtest_setup(self, item):
                rec.fixtures[item.nodeid] = list(item.fixturenames)

            @pytest.hookimpl(trylast=True)
            def pytest_runtest_logfinish(self, nodeid, location):
                rec.own(None)

            @pytest.hookimpl(hookwrapper=True)
            def pytest_fixture_setup(self, fixturedef, request):
                if fixturedef.scope == "function":
                    yield
                    return
                was = rec.owner
                rec.own((fixturedef.argname, fixturedef.baseid))
                yield
                rec.own(was)

        # reading frame.f_code is an audited event: an audit hook would run
        # on every traced call and line, so subprocesses are seen here
        popen_init = subprocess.Popen.__init__

        def spawn(popen, *args, **kwargs):
            rec.spawners.add(rec.owner)
            popen_init(popen, *args, **kwargs)

        subprocess.Popen.__init__ = spawn
        threading.settrace(self.trace)
        sys.settrace(self.trace)
        try:
            return pytest.main(list(pytest_args), plugins=[Plugin()])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            subprocess.Popen.__init__ = popen_init

    def owners_of(self, nodeid: str) -> list:
        """Test ``nodeid`` and each wider fixture it uses that was set up."""
        return [nodeid] + [owner for owner in self.hits if isinstance(owner, tuple)
                           and owner[0] in self.fixtures.get(nodeid, ())
                           and nodeid.startswith(owner[1])]


def _rel(path: str) -> str:
    return os.path.relpath(path, ROOT).replace(os.sep, "/")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--map", metavar="FILE",
                        help="write the src/ lines that each test runs to FILE (JSON)")
    args = parser.parse_args(argv)

    named = {(os.path.realpath(os.path.join(ROOT, e.path)), named_line(e)): e for e in NAMED}
    files = source_files()
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.chdir(ROOT)
    rec = Recorder(files)
    t0 = time.perf_counter()
    code = rec.run(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    seconds = time.perf_counter() - t0

    run = set().union(*(rec.lines(owner) for owner in rec.hits))
    executable = {(path, line) for path in files for line in executable_lines(path)}
    unnamed = sorted(executable - run - set(named))
    now_run = sorted(set(named) & run)
    print(f"linecover: {len(rec.tests)} tests in {seconds:.0f} s (pytest exit {code}); "
          f"{len(executable)} executable src/ lines, {len(executable & run)} run, "
          f"{len(named)} named", flush=True)
    for path, line in unnamed:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()[line - 1].strip()
        print(f"{_rel(path)}:{line}: never runs and is not named: {text}")
    for key in now_run:
        print(f"{_rel(key[0])}:{key[1]}: runs but is named: {named[key].text}")

    if args.map:
        def by_file(lines):
            out = {}
            for path, line in sorted(lines):
                out.setdefault(_rel(path), []).append(line)
            return out

        with open(args.map, "w", encoding="utf-8") as fh:
            json.dump({"import": by_file(rec.lines(None)),
                       "spawned": [t for t in rec.tests
                                   if rec.spawners.intersection(rec.owners_of(t))],
                       "tests": {t: by_file(set().union(*map(rec.lines, rec.owners_of(t))))
                                 for t in rec.tests}}, fh)
    return 1 if unnamed or now_run else 0


if __name__ == "__main__":
    sys.exit(main())
