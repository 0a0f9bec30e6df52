"""Line coverage of ``src/ccsim`` under the tier-1 suite, stdlib only.

    python tools/linecov.py

Run from any directory. It starts ``sys.settrace`` and ``threading.settrace``
before ``ccsim`` is imported, runs the tier-1 command
(``pytest -q --continue-on-collection-errors`` in the repository root) in
this process, and compares the lines each module ran with its executable
lines, read from its code objects' ``co_lines()``.
Lines that only a subprocess runs (``python -m ccsim.cli``, the demos)
count as missed.

It exits 0 when every missed line is on ``ALLOWED`` and every ``ALLOWED``
entry is missed. It exits 1 when a missed line is not on the list, or when
an entry matches no missed line (the line now runs, or is gone), and it
exits with pytest's code when the suite fails. An entry is keyed by file,
enclosing function and stripped source text, never by line number, so an
edit elsewhere in a file does not move it.
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ccsim")

# (file, function, stripped line) -> why tier-1 never runs it
ALLOWED = {
    ("cli.py", "<module>", "sys.exit(main())"):
        "runs only under `python -m ccsim.cli`, which tier-1 starts as a subprocess",
    ("runtime.py", "on_round_start", "return {}"):
        "adapter default: the coordinator refuses a round for a protocol without checkpoints",
    ("runtime.py", "snapshot_rank", "return {}"):
        "adapter default: no round, so no snapshot, for a protocol without checkpoints",
    ("runtime.py", "restore_rank", "pass"):
        "adapter default: restart refuses the image of a protocol without checkpoints",
}


def executable_lines(path: str) -> dict:
    """{line number: name of the innermost code object that runs it} for
    every line that the code compiled from ``path`` can run."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = {}
    while todo:  # a code object is read before the ones nested in it, which win
        code = todo.pop()
        lines.update((line, code.co_name) for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def collect(run, paths) -> dict:
    """Run ``run()`` with a line tracer on the files in ``paths`` and return
    {path: set of line numbers that ran}. The tracers in place before the
    call are put back after it."""
    paths = {os.path.abspath(p) for p in paths}
    hits, local_tracers = {}, {}

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        local = local_tracers.get(path)
        if local is None:
            if path not in paths:
                return None
            add = hits.setdefault(path, set()).add

            def local(frame, event, arg):
                add(frame.f_lineno)
                return local

            local_tracers[path] = local
        local(frame, event, arg)  # the call event: a frame's first line
        return local

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    return hits


def missed_lines(path: str, ran) -> list:
    """The executable lines of ``path`` that are not in ``ran``, as
    (line number, function, stripped text), in line order."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read().splitlines()
    return [(line, name, text[line - 1].strip())
            for line, name in sorted(executable_lines(path).items()) if line not in ran]


def main() -> int:
    files = sorted(os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE) if f.endswith(".py"))
    os.chdir(ROOT)
    status = []
    hits = collect(lambda: status.append(
        pytest.main(["-q", "--continue-on-collection-errors"])), files)
    if status[0] != 0:
        print(f"linecov: the suite failed (pytest exit {status[0]})")
        return int(status[0])
    unlisted, allowed_missed, total = [], set(), 0
    for path in files:
        name = os.path.basename(path)
        total += len(executable_lines(path))
        for line, function, text in missed_lines(path, hits.get(path, ())):
            if (name, function, text) in ALLOWED:
                allowed_missed.add((name, function, text))
            else:
                unlisted.append(f"  {name}:{line} ({function}) {text}")
    stale = [f"  {key}" for key in ALLOWED if key not in allowed_missed]
    print(f"linecov: {total} executable lines in src/ccsim, {len(unlisted)} missed and "
          f"not allowed, {len(allowed_missed)} of {len(ALLOWED)} allowed entries missed")
    if unlisted:
        print("missed lines not on ALLOWED:", *unlisted, sep="\n")
    if stale:
        print("ALLOWED entries that no missed line matches:", *stale, sep="\n")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
