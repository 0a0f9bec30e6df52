"""tools/linecov.py: its collector on a module of its own, and its allow list."""

import importlib.util
import os
import pathlib
import sys
import threading

import pytest

LINECOV = pathlib.Path(__file__).resolve().parent.parent / "tools" / "linecov.py"

SIGNS = """\
def sign(x):
    if x < 0:
        return -1
    return 1
"""


@pytest.fixture(scope="module")
def linecov():
    spec = importlib.util.spec_from_file_location("linecov", LINECOV)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_collector_finds_the_one_untaken_branch(linecov, tmp_path):
    path = tmp_path / "signs.py"
    path.write_text(SIGNS)

    def import_and_call():
        spec = importlib.util.spec_from_file_location("signs", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.sign(5) == 1

    before = sys.gettrace(), threading.gettrace()
    ran = linecov.collect(import_and_call, [path])
    # put back, so that a traced suite goes on tracing the tests after this one
    assert (sys.gettrace(), threading.gettrace()) == before
    assert linecov.missed_lines(str(path), ran[str(path)]) == [(3, "sign", "return -1")]


def test_every_allowed_entry_names_an_executable_line_with_a_reason(linecov):
    assert len(linecov.ALLOWED) <= 8
    for (name, function, text), reason in linecov.ALLOWED.items():
        path = os.path.join(linecov.PACKAGE, name)
        lines = linecov.missed_lines(path, ())  # with nothing run, every executable line
        assert (function, text) in {(f, t) for _, f, t in lines}, (name, function, text)
        assert reason
