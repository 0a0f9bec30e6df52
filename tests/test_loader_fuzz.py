"""Fuzz both loaders: malformed input fails closed with a typed error.

A valid snapshot with one field, of the image or of a line of its embedded
scenario, set to an arbitrary JSON value must either be rejected with a
``SimulationError`` subclass (at load, restart or run time) or restart and run
to the end. Arbitrary text, and a valid scenario with one field set to an
arbitrary JSON value, must load or raise ``ScenarioError``.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ccsim import ScenarioError, ScenarioProgram, SimulationError, SnapshotImage, restart, run
from ccsim.scenario import builtin_scenario, generate_workload

from conftest import drained_request_scenario

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    """Every key path inside a JSON value, the value itself excluded."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(obj, path, value):
    """A copy of ``obj`` with the value at ``path`` replaced."""
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


def _lines(text):
    return [json.loads(line) for line in text.splitlines()]


def _text(lines):
    return "".join(json.dumps(line) + "\n" for line in lines)


IMAGES = [
    json.loads(run("fig2", algorithm="cc", seed=11,
                   ckpt=("trigger", "fig2-instant")).snapshot.dumps()),
    json.loads(run("fig2", algorithm="2pc", seed=11, ckpt=("at_step", 40)).snapshot.dumps()),
    json.loads(run(drained_request_scenario(), "cc", seed=3,
                   ckpt=("at_step", 2)).snapshot.dumps()),
]
IMAGE_FIELDS = [(i, path) for i, image in enumerate(IMAGES) for path in _paths(image)]
EMBEDDED_FIELDS = [(i, path) for i, image in enumerate(IMAGES)
                   for path in _paths(_lines(image["scenario_jsonl"]))]

SCENARIO_LINES = [
    _lines(sc.dumps())
    for sc in (builtin_scenario("fig2"), drained_request_scenario(),
               generate_workload(4, ranks=4, groups=2, ops=20,
                                 nonblocking_ratio=0.3, p2p_ratio=0.2))
]
SCENARIO_FIELDS = [(i, path) for i, lines in enumerate(SCENARIO_LINES)
                   for path in _paths(lines)]


def _restart_and_run(obj):
    try:
        restart(SnapshotImage.loads(json.dumps(obj))).run()
    except SimulationError:
        pass


@FUZZ
@given(st.sampled_from(IMAGE_FIELDS), JSON_VALUES)
def test_snapshot_with_one_field_mutated_fails_closed(field, value):
    index, path = field
    _restart_and_run(_mutated(IMAGES[index], path, value))


@FUZZ
@given(st.sampled_from(EMBEDDED_FIELDS), JSON_VALUES)
def test_snapshot_with_one_embedded_scenario_field_mutated_fails_closed(field, value):
    index, path = field
    image = IMAGES[index]
    lines = _mutated(_lines(image["scenario_jsonl"]), path, value)
    _restart_and_run({**image, "scenario_jsonl": _text(lines)})


@FUZZ
@given(st.text())
def test_arbitrary_scenario_text_fails_closed(text):
    try:
        ScenarioProgram.loads(text)
    except ScenarioError:
        pass


@FUZZ
@given(st.sampled_from(SCENARIO_FIELDS), JSON_VALUES)
def test_scenario_with_one_field_mutated_fails_closed(field, value):
    index, path = field
    lines = _mutated(SCENARIO_LINES[index], path, value)
    try:
        ScenarioProgram.loads(_text(lines))
    except ScenarioError:
        pass
