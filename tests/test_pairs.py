"""tools/pairs.py's summary, which decides every before/after claim."""

import importlib.util
import pathlib

import pytest

PAIRS = pathlib.Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


@pytest.fixture(scope="module")
def summarise():
    spec = importlib.util.spec_from_file_location("pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarise


def runs(parent, change):
    return {side: [{"metrics": {"m": v}} for v in values]
            for side, values in (("parent", parent), ("change", change))}


# pairs 0 and 3 tie; the change is lower in pairs 2 and 4, higher in pair 1
TIED = runs(parent=[10, 20, 30, 40, 50], change=[10, 25, 25, 40, 45])


@pytest.mark.parametrize("better, pairs", [("lower", 2), ("higher", 1)])
def test_ties_count_for_neither_side(summarise, better, pairs):
    s = summarise(TIED, {"name": "m", "better": better, "bound": 1.0})
    assert s["change_better_pairs"] == pairs
    assert (s["median_parent"], s["median_change"]) == (30, 25)
    assert s["median_delta"] == round(-5 / 30, 4)


def test_parent_iqr_is_the_exclusive_quartile_spread(summarise):
    # quartiles of 10..50 at ranks 1.5 and 4.5 of 5: 15 and 45
    s = summarise(TIED, {"name": "m", "better": "lower", "bound": 1.0})
    assert s["parent_iqr"] == 30


@pytest.mark.parametrize("better, bound, parent, change, worse", [
    ("lower", 0.2, [10, 10, 10], [12, 12, 12], False),   # +20%: at the bound, not past it
    ("lower", 0.2, [10, 10, 10], [13, 13, 13], True),    # +30% on a lower-is-better metric
    ("lower", 0.2, [10, 10, 10], [5, 5, 5], False),      # -50%: better
    ("higher", 0.15, [10, 10, 10], [8, 8, 8], True),     # -20% on a higher-is-better metric
    ("higher", 0.15, [10, 10, 10], [9, 9, 9], False),    # -10%: inside the bound
    ("higher", 0.15, [10, 10, 10], [20, 20, 20], False),  # +100%: better
])
def test_worse_than_bound_follows_the_direction(summarise, better, bound, parent, change, worse):
    s = summarise(runs(parent, change), {"name": "m", "better": better, "bound": bound})
    assert s["worse_than_bound"] is worse
