"""README claims that can drift from the code."""

import pathlib
import re

from ccsim import CollectiveClockProtocol, ProtocolAdapter, TwoPhaseCommitProtocol

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
ROADMAP = ROOT / "ROADMAP.md"


def hook_table():
    """{name: (cc says yes, 2pc says yes)} from README's `| hook | cc | 2pc |` table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| hook | cc | 2pc |") + 2  # skip the header and the rule
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        first, cc, tpc = [cell.strip() for cell in line.strip("|").split("|")]
        # the names are the backticked words before any parenthesised comment
        for name in re.findall(r"`(\w+)", first.split(" (")[0]):
            rows[name] = (cc == "yes", tpc == "yes")
    return rows


def test_readme_hook_table_matches_the_adapters():
    rows = hook_table()
    assert rows, "README hook table not found"
    for name in rows:
        assert hasattr(ProtocolAdapter, name), f"README lists {name!r}, not a ProtocolAdapter attribute"
    hooks = {name for name, value in vars(ProtocolAdapter).items()
             if callable(value) and not name.startswith("_")}
    assert hooks <= rows.keys(), f"hooks missing from README: {sorted(hooks - rows.keys())}"
    for name, (cc, tpc) in rows.items():
        assert cc == (name in vars(CollectiveClockProtocol)), f"README cc column for {name!r}"
        assert tpc == (name in vars(TwoPhaseCommitProtocol)), f"README 2pc column for {name!r}"


def test_roadmap_states_the_src_line_count():
    text = " ".join(ROADMAP.read_text(encoding="utf-8").split())  # the sentence wraps
    stated = re.search(r"it is (\d+) lines now by `wc -l src/ccsim/\*\.py`", text)
    assert stated, "ROADMAP's src line count sentence not found"
    lines = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "ccsim").glob("*.py"))
    assert int(stated.group(1)) == lines, "ROADMAP's src line count is stale"
