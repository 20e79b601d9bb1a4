"""The README's Python examples run against the current API, and its
scenario-document table lists the schema's keys and defaults."""

from __future__ import annotations

import json
import re
from enum import Enum
from pathlib import Path

import pytest

from urllc_mc.config import _KEYS, ScenarioConfig
from urllc_mc.solver import BlerPolicy

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md[python block {index}]", "exec"), {})


def test_scenario_table_follows_the_schema():
    section = README.read_text(encoding="utf-8").split("### Scenario document")[1]
    section = section.split("\n### ")[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
            table[cells[0]] = cells[1]
    assert set(table) == _KEYS
    for name, default in ScenarioConfig._field_defaults.items():
        if isinstance(default, BlerPolicy):
            default = default.kind  # the "policy" key names the kind
        if isinstance(default, Enum):
            default = default.value
        if isinstance(default, (int, float, str)):  # bool is an int
            assert table[name] == json.dumps(default), name
