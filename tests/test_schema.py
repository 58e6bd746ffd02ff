"""SCHEMA.md documents exactly the scenario keys that validation accepts."""
import re
from pathlib import Path

import pytest

from gcsim import scenario as scen

SCHEMA = (Path(__file__).resolve().parents[1] / "SCHEMA.md").read_text(encoding="utf-8")

ACCEPTED = set().union(
    scen._TOP_KEYS, scen._GRAPH_KEYS, scen._EDGE_KEYS, scen._TEMPLATE_KEYS, scen._CLOCK_KEYS,
    scen._GCS_KEYS, scen._SIM_KEYS, scen._NODE_COMMON_KEYS, *scen._GEN_KEYS.values(),
)


def table_keys(section: str) -> set[str]:
    """The backticked names in the first column of the tables under the
    heading ``## section``."""
    body = SCHEMA.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return {key for line in body.splitlines() if line.startswith("| `")
            for key in re.findall(r"`([^`]*)`", line.split("|")[1])}


def test_every_accepted_key_is_documented():
    assert ACCEPTED - set(re.findall(r"`([^`\n]*)`", SCHEMA)) == set()


@pytest.mark.parametrize("section, accepted", [("gcs", scen._GCS_KEYS), ("sim", scen._SIM_KEYS)])
def test_every_documented_key_is_accepted(section, accepted):
    assert table_keys(section) == accepted
