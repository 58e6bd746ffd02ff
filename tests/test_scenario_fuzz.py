"""Mutation fuzzing of scenario validation.

One leaf of a bundled document, in its template form or expanded, is
replaced by a value of the wrong type or an out-of-range number.  Building
the scenario must then either succeed or raise one of the two documented
scenario errors, never anything else.
"""
import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from gcsim import scenario as scen
from gcsim.engine import Scenario
from gcsim.errors import ScenarioParseError, ScenarioValidationError


def _short(doc):
    doc["sim"]["horizon_cycles"] = 5
    return doc


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        yield path
        return
    for key, child in children:
        yield from _leaf_paths(child, path + (key,))


DOCS = []
for _name in scen.bundled_names():
    _doc = _short(scen.load_document(_name))
    DOCS.append(_doc)
    DOCS.append(scen.expand_document(_doc)[0])

BAD_VALUES = st.sampled_from(
    ["x", "1.0", None, True, False, [], [1], {}, {"a": 1},
     -1, 0, -1.0, 0.0, 0.5, 1e-300, 1e308, float("inf"), float("nan")]
)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_document_builds_or_is_refused(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(DOCS)))
    path = data.draw(st.sampled_from(sorted(_leaf_paths(doc), key=repr)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(BAD_VALUES)
    try:
        sc = scen.build_scenario(doc)
    except (ScenarioParseError, ScenarioValidationError):
        return
    assert isinstance(sc, Scenario)
