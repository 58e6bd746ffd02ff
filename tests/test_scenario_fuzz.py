"""Mutation fuzzing of scenario validation.

One leaf of a bundled document, in its template form or expanded, is
replaced by a value of the wrong type or an out-of-range number.  Building
the scenario must then either succeed or raise one of the two documented
scenario errors, never anything else.  Building must never write into the
caller's document.
"""
import copy
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsim import cli
from gcsim import scenario as scen
from gcsim.scenario import Scenario
from gcsim.errors import ScenarioParseError, ScenarioValidationError

from scenario_gen import random_template_doc


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


# Values that edge records share as objects, the way a template writes one
# edge object into every link: True and 1 and 1.0, 0.0 and -0.0 compare
# equal but are not the same value to validation or to the params
SHARED = [1, True, 1.0, 0.0, -0.0, 0.05, 2.5, "x", None, [], float("nan"), float("inf")]


def _finite_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_shared_edge_values_are_checked_as_fresh_ones(data):
    # validation reuses the params of a record whose numeric fields have
    # the types and bits of one that passed; every record must still get
    # its own problems, at its own index, and its own params
    objects = [data.draw(st.sampled_from(SHARED)) for _ in range(4)]
    doc = scen.expand_document(_short(scen.load_document("line8")))[0]
    for rec in doc["graph"]["edges"]:
        for name in data.draw(st.lists(st.sampled_from(sorted(scen._EDGE_NUMS)), max_size=3, unique=True)):
            if name in scen._EDGE_REQUIRED or data.draw(st.booleans()):
                rec[name] = data.draw(st.sampled_from(objects))
            else:
                del rec[name]
    fields, problems = scen.validate_document(doc)
    records = doc["graph"]["edges"]
    expected = [f"graph.edges[{i}].{name}: must be a number"
                for i, rec in enumerate(records) for name in scen._EDGE_NUMS
                if name in rec and not _finite_number(rec[name])]
    assert [p for p in problems if p.startswith("graph.edges[")] == expected
    if not problems:
        params = [repr(tuple(getattr(p, name) for name in scen._EDGE_NUMS)) for _, _, p in fields["graph"].edges]
        assert params == [repr(tuple(float(rec.get(name, d)) for name, d in scen._EDGE_NUMS.items()))
                          for rec in records]


def test_values_equal_to_passed_ones_are_not_taken_for_them():
    # 1 == True and 0.0 == -0.0, with equal hashes
    doc = scen.expand_document(_short(scen.load_document("line8")))[0]
    first, second = doc["graph"]["edges"][:2]
    first["jitter"], second["jitter"] = 1, True
    assert scen.validate_document(doc)[1] == ["graph.edges[1].jitter: must be a number"]
    first["jitter"], second["jitter"] = 0.0, -0.0
    fields, problems = scen.validate_document(doc)
    assert not problems
    assert [math.copysign(1.0, p.jitter) for _, _, p in fields["graph"].edges[:2]] == [1.0, -1.0]


def test_a_template_edge_is_checked_once():
    doc = scen.load_document("random16")
    links = len(scen.expand_document(doc)[0]["graph"]["edges"])
    with mock.patch.object(scen, "_num", wraps=scen._num) as num:
        scen.build_scenario(doc)
    edge_checks = [c for c in num.call_args_list if c.args[3].startswith("graph.edges[")]
    assert links > 1 and len(edge_checks) == len(scen._EDGE_NUMS)


def _scripted_default_doc() -> dict:
    # every expanded node spec holds the default's one segments list
    doc = random_template_doc(8)
    doc["clocks"]["default"] = {"generator": "scripted", "segments": [[0.0, 1.0], [40.0, 1.005]]}
    del doc["clocks"]["overrides"]
    return doc


UNTOUCHED_DOCS = {
    **{name: (lambda name=name: scen.load_document(name)) for name in scen.bundled_names()},
    "random_template_64": lambda: random_template_doc(64),
    "scripted_default": _scripted_default_doc,
    # a sweep row, as the CLI builds it with a seed override
    "sweep_row": lambda: cli._apply_overrides(random_template_doc(16), {"n": 8, "eps_d": 0.2}),
}


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize("name", sorted(UNTOUCHED_DOCS))
def test_building_leaves_the_document_as_it_was(name, seed):
    # expansion shares what it does not rewrite with the caller's document,
    # so neither it nor the build may write into it
    doc = UNTOUCHED_DOCS[name]()
    before = copy.deepcopy(doc)
    expanded, problems = scen.expand_document(doc)
    assert problems == [] and doc == before
    sc = scen.build_scenario(doc, seed_override=seed)
    assert doc == before
    assert sc.master_seed == (before["sim"]["master_seed"] if seed is None else seed)
    if name == "scripted_default":
        assert expanded["clocks"]["nodes"][0]["segments"] is doc["clocks"]["default"]["segments"]
