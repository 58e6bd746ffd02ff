"""Byte-identity of the CLI outputs of the bundled scenarios.

Each bundled scenario runs for 60 cycles in both metrics modes through
``gcsim run``; the SHA-256 of its ``summary.json``, ``violations.json`` and
``trace.csv`` must equal the digests below, taken before the ground-truth
checks moved from the event handlers into the per-chunk reduction.  A change
that is meant to keep behaviour keeps these files byte for byte; a change
that is meant to alter them updates the digests and says why.

The two bundled scenarios with link jitter, random16 and star6 (p_max 0.2),
are also pinned at their full length, with digests taken when each link
draw became a function of the seed, its direction, its leg and the
requester's cycle.  The link draws reach the outputs only through the
mode changes they bring about, which 60 cycles can miss; full length does
not.

No bundled scenario has a random-walk clock, so the full-length outputs of
``scenario_gen.random_suite_doc(2)``, whose clocks are random walks, are
pinned too, with digests taken while the engine still drew the walks: once
as generated, drawing every walk from the master seed, and once with a
``seed`` of its own on node 0.

With no jitter and no processing time, no link draw reaches an output: a
delay is its base plus 0.0 times the draw.  grid4x4 and random16 are
pinned that way too, with digests taken while the link streams were still
drawn in the heap's order, so they hold the event loop to its outputs
whatever the link draws are.
"""
import hashlib
import json

import pytest

from gcsim import cli
from gcsim import scenario as scen

from scenario_gen import random_suite_doc

FILES = ("summary.json", "violations.json", "trace.csv")

# (scenario, metrics mode) -> SHA-256 of FILES, in that order
DIGESTS = {
    ("grid4x4", "full"): (
        "1c1423c328e8b2b37ee62a3a5cb81ef3f6ef195bfa90c61f97e0496b1382c8ee",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "e20e3faea77125f1ae907e0b8d3f9509e84a2f154e3c39187688936d46ab2c75",
    ),
    ("grid4x4", "skew_only"): (
        "bae743f4ba6492c0d78ffbff19371c76e59334a80bf72b24705142bd4b0246b5",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "b18875d2c90884f1684d16228d17eca0cbbc31fd93888ae08d964f2cb37f52cb",
    ),
    ("line8", "full"): (
        "b853b2918e93d49cf2ee1b1e08e0d939c8e01f4bd7149865fd0d52c829763769",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "979716a416152f38405e894a917fcb78bcc50eca7ce84e681ca82f226370d467",
    ),
    ("line8", "skew_only"): (
        "a522f8b07c19a914f2e13eb38f1af6e778c1b3d82c9b26b1649d44b70d513123",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "2273802ef4d5dd0a5482539e53671da3bb4dea2a218857a1a64b14e0b9a35ab8",
    ),
    ("random16", "full"): (
        "03db17619f00ace45fa15d236df376ab5bf4aabe418a677080b71a405a26c834",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "c8dc47f572086c1e1c41b9cf76ce3f51aca56f3762905a0abbc4ab4a52bd8c36",
    ),
    ("random16", "skew_only"): (
        "4d9e555f65bae73722746e2e45fe9fbecbef6a27fad1dba94c5c700143bed074",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "b18875d2c90884f1684d16228d17eca0cbbc31fd93888ae08d964f2cb37f52cb",
    ),
    ("ring12", "full"): (
        "86e111d4e162785ca845c009ecb3145540af68af218555ad7a44b2b3e13ee3af",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "f04a5be4314310972a18b34636884b9a3e9c75629b2c6a22bbf575840b3d37e0",
    ),
    ("ring12", "skew_only"): (
        "b9056057e87a4d6fbe05cebe154928930ead23bf0e7613df1012c20201c81bc3",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "0320da62f75f5753dff57eeeeca19a11c4e6bf5da02458645f13c6dd9787a157",
    ),
    ("star6", "full"): (
        "671a6ddef2ca86c807d211a33e9b9005f7e78eaa7cc3daecedafd47754d8ebc0",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "5a68d3b2900d79c359df287210ed905c07fbceecdce537aa030390ea6e6366b6",
    ),
    ("star6", "skew_only"): (
        "64d3360b7fd2cd0a1e140e481da9dc393906479ffa8181102d3afac1d494f022",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "5253a35a1810116c890644f94b4502afe856ba86cd8f68c093c93ce304b83ae3",
    ),
}

# (scenario, metrics mode) -> SHA-256 of FILES of the full-length run
FULL_LENGTH_DIGESTS = {
    ("random16", "full"): (
        "601192486516d9e2c76390159689238e67cc9bcf89c61344e6fa63d6c1d2bd1b",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "68672b7537328201c5562147b744efd06d8d7b305b381f5a378e5d9e3aead273",
    ),
    ("random16", "skew_only"): (
        "e4b642aafd684f86e06297e43b679a047d6ec57847b1fa97a5011204c4d9de44",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "b18875d2c90884f1684d16228d17eca0cbbc31fd93888ae08d964f2cb37f52cb",
    ),
    ("star6", "full"): (
        "73f4214abc1a0b6b2d7700e402bbfd6aecd123282942148b75d9c9fd6d81d4f7",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "3ee8bb9c4146f4ffb12393175b7d432d4e9e6333e1ab2f8f6f18aa94c894f930",
    ),
    ("star6", "skew_only"): (
        "870879590f90cdc3e770221d30ac72ac36a2418721dd2484fc983ee0eed598a1",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "5253a35a1810116c890644f94b4502afe856ba86cd8f68c093c93ce304b83ae3",
    ),
}


# random-walk document -> SHA-256 of FILES of its full-length run
RANDOM_WALK_DIGESTS = {
    "master seed": (
        "8f31382b345f89ae3b07a1f8e334545f70e96bda1d0b10bf06da2d8a001662b5",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "c8efdc96ba8e0b4f558205dcce738b71510af933549f5ba0d0c44a08545b6e62",
    ),
    "node seed": (
        "6f1dc27c8466068e95ea42fd0c8510982b6ebf40d95ca88a62c98940ac95d734",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "740d19c2fdcbdbdf9d041b89fedac319ed1af84a671393416720b60483aeb6c5",
    ),
}


# (scenario, metrics mode) -> SHA-256 of FILES of its 60-cycle run with no
# jitter and no processing time (zero_draw_doc)
ZERO_DRAW_DIGESTS = {
    ("grid4x4", "full"): (
        "98d9b4fcfc83c4cf1fd18e9717388d0101d1f4d8f4543caec4d57b9287d5d9cb",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "e20e3faea77125f1ae907e0b8d3f9509e84a2f154e3c39187688936d46ab2c75",
    ),
    ("grid4x4", "skew_only"): (
        "0e8a97e7cc9d7b29cb0cf10580c0746607aaf373ebdec845dc85baefef33e9f6",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "b18875d2c90884f1684d16228d17eca0cbbc31fd93888ae08d964f2cb37f52cb",
    ),
    ("random16", "full"): (
        "8f11da7b4eb751d529a936bb52955000fdd3dfd0943bd89308a4322739766a79",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "20874d8a074f5b458b2df76d8e51b10bada14f18cf45af0083f3b50508861169",
    ),
    ("random16", "skew_only"): (
        "fbe7b1783e8436a7c56a718f981f3d967d0269d4105d54647ea5e498262ce0e4",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "b18875d2c90884f1684d16228d17eca0cbbc31fd93888ae08d964f2cb37f52cb",
    ),
}


def random_walk_doc(variant: str) -> dict:
    doc = random_suite_doc(2)
    if variant == "node seed":
        doc["clocks"]["overrides"].setdefault("0", {})["seed"] = 7
    return doc


def bundled_doc(name: str, mode: str, horizon_cycles: int | None) -> dict:
    """Bundled ``name`` in ``mode``, for ``horizon_cycles`` cycles or at its
    own length (None)."""
    doc = scen.load_document(name)
    if horizon_cycles is not None:
        doc["sim"].pop("horizon_time", None)
        doc["sim"]["horizon_cycles"] = horizon_cycles
    doc["sim"]["metrics"] = mode
    return doc


def zero_draw_doc(name: str, mode: str) -> dict:
    """Bundled ``name`` in ``mode`` for 60 cycles, with every link's jitter
    and the processing time p_max set to 0."""
    doc = bundled_doc(name, mode, 60)
    doc["gcs"]["p_max"] = 0.0
    graph = doc["graph"]
    for edge in graph.get("edges", []):
        edge["jitter"] = 0.0
    if "template" in graph:
        graph["template"]["edge"]["jitter"] = 0.0
    return doc


def digests(tmp_path, doc: dict) -> dict:
    """SHA-256 of FILES of ``gcsim run`` on ``doc``."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES}


@pytest.mark.parametrize("name,mode", sorted(DIGESTS))
def test_bundled_outputs_are_byte_identical(name, mode, tmp_path):
    doc = bundled_doc(name, mode, 60)
    assert digests(tmp_path, doc) == dict(zip(FILES, DIGESTS[(name, mode)]))


@pytest.mark.parametrize("name,mode", sorted(FULL_LENGTH_DIGESTS))
def test_full_length_jittered_outputs_are_byte_identical(name, mode, tmp_path):
    doc = bundled_doc(name, mode, None)
    assert digests(tmp_path, doc) == dict(zip(FILES, FULL_LENGTH_DIGESTS[(name, mode)]))


@pytest.mark.parametrize("variant", sorted(RANDOM_WALK_DIGESTS))
def test_random_walk_outputs_are_byte_identical(variant, tmp_path):
    assert digests(tmp_path, random_walk_doc(variant)) == dict(zip(FILES, RANDOM_WALK_DIGESTS[variant]))


@pytest.mark.parametrize("name,mode", sorted(ZERO_DRAW_DIGESTS))
def test_zero_draw_outputs_are_byte_identical(name, mode, tmp_path):
    assert digests(tmp_path, zero_draw_doc(name, mode)) == dict(zip(FILES, ZERO_DRAW_DIGESTS[(name, mode)]))
