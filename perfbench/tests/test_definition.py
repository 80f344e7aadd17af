"""BENCHMARK.json against the code, name validity, seeded inputs."""

import json
import random
import re
from pathlib import Path

import pytest

from perfbench.layers import PER_LAYER
from perfbench.rep import percentile
from perfbench.run import END_TO_END
from perfbench.workloads import WORKLOADS, make_inputs, seeded_sample

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def definition():
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def test_names_and_units_are_valid_and_unique(definition):
    names = [w["name"] for w in definition["workloads"]]
    names += [m["name"] for m in definition["end_to_end"]]
    names += [m["name"] for m in definition["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in definition["end_to_end"] + definition["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_definition_matches_the_code(definition):
    assert [w["name"] for w in definition["workloads"]] == list(WORKLOADS)
    for entry in definition["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [(m["name"], m["unit"]) for m in definition["end_to_end"]] == list(
        END_TO_END
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in definition["per_layer"]
    ] == list(PER_LAYER)
    setup = [m for m in definition["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in definition["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in definition["end_to_end"])


def test_seeded_sample_is_deterministic_and_keeps_the_walls():
    pool = [f"site{i}.example" for i in range(200)]
    walls = pool[10:15]
    first = seeded_sample(random.Random("w/7"), pool, walls, 40)
    again = seeded_sample(random.Random("w/7"), pool, walls, 40)
    other = seeded_sample(random.Random("w/8"), pool, walls, 40)
    assert first == again
    assert first != other
    assert len(first) == len(set(first)) == 40
    assert set(walls) <= set(first) and set(walls) <= set(other)


@pytest.fixture(scope="module")
def world():
    from repro.webgen.world import build_world

    return build_world(scale=0.05, seed=2023)


@pytest.mark.parametrize("name", ["detect-hot", "campaign-dist", "measure-mix"])
def test_inputs_depend_on_the_seed_alone(world, name):
    workload = WORKLOADS[name]
    first = make_inputs(workload, 5, world)
    assert first == make_inputs(workload, 5, world)
    assert first != make_inputs(workload, 6, world)
    if "targets" in first:
        assert len(first["targets"]) == workload.size
        assert world.wall_domains <= set(first["targets"])
    else:
        assert sorted(first["walls"]) == sorted(world.wall_domains)
        assert len(first["banners"]) == workload.size


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 99) == 99
    assert percentile(values, 50) == 50
    assert percentile([7.0], 99) == 7.0
