"""Golden outputs: stored spool digests and papercheck values.

A stored-snapshot check (see ``tests/support/golden.py``): small
fixed-seed crawl, measurement, campaign, and chaos runs must reproduce
the sha256 of the final spool recorded in ``tests/golden/spools.json``,
and the experiment suite on the same world must reproduce the
``compare_with_paper`` values in ``tests/golden/papercheck.json``.
World construction itself is pinned by ``tests/golden/worlds.json``:
digests of every site spec, toplist, and roster of base worlds at
scales 0.05 and 0.2 and of a six-month evolved snapshot.  The files are
the reference a refactor is checked against, not another live code
path; regenerate them only with ``python -m tests.golden.regen``.

CI runs this module once per backend
(``REPRO_EXECUTOR_BACKEND=serial|process|distributed``); locally, with
the variable unset, the serial and process backends run.
"""

import os

import pytest

from repro.webgen import build_world
from tests.support import golden

_ENV_BACKEND = os.environ.get("REPRO_EXECUTOR_BACKEND")
BACKENDS = (_ENV_BACKEND,) if _ENV_BACKEND else ("serial", "process")

STORED = golden.load(golden.SPOOLS_FILE)


@pytest.fixture(scope="module")
def golden_world():
    """A private world: no other test can have mutated it."""
    return build_world(**STORED["world"])


def test_stored_world_matches_scenarios():
    assert STORED["world"] == golden.WORLD
    assert sorted(STORED["digests"]) == sorted(golden.SCENARIOS)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scenario", golden.SCENARIOS)
def test_spool_digest_matches_golden(scenario, backend, golden_world, tmp_path):
    if backend != "serial" and scenario in golden.SERIAL_ONLY:
        pytest.skip("the shared-counter regime is serial-only")
    got = golden.run_scenario(scenario, golden_world, backend, tmp_path)
    assert got == STORED["digests"][scenario]


def test_recoverable_chaos_golden_equals_fault_free():
    chaos = STORED["digests"]["chaos_recoverable"]
    assert chaos["recoverable"] == chaos["fault_free"]


def test_papercheck_values_match_golden():
    stored = golden.load(golden.PAPERCHECK_FILE)
    assert stored["world"] == golden.WORLD
    assert golden.papercheck_measured() == stored["rows"]


WORLDS = golden.load(golden.WORLDS_FILE)


def test_stored_worlds_match_cases():
    assert WORLDS["evolved_hash_seed"] == golden.EVOLVED_HASH_SEED
    assert sorted(WORLDS["cases"]) == sorted(
        golden.case_key(*case) for case in golden.WORLD_CASES
    )


@pytest.mark.parametrize(
    "case", golden.WORLD_CASES, ids=lambda c: golden.case_key(*c)
)
def test_world_digests_match_golden(case):
    assert golden.world_case_digests(*case) == WORLDS["cases"][golden.case_key(*case)]
