"""Regenerate the golden-output files in this directory.

Run from the repository root::

    PYTHONPATH=src python -m tests.golden.regen [spools] [worlds]

With no argument it rewrites everything; ``spools`` rewrites the spool
digests and papercheck values, ``worlds`` the world-identity digests.
The tests never run this script: the stored files are the reference a
refactor is checked against, so rewrite them only for a change that
alters output bytes on purpose, and say so in the change log.  Every
scenario runs on the serial backend (the reference) and again on the
process backend; a per-task-regime digest the two disagree on is an
engine bug, and the script refuses to write anything.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.webgen import build_world
from tests.support import golden


def main() -> int:
    targets = set(sys.argv[1:]) or {"spools", "worlds"}
    unknown = targets - {"spools", "worlds"}
    if unknown:
        print(f"unknown target(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    if "worlds" in targets:
        regen_worlds()
    if "spools" in targets:
        return regen_spools()
    return 0


def regen_worlds() -> None:
    cases = {}
    for seed, scale, months in golden.WORLD_CASES:
        key = golden.case_key(seed, scale, months)
        cases[key] = golden.world_case_digests(seed, scale, months)
        print(f"{key}: sites {cases[key]['sites']}")
    golden.dump(golden.WORLDS_FILE, {
        "evolved_hash_seed": golden.EVOLVED_HASH_SEED, "cases": cases,
    })
    print(f"wrote {golden.WORLDS_FILE}")


def regen_spools() -> int:
    world = build_world(**golden.WORLD)
    digests = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in golden.SCENARIOS:
            serial = golden.run_scenario(
                name, world, "serial", Path(scratch) / "serial"
            )
            if name not in golden.SERIAL_ONLY:
                process = golden.run_scenario(
                    name, world, "process", Path(scratch) / "process"
                )
                if process != serial:
                    print(f"{name}: serial and process disagree", file=sys.stderr)
                    return 1
            digests[name] = serial
            print(f"{name}: {serial}")
    chaos = digests["chaos_recoverable"]
    if chaos["recoverable"] != chaos["fault_free"]:
        print("recoverable chaos is not byte-invisible", file=sys.stderr)
        return 1
    golden.dump(golden.SPOOLS_FILE, {"world": golden.WORLD, "digests": digests})
    golden.dump(golden.PAPERCHECK_FILE, {
        "world": golden.WORLD, "rows": golden.papercheck_measured(),
    })
    print(f"wrote {golden.SPOOLS_FILE} and {golden.PAPERCHECK_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
