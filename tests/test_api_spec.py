"""Tests for the RunSpec tree: round-trips, config files, overrides."""

import dataclasses
import json

import pytest

from repro.api import (
    CrawlSpec,
    EngineSpec,
    LongitudinalSpec,
    MeasureSpec,
    OutputSpec,
    RunSpec,
    SpecError,
    WorldSpec,
)


def specs_of_every_kind():
    return [
        RunSpec(
            kind="crawl",
            world=WorldSpec(scale=0.01, seed=3),
            engine=EngineSpec(workers=4, shards=8),
            crawl=CrawlSpec(vps=("DE", "USE"), domains=("a.de", "b.de")),
            output=OutputSpec(path="crawl.jsonl"),
        ),
        RunSpec(
            kind="measure",
            world=WorldSpec(scale=0.02, seed=7),
            engine=EngineSpec(retry_max_attempts=3, retry_unreachable=True),
            measure=MeasureSpec(vp="SE", mode="ublock", repeats=2),
            output=OutputSpec(path="ublock.jsonl"),
        ),
        RunSpec(
            kind="longitudinal",
            longitudinal=LongitudinalSpec(vp="DE", months=(0, 2, 4)),
            output=OutputSpec(out_dir="waves"),
        ),
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("spec", specs_of_every_kind(),
                             ids=lambda s: s.kind)
    def test_from_dict_of_to_dict_is_identity(self, spec):
        assert RunSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("spec", specs_of_every_kind(),
                             ids=lambda s: s.kind)
    def test_to_dict_is_json_safe(self, spec):
        assert RunSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec

    def test_to_dict_omits_inactive_workloads(self):
        payload = RunSpec(kind="crawl").to_dict()
        assert set(payload) == {
            "schema_version", "kind", "world", "engine", "resilience",
            "chaos", "crawl", "output",
        }

    def test_save_load_round_trip(self, tmp_path):
        spec = specs_of_every_kind()[0]
        path = spec.save(tmp_path / "spec.json")
        assert RunSpec.load(path) == spec


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="kind must be one of"):
            RunSpec(kind="teleport").validate()

    def test_unknown_section_key(self):
        with pytest.raises(SpecError, match="unknown key"):
            RunSpec.from_dict({"kind": "crawl", "world": {"sele": 1}})

    def test_unknown_section(self):
        with pytest.raises(SpecError, match="unknown section"):
            RunSpec.from_dict({"kind": "crawl", "wrold": {}})

    def test_months_must_increase(self):
        with pytest.raises(SpecError, match="strictly increasing"):
            RunSpec(
                kind="longitudinal",
                longitudinal=LongitudinalSpec(months=(4, 0)),
            ).validate()

    def test_bad_measure_mode(self):
        with pytest.raises(SpecError, match="measure.mode"):
            RunSpec(
                kind="measure", measure=MeasureSpec(mode="teleport"),
            ).validate()

    def test_resume_needs_output(self):
        with pytest.raises(SpecError, match="--resume"):
            RunSpec(kind="crawl", engine=EngineSpec(resume=True)).validate()
        with pytest.raises(SpecError, match="--out-dir"):
            RunSpec(
                kind="longitudinal", engine=EngineSpec(resume=True),
            ).validate()

    def test_workers_positive(self):
        with pytest.raises(SpecError, match="workers"):
            RunSpec(kind="crawl", engine=EngineSpec(workers=0)).validate()

    def test_executor_backend_validated(self):
        with pytest.raises(SpecError, match="engine.executor"):
            EngineSpec(executor="fiber").validate()
        with pytest.raises(SpecError, match="contradicts"):
            EngineSpec(executor="serial", workers=4).validate()
        for backend in ("serial", "process", "distributed"):
            EngineSpec(executor=backend).validate()
        with pytest.raises(SpecError, match="'process'"):
            EngineSpec(executor="thread").validate()

    def test_executor_round_trips(self):
        spec = RunSpec(
            kind="crawl",
            engine=EngineSpec(workers=2, executor="process", merge="spool"),
            output=OutputSpec(path="out.jsonl"),
        ).validate()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_merge_validated_and_needs_output(self):
        with pytest.raises(SpecError, match="engine.merge"):
            EngineSpec(merge="teleport").validate()
        with pytest.raises(SpecError, match="--merge spool"):
            RunSpec(kind="crawl", engine=EngineSpec(merge="spool")).validate()
        with pytest.raises(SpecError, match="--out-dir"):
            RunSpec(
                kind="longitudinal", engine=EngineSpec(merge="spool"),
            ).validate()
        RunSpec(
            kind="measure", engine=EngineSpec(merge="spool"),
            output=OutputSpec(path="m.jsonl"),
        ).validate()

    def test_string_where_list_expected(self):
        with pytest.raises(SpecError, match="one-element list"):
            CrawlSpec.from_dict({"vps": "DE"})
        # months = "04" must be a SpecError too, not a TypeError deep
        # inside validation (tuple("04") == ("0", "4") would even pass
        # the ordering check).
        with pytest.raises(SpecError, match="one-element list"):
            LongitudinalSpec.from_dict({"months": "04"})

    def test_null_months_keeps_default(self):
        assert LongitudinalSpec.from_dict({"months": None}).months == (0, 4)


class TestConfigFiles:
    TOML = """
kind = "crawl"

[world]
scale = 0.01
seed = 3

[engine]
workers = 4

[crawl]
vps = ["DE"]

[output]
path = "out.jsonl"
"""

    def test_load_toml(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text(self.TOML)
        spec = RunSpec.load(path)
        assert spec.kind == "crawl"
        assert spec.world == WorldSpec(scale=0.01, seed=3)
        assert spec.engine.workers == 4
        assert spec.crawl.vps == ("DE",)
        assert spec.output.path == "out.jsonl"

    def test_load_json(self, tmp_path):
        path = tmp_path / "run.json"
        spec = specs_of_every_kind()[1]
        path.write_text(json.dumps(spec.to_dict()))
        assert RunSpec.load(path) == spec

    def test_kind_supplied_by_caller(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text("[world]\nscale = 0.01\n")
        spec = RunSpec.load(path, kind="measure")
        assert spec.kind == "measure"
        with pytest.raises(SpecError, match="needs a 'kind'"):
            RunSpec.load(path)

    def test_kind_conflict_refused(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text('kind = "crawl"\n')
        with pytest.raises(SpecError, match="requested"):
            RunSpec.load(path, kind="measure")

    def test_bad_suffix_refused(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("kind: crawl\n")
        with pytest.raises(SpecError, match="unsupported config suffix"):
            RunSpec.load(path)

    def test_invalid_toml_reported_with_path(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text("kind = [unclosed\n")
        with pytest.raises(SpecError, match="invalid TOML"):
            RunSpec.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read config"):
            RunSpec.load(tmp_path / "nope.toml")


class TestOverride:
    def test_explicit_values_beat_file_values(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text(TestConfigFiles.TOML)
        base = RunSpec.load(path)
        merged = base.override({
            "engine": {"workers": 8},
            "output": {"path": "elsewhere.jsonl"},
        })
        # Overridden fields change; everything else is the file's.
        assert merged.engine.workers == 8
        assert merged.output.path == "elsewhere.jsonl"
        assert merged.world == base.world
        assert merged.crawl == base.crawl

    def test_empty_override_is_identity(self):
        spec = specs_of_every_kind()[0]
        assert spec.override({"world": {}, "engine": {}}) == spec

    def test_override_unknown_field_refused(self):
        with pytest.raises(SpecError, match="unknown key"):
            RunSpec(kind="crawl").override({"engine": {"wrokers": 2}})

    def test_override_validates_result(self):
        with pytest.raises(SpecError, match="strictly increasing"):
            RunSpec(kind="longitudinal").override(
                {"longitudinal": {"months": (3, 1)}}
            )


class TestSchemaVersioning:
    """The wire-schema version: emission, migration, refusal."""

    def test_to_dict_declares_current_version(self):
        from repro.api import SPEC_SCHEMA_VERSION

        for spec in specs_of_every_kind():
            assert spec.to_dict()["schema_version"] == SPEC_SCHEMA_VERSION

    def test_versionless_payload_reads_as_v1(self):
        # The pre-versioning wire format had no schema_version key;
        # it must keep loading forever via the registered migrations.
        spec = specs_of_every_kind()[0]
        payload = spec.to_dict()
        del payload["schema_version"]
        assert RunSpec.from_dict(payload) == spec

    def test_explicit_v1_payload_migrates(self):
        spec = specs_of_every_kind()[1]
        payload = spec.to_dict()
        payload["schema_version"] = 1
        assert RunSpec.from_dict(payload) == spec

    def test_future_version_rejected_readably(self):
        from repro.api import SpecVersionError

        payload = specs_of_every_kind()[0].to_dict()
        payload["schema_version"] = 99
        with pytest.raises(SpecVersionError) as excinfo:
            RunSpec.from_dict(payload)
        message = str(excinfo.value)
        assert "schema_version 99" in message
        assert "newer release" in message

    def test_non_integer_version_rejected(self):
        from repro.api import SpecVersionError

        payload = specs_of_every_kind()[0].to_dict()
        for bad in ("2", 2.0, True, None):
            payload["schema_version"] = bad
            with pytest.raises(SpecVersionError, match="must be an integer"):
                RunSpec.from_dict(payload)

    def test_migrate_helper_is_pure(self):
        from repro.api.spec import migrate_spec_payload

        payload = {"schema_version": 1, "kind": "crawl"}
        migrated = migrate_spec_payload(payload)
        assert "schema_version" not in migrated
        assert payload == {"schema_version": 1, "kind": "crawl"}

    def test_v2_thread_executor_runs_on_processes(self, tmp_path):
        """A v2 spec naming the removed thread backend still loads — as
        the process backend — and writes the serial run's bytes."""
        from repro.api import Session

        v2_json = json.dumps({
            "schema_version": 2,
            "kind": "crawl",
            "world": {"scale": 0.01, "seed": 3},
            "engine": {"workers": 2, "executor": "thread"},
            "crawl": {"vps": ["DE"]},
            "output": {"path": str(tmp_path / "v2.jsonl")},
        })
        payload = json.loads(v2_json)
        spec = RunSpec.from_dict(payload)
        assert spec.engine.executor == "process"
        assert payload["engine"]["executor"] == "thread"  # input untouched
        Session(spec).run()
        serial = dataclasses.replace(
            spec,
            engine=EngineSpec(),
            output=OutputSpec(path=str(tmp_path / "serial.jsonl")),
        )
        Session(serial).run()
        assert (tmp_path / "v2.jsonl").read_bytes() == (
            tmp_path / "serial.jsonl"
        ).read_bytes()
