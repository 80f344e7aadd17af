"""Guard: the CLI's --help output and README stay in sync.

The engine-backed subcommands (``crawl``, ``measure``,
``longitudinal``, ``multivantage``) are the operational surface of
the project; a flag added to the parser but not the README — or
documented but removed — is exactly the drift CI should catch.  The
parser is the source of truth: every option it defines must appear in
the README's CLI section, and every ``--flag`` the README mentions
there must exist in the parser and in the subcommand's ``--help``
text.
"""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"

#: Subcommands whose flag surface the README must track.
GUARDED = ("crawl", "measure", "longitudinal", "multivantage")

#: Flags shared by every engine-backed subcommand, documented once in
#: the README's common list rather than per subcommand.
COMMON = {
    "--scale", "--seed", "--workers", "--shards", "--executor", "--merge",
    "--resume", "--chaos-seed", "--deadline", "--breaker", "--config",
}


def top_level_parsers():
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if getattr(action, "choices", None)
    )
    return subparsers.choices


def subcommand_parsers():
    return {name: top_level_parsers()[name] for name in GUARDED}


def parser_flags(subparser):
    return {
        option
        for action in subparser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def readme_cli_section():
    text = README.read_text(encoding="utf-8")
    match = re.search(
        r"^## Command-line interface\n(.*?)(?=^## )", text,
        re.DOTALL | re.MULTILINE,
    )
    assert match, "README.md lost its '## Command-line interface' section"
    return match.group(1)


def readme_subsections():
    """``{subcommand: text}`` plus the common intro under ``None``."""
    section = readme_cli_section()
    parts = re.split(r"^### `([a-z-]+)`\n", section, flags=re.MULTILINE)
    out = {None: parts[0]}
    for name, body in zip(parts[1::2], parts[2::2]):
        out[name] = body
    return out


def documented_flags(text):
    return set(re.findall(r"`(--[a-z-]+)`", text))


@pytest.mark.parametrize("name", GUARDED)
def test_every_parser_flag_is_documented(name):
    subsections = readme_subsections()
    assert name in subsections, f"README lacks a '### `{name}`' subsection"
    documented = documented_flags(subsections[name]) | documented_flags(
        subsections[None]
    )
    missing = parser_flags(subcommand_parsers()[name]) - documented
    assert not missing, (
        f"'{name}' flags missing from README.md: {sorted(missing)}"
    )


@pytest.mark.parametrize("name", GUARDED)
def test_every_documented_flag_exists_in_help(name):
    subparser = subcommand_parsers()[name]
    known = parser_flags(subparser)
    help_text = subparser.format_help()
    documented = documented_flags(readme_subsections()[name])
    ghosts = documented - known
    assert not ghosts, (
        f"README.md documents flags '{name}' does not have: {sorted(ghosts)}"
    )
    for flag in documented:
        assert flag in help_text, f"{flag} absent from '{name} --help'"


def test_common_flags_documented_once():
    common_text = readme_subsections()[None]
    documented = documented_flags(common_text)
    assert COMMON <= documented, (
        f"README common-flag list lost: {sorted(COMMON - documented)}"
    )
    # And the parser really does give every guarded subcommand all of
    # them (otherwise the shared documentation would overclaim).
    for name, subparser in subcommand_parsers().items():
        assert COMMON <= parser_flags(subparser), name


# ---------------------------------------------------------------------------
# The `spec` dry-run surface: `spec <kind>` must mirror the real
# subcommand's flags exactly, or the printed spec stops being "what
# the real run would execute".
# ---------------------------------------------------------------------------

def spec_kind_parsers():
    spec = top_level_parsers()["spec"]
    subparsers = next(
        action for action in spec._actions
        if getattr(action, "choices", None)
    )
    return dict(subparsers.choices)


@pytest.mark.parametrize("name", GUARDED)
def test_spec_subcommand_mirrors_flags(name):
    mirrored = spec_kind_parsers()
    assert name in mirrored, f"'spec {name}' subcommand missing"
    assert parser_flags(mirrored[name]) == parser_flags(
        subcommand_parsers()[name]
    ), f"'spec {name}' flag surface drifted from '{name}'"


def test_readme_documents_streaming_analysis():
    """The one-pass pipeline's documented contract must not drift:
    the README section naming the memory model, the decode boundary,
    and RawRecord semantics is what the zero-copy tests and the
    bench floors enforce."""
    text = README.read_text(encoding="utf-8")
    match = re.search(
        r"^## Streaming analysis\n(.*?)(?=^## )", text,
        re.DOTALL | re.MULTILINE,
    )
    assert match, "README.md lost its '## Streaming analysis' section"
    section = match.group(1)
    for anchor in (
        "RawRecord", "record_decode_count", "materialize_record",
        "streaming=True", "BENCH_streaming.json", "--flat-scales",
        "check_streaming_analysis.py",
    ):
        assert anchor in section, (
            f"README 'Streaming analysis' section no longer mentions "
            f"{anchor}"
        )


def test_readme_documents_multivantage_campaigns():
    """The multi-vantage surface must stay documented: the campaign
    section naming the regimes, the scenario knobs, and the
    discrepancy report is what the vantage-matrix CI job and the
    BENCH_discrepancy floors enforce."""
    text = README.read_text(encoding="utf-8")
    match = re.search(
        r"^## Multi-vantage campaigns\n(.*?)(?=^## )", text,
        re.DOTALL | re.MULTILINE,
    )
    assert match, "README.md lost its '## Multi-vantage campaigns' section"
    section = match.group(1)
    for anchor in (
        "MultiVantageSpec", "--vps", "--regime", "geo-blocked",
        "--relocate", "StreamingDiscrepancyReport",
        "--product discrepancy", "BENCH_discrepancy.json",
        "vantage-matrix",
    ):
        assert anchor in section, (
            f"README 'Multi-vantage campaigns' section no longer "
            f"mentions {anchor}"
        )
    # The documented report product must actually exist in the parser.
    report = top_level_parsers()["report"]
    product = next(
        action for action in report._actions
        if "--product" in action.option_strings
    )
    assert "discrepancy" in product.choices


def test_readme_documents_resilience():
    """The resilience surface must stay documented: the section naming
    the chaos plane, the virtual clock, breakers, degradation, the
    differential oracle, and the BENCH_chaos floors is what the
    chaos-matrix CI job and tests/test_chaos.py enforce."""
    text = README.read_text(encoding="utf-8")
    match = re.search(
        r"^## Resilience & chaos testing\n(.*?)(?=^## )", text,
        re.DOTALL | re.MULTILINE,
    )
    assert match, (
        "README.md lost its '## Resilience & chaos testing' section"
    )
    section = match.group(1)
    for anchor in (
        "ChaosSpec", "ResilienceSpec", "--chaos-seed", "--deadline",
        "--breaker", "Virtual clock", "BreakerOpenError",
        "StreamingFailureTaxonomy", "byte-identical",
        "tear_trailing_line", "BENCH_chaos.json", "chaos-matrix",
        "test_chaos.py",
    ):
        assert anchor in section, (
            f"README 'Resilience & chaos testing' section no longer "
            f"mentions {anchor}"
        )


def test_readme_documents_static_analysis():
    """The reprolint surface must stay documented: the section naming
    every rule, the pragma syntax, the baseline workflow, and the
    --explain/--format flags is what the CI lint gate and the fixture
    corpus in tests/test_reprolint.py enforce."""
    text = README.read_text(encoding="utf-8")
    match = re.search(
        r"^## Static analysis\n(.*?)(?=^## )", text,
        re.DOTALL | re.MULTILINE,
    )
    assert match, "README.md lost its '## Static analysis' section"
    section = match.group(1)
    from tools.reprolint.rules import rules_by_name

    # Every registered rule (and no ghost rule) is documented by name.
    for rule in rules_by_name():
        assert f"`{rule}`" in section, (
            f"README 'Static analysis' section does not document rule "
            f"{rule!r}"
        )
    for anchor in (
        "python -m tools.reprolint", "reprolint: disable=", "--explain",
        "--list-rules", "--format=github", "baseline.json",
        "--write-baseline", "bad-pragma", "unused-suppression",
        "check_streaming_analysis.py", "test_reprolint.py",
    ):
        assert anchor in section, (
            f"README 'Static analysis' section no longer mentions "
            f"{anchor}"
        )


def test_readme_documents_service_verbs():
    """The operational verbs must stay documented: `serve`, `worker`,
    and `submit` each need a README subsection whose flags exist in
    the parser (the same no-ghost rule the run subcommands get)."""
    subsections = readme_subsections()
    top = top_level_parsers()
    for verb in ("serve", "worker", "submit"):
        assert verb in top, f"parser lost the '{verb}' subcommand"
        assert verb in subsections, (
            f"README lacks a '### `{verb}`' subsection"
        )
    # `serve` is a flat parser: its documented flags must all exist.
    serve_flags = parser_flags(top["serve"])
    ghosts = documented_flags(subsections["serve"]) - serve_flags
    assert not ghosts, f"README documents serve flags {sorted(ghosts)}"
    assert {"--data-dir", "--quota", "--resume"} <= serve_flags
    # `worker serve` and `submit <kind>` nest; check the leaf parsers.
    worker_serve = next(
        action for action in top["worker"]._actions
        if getattr(action, "choices", None)
    ).choices["serve"]
    assert {"--connect", "--id", "--heartbeat"} <= parser_flags(
        worker_serve
    )
    submit_kinds = next(
        action for action in top["submit"]._actions
        if getattr(action, "choices", None)
    ).choices
    for name in GUARDED:
        assert {"--url", "--tenant", "--priority", "--wait"} <= (
            parser_flags(submit_kinds[name])
        ), f"'submit {name}' lost part of the service surface"


def test_readme_documents_campaign_service():
    """The service/distributed surface must stay documented: the
    section naming the wire version, the endpoint table, the worker
    protocol, and the CI/bench gates is what the distributed-smoke
    job and tests/test_distributed.py + tests/test_service.py
    enforce."""
    text = README.read_text(encoding="utf-8")
    match = re.search(
        r"^## Campaign service & distributed workers\n(.*?)(?=^## )",
        text, re.DOTALL | re.MULTILINE,
    )
    assert match, (
        "README.md lost its '## Campaign service & distributed "
        "workers' section"
    )
    section = match.group(1)
    for anchor in (
        "schema_version", "SPEC_SCHEMA_VERSION", "SpecVersionError",
        "WIRE_PROTOCOL_VERSION", "heartbeat", "re-dispatched",
        "byte-identical to\nthe serial run", "`transport`",
        "/v1/campaigns", "429", "content-addressed", "serve --resume",
        "ServiceClient", "distributed-smoke", "BENCH_distributed.json",
        "test_distributed.py", "test_service.py",
    ):
        assert anchor in section, (
            f"README 'Campaign service & distributed workers' section "
            f"no longer mentions {anchor!r}"
        )
    # The documented executor really exists in the engine surface.
    from repro.api.spec import EXECUTOR_BACKENDS

    assert "distributed" in EXECUTOR_BACKENDS


def test_readme_documents_spec_and_checkpoint():
    subsections = readme_subsections()
    assert "spec" in subsections, "README lacks a '### `spec`' subsection"
    assert "--config" in subsections["spec"], (
        "README '### `spec`' must mention --config"
    )
    assert "checkpoint" in subsections, (
        "README lacks a '### `checkpoint`' subsection"
    )
    assert "compact" in subsections["checkpoint"]
    # The verbs must actually exist in the parser.
    top = top_level_parsers()
    assert "spec" in top and "checkpoint" in top


def test_readme_backend_table_matches_engine():
    """The 'Executors & scaling' table lists exactly the engine's
    backends, in order — a removed or added backend must show up in
    the README, and so must the ``--executor`` choices."""
    from repro.measure.engine import EXECUTOR_BACKENDS

    text = README.read_text(encoding="utf-8")
    match = re.search(
        r"^## Executors & scaling\n(.*?)(?=^## )", text,
        re.DOTALL | re.MULTILINE,
    )
    assert match, "README.md lost its '## Executors & scaling' section"
    rows = re.findall(r"^\| `([a-z]+)` +\|", match.group(1), re.MULTILINE)
    assert tuple(rows) == EXECUTOR_BACKENDS
    executor = next(
        action for action in subcommand_parsers()["crawl"]._actions
        if "--executor" in action.option_strings
    )
    assert tuple(executor.choices) == EXECUTOR_BACKENDS
