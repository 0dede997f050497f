import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import speckit
from speckit import cli
from speckit.cli import main
from speckit.generator import generate_corpus
from speckit.index import FORMAT_VERSION
from support import (
    DEV_ORDER_REGISTRY,
    DEV_ORDER_SOURCE,
    MALFORMED_INDEX_EDITS,
    UNKNOWN_RELEASE_EDITS,
    json_with,
    json_with_key,
    one_diff_index,
    unregistered_record_dev_index,
)

CORPUS = """# Measurements

=== REQ REQ_0001 ===
--- VERSION first=01R1 last=open ---
The A2 measurement shall run. [Before CB00XXXX] The old threshold applies. [CB00XXXX] The new threshold applies. [End CB00XXXX]
=== END ===

=== REQ REQ_0002 ===
--- VERSION first=01R1 last=open ---
The A2 measurement shall stop. [SA] Standalone extra step. [End SA]
=== END ===
"""

REGISTRY = "CB00XXXX 01R2\n"
LEXICON = '{"A2 measurement": ["A2 measurement for Handover"]}\n'


def run_cli(
    *args: str, module: str = "speckit.cli", stdout=subprocess.PIPE, **env: str
) -> subprocess.CompletedProcess:
    """`python -m MODULE ARGS` in a child process that imports this same
    speckit, with `env` added to its environment, writing to `stdout`;
    stderr is captured."""
    paths = [str(Path(speckit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
    )


@pytest.fixture()
def corpus_dir(tmp_path):
    (tmp_path / "doc.spec").write_text(CORPUS, encoding="utf-8")
    (tmp_path / "registry.txt").write_text(REGISTRY, encoding="utf-8")
    (tmp_path / "lexicon.json").write_text(LEXICON, encoding="utf-8")
    return tmp_path


def corpus_args(d):
    return ["--corpus", str(d / "doc.spec"), "--registry", str(d / "registry.txt")]


class TestValidate:
    def test_clean_corpus_exit_zero(self, corpus_dir, capsys):
        assert main(["validate", *corpus_args(corpus_dir)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_unbalanced_tag_exit_two_names_line(self, corpus_dir, capsys):
        bad = corpus_dir / "bad.spec"
        bad.write_text(
            "# S\n\n=== REQ REQ_0009 ===\n--- VERSION first=01R1 last=open ---\n"
            "[Before CB00XXXX] a [CB00XXXX] b\n=== END ===\n",
            encoding="utf-8",
        )
        code = main(
            ["validate", "--corpus", str(bad), "--registry", str(corpus_dir / "registry.txt")]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "bad:5" in out and "UnbalancedTag" in out

    def test_inverted_range_reported_with_other_errors(self, corpus_dir, capsys):
        (corpus_dir / "doc.spec").write_text(
            "# S\n\n=== REQ REQ_0001 ===\n--- VERSION first=02R1 last=01R1 ---\n"
            "Text.\n=== END ===\n\n=== REQ REQ_0002 ===\n"
            "--- VERSION first=01R1 last=open ---\n"
            "[Before CB00XXXX] a [CB00XXXX] b\n=== END ===\n",
            encoding="utf-8",
        )
        code = main(["validate", *corpus_args(corpus_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == (
            "doc:3: BadReleaseId: version range inverted: 02R1 > 01R1\n"
            "doc:10: UnbalancedTag: [Before CB00XXXX] never closed: missing [End CB00XXXX]\n"
        )
        assert captured.err == "2 error(s)\n"

    def test_missing_registry_entry_names_dev(self, corpus_dir, capsys):
        (corpus_dir / "registry.txt").write_text("", encoding="utf-8")
        code = main(["validate", *corpus_args(corpus_dir)])
        assert code == 2
        assert "CB00XXXX" in capsys.readouterr().out

    def test_missing_file_exit_two(self, corpus_dir):
        code = main(
            ["validate", "--corpus", str(corpus_dir / "absent.spec"), "--registry", str(corpus_dir / "registry.txt")]
        )
        assert code == 2


class TestResolve:
    def test_old_text_before_activation(self, corpus_dir, capsys):
        code = main(
            ["resolve", *corpus_args(corpus_dir), "--id", "REQ_0001", "--release", "01R1"]
        )
        assert code == 0
        assert "old threshold" in capsys.readouterr().out

    def test_json_schema(self, corpus_dir, capsys):
        main(
            [
                "resolve", *corpus_args(corpus_dir),
                "--id", "REQ_0001", "--release", "01R2", "--format", "json",
            ]
        )
        record = json.loads(capsys.readouterr().out)
        assert set(record) == {"id", "release", "deployment", "text", "contributing_devs"}
        assert record["contributing_devs"] == ["CB00XXXX"]

    def test_unknown_id_exit_three(self, corpus_dir):
        assert main(
            ["resolve", *corpus_args(corpus_dir), "--id", "REQ_9999", "--release", "01R1"]
        ) == 3

    def test_not_valid_at_release_exit_three(self, tmp_path):
        (tmp_path / "doc.spec").write_text(
            "# S\n\n=== REQ REQ_0001 ===\n--- VERSION first=01R2 last=open ---\nLater.\n=== END ===\n",
            encoding="utf-8",
        )
        (tmp_path / "registry.txt").write_text("", encoding="utf-8")
        assert main(
            ["resolve", *corpus_args(tmp_path), "--id", "REQ_0001", "--release", "01R1"]
        ) == 3

    def test_deployment_filter(self, corpus_dir, capsys):
        main(
            [
                "resolve", *corpus_args(corpus_dir),
                "--id", "REQ_0002", "--release", "01R1", "--deployment", "NSA",
            ]
        )
        out = capsys.readouterr().out
        assert "Standalone extra step" not in out


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is not part of an input file's text."""

    def run(self, argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def test_corpus_file(self, corpus_dir, capsys):
        argv = ["resolve", *corpus_args(corpus_dir), "--id", "REQ_0001", "--release", "01R1"]
        plain = self.run(argv, capsys)
        (corpus_dir / "doc.spec").write_text("\ufeff" + CORPUS, encoding="utf-8")
        assert self.run(argv, capsys) == plain
        assert self.run(["validate", *corpus_args(corpus_dir)], capsys)[0] == 0

    def test_lexicon(self, corpus_dir, capsys):
        argv = ["query", "reqs", *corpus_args(corpus_dir), "--lexicon",
                str(corpus_dir / "lexicon.json"), "--proc", "A2 measurement for Handover"]
        plain = self.run(argv, capsys)
        (corpus_dir / "lexicon.json").write_text("\ufeff" + LEXICON, encoding="utf-8")
        assert self.run(argv, capsys) == plain
        assert plain[0] == 0 and "REQ_0001" in plain[1]

    def test_bad_byte_offset_counts_the_mark(self, corpus_dir, capsys):
        (corpus_dir / "doc.spec").write_bytes(b"\xef\xbb\xbf# Zeit\xfc\n")
        code, _, err = self.run(["validate", *corpus_args(corpus_dir)], capsys)
        assert code == 2
        assert err == f"error: {corpus_dir / 'doc.spec'}: not valid UTF-8 (invalid start byte at byte 9)\n"


class TestLint:
    def test_alias_finding_fails_on_high(self, corpus_dir, capsys):
        doc = corpus_dir / "doc.spec"
        doc.write_text(
            CORPUS.replace("The A2 measurement shall stop.", "The A2 measurement for Handover shall stop."),
            encoding="utf-8",
        )
        code = main(
            ["lint", *corpus_args(corpus_dir), "--lexicon", str(corpus_dir / "lexicon.json"), "--fail-on", "high"]
        )
        assert code == 1
        assert "non-canonical name" in capsys.readouterr().out

    def test_clean_corpus_exit_zero(self, corpus_dir):
        code = main(
            ["lint", *corpus_args(corpus_dir), "--lexicon", str(corpus_dir / "lexicon.json")]
        )
        assert code == 0

    def test_low_findings_pass_on_high(self, tmp_path):
        # dispersed procedure: L5 (Low) only
        (tmp_path / "doc.spec").write_text(
            "# S1\n\n=== REQ REQ_0001 ===\n--- VERSION first=01R1 last=open ---\n"
            "The A2 measurement shall run again and again and again.\n=== END ===\n\n"
            "# S2\n\n=== REQ REQ_0002 ===\n--- VERSION first=01R1 last=open ---\n"
            "The A2 measurement shall halt again and again and again.\n=== END ===\n\n"
            "# S3\n\n=== REQ REQ_0003 ===\n--- VERSION first=01R1 last=open ---\n"
            "The A2 measurement shall pause again and again and again.\n=== END ===\n",
            encoding="utf-8",
        )
        (tmp_path / "registry.txt").write_text("", encoding="utf-8")
        (tmp_path / "lexicon.json").write_text(LEXICON, encoding="utf-8")
        args = ["lint", *corpus_args(tmp_path), "--lexicon", str(tmp_path / "lexicon.json")]
        assert main([*args, "--fail-on", "high"]) == 0
        assert main([*args, "--fail-on", "low"]) == 1

    def test_json_lines_schema(self, corpus_dir, capsys):
        doc = corpus_dir / "doc.spec"
        doc.write_text(
            CORPUS.replace("The A2 measurement shall stop.", "The A2 measurement for Handover shall stop."),
            encoding="utf-8",
        )
        main(
            [
                "lint", *corpus_args(corpus_dir),
                "--lexicon", str(corpus_dir / "lexicon.json"), "--format", "json", "--fail-on", "none",
            ]
        )
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert lines
        for line in lines:
            record = json.loads(line)
            assert {"rule", "severity", "document", "requirement", "version", "message"} <= set(record)

    def test_bad_config_exit_two(self, corpus_dir, tmp_path):
        config = tmp_path / "lint.json"
        config.write_text('{"shingle_k": 0}', encoding="utf-8")
        code = main(
            ["lint", *corpus_args(corpus_dir), "--config", str(config)]
        )
        assert code == 2

    def test_config_from_env(self, corpus_dir, tmp_path, monkeypatch):
        config = tmp_path / "lint.json"
        config.write_text('{"rules": {"L1": false, "L2": false, "L3": false, "L4": false, "L5": false}}', encoding="utf-8")
        monkeypatch.setenv("SPECKIT_CONFIG", str(config))
        doc = corpus_dir / "doc.spec"
        doc.write_text(
            CORPUS.replace("The A2 measurement shall stop.", "The A2 measurement for Handover shall stop."),
            encoding="utf-8",
        )
        code = main(
            ["lint", *corpus_args(corpus_dir), "--lexicon", str(corpus_dir / "lexicon.json")]
        )
        assert code == 0  # every rule disabled via env-provided config


class TestIndexAndQuery:
    def test_build_then_query_behavior(self, corpus_dir, capsys, tmp_path):
        index_file = tmp_path / "ix.json"
        assert main(
            [
                "index", "build", *corpus_args(corpus_dir),
                "--lexicon", str(corpus_dir / "lexicon.json"), "--out", str(index_file),
            ]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "query", "behavior", "--index", str(index_file),
                "--proc", "A2 measurement", "--release", "01R1", "--format", "json",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(l) for l in lines]
        assert {r["id"] for r in records} == {"REQ_0001", "REQ_0002"}
        assert all(set(r) == {"id", "release", "deployment", "text"} for r in records)

    def test_query_without_index_builds_from_corpus(self, corpus_dir, capsys):
        code = main(
            [
                "query", "reqs", *corpus_args(corpus_dir),
                "--lexicon", str(corpus_dir / "lexicon.json"), "--proc", "A2 measurement",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.split() == ["REQ_0001", "REQ_0002"]

    def test_alias_query_equals_canonical(self, corpus_dir, capsys):
        base = [
            "query", "reqs", *corpus_args(corpus_dir),
            "--lexicon", str(corpus_dir / "lexicon.json"),
        ]
        main([*base, "--proc", "A2 measurement"])
        canonical_out = capsys.readouterr().out
        main([*base, "--proc", "A2 measurement for Handover"])
        alias_out = capsys.readouterr().out
        assert canonical_out == alias_out

    def test_diff_same_release_empty(self, corpus_dir, capsys):
        code = main(
            [
                "query", "diff", *corpus_args(corpus_dir),
                "--lexicon", str(corpus_dir / "lexicon.json"),
                "--proc", "A2 measurement", "--from", "01R1", "--to", "01R1",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_diff_json_schema(self, corpus_dir, capsys):
        main(
            [
                "query", "diff", *corpus_args(corpus_dir),
                "--lexicon", str(corpus_dir / "lexicon.json"),
                "--proc", "A2 measurement", "--from", "01R1", "--to", "01R2", "--format", "json",
            ]
        )
        (line,) = [l for l in capsys.readouterr().out.splitlines() if l]
        record = json.loads(line)
        assert set(record) == {"id", "release_a", "release_b", "segments", "causes"}
        assert record["causes"] == ["CB00XXXX"]

    def test_dev_query(self, corpus_dir, capsys):
        code = main(
            [
                "query", "dev", *corpus_args(corpus_dir),
                "--lexicon", str(corpus_dir / "lexicon.json"),
                "--proc", "A2 measurement", "--dev", "CB00XXXX",
            ]
        )
        assert code == 0
        assert "REQ_0001" in capsys.readouterr().out

    def test_dev_query_lists_ids_in_order(self, tmp_path, capsys):
        """A development's diffs come in requirement-id order, from a corpus
        that holds the higher id first and from the index built of it."""
        (tmp_path / "doc.spec").write_text(DEV_ORDER_SOURCE, encoding="utf-8")
        (tmp_path / "registry.txt").write_text(DEV_ORDER_REGISTRY, encoding="utf-8")
        (tmp_path / "lexicon.json").write_text('{"timer": []}', encoding="utf-8")
        inputs = [*corpus_args(tmp_path), "--lexicon", str(tmp_path / "lexicon.json")]
        assert main(["index", "build", *inputs, "--out", str(tmp_path / "index.json")]) == 0
        capsys.readouterr()
        for source in (inputs, ["--index", str(tmp_path / "index.json")]):
            assert main(["query", "dev", *source, "--proc", "timer", "--dev", "CB00XXXX",
                         "--format", "json"]) == 0
            out = capsys.readouterr().out
            assert [json.loads(line)["id"] for line in out.splitlines()] == [
                "REQ_0001", "REQ_0002"
            ]

    def test_unknown_release_exit_three(self, corpus_dir):
        assert main(
            [
                "query", "behavior", *corpus_args(corpus_dir),
                "--lexicon", str(corpus_dir / "lexicon.json"),
                "--proc", "A2 measurement", "--release", "09R9",
            ]
        ) == 3

    def test_unknown_dev_exit_three(self, corpus_dir):
        assert main(
            [
                "query", "dev", *corpus_args(corpus_dir),
                "--lexicon", str(corpus_dir / "lexicon.json"),
                "--proc", "A2 measurement", "--dev", "CB00ZZZZ",
            ]
        ) == 3

    def test_deployment_query(self, corpus_dir, capsys):
        base = [
            "query", "deployment", *corpus_args(corpus_dir),
            "--lexicon", str(corpus_dir / "lexicon.json"), "--proc", "A2 measurement",
        ]
        main([*base, "--deployment", "SA"])
        sa_out = capsys.readouterr().out
        main([*base, "--deployment", "NSA"])
        nsa_out = capsys.readouterr().out
        assert "Standalone extra step" in sa_out
        assert "Standalone extra step" not in nsa_out


class TestExtract:
    def test_writes_datasets(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(["extract", *corpus_args(corpus_dir), "--all", "--out", str(out)])
        assert code == 0
        assert (out / "01R1.jsonl").exists()
        assert (out / "01R2.jsonl").exists()
        assert (out / "stats.json").exists()

    def test_single_release(self, corpus_dir, tmp_path):
        out = tmp_path / "data"
        code = main(
            ["extract", *corpus_args(corpus_dir), "--release", "01R2", "--out", str(out)]
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["01R2.jsonl", "stats.json"]

    def test_unknown_release_exit_three(self, corpus_dir, tmp_path):
        assert main(
            ["extract", *corpus_args(corpus_dir), "--release", "09R9", "--out", str(tmp_path / "d")]
        ) == 3


class TestGoldenJsonOutputs:
    """Frozen JSON Lines outputs: any schema or rendering drift fails here."""

    @pytest.fixture()
    def golden_dir(self, tmp_path):
        (tmp_path / "doc.spec").write_text(
            CORPUS.replace(
                "The A2 measurement shall stop.",
                "The A2 measurement for Handover shall stop.",
            ),
            encoding="utf-8",
        )
        (tmp_path / "registry.txt").write_text(REGISTRY, encoding="utf-8")
        (tmp_path / "lexicon.json").write_text(LEXICON, encoding="utf-8")
        return tmp_path

    def test_resolve_golden(self, golden_dir, capsys):
        main(
            [
                "resolve", *corpus_args(golden_dir),
                "--id", "REQ_0001", "--release", "01R2", "--format", "json",
            ]
        )
        assert capsys.readouterr().out == (
            '{"contributing_devs": ["CB00XXXX"], "deployment": "both", '
            '"id": "REQ_0001", "release": "01R2", '
            '"text": "The A2 measurement shall run. The new threshold applies."}\n'
        )

    @pytest.mark.parametrize(
        "deployment, contributing", [("SA", '["CB00XXXX"]'), ("both", '["CB00XXXX"]'), ("NSA", "[]")]
    )
    def test_resolve_golden_dev_block_in_span(self, tmp_path, capsys, deployment, contributing):
        """A development inside an [SA] span contributes only where the span is kept."""
        (tmp_path / "doc.spec").write_text(
            "# S\n\n=== REQ REQ_0001 ===\n--- VERSION first=01R1 last=open ---\n"
            "Base. [SA] [Before CB00XXXX] Old step. [CB00XXXX] New step. [End CB00XXXX] [End SA]\n"
            "=== END ===\n",
            encoding="utf-8",
        )
        (tmp_path / "registry.txt").write_text(REGISTRY, encoding="utf-8")
        main(
            [
                "resolve", *corpus_args(tmp_path), "--id", "REQ_0001", "--release", "01R2",
                "--deployment", deployment, "--format", "json",
            ]
        )
        text = "Base." if deployment == "NSA" else "Base. New step."
        assert capsys.readouterr().out == (
            f'{{"contributing_devs": {contributing}, "deployment": "{deployment}", '
            f'"id": "REQ_0001", "release": "01R2", "text": "{text}"}}\n'
        )

    def test_lint_golden(self, golden_dir, capsys):
        main(
            [
                "lint", *corpus_args(golden_dir),
                "--lexicon", str(golden_dir / "lexicon.json"),
                "--format", "json", "--fail-on", "none",
            ]
        )
        assert capsys.readouterr().out == (
            '{"document": "doc", "message": "non-canonical name '
            "'A2 measurement for Handover'; use 'A2 measurement'\", "
            '"requirement": "REQ_0002", "rule": "L3_Standardization", '
            '"severity": "High", "version": "01R1"}\n'
        )

    def test_query_diff_golden(self, golden_dir, capsys):
        main(
            [
                "query", "diff", *corpus_args(golden_dir),
                "--lexicon", str(golden_dir / "lexicon.json"),
                "--proc", "A2 measurement", "--from", "01R1", "--to", "01R2",
                "--format", "json",
            ]
        )
        assert capsys.readouterr().out == (
            '{"causes": ["CB00XXXX"], "id": "REQ_0001", "release_a": "01R1", '
            '"release_b": "01R2", "segments": '
            '[["unchanged", "The A2 measurement shall run."], '
            '["added", "The new threshold applies."], '
            '["removed", "The old threshold applies."]]}\n'
        )

    def test_query_reqs_golden(self, golden_dir, capsys):
        main(
            [
                "query", "reqs", *corpus_args(golden_dir),
                "--lexicon", str(golden_dir / "lexicon.json"),
                "--proc", "A2 measurement for Handover", "--format", "json",
            ]
        )
        assert capsys.readouterr().out == (
            '{"procedure": "A2 measurement for Handover", '
            '"requirements": ["REQ_0001", "REQ_0002"]}\n'
        )

    def test_query_behavior_golden(self, golden_dir, capsys):
        main(
            [
                "query", "behavior", *corpus_args(golden_dir),
                "--lexicon", str(golden_dir / "lexicon.json"),
                "--proc", "A2 measurement", "--release", "01R1", "--format", "json",
            ]
        )
        assert capsys.readouterr().out == (
            '{"deployment": "both", "id": "REQ_0001", "release": "01R1", '
            '"text": "The A2 measurement shall run. The old threshold applies."}\n'
            '{"deployment": "both", "id": "REQ_0002", "release": "01R1", '
            '"text": "The A2 measurement for Handover shall stop. '
            'Standalone extra step."}\n'
        )


# Each case: argv with "{d}" standing for the error_dir fixture, and the exit code.
CORPUS_ARGS = ["--corpus", "{d}/doc.spec", "--registry", "{d}/registry.txt"]
# Values of an index that no `index_to_json` writes, at their JSON paths.
MALFORMED_VALUES = {f"index-{case}": edit for case, edit in MALFORMED_INDEX_EDITS.items()}
# Release keys outside the index's universe, at the JSON paths of their records.
UNKNOWN_RELEASES = {f"index-{case}": edit for case, edit in UNKNOWN_RELEASE_EDITS.items()}
ERROR_CASES = {
    "corpus-not-utf8": (
        ["validate", "--corpus", "{d}/latin1.spec", "--registry", "{d}/registry.txt"], 2
    ),
    "corpus-is-directory": (
        ["validate", "--corpus", "{d}/sub", "--registry", "{d}/registry.txt"], 2
    ),
    "registry-is-directory": (
        ["validate", "--corpus", "{d}/doc.spec", "--registry", "{d}/sub"], 2
    ),
    "config-is-directory": (["lint", *CORPUS_ARGS, "--config", "{d}/sub"], 2),
    "index-is-directory": (
        ["query", "reqs", "--index", "{d}/sub", "--proc", "A2 measurement"], 2
    ),
    "query-corpus-conflicting-aliases": (
        ["query", "reqs", *CORPUS_ARGS, "--lexicon", "{d}/conflict.json", "--proc", "A"],
        2,
    ),
    "query-corpus-empty-alias": (
        ["query", "reqs", *CORPUS_ARGS, "--lexicon", "{d}/empty_alias.json", "--proc", "A"],
        2,
    ),
    "query-corpus-blank-alias": (
        ["query", "reqs", *CORPUS_ARGS, "--lexicon", "{d}/blank_alias.json", "--proc", "A"],
        2,
    ),
    "index-missing-keys": (
        ["query", "reqs", "--index", "{d}/keys.json", "--proc", "A2 measurement"], 2
    ),
    "index-not-an-object": (
        ["query", "reqs", "--index", "{d}/list.json", "--proc", "A2 measurement"], 2
    ),
    # JSON nested deeper than the parser recurses
    "index-nested-too-deep": (
        ["query", "reqs", "--index", "{d}/deep.json", "--proc", "A2 measurement"], 2
    ),
    "lexicon-nested-too-deep": (
        ["query", "reqs", *CORPUS_ARGS, "--lexicon", "{d}/deep.json", "--proc", "A"], 2
    ),
    "config-nested-too-deep": (["lint", *CORPUS_ARGS, "--config", "{d}/deep.json"], 2),
    "extract-out-is-a-file": (
        ["extract", *CORPUS_ARGS, "--all", "--out", "{d}/registry.txt"], 2
    ),
    "missing-file": (
        ["validate", "--corpus", "{d}/absent.spec", "--registry", "{d}/registry.txt"], 2
    ),
    "bad-config": (["lint", *CORPUS_ARGS, "--config", "{d}/bad_config.json"], 2),
    "extract-negative-min-tokens": (
        ["extract", *CORPUS_ARGS, "--all", "--min-tokens", "-3", "--out", "{d}/ds"], 2
    ),
    "gen-corpus-negative-count": (
        ["gen-corpus", "--seed", "1", "--dup-pairs", "-1", "--out", "{d}/gen"], 2
    ),
    "unknown-release": (
        ["query", "behavior", *CORPUS_ARGS, "--proc", "A2 measurement", "--release", "09R9"],
        3,
    ),
    "resolve-unknown-release": (
        ["resolve", *CORPUS_ARGS, "--id", "REQ_0001", "--release", "09R9"], 3
    ),
    "resolve-release-trailing-newline": (
        ["resolve", *CORPUS_ARGS, "--id", "REQ_0001", "--release", "01R1\n"], 2
    ),
    # R1's 01R1 record names an unregistered development, and no diff lists R1
    "index-record-dev-not-registered-query-diff": (
        ["query", "diff", "--index", "{d}/unregistered_record_dev.json", "--proc", "p",
         "--from", "01R1", "--to", "01R2"],
        2,
    ),
    **{
        case: (
            ["query", "dev", "--index", f"{{d}}/{case}.json", "--proc", "P",
             "--dev", "CB00XXXX", "--format", "json"],
            2,
        )
        for case in [*MALFORMED_VALUES, *UNKNOWN_RELEASES]
    },
}


# A complete, empty index as format 1 wrote it: every text inline, no "texts" table.
FORMAT_1_INDEX = (
    '{"aliases":{},"format_version":1,"proc_dep":{},"proc_dev":{},"proc_release":{},'
    '"proc_req":{},"registry":{},"release_universe":["01R1"],"req_release":{}}\n'
)
# A complete, empty index as format 2 wrote it: no edit scripts yet.
FORMAT_2_INDEX = (
    '{"aliases":{},"format_version":2,"proc_dep":{},"proc_dev":{},"proc_release":{},'
    '"proc_req":{},"registry":{},"release_universe":["01R1"],"req_release":{},"texts":[]}\n'
)
# A format-3 index whose one diff is stored as an edit script, with "proc_req".
FORMAT_3_INDEX = (
    '{"aliases":{},"format_version":3,"proc_dep":{},"proc_dev":{"P":{"CB00XXXX":[{'
    '"causes":["CB00XXXX"],"edits":"=-+","id":"R1","release_a":"01R1","release_b":"01R2"}]}},'
    '"proc_release":{},"proc_req":{},"registry":{"CB00XXXX":"01R2"},'
    '"release_universe":["01R1","01R2"],"req_release":{"R1":{"01R1":[1,[]],'
    '"01R2":[0,["CB00XXXX"]]}},"texts":["One. Three.","One. Two."]}\n'
)

# A format-4 index: each proc_dep list written whole, here the same as its
# proc_release list.
FORMAT_4_INDEX = (
    '{"aliases":{"p":"P"},"format_version":4,"proc_dep":{"P":{"NSA":{"01R1":[["R1",1]]},'
    '"SA":{"01R1":[["R1",1]]}}},"proc_dev":{"P":{"CB00XXXX":["R1"]}},'
    '"proc_release":{"P":{"01R1":[["R1",1]]}},"registry":{"CB00XXXX":"01R2"},'
    '"release_universe":["01R1","01R2"],"req_release":{"R1":{"01R1":[1,[]],'
    '"01R2":[0,["CB00XXXX"]]}},"texts":["One. Three.","One. Two."]}\n'
)

# A format-5 index: each distinct text stored whole in "texts", no sentence table.
FORMAT_5_INDEX = (
    '{"aliases":{"p":"P"},"format_version":5,"proc_dep":{"P":{"SA":{"01R1":[["R1",0]]}}},'
    '"proc_dev":{"P":{"CB00XXXX":["R1"]}},"proc_release":{"P":{"01R1":[["R1",1]]}},'
    '"registry":{"CB00XXXX":"01R2"},"release_universe":["01R1","01R2"],'
    '"req_release":{"R1":{"01R1":[1,[]],"01R2":[0,["CB00XXXX"]]}},'
    '"texts":["One. Three.","One. Two."]}\n'
)

# A format-6 index: each proc_release entry an [id, text position] pair.
FORMAT_6_INDEX = (
    '{"aliases":{"p":"P"},"format_version":6,"proc_dep":{"P":{"SA":{"01R1":[["R1",0]]}}},'
    '"proc_dev":{"P":{"CB00XXXX":["R1"]}},"proc_release":{"P":{"01R1":[["R1",1]]}},'
    '"registry":{"CB00XXXX":"01R2"},"release_universe":["01R1","01R2"],'
    '"req_release":{"R1":{"01R1":[1,[]],"01R2":[0,["CB00XXXX"]]}},'
    '"sentences":["One","Three.","Two."],"texts":["0 1","0 2"]}\n'
)


class TestErrorContract:
    """Every failure exits with its documented code and one `error:` line."""

    @pytest.fixture()
    def error_dir(self, corpus_dir):
        (corpus_dir / "latin1.spec").write_bytes("# Zeit\xfcberschreitung\n".encode("latin-1"))
        (corpus_dir / "sub").mkdir()
        (corpus_dir / "conflict.json").write_text('{"A": ["x y"], "B": ["x y"]}', encoding="utf-8")
        (corpus_dir / "empty_alias.json").write_text('{"A": [""]}', encoding="utf-8")
        (corpus_dir / "blank_alias.json").write_text('{"A": [" "]}', encoding="utf-8")
        (corpus_dir / "keys.json").write_text(
            f'{{"format_version": {FORMAT_VERSION}}}', encoding="utf-8"
        )
        (corpus_dir / "list.json").write_text("[1]", encoding="utf-8")
        (corpus_dir / "bad_config.json").write_text('{"shingle_k": 0}', encoding="utf-8")
        (corpus_dir / "deep.json").write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        for case, (path, value, _) in MALFORMED_VALUES.items():
            index = json_with(one_diff_index(), path, value)
            (corpus_dir / f"{case}.json").write_text(index, encoding="utf-8")
        (corpus_dir / "unregistered_record_dev.json").write_text(
            unregistered_record_dev_index(), encoding="utf-8"
        )
        for case, (path, key) in UNKNOWN_RELEASES.items():
            index = json_with_key(one_diff_index(), path, key)
            (corpus_dir / f"{case}.json").write_text(index, encoding="utf-8")
        return corpus_dir

    @pytest.mark.parametrize("argv, code", ERROR_CASES.values(), ids=ERROR_CASES.keys())
    def test_exit_code_and_one_error_line(self, error_dir, capsys, argv, code):
        assert main([a.format(d=error_dir) for a in argv]) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", MALFORMED_VALUES)
    def test_wrong_value_is_a_malformed_index(self, error_dir, capsys, case):
        argv, code = ERROR_CASES[case]
        assert main([a.format(d=error_dir) for a in argv]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: index: malformed index: ")
        assert MALFORMED_VALUES[case][2] in err

    @pytest.mark.parametrize("case", UNKNOWN_RELEASES)
    def test_release_outside_universe_is_a_malformed_index(self, error_dir, capsys, case):
        argv, code = ERROR_CASES[case]
        assert main([a.format(d=error_dir) for a in argv]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: index: malformed index: ")
        assert repr(UNKNOWN_RELEASES[case][1]) in err

    def test_unregistered_record_dev_is_a_malformed_index(self, error_dir, capsys):
        argv, code = ERROR_CASES["index-record-dev-not-registered-query-diff"]
        assert main([a.format(d=error_dir) for a in argv]) == code
        assert capsys.readouterr().err == (
            "error: index: malformed index: record development 'CB_NOPE' "
            "is not in the registry\n"
        )

    def test_good_diff_segment_loads(self, tmp_path, capsys):
        (tmp_path / "index.json").write_text(one_diff_index(), encoding="utf-8")
        argv = ["query", "dev", "--index", str(tmp_path / "index.json"), "--proc", "p",
                "--dev", "CB00XXXX", "--format", "json"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            '{"causes": ["CB00XXXX"], "id": "R1", "release_a": "01R1", "release_b": "01R2", '
            '"segments": [["unchanged", "One."], ["added", "Three."], ["removed", "Two."]]}\n'
        )

    @staticmethod
    def old_format_error(tmp_path, capsys, source: str) -> str:
        (tmp_path / "old.json").write_text(source, encoding="utf-8")
        argv = ["query", "reqs", "--index", str(tmp_path / "old.json"), "--proc", "A2 measurement"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "index build" in err
        return err

    def test_format_1_index_names_its_version(self, tmp_path, capsys):
        err = self.old_format_error(tmp_path, capsys, FORMAT_1_INDEX)
        assert err.startswith("error: index: unsupported index format version: 1 ")

    def test_format_2_index_names_its_version(self, tmp_path, capsys):
        err = self.old_format_error(tmp_path, capsys, FORMAT_2_INDEX)
        assert err.startswith("error: index: unsupported index format version: 2 ")

    def test_format_3_index_names_its_version(self, tmp_path, capsys):
        err = self.old_format_error(tmp_path, capsys, FORMAT_3_INDEX)
        assert err.startswith("error: index: unsupported index format version: 3 ")

    def test_format_4_index_names_its_version(self, tmp_path, capsys):
        err = self.old_format_error(tmp_path, capsys, FORMAT_4_INDEX)
        assert err.startswith("error: index: unsupported index format version: 4 ")

    def test_format_5_index_names_its_version(self, tmp_path, capsys):
        err = self.old_format_error(tmp_path, capsys, FORMAT_5_INDEX)
        assert err.startswith("error: index: unsupported index format version: 5 ")

    def test_format_6_index_names_its_version(self, tmp_path, capsys):
        err = self.old_format_error(tmp_path, capsys, FORMAT_6_INDEX)
        assert err.startswith("error: index: unsupported index format version: 6 ")

    @pytest.mark.parametrize("kind", ["index", "lexicon", "config"])
    def test_nested_too_deep_names_its_input(self, error_dir, capsys, kind):
        argv, code = ERROR_CASES[f"{kind}-nested-too-deep"]
        assert main([a.format(d=error_dir) for a in argv]) == code
        assert capsys.readouterr().err.startswith(f"error: {kind}: nested too deeply")

    def test_internal_bug_is_not_swallowed(self, corpus_dir, monkeypatch):
        def broken(*_):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "validate_corpus", broken)
        with pytest.raises(KeyError):
            main(["validate", *corpus_args(corpus_dir)])

    def test_empty_alias_names_its_canonical(self, error_dir, capsys):
        argv, code = ERROR_CASES["query-corpus-empty-alias"]
        assert main([a.format(d=error_dir) for a in argv]) == code
        assert capsys.readouterr().err == "error: lexicon: alias '' of 'A' has no tokens\n"

    def test_process_exit_status(self, error_dir):
        argv, code = ERROR_CASES["corpus-not-utf8"]
        result = run_cli(*[a.format(d=error_dir) for a in argv])
        assert result.returncode == code
        assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr


# 1,200 requirements that each mention "A2 measurement": `query reqs` prints
# more than one stdout buffer of ids.
MANY_REQS_CORPUS = "# S\n\n" + "".join(
    f"=== REQ REQ_{i:04d} ===\n--- VERSION first=01R1 last=open ---\n"
    "The A2 measurement shall run.\n=== END ===\n\n"
    for i in range(1, 1201)
)


class TestClosedStdout:
    """A reader that closes its end at once (`| head -0`) is no error: the
    command writes nothing more, says nothing on stderr, and exits with its
    own code, whether its stdout is buffered (a write fails when the buffer
    is flushed) or not (each print fails)."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["lint", "--format", "json", "--fail-on", "high"], 1),
            (["lint", "--fail-on", "none"], 0),
            (["query", "behavior", "--proc", "A2 measurement", "--release", "01R1"], 0),
            (["query", "reqs", "--proc", "A2 measurement",
              "--corpus", "{d}/many.spec", "--registry", "{d}/registry.txt"], 0),
        ],
        ids=["lint-json-findings", "lint-text", "query-behavior", "query-reqs-over-a-buffer"],
    )
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_exit_code_and_quiet_stderr(self, corpus_dir, argv, code, unbuffered):
        (corpus_dir / "doc.spec").write_text(
            CORPUS.replace("The A2 measurement shall stop.", "The A2 measurement for Handover shall stop."),
            encoding="utf-8",
        )
        (corpus_dir / "many.spec").write_text(MANY_REQS_CORPUS, encoding="utf-8")
        args = [a.format(d=corpus_dir) for a in argv]
        if "--corpus" not in args:
            args += corpus_args(corpus_dir)
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first write
        try:
            result = run_cli(*args, "--lexicon", str(corpus_dir / "lexicon.json"),
                             stdout=write, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        for text in ("error:", "Traceback", "Exception ignored"):
            assert text not in result.stderr
        assert result.returncode == code


# Commands that refuse a corpus with parse errors; "{d}" stands for corpus_dir.
CORPUS_ERROR_COMMANDS = {
    "lint": ["lint", *CORPUS_ARGS],
    "index-build": ["index", "build", *CORPUS_ARGS, "--out", "{d}/index.json"],
    "query-behavior": [
        "query", "behavior", *CORPUS_ARGS, "--proc", "A2 measurement", "--release", "01R1"
    ],
    "extract-all": ["extract", *CORPUS_ARGS, "--all", "--out", "{d}/out"],
}


class TestCorpusErrors:
    """A corpus with parse errors exits 2 with one `doc:N: Kind: message` line per error."""

    @pytest.mark.parametrize(
        "argv", CORPUS_ERROR_COMMANDS.values(), ids=CORPUS_ERROR_COMMANDS.keys()
    )
    def test_each_error_on_its_own_stderr_line(self, corpus_dir, capsys, argv):
        # One UnbalancedTag, and a stray end marker after the last block.
        (corpus_dir / "doc.spec").write_text(
            CORPUS.replace(" [End CB00XXXX]", "") + "=== END ===\n", encoding="utf-8"
        )
        assert main([a.format(d=corpus_dir) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "doc:5: UnbalancedTag: [Before CB00XXXX] never closed: missing [End CB00XXXX]\n"
            "doc:12: DanglingEnd: === END === without open block\n"
        )


class TestGenCorpus:
    def test_same_seed_byte_identical(self, tmp_path, capsys):
        args = ["gen-corpus", "--seed", "11", "--size", "80"]
        assert main([*args, "--out", str(tmp_path / "a")]) == 0
        assert main([*args, "--out", str(tmp_path / "b")]) == 0
        for name in ("SPEC_A.spec", "SPEC_B.spec", "registry.txt", "lexicon.json", "ground_truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_generated_corpus_validates_via_cli(self, tmp_path, capsys):
        main(["gen-corpus", "--seed", "11", "--size", "80", "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(
            [
                "validate",
                "--corpus", str(tmp_path / "SPEC_A.spec"), str(tmp_path / "SPEC_B.spec"),
                "--registry", str(tmp_path / "registry.txt"),
            ]
        )
        assert code == 0

    def test_zero_dup_rate_ground_truth_empty(self, tmp_path):
        bundle = generate_corpus(seed=11, size=80, dup_pairs=0)
        assert bundle.ground_truth["duplicates"] == []

    def test_console_entry_point(self, tmp_path):
        result = run_cli("gen-corpus", "--seed", "3", "--size", "80", "--out", str(tmp_path))
        assert result.returncode == 0
        assert (tmp_path / "ground_truth.json").exists()

    def test_package_runs_as_a_module(self):
        result = run_cli("--help", module="speckit")
        assert result.returncode == 0
        assert result.stdout.startswith("usage: speckit ")
