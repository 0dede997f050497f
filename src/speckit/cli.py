"""Command-line front end.

Exit codes are stable across subcommands:
    0  success
    1  lint findings at or above the --fail-on severity
    2  parse or configuration error
    3  unknown entity (requirement, release, development, ...)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

from .dataset import DEFAULT_MIN_TOKENS, extract_all, extract_release_dataset, write_datasets
from .errors import SpecError, UnknownDevelopmentError, UnknownReleaseError
from .generator import generate_corpus, write_corpus
from .index import (
    SpecIndex,
    build_index,
    index_from_json,
    index_to_json,
    query_behavior,
    query_deployment,
    query_dev_changes,
    query_release_diff,
    query_requirements,
)
from .lexicon import Lexicon, build_lexicon, load_lexicon
from .lint import LintConfig, Severity, lint_corpus
from .model import DeploymentType, DevelopmentRegistry, ReleaseId, SpecDocument, release_universe
from .parser import load_registry, parse_document, validate_corpus
from .resolver import BehaviorDiff, DiffKind, materialize

CONFIG_ENV_VAR = "SPECKIT_CONFIG"

EXIT_OK = 0
EXIT_LINT = 1
EXIT_PARSE = 2
EXIT_UNKNOWN = 3

T = TypeVar("T")


class _CorpusErrors(Exception):
    """Parse or validation errors in the corpus, reported one per stderr line."""

    def __init__(self, errors: list) -> None:
        super().__init__(f"{len(errors)} error(s)")
        self.errors = errors


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _out(line: Optional[str] = None) -> None:
    """Print `line` to stdout, or flush stdout if `line` is None.  A reader
    that closed its end (`| head -1`) wants no more output: stdout is pointed
    at os.devnull, and the command runs on to its own exit code."""
    try:
        if line is None:
            sys.stdout.flush()
        else:
            print(line)
    except BrokenPipeError:
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _print_json(obj: dict) -> None:
    _out(json.dumps(obj, sort_keys=True, ensure_ascii=False))


def _read_text(path: str) -> str:
    """The file at `path` as UTF-8, without a leading byte-order mark.

    A decoding failure names the file and its bad byte's offset in the file
    (the "utf-8-sig" codec would count that offset from after the mark).
    """
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
        ) from exc


def _load(kind: str, path: str, parse: Callable[[str], T]) -> T:
    """Read and parse one input file; a parse error is prefixed with `kind`."""
    source = _read_text(path)
    try:
        return parse(source)
    except (ValueError, SpecError) as exc:
        raise ValueError(f"{kind}: {exc}") from exc
    except RecursionError as exc:  # JSON nested deeper than the parser recurses
        raise ValueError(f"{kind}: nested too deeply to parse ({exc})") from exc


def _load_corpus(paths: Sequence[str]) -> tuple[list[SpecDocument], list]:
    docs = []
    errors = []
    for p in paths:
        result = parse_document(_read_text(p), name=Path(p).stem)
        docs.append(result.document)
        errors.extend(result.errors)
    return docs, errors


def _load_inputs(
    args: argparse.Namespace,
) -> tuple[list[SpecDocument], DevelopmentRegistry, Lexicon, list]:
    docs, errors = _load_corpus(args.corpus)
    registry = _load("registry", args.registry, load_registry)
    lexicon_path = getattr(args, "lexicon", None)
    if lexicon_path:
        lexicon = _load("lexicon", lexicon_path, load_lexicon)
    else:
        lexicon = build_lexicon({})
    return docs, registry, lexicon, errors


def _load_valid_inputs(
    args: argparse.Namespace, cross_validate: bool = True
) -> tuple[list[SpecDocument], DevelopmentRegistry, Lexicon]:
    """Inputs with no parse (and, if `cross_validate`, no validation) errors."""
    docs, registry, lexicon, errors = _load_inputs(args)
    if cross_validate:
        errors.extend(validate_corpus(docs, registry))
    if errors:
        raise _CorpusErrors(errors)
    return docs, registry, lexicon


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    docs, registry, _, errors = _load_inputs(args)
    errors.extend(validate_corpus(docs, registry))
    for err in errors:
        _out(str(err))
    if errors:
        print(f"{len(errors)} error(s)", file=sys.stderr)
        return EXIT_PARSE
    total = sum(1 for doc in docs for _ in doc.iter_requirements())
    _out(f"OK: {len(docs)} document(s), {total} requirement(s)")
    return EXIT_OK


def cmd_resolve(args: argparse.Namespace) -> int:
    docs, registry, _ = _load_valid_inputs(args, cross_validate=False)
    release = ReleaseId.parse(args.release)
    if release not in release_universe(docs, registry):
        raise UnknownReleaseError(str(release))
    dep = None if args.deployment == "both" else DeploymentType(args.deployment)

    req = next(
        (r for doc in docs for r in doc.iter_requirements() if r.id == args.id), None
    )
    if req is None:
        return _fail(EXIT_UNKNOWN, f"unknown requirement id: {args.id}")
    resolved = materialize(req, release, dep, registry)
    if resolved is None:
        return _fail(EXIT_UNKNOWN, f"{args.id} is not valid at release {release}")
    if args.format == "json":
        _print_json(
            {
                "id": resolved.id,
                "release": str(resolved.release),
                "deployment": resolved.deployment.value if resolved.deployment else "both",
                "text": resolved.text,
                "contributing_devs": sorted(resolved.contributing_devs),
            }
        )
    else:
        _out(resolved.text)
    return EXIT_OK


def cmd_lint(args: argparse.Namespace) -> int:
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    config = _load("config", config_path, LintConfig.from_json) if config_path else LintConfig()
    docs, registry, lexicon = _load_valid_inputs(args)

    findings = lint_corpus(docs, registry, lexicon, config)
    if args.format == "json":
        for finding in findings:
            _print_json(finding.to_dict())
    else:
        for finding in findings:
            loc = finding.location
            where = f"{loc.document}:{loc.requirement}"
            if loc.version:
                where += f"@{loc.version}"
            _out(f"{finding.severity.value:6} {finding.rule.value:19} {where}: {finding.message}")
        print(f"{len(findings)} finding(s)", file=sys.stderr)

    if args.fail_on == "none":
        return EXIT_OK
    threshold = Severity(args.fail_on.capitalize())
    if any(f.severity.rank >= threshold.rank for f in findings):
        return EXIT_LINT
    return EXIT_OK


def cmd_index_build(args: argparse.Namespace) -> int:
    docs, registry, lexicon = _load_valid_inputs(args)
    index = build_index(docs, registry, lexicon)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(index_to_json(index), encoding="utf-8")
    _out(f"index written to {out}")
    return EXIT_OK


def _obtain_index(args: argparse.Namespace) -> SpecIndex:
    if args.index:
        return _load("index", args.index, index_from_json)
    if not args.corpus or not args.registry:
        raise ValueError("provide --index or --corpus/--registry (plus --lexicon)")
    return build_index(*_load_valid_inputs(args))


def _print_entries(entries: list[tuple[str, str]], release: str, fmt: str, deployment: str = "both") -> None:
    if fmt == "json":
        for req_id, text in entries:
            _print_json({"id": req_id, "release": release, "deployment": deployment, "text": text})
    else:
        for req_id, text in entries:
            _out(f"{req_id}: {text}")


def _print_diffs(diffs: list[BehaviorDiff], fmt: str) -> None:
    if fmt == "json":
        for diff in diffs:
            _print_json(diff.to_dict())
    else:
        marks = {DiffKind.ADDED: "+", DiffKind.REMOVED: "-", DiffKind.UNCHANGED: "="}
        for diff in diffs:
            causes = f" causes: {', '.join(sorted(diff.causes))}" if diff.causes else ""
            _out(f"{diff.id} {diff.release_a} -> {diff.release_b}{causes}")
            for seg in diff.segments:
                _out(f"  {marks[seg.kind]} {seg.text}")


def cmd_query(args: argparse.Namespace) -> int:
    index = _obtain_index(args)
    if args.form == "behavior":
        release = ReleaseId.parse(args.release)
        entries = query_behavior(index, args.proc, release)
        _print_entries(entries, str(release), args.format)
    elif args.form == "diff":
        a = ReleaseId.parse(args.release_from)
        b = ReleaseId.parse(args.release_to)
        _print_diffs(query_release_diff(index, args.proc, a, b), args.format)
    elif args.form == "dev":
        _print_diffs(query_dev_changes(index, args.proc, args.dev), args.format)
    elif args.form == "reqs":
        ids = sorted(query_requirements(index, args.proc))
        if args.format == "json":
            _print_json({"procedure": args.proc, "requirements": ids})
        else:
            for req_id in ids:
                _out(req_id)
    else:  # deployment
        dep = DeploymentType(args.deployment)
        release = ReleaseId.parse(args.release) if args.release else None
        entries = query_deployment(index, args.proc, dep, release)
        shown = str(release) if release else str(index.latest_release())
        _print_entries(entries, shown, args.format, deployment=dep.value)
    return EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    docs, registry, _ = _load_valid_inputs(args)
    if args.all:
        datasets = extract_all(docs, registry, args.min_tokens)
    else:
        release = ReleaseId.parse(args.release)
        datasets = [extract_release_dataset(docs, release, registry, args.min_tokens)]
    for path in write_datasets(datasets, Path(args.out)):
        _out(path)
    return EXIT_OK


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    bundle = generate_corpus(
        seed=args.seed,
        size=args.size,
        dup_pairs=args.dup_pairs,
        overlength=args.overlength,
        alias_usages=args.alias_usages,
        dispersed_procs=args.dispersed,
    )
    for path in write_corpus(bundle, Path(args.out)):
        _out(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_corpus_args(sub: argparse.ArgumentParser, required: bool = True) -> None:
    sub.add_argument("--corpus", nargs="+", required=required, metavar="FILE",
                     help=".spec corpus files")
    sub.add_argument("--registry", required=required, metavar="FILE",
                     help="development registry file")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speckit",
        description="Parse, release-resolve, lint, extract and query "
        "internal specification corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and cross-validate a corpus")
    _add_corpus_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("resolve", help="print a requirement's text at a release")
    _add_corpus_args(p)
    p.add_argument("--id", required=True, help="requirement id")
    p.add_argument("--release", required=True, help="release, e.g. 01R2")
    p.add_argument("--deployment", choices=["SA", "NSA", "both"], default="both")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("lint", help="report corpus defects")
    _add_corpus_args(p)
    p.add_argument("--lexicon", metavar="FILE", help="procedure lexicon (JSON)")
    p.add_argument("--config", metavar="FILE",
                   help=f"lint config (JSON); default from ${CONFIG_ENV_VAR}")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--fail-on", dest="fail_on",
                   choices=["high", "medium", "low", "none"], default="high")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("index", help="index operations")
    index_sub = p.add_subparsers(dest="index_command", required=True)
    pb = index_sub.add_parser("build", help="build and persist the query index")
    _add_corpus_args(pb)
    pb.add_argument("--lexicon", metavar="FILE")
    pb.add_argument("--out", required=True, metavar="FILE", help="output index file")
    pb.set_defaults(func=cmd_index_build)

    p = sub.add_parser("query", help="query a built (or buildable) index")
    p.set_defaults(func=cmd_query)
    query_sub = p.add_subparsers(dest="form", required=True)

    def add_query(form: str, help_text: str) -> argparse.ArgumentParser:
        q = query_sub.add_parser(form, help=help_text)
        q.add_argument("--index", metavar="FILE", help="index file from `index build`")
        _add_corpus_args(q, required=False)
        q.add_argument("--lexicon", metavar="FILE")
        q.add_argument("--proc", required=True, help="procedure name or alias")
        q.add_argument("--format", choices=["text", "json"], default="text")
        return q

    q = add_query("behavior", "how does a procedure behave in a release")
    q.add_argument("--release", required=True)

    q = add_query("diff", "behavior difference between two releases")
    q.add_argument("--from", dest="release_from", required=True)
    q.add_argument("--to", dest="release_to", required=True)

    q = add_query("dev", "changes introduced by a development")
    q.add_argument("--dev", required=True, help="development id, e.g. CB000001")

    add_query("reqs", "requirements related to a procedure")

    q = add_query("deployment", "behavior for SA or NSA")
    q.add_argument("--deployment", choices=["SA", "NSA"], required=True)
    q.add_argument("--release", help="narrow to one release (default: latest)")

    p = sub.add_parser("extract", help="write per-release raw datasets")
    _add_corpus_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--release", help="extract one release")
    group.add_argument("--all", action="store_true", help="extract every release")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--min-tokens", dest="min_tokens", type=int, default=DEFAULT_MIN_TOKENS,
                   help="drop records shorter than this many tokens")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus with ground truth")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--dup-pairs", dest="dup_pairs", type=int, default=10)
    p.add_argument("--overlength", type=int, default=8)
    p.add_argument("--alias-usages", dest="alias_usages", type=int, default=12)
    p.add_argument("--dispersed", type=int, default=3)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_gen_corpus)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; the handlers below are the only exception-to-exit-code map."""
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CorpusErrors as exc:
        for err in exc.errors:
            print(err, file=sys.stderr)
        return EXIT_PARSE
    except (UnknownReleaseError, UnknownDevelopmentError) as exc:
        return _fail(EXIT_UNKNOWN, str(exc))
    except FileNotFoundError as exc:
        return _fail(EXIT_PARSE, f"no such file: {exc.filename}")
    except OSError as exc:
        return _fail(EXIT_PARSE, f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc))
    except (ValueError, SpecError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    finally:
        _out()  # flushed here, where a closed stdout is caught, not at exit


if __name__ == "__main__":
    sys.exit(main())
