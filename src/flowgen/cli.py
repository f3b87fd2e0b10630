"""Command-line front end.

Subcommands::

    flowgen generate          compile one utterance into a workflow document
    flowgen eval              run the offline harness over a labeled dataset
    flowgen classify          score a text span against the trained classifier
    flowgen catalog-validate  check a stage catalog and report violations
    flowgen export            re-emit a saved workflow document as JSON or DOT

Exit codes: 0 on success, 1 for bad usage or bad input of any kind (an
``InputError`` or an ``OSError``, printed as ``error: ...``), 2 when the
pipeline or its provider fails, or on any other exception (a JSON error
envelope goes to stderr; step ``internal`` for an unexpected exception).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import InputError, __version__
from .catalog import CatalogValidationError, load_catalog
from .edgepred import to_dot
from .llm import FAMILIES, ProviderError
from .pipeline import (
    STRATEGIES,
    PipelineConfig,
    PipelineError,
    build_runtime,
    emit,
    generate_with_runtime,
    load_classifier,
    load_workflow_doc,
)

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; we reserve 2 for pipeline failures
    def error(self, message: str):  # noqa: D102
        raise InputError(message)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=STRATEGIES, default="cag")
    p.add_argument("--catalog", help="stage catalog JSON path")
    p.add_argument("--examples", help="few-shot example bank JSON path")
    p.add_argument("--split-examples", help="decomposition example JSON path")
    p.add_argument("--classifier", help="classifier training pairs JSON path, or http(s) endpoint")
    p.add_argument("--registry", help="external name registry JSON path")
    p.add_argument("--mock-scripts", help="scripted provider JSON path (offline mode)")
    p.add_argument("--family", choices=FAMILIES, default="granite")
    p.add_argument("--parallel", type=int, default=1, help="worker threads for edge/property branches")
    p.add_argument("--cap", type=int, default=None, help="max few-shot examples per stage prompt")


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The config that a subcommand's flags give.

    A flag left unset, or one the subcommand lacks, keeps its default. An
    http(s) ``--classifier`` is an endpoint, anything else a path.
    """
    kwargs: dict = {}
    for name in ("strategy", "family", "parallel"):
        if name in args:
            kwargs[name] = getattr(args, name)
    if getattr(args, "cap", None) is not None:
        kwargs["example_cap"] = args.cap
    for flag in ("catalog", "examples", "split_examples", "registry", "mock_scripts"):
        value = getattr(args, flag, None)
        if value:
            kwargs[f"{flag}_path"] = Path(value)
    if args.classifier:
        if args.classifier.startswith(("http://", "https://")):
            kwargs["classifier_endpoint"] = args.classifier
        else:
            kwargs["classifier_path"] = Path(args.classifier)
    return PipelineConfig(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowgen", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="compile an utterance into a workflow")
    source = p_gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--utterance", help="flow description text")
    source.add_argument("--stdin", action="store_true", help="read the utterance from stdin")
    _add_config_flags(p_gen)
    p_gen.add_argument("--out", help="write the workflow document here instead of stdout")
    p_gen.add_argument("--dot", help="also write a DOT rendering to this path")
    p_gen.add_argument("--trace", action="store_true", help="include provenance in the output")

    p_eval = sub.add_parser("eval", help="evaluate a strategy over a labeled dataset")
    p_eval.add_argument("--dataset", required=True, help="labeled dataset JSON path")
    p_eval.add_argument(
        "--measure",
        default="stages",
        help="comma-separated metric families: stages,edges,props (default: stages)",
    )
    p_eval.add_argument("--report", help="also write the structured JSON report to this path")
    _add_config_flags(p_eval)

    p_cls = sub.add_parser("classify", help="score a text span against the classifier")
    p_cls.add_argument("--text", required=True)
    p_cls.add_argument("--catalog", help="stage catalog JSON path")
    p_cls.add_argument("--classifier", help="classifier training pairs JSON path, or http(s) endpoint")
    p_cls.add_argument("--top", type=int, default=5, help="number of ranked labels to print")

    p_cat = sub.add_parser("catalog-validate", help="validate a stage catalog")
    p_cat.add_argument("--catalog", required=True)

    p_exp = sub.add_parser("export", help="re-emit a saved workflow document")
    p_exp.add_argument("--workflow", required=True, help="workflow document JSON path")
    p_exp.add_argument("--format", choices=("doc", "dot"), default="dot")
    p_exp.add_argument("--out", help="write here instead of stdout")

    return parser


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        # piped input always carries a trailing newline; it is not part of the flow text
        utterance = args.utterance if args.utterance is not None else sys.stdin.read().strip()
        # bytes that are not UTF-8 arrive surrogate-escaped, and no output could hold them
        utterance.encode("utf-8")
    except UnicodeError as exc:  # a strict stdin fails to decode them at the read instead
        raise InputError(f"the utterance is not UTF-8 text ({exc})") from exc
    if not utterance.strip():
        raise InputError("empty utterance")
    cfg = _config_from_args(args)
    runtime = build_runtime(cfg)
    workflow = generate_with_runtime(utterance, runtime)
    doc = emit(workflow)
    if args.trace:  # the provenance goes in as the document's last key, one level in
        provenance = json.dumps(workflow.provenance, indent=2, ensure_ascii=False)
        doc = doc[: -len("\n}\n")] + ',\n  "provenance": ' + provenance.replace("\n", "\n  ") + "\n}\n"
    _write_out(doc, args.out)
    if args.dot:
        Path(args.dot).write_text(to_dot(workflow.graph), encoding="utf-8")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    # local: only eval needs the harness, so a one-shot generate does not load it
    from .evaluation import MEASURES, load_dataset, report_json, report_table, run_eval

    cfg = _config_from_args(args)
    dataset = load_dataset(args.dataset)
    measures = tuple(m.strip() for m in args.measure.split(",") if m.strip())
    if not measures:
        raise InputError("--measure needs at least one of stages,edges,props")
    runtime = build_runtime(cfg)
    try:
        report = run_eval(dataset, cfg, measures=measures, runtime=runtime)
    except InputError as exc:  # with every measure known, the dataset's gold stages are at fault
        raise InputError(str(exc), args.dataset if set(measures) <= set(MEASURES) else "") from exc
    sys.stdout.write(report_table(report))
    if args.report:
        Path(args.report).write_text(report_json(report), encoding="utf-8")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    if args.top < 0:
        raise InputError("--top must not be negative")
    cfg = _config_from_args(args)
    # an endpoint classifies without the catalog, so it is not loaded for one
    catalog = None if cfg.classifier_endpoint else load_catalog(cfg.catalog_path)
    result = load_classifier(cfg, catalog).classify(args.text)
    print(f"matched: {str(result.matched).lower()}")
    for label, score in result.ranked[: args.top]:
        print(f"{score:.4f}  {label}")
    return 0


def _cmd_catalog_validate(args: argparse.Namespace) -> int:
    try:
        catalog = load_catalog(args.catalog)
    except CatalogValidationError as exc:
        for violation in exc.violations:
            print(f"{violation.stage}: {violation.field}: {violation.message}", file=sys.stderr)
        return 1
    print(f"ok: {len(catalog.stages)} stages")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    workflow = load_workflow_doc(args.workflow)
    _write_out(to_dot(workflow.graph) if args.format == "dot" else emit(workflow), args.out)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "catalog-validate": _cmd_catalog_validate,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:  # usage, configuration and input files
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PipelineError as exc:
        return _failed(exc.envelope())
    except ProviderError as exc:
        return _failed({"error": {"step": "provider", "message": str(exc)}})
    except Exception as exc:  # a fault in flowgen itself: no traceback escapes
        return _failed({"error": {"step": "internal", "message": f"{type(exc).__name__}: {exc}"}})


def _failed(envelope: dict) -> int:
    """Print an error envelope as JSON on stderr; exit code 2."""
    print(json.dumps(envelope, indent=2, ensure_ascii=False), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
