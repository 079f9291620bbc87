"""Single entry-point command with subcommands for batch operation.

Exit codes: 0 success, 2 usage errors or missing/unreadable files, 3 validation
failures, 4 gateway failures. Logs go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from . import corpus, pipeline, stats, textmetrics, validation
from .errors import GatewayError, TranscreateError, ValidationError
from .fileio import MalformedLineError, atomic_write_text, indented_json, read_json
from .gateway import DEFAULT_BACKOFF_BASE_S, Gateway, HttpBackend, MockBackend, ProviderConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_GATEWAY = 4

# What a RunConfig field of each annotated type takes from a config file.
_SETTING_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str | None": ((str, type(None)), "a string"),
}


@dataclass
class RunConfig:
    """Effective run settings: defaults, overridden by --config, then by flags."""

    provider: ProviderConfig = field(default_factory=ProviderConfig)
    taxonomy_path: str | None = None
    tagset_path: str | None = None
    prompts_dir: str | None = None
    rng_seed: int = 0
    retry_budget: int = pipeline.DEFAULT_RETRY_BUDGET
    length_envelope: float = pipeline.DEFAULT_LENGTH_ENVELOPE
    alpha: float = stats.DEFAULT_ALPHA
    mock_script_path: str | None = None
    request_log: str | None = None

    def __post_init__(self):
        if self.retry_budget < 0:
            raise ValidationError("retry_budget must be >= 0")
        if not 0 < self.length_envelope < 1:
            raise ValidationError("length_envelope must be in (0, 1)")
        if not 0 < self.alpha < 1:
            raise ValidationError("alpha must be in (0, 1)")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        settings: dict[str, Any] = {}
        provider_settings: dict[str, Any] = {}
        config_path = getattr(args, "config", None)
        if config_path:
            try:
                raw = read_json(config_path, "config file")
            except MalformedLineError as exc:
                raise ValidationError(f"bad config: {exc.reason} ({exc.path}:{exc.line_no})")
            if not isinstance(raw, dict):
                raise ValidationError("bad config: the file must hold a JSON object")
            provider_settings = raw.pop("provider", {})
            if not isinstance(provider_settings, dict):
                raise ValidationError("bad config: provider must be an object")
            settings.update(raw)
        known = set(cls.__dataclass_fields__) - {"provider"}
        for name in known:
            value = getattr(args, name, None)
            if value is not None:
                settings[name] = value
        unknown = set(settings) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for name, value in sorted(settings.items()):
            types, kind = _SETTING_TYPES[cls.__dataclass_fields__[name].type]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValidationError(f"bad config: {name} must be {kind}")
        try:
            provider = ProviderConfig(**provider_settings)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad provider config: {exc}") from exc
        return cls(provider=provider, **settings)

    def build_gateway(self) -> Gateway:
        mock = self.mock_script_path
        return Gateway(
            MockBackend.from_file(mock) if mock else HttpBackend(self.provider),
            max_retries=self.provider.max_retries,
            max_in_flight=self.provider.max_in_flight,
            # No live transport behind the mock, so no backoff sleeps either.
            backoff_base_s=0.0 if mock else DEFAULT_BACKOFF_BASE_S,
            log_path=self.request_log,
            rng_seed=self.rng_seed,
        )

    def build_pipeline(
        self, gateway: Gateway, taxonomy: corpus.TopicTaxonomy
    ) -> pipeline.TranscreationPipeline:
        tagset = corpus.load_tagset(self.tagset_path)
        templates = pipeline.load_templates(self.prompts_dir)
        return pipeline.TranscreationPipeline(
            gateway,
            taxonomy,
            tagset,
            templates,
            retry_budget=self.retry_budget,
            length_envelope=self.length_envelope,
            seed=self.rng_seed,
        )


def _emit(payload: Any, out_path: str | None) -> None:
    text = indented_json(payload) + "\n"
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _log(message: str) -> None:
    sys.stderr.write(message + "\n")


# -- subcommands ------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    items = corpus.load_items(args.in_path)
    _log(f"loaded {len(items)} items from {args.in_path}")
    if args.out:
        corpus.save_items(items, args.out)
        _log(f"wrote normalized items to {args.out}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    items = corpus.load_items(args.in_path)
    reports = {item.id: textmetrics.passage_report(item.passage) for item in items}
    summary = textmetrics.corpus_summary(list(reports.values()))
    payload = {
        "items": [{"id": item_id, **report.to_dict()} for item_id, report in reports.items()],
        "summary": summary.to_dict(),
        "rendered": summary.rendered(),
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_transcreate(args: argparse.Namespace) -> int:
    config = RunConfig.from_args(args)
    items = corpus.load_items(args.in_path)
    taxonomy = corpus.load_taxonomy(config.taxonomy_path)
    profiles = corpus.load_profiles(args.profiles, taxonomy)
    work = pipeline.assign_topics(profiles, items, args.mode, config.rng_seed, taxonomy)
    jobs = args.jobs
    if config.mock_script_path and jobs != 1:
        _log("mock runs are forced to --jobs 1 to stay deterministic")
        jobs = 1
    gateway = config.build_gateway()
    try:
        records = config.build_pipeline(gateway, taxonomy).transcreate_many(work, jobs=jobs)
    finally:
        gateway.close()
    pipeline.save_records(records, args.out)
    failed = [record for record in records if not record.status.is_complete]
    _log(
        f"wrote {len(records)} records to {args.out} "
        f"({len(records) - len(failed)} complete, {len(failed)} failed)"
    )
    if failed:
        for record in failed:
            _log(f"failed: {record.record_id} at step {record.status.step}: {record.status.reason}")
        if any(record.status.gateway_failure for record in failed):
            return EXIT_GATEWAY
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_judge(args: argparse.Namespace) -> int:
    config = RunConfig.from_args(args)
    records = pipeline.load_records(args.in_path)
    templates = pipeline.load_templates(config.prompts_dir)
    if "judge_bloom" not in templates:
        raise ValidationError("missing prompt template: judge_bloom")
    verdicts: list[validation.JudgeVerdict] = []
    failures: list[validation.JudgeFailure] = []
    gateway = config.build_gateway()
    try:
        judge = validation.BloomJudge(
            gateway, templates["judge_bloom"], retry_budget=config.retry_budget,
            seed=config.rng_seed,
        )
        for record in records:
            if record.status.is_complete:
                verdicts.extend(judge.judge_record(record, failures=failures))
            else:
                failures.append(validation.JudgeFailure(
                    record.record_id, None,
                    f"record failed at step {record.status.step}: {record.status.reason}",
                ))
    finally:
        gateway.close()
    payload: dict[str, Any] = {"verdicts": [verdict.to_dict() for verdict in verdicts]}
    if verdicts or not failures:
        payload["agreement"] = validation.agreement_report(verdicts).to_dict()
    if failures:
        payload["failures"] = [failure.to_dict() for failure in failures]
    _emit(payload, args.out)
    if failures:
        for failure in failures:
            where = "" if failure.question_idx is None else f" question {failure.question_idx}"
            _log(f"failed: {failure.item_id}{where}: {failure.reason}")
        if any(failure.gateway_failure for failure in failures):
            return EXIT_GATEWAY
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_review(args: argparse.Namespace) -> int:
    records = None
    if args.in_path:
        records = pipeline.load_records(args.in_path)
        if not records:
            _log("warning: no records; opening an empty queue")
        Path(args.queue).parent.mkdir(parents=True, exist_ok=True)
    elif not Path(args.queue).exists():
        raise FileNotFoundError(f"queue file not found: {args.queue}")
    # Locked before the queue is created or read, so a refused session
    # leaves another session's queue file as it was.
    with validation.QueueLock(args.queue):
        if records is not None:
            queue = validation.ReviewQueue.open_new(records, args.queue, force=args.force)
            _log(f"opened queue with {len(queue.entries)} entries at {args.queue}")
        else:
            queue = validation.ReviewQueue.load(args.queue)
        if args.open_only:
            return EXIT_OK
        decided = validation.run_review_session(
            queue, args.reviewer, sys.stdin, sys.stdout
        )
    _log(f"recorded {decided} decisions; {len(queue.pending())} still pending")
    return EXIT_OK


def cmd_qa_report(args: argparse.Namespace) -> int:
    queue = validation.ReviewQueue.load(args.queue)
    report = validation.qa_report(queue)
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def cmd_split(args: argparse.Namespace) -> int:
    records = stats.load_student_records(args.records)
    result = stats.balanced_split(
        records,
        args.group_size,
        allow_heuristic=args.heuristic,
        rng_seed=args.seed if args.seed is not None else 0,
    )
    _emit(result.to_dict(), args.out)
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    records = stats.load_student_records(args.records)
    key = corpus.load_items(args.key)
    payload = {}
    for record in records:
        if args.test not in record.test_answers:
            raise ValidationError(f"{record.student_id} has no answers for {args.test}")
        payload[record.student_id] = stats.score_test(
            record.test_answers[args.test], key
        ).to_dict()
    _emit(payload, args.out)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    config = RunConfig.from_args(args)
    records = stats.load_student_records(args.records)
    keys = {}
    for spec_pair in args.key:
        test_id, _, key_path = spec_pair.partition("=")
        if not key_path:
            raise ValidationError(f"--key needs TEST=PATH, got {spec_pair!r}")
        keys[test_id] = corpus.load_items(key_path)
    report = stats.experiment_report(records, keys, alpha=config.alpha)
    if args.format == "text":
        text = stats.render_report_text(report)
        if args.out:
            atomic_write_text(args.out, text)
        else:
            sys.stdout.write(text)
    else:
        _emit(report, args.out)
    return EXIT_OK


# -- parser -----------------------------------------------------------------------


_CONFIG_FLAGS: dict[str, tuple[str, dict[str, Any]]] = {
    "taxonomy_path": ("--taxonomy", {"help": "taxonomy JSON path"}),
    "tagset_path": ("--tagset", {"help": "tag set JSON path"}),
    "prompts_dir": ("--prompts", {"help": "prompt template directory"}),
    "rng_seed": ("--seed", {"type": int, "help": "RNG seed (default 0)"}),
    "retry_budget": ("--retry-budget", {"type": int, "help": (
        f"reply-violation retries per step, >= 0 (default {pipeline.DEFAULT_RETRY_BUDGET})")}),
    "length_envelope": ("--length-envelope", {"type": float, "help": (
        f"allowed relative word-count deviation (default {pipeline.DEFAULT_LENGTH_ENVELOPE})")}),
    "alpha": ("--alpha", {"type": float, "help": (
        f"significance threshold (default {stats.DEFAULT_ALPHA})")}),
    "mock_script_path": ("--mock", {
        "help": "mock script JSON; switches the gateway to scripted replies"}),
    "request_log": ("--log", {"help": "append-only JSONL request log path"}),
}


def _add_config_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """--config, plus a flag for each named RunConfig field the command reads."""
    parser.add_argument("--config", help="JSON config file; flags win over it")
    for name in names:
        flag, options = _CONFIG_FLAGS[name]
        parser.add_argument(flag, dest=name, **options)


@functools.cache  # parsing keeps no state in the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transcreate",
        description="Transcreate reading-comprehension items into learner interests "
        "and analyze the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate an items JSONL file")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", help="optional normalized copy")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("analyze", help="per-passage metrics and corpus summary")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("transcreate", help="run the five-step pipeline over items")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--profiles", required=True, help="interest profiles JSON")
    p.add_argument("--mode", choices=["random", "interest"], required=True)
    p.add_argument("--out", required=True, help="records JSONL output (atomic)")
    p.add_argument("--jobs", type=int, default=1, help="parallel items (default 1)")
    _add_config_flags(p, "taxonomy_path", "tagset_path", "prompts_dir", "rng_seed",
                      "retry_budget", "length_envelope", "mock_script_path", "request_log")
    p.set_defaults(handler=cmd_transcreate)

    p = sub.add_parser("judge", help="blind-judge question levels and report agreement")
    p.add_argument("--in", dest="in_path", required=True, help="records JSONL")
    p.add_argument("--out")
    _add_config_flags(p, "prompts_dir", "rng_seed", "retry_budget", "mock_script_path",
                      "request_log")
    p.set_defaults(handler=cmd_judge)

    p = sub.add_parser("review", help="interactive expert review of transcreated items")
    p.add_argument("--queue", required=True, help="queue JSON path")
    p.add_argument("--in", dest="in_path", help="records JSONL; opens a new queue")
    p.add_argument("--force", action="store_true", help="overwrite an existing queue")
    p.add_argument("--open-only", action="store_true", help="create the queue and exit")
    p.add_argument("--reviewer", default="reviewer", help="reviewer id for the audit log")
    p.set_defaults(handler=cmd_review)

    p = sub.add_parser("qa-report", help="flagging and edit statistics for a decided queue")
    p.add_argument("--queue", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_qa_report)

    p = sub.add_parser("split", help="balanced two-group split by TOEFL score")
    p.add_argument("--records", required=True, help="student records JSON")
    p.add_argument("--group-size", dest="group_size", type=int, required=True)
    p.add_argument(
        "--heuristic", action="store_true",
        help="allow the seeded swap search for group sizes above 16 (the exact limit)",
    )
    p.add_argument("--seed", type=int, help="seed for the heuristic search")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("score", help="score answer sheets against a key")
    p.add_argument("--records", required=True)
    p.add_argument("--key", required=True, help="answer-key items JSONL")
    p.add_argument("--test", required=True, help="test id, e.g. test1")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("stats", help="full experiment report")
    p.add_argument("--records", required=True)
    p.add_argument(
        "--key", action="append", required=True, metavar="TEST=PATH",
        help="answer key per test; repeat for each test",
    )
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--out")
    _add_config_flags(p, "alpha")
    p.set_defaults(handler=cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:  # missing, a directory, or unreadable
        _log(f"error: {exc}")
        return EXIT_USAGE
    except GatewayError as exc:
        _log(f"gateway error: {exc}")
        return EXIT_GATEWAY
    except ValidationError as exc:
        _log(f"validation error: {exc}")
        return EXIT_VALIDATION
    except TranscreateError as exc:
        _log(f"error: {exc}")
        return EXIT_VALIDATION


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
