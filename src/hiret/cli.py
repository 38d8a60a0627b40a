"""Command-line surface: ingest, query, eval, cohesion.

One JSON config file drives every command; individual flags override its
values. Exit codes are stable for scripting: 0 success, 1 usage error,
2 data error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import logging
import os
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

from . import evalkit, hca, index, retriever, store
from .corpus import PATH_SEPARATOR, CorpusError, load_corpus
from .formatter import parse_markdown
# bench/spans.py wraps these two by name until ROADMAP item 6 deletes them.
from .formatter import convert_document, plan_windows  # noqa: F401

log = logging.getLogger(__name__)

COHESION_COLUMNS = [
    "record",
    "variant",
    "id",
    "group",
    "mean_pairwise_cosine",
    "centroid_norm",
    "count",
    "x",
    "y",
]
GROUPINGS = ("by-document", "by-section-title")  # cohesion groupings; the first is the default


class UsageError(Exception):
    """Bad flags or config; maps to exit code 1."""


class DataError(Exception):
    """Bad corpus, index, or question-bank data; maps to exit code 2."""


@dataclass(frozen=True)
class AppConfig:
    corpus_dir: str = "corpus"
    index_dir: str = "index"
    alpha: float = retriever.RetrievalConfig.alpha
    beta: float = retriever.RetrievalConfig.beta
    gamma: float = retriever.RetrievalConfig.gamma
    top_k: int = retriever.RetrievalConfig.top_k
    k1: float = index.DEFAULT_K1
    b: float = index.DEFAULT_B
    embedder: dict | None = None  # None means the default hashing embedder
    keyword_dict: str | None = None
    captioner: dict | None = None

    def retrieval(self) -> retriever.RetrievalConfig:
        names = (f.name for f in fields(retriever.RetrievalConfig))
        return retriever.RetrievalConfig(**{name: getattr(self, name) for name in names})


def load_config(path: str | Path | None) -> AppConfig:
    if path is None:
        return AppConfig()
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    known = {f.name for f in fields(AppConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise UsageError(f"config {path} has unknown keys: {unknown}")
    hints = get_type_hints(AppConfig)
    for key, value in data.items():
        allowed = (int, float) if hints[key] is float else hints[key]
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise UsageError(f"config {path}: {key} must be "
                             f"{AppConfig.__annotations__[key]}, got {value!r}")
    return AppConfig(**data)


def _apply_overrides(cfg: AppConfig, args: argparse.Namespace) -> AppConfig:
    """Every flag whose dest names an AppConfig field overrides that field."""
    overrides = {}
    for f in fields(AppConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    return replace(cfg, **overrides)


def _load_keyword_dict(path: str | None) -> list[str]:
    if not path:
        return []
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read keyword dictionary {path}: {exc}") from exc


def _make_captioner(spec: dict | None):
    if not spec:
        return None
    kind, command = spec.get("kind"), spec.get("command")
    problem = (index._command_problem("captioner", command) if kind == "subprocess"
               else f"unknown captioner kind: {kind!r}")
    if problem:
        raise UsageError(problem)
    from . import plugins

    return plugins.SubprocessCaptioner(command)


def _refuse_unwritable(path: str | Path) -> None:
    """Raise the data error writing ``path`` would, before any work is done: the directory it
    goes in must exist. A write can still fail after this; the writer maps its own OSError."""
    parent = Path(path).parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        raise DataError(f"cannot write {path}: {OSError(code, os.strerror(code), str(parent))}")


def run_ingest(cfg: AppConfig) -> dict:
    """Parse, augment, and index the corpus; returns the ingest report, whose
    warnings are those that reach the ``hiret`` logger during the ingest."""
    index._check_bm25_params(cfg.k1, cfg.b)
    user_keywords = _load_keyword_dict(cfg.keyword_dict)
    try:  # the directory the save would refuse, refused before the work
        store._check_replaceable(cfg.index_dir)
    except OSError as exc:
        raise DataError(f"cannot write {cfg.index_dir}: {exc}") from exc
    captioner = _make_captioner(cfg.captioner)  # neither plug-in starts a process until used
    embedder = index.make_embedder(cfg.embedder or {})
    warnings: list[str] = []
    collector = logging.Handler(logging.WARNING)  # not logging.handlers: a costly import
    collector.emit = lambda record: warnings.append(record.getMessage())
    logging.getLogger(__package__).addHandler(collector)
    all_segments = []
    try:
        records = load_corpus(cfg.corpus_dir)
        if not records:
            log.warning("corpus %s holds no documents; writing empty indices", cfg.corpus_dir)
        for doc in records:
            doc.attach_segments(parse_markdown(doc.text.strip(), doc.title))
            hca.augment_document(doc, captioner=captioner)
            all_segments.extend(doc.segments)

        bundle = index.build_indices(
            all_segments,
            embedder,
            k1=cfg.k1,
            b=cfg.b,
            user_keywords=user_keywords,
        )
        try:
            index.save_index(bundle, cfg.index_dir)
        except OSError as exc:
            raise DataError(f"cannot write {cfg.index_dir}: {exc}") from exc
    finally:
        logging.getLogger(__package__).removeHandler(collector)
        embedder.close()
        if captioner:
            captioner.close()
    return {
        "documents": len(records),
        "segments": len(all_segments),
        "skipped": len(bundle.keys) - len(bundle.vectors.rows),
        "warnings": len(warnings),
        "warning_messages": warnings,
        "index_dir": str(cfg.index_dir),
    }


def _load_bundle(cfg: AppConfig) -> index.IndexBundle:
    try:
        return index.load_index(cfg.index_dir)
    except index.IndexFormatError as exc:
        raise DataError(f"{exc} (run 'hiret ingest' to build the index)") from exc


def run_query(cfg: AppConfig, query_text: str) -> dict:
    """Retrieve top-k segments; returns the serializable context bundle."""
    rcfg = cfg.retrieval()
    bundle = _load_bundle(cfg)
    outcome = retriever.retrieve(query_text, bundle, rcfg)
    results = []
    for row in outcome.top:
        seg = bundle.segments[outcome.ranking.row_of(row.segment_key)]
        results.append({**asdict(row), "metadata_path": seg.metadata_path, "title": seg.title,
                        "kind": seg.kind, "content": seg.content})
    return {"query": query_text, "top_k": cfg.top_k, "results": results}


def run_eval(cfg: AppConfig, bank_path: str | Path) -> evalkit.EvalReport:
    """Evaluate a JSONL question bank against the persisted index."""
    rcfg = cfg.retrieval()
    bundle = _load_bundle(cfg)
    queries = evalkit.load_question_bank(bank_path)

    universe = set(bundle.keys)
    offenders = [
        eq.query_id for eq in queries if not eq.relevant_keys.issubset(universe)
    ]
    if offenders:
        raise DataError(
            f"question bank references unknown segment keys in queries: {offenders}"
        )

    embedder = index.make_embedder(bundle.embedder_spec)

    def rank_fn(eq: evalkit.EvalQuery):
        return retriever.retrieve(
            eq.query, bundle, rcfg, user_keywords=eq.user_keywords, embedder=embedder
        ).ranking

    try:
        return evalkit.evaluate_dataset(queries, rank_fn, cfg.gamma)
    except (ValueError, evalkit.EvalError) as exc:
        raise DataError(str(exc)) from exc
    finally:
        embedder.close()


def _write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Write ``header`` and ``rows`` to ``path``; an OSError doing so is a data error."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def run_cohesion(cfg: AppConfig, grouping: str) -> list[list]:
    """Cohesion stats plus PCA coordinates, for augmented and raw texts."""
    if grouping not in GROUPINGS:
        raise UsageError(f"unknown grouping: {grouping!r}")
    bundle = _load_bundle(cfg)
    embedder = index.make_embedder(bundle.embedder_spec)

    segments = list(bundle.segments)
    by_document = grouping == "by-document"
    group_of = {seg.key: seg.doc_id if by_document else seg.title for seg in segments}
    try:
        raw = index.build_vector_index(hca.without_augmentation(segments), embedder)
    finally:
        embedder.close()

    rows: list[list] = []
    variants = [("augmented", bundle.vectors.entries), ("raw", raw.entries)]
    for variant, vectors in variants:
        grouped: dict[str, list] = defaultdict(list)
        for key, vec in vectors.items():
            grouped[group_of[key]].append(vec)
        try:
            stats = evalkit.cohesion_stats(grouped)
            projection = evalkit.export_coordinates(vectors, group_of)
        except ValueError as exc:
            raise DataError(f"cohesion ({variant}): {exc}") from exc
        for group_id in sorted(stats):
            stat = stats[group_id]
            mpc = "" if stat.mean_pairwise_cosine is None else repr(stat.mean_pairwise_cosine)
            rows.append(
                ["stat", variant, group_id, group_id, mpc, repr(stat.centroid_norm),
                 stat.count, "", ""]
            )
        for key, x, y, group in projection.rows:
            rows.append(["point", variant, key, group, "", "", "", repr(x), repr(y)])
    return rows


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage errors, not argparse's 2
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        """Name first an unknown flag ahead of the command, which argparse would set
        aside, reading its value as the command (``invalid choice: '7'``). The value of
        a known flag written without ``=`` is skipped, whatever it names."""
        args = sys.argv[1:] if args is None else args
        commands = next((action.choices for action in self._actions
                         if isinstance(action, argparse._SubParsersAction)), {})
        tokens, known = iter(args), self._option_string_actions
        for token in tokens:
            if token in commands or token == "--":
                break
            if not token.startswith("-"):
                continue
            name, equals, _ = token.partition("=")
            actions = ({known[name]} if name in known  # else as abbreviated
                       else {action for option, action in known.items() if option.startswith(name)})
            if not actions:
                self.error(f"unrecognized arguments: {token}")
            if len(actions) == 1 and not equals and actions.pop().nargs is None:
                next(tokens, None)  # the flag's one value
        return super().parse_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hiret", description="Hierarchical multi-route retrieval engine")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--corpus-dir", dest="corpus_dir")
    parser.add_argument("--index-dir", dest="index_dir")
    hints = get_type_hints(AppConfig)
    for f in fields(AppConfig):  # one flag per numeric field, in field order
        if hints[f.name] in (int, float):
            parser.add_argument(f"--{f.name.replace('_', '-')}", type=hints[f.name])
    parser.add_argument("--keywords", dest="keyword_dict", help="user keyword dictionary (one per line)")

    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("ingest", help="parse, augment, and index the corpus")

    query = commands.add_parser("query", help="retrieve top-k segments")
    query.add_argument("text", help="query text")
    query.add_argument("--json", action="store_true", help="emit the context bundle as JSON")

    evaluate = commands.add_parser("eval", help="score a JSONL question bank")
    evaluate.add_argument("bank", help="question bank (JSONL)")
    evaluate.add_argument("--output", default="eval_report.csv", help="per-query CSV path")

    cohesion = commands.add_parser("cohesion", help="embedding cohesion statistics")
    cohesion.add_argument("--grouping", choices=GROUPINGS, default=GROUPINGS[0])
    cohesion.add_argument("--output", default="cohesion_report.csv", help="CSV path")
    return parser


def _print_query_result(result: dict) -> None:
    if not result["results"]:
        print("no results (empty index)")
        return
    for row in result["results"]:
        path = PATH_SEPARATOR.join(row["metadata_path"])
        snippet = " ".join(row["content"].split())
        if len(snippet) > 160:
            snippet = snippet[:157] + "..."
        print(
            f"{row['rank']:>3}  fused={row['fused_score']:.6f}  "
            f"v={row['score_v']:.4f}  r={row['score_r']:.4f}  C={row['keyword_hits']}  "
            f"[{row['segment_key']}]"
        )
        print(f"     {path}")
        if snippet:
            print(f"     {snippet}")


def _plugin_errors() -> tuple[type[Exception], ...]:
    """``PluginError`` once a plug-in is loaded; importing it sooner loads subprocess."""
    plugins = sys.modules.get(f"{__package__}.plugins")
    return (plugins.PluginError,) if plugins else ()


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _apply_overrides(load_config(args.config), args)

        if args.command == "ingest":
            report = run_ingest(cfg)
            print(
                f"ingested {report['documents']} documents, {report['segments']} segments "
                f"({report['skipped']} skipped, {report['warnings']} warnings) "
                f"-> {report['index_dir']}"
            )
        elif args.command == "query":
            result = run_query(cfg, args.text)
            if args.json:
                print(json.dumps(result, ensure_ascii=False, indent=2))
            else:
                _print_query_result(result)
        elif args.command == "eval":
            _refuse_unwritable(args.output)
            report = run_eval(cfg, args.bank)
            rows = [[qid, repr(score)] for qid, score in report.per_query_scores.items()]
            _write_csv(args.output, ["query_id", "score"], rows + [["summary", repr(report.mean)]])
            print(
                f"queries={len(report.per_query_scores)} mean={report.mean:.6f} "
                f"max={report.max:.6f} min={report.min:.6f} std={report.std:.6f} "
                f"(gamma={report.gamma}, N={report.corpus_size}) -> {args.output}"
            )
        elif args.command == "cohesion":
            _refuse_unwritable(args.output)
            rows = run_cohesion(cfg, args.grouping)
            _write_csv(args.output, COHESION_COLUMNS, rows)
            print(f"wrote {len(rows)} rows -> {args.output}")
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return 0
    except BrokenPipeError:
        # The reader left early (`hiret query ... | head`): drop the rest of
        # the output, including what is still buffered for the exit flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (CorpusError, DataError, index.IndexFormatError,
            evalkit.QuestionBankError, *_plugin_errors()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
