"""Command-line front end tying parsing, features, learning and reports together.

Exit codes: 0 success, 1 validation error (bad flags, config, input files,
an output path that cannot be written, or not enough memory), 2 partial
data failure (some graphs failed, one too large for memory included, but
output was written for the rest), 3 internal error.  All file outputs are
written atomically (temp file + rename) and are byte-identical for a given
seed.  The independent units of work run on one pool of forked processes
(_pool_map): the graphs of `generate`, `features` and `predict`, and the
folds of `evaluate`.  --workers N (at least 1, default one per CPU) sizes
it; `train`, `embed` and `cluster` run serially.  Each unit returns only its
small result, so a process holds one graph at a time and --workers 1 is the
low-memory choice.  The bytes are the same at any N.

This module only parses and merges settings.  Each setting's range is
checked by the library step that uses it (the forest, the folds,
k-means, t-SNE, the overlap report), which raises ValueError; main maps
every ValueError to exit 1.  Every input file, the config included, is read
through _parse_file, so each error in one names its path.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import os
import sys
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, apply_standardize, feature_log_flags, fit_standardize
from .evaluate import (
    cluster_category_overlap,
    confusion_to_csv,
    confusion_to_text,
    cross_validate,
    misclass_to_csv,
    overlap_to_text,
)
from .features import (
    FEATURE_NAMES,
    check_row_name,
    csv_records,
    csv_text,
    extract_features,
    read_features_csv,
    write_features_csv,
)
from .forest import (
    ForestParams,
    forest_from_json,
    forest_predict,
    forest_to_json,
    forest_train,
)
from .graph import parse_edge_list, parse_matrix_market, write_edge_list
from .kmeans import kmeans
from .synth import STOCK_SPEC, corpus_units, generate_entry, parse_generator_spec
from .tsne import tsne

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARTIAL = 2
EXIT_INTERNAL = 3

SEED_ENV_VAR = "NETCLASS_SEED"


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _default(fn, name: str):
    """The default that fn's signature gives its parameter name."""
    return inspect.signature(fn).parameters[name].default


@dataclass(frozen=True)
class RunConfig:
    """Effective settings after merging defaults, env, config file and flags.

    Precedence, lowest to highest: built-in defaults (those of the library
    step that takes the setting, if one does), NETCLASS_SEED (seed only),
    --config file, command-line flags.
    """

    seed: int = 42
    workers: int = _cpu_count()
    trees: int = ForestParams.trees
    features_per_split: int | None = ForestParams.features_per_split
    min_split: int = ForestParams.min_split
    folds: int = 10
    kmeans_k: int = 8
    kmeans_restarts: int = _default(kmeans, "restarts")
    kmeans_max_iter: int = _default(kmeans, "max_iter")
    tsne_perplexity: float = _default(tsne, "perplexity")
    tsne_iterations: int = _default(tsne, "iterations")
    tsne_learning_rate: float = _default(tsne, "learning_rate")
    overlap_threshold: float = _default(cluster_category_overlap, "threshold")


# Each setting's types from its annotation; (int, NoneType) may be unset.
_SETTING_TYPES = {name: getattr(hint, "__args__", (hint,))
                  for name, hint in inspect.get_annotations(RunConfig, eval_str=True).items()}


def parse_config_text(text: str) -> dict:
    """Parse a flat key=value config file (# comments, blank lines allowed)."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        kinds = _SETTING_TYPES.get(key)
        if kinds is None:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        try:
            if type(None) in kinds and value.lower() == "none":
                values[key] = None
            else:
                values[key] = kinds[0](value)
        except ValueError:
            raise ValueError(
                f"config line {lineno}: bad value {value!r} for {key}"
            ) from None
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = {f.name: f.default for f in fields(RunConfig)}
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(
                f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}"
            ) from None
    if args.config:  # every command takes --config
        values.update(_parse_file(args.config, parse_config_text))
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    cfg = RunConfig(**values)
    # workers is the one setting no library step reads, so it is checked here.
    if cfg.workers < 1:
        raise ValueError(f"workers must be at least 1, got {cfg.workers}")
    return cfg


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError while writing path as a ValueError, like _parse_file."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _makedirs(path: str) -> None:
    with _writing(path):
        os.makedirs(path, exist_ok=True)


def atomic_write(path: str, text: str) -> None:
    """Write text then rename into place so readers never see partial files."""
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    with _writing(path):
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.netclass.")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            # mkstemp creates the file as 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def _parse_file(path: str, parse, newline: "str | None" = None):
    """Return parse(text of path), naming path in any error reading or parsing."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline=newline) as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_manifest(path: str) -> list[tuple[str, str, str]]:
    """Read (path, name, category) rows; graph paths resolve against the manifest."""
    # Read every record inside _parse_file, so a CSV error names the file.
    (_, header), *records = _parse_file(path, lambda text: list(csv_records(text, "manifest")), "")
    if header[:3] != ["path", "name", "category"]:
        raise ValueError(
            f"{path}: manifest header must start with path,name,category"
        )
    base = os.path.dirname(os.path.abspath(path))
    rows = []
    seen = set()
    for lineno, row in records:
        if len(row) < 3:
            raise ValueError(f"{path} line {lineno}: expected 3+ columns")
        graph_path, name, category = row[0], row[1], row[2]
        if not graph_path:
            raise ValueError(f"{path} line {lineno}: empty graph path")
        check_row_name(name, seen, f"{path} line {lineno}")
        if not os.path.isabs(graph_path):
            graph_path = os.path.join(base, graph_path)
        rows.append((graph_path, name, category))
    if not rows:
        raise ValueError(f"{path}: manifest lists no graphs")
    return rows


def _extract_one(path: str):
    """Parse one graph file (.mtx is Matrix Market, anything else an edge
    list) and return its features, or a message naming path if it failed.

    A graph too large for memory fails alone, like a malformed one.
    """
    parse = parse_matrix_market if path.lower().endswith(".mtx") else parse_edge_list
    try:
        return _parse_file(path, lambda text: extract_features(parse(text)[0]))
    except ValueError as exc:
        return str(exc)
    except MemoryError as exc:
        return f"{path}: not enough memory: {exc}"


_unit = None  # the function a pool worker runs; set in it by _pool_map


def _set_unit(fn) -> None:
    global _unit
    _unit = fn


def _run_unit(item):
    return _unit(item)


def _pool_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], spread over min(workers, items, CPUs)
    forked processes when that is more than one.

    The results come back in item order, so no byte depends on the worker
    count.  fn reaches the workers through fork, so it may be a closure; the
    items and results are pickled, so each unit takes and returns little.
    A unit that raises cancels the chunks of units no worker has taken yet,
    and its error is raised here.  A worker that dies ends the map with a
    ValueError.
    """
    items = list(items)
    w = min(workers, len(items), _cpu_count())
    if w <= 1:
        return [fn(item) for item in items]
    # Imported here: at module top they would slow every command's start.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a spawned worker imports numpy again, which costs
    # about a fifth more CPU.  With fork the pool starts every worker
    # before any thread of its own.
    pool = ProcessPoolExecutor(w, mp_context=multiprocessing.get_context("fork"),
                               initializer=_set_unit, initargs=(fn,))
    try:
        # Chunks of a few units save round trips.  They stay small, since
        # the workers have taken up to 2w + 1 chunks when a unit fails, and
        # those run on to the end.
        return list(pool.map(_run_unit, items, chunksize=max(1, len(items) // (16 * w))))
    except BrokenProcessPool:
        raise ValueError("a worker process died, possibly for lack of memory") from None
    finally:
        pool.shutdown(cancel_futures=True)


def _extract_all(paths: list[str], workers: int):
    """Run _extract_one over paths on the pool; one bad file never stops the
    batch.

    Returns two dicts keyed by index into paths: the features of each graph
    that parsed, and the message of each that did not.
    """
    done, failures = {}, {}
    for i, result in enumerate(_pool_map(_extract_one, paths, workers)):
        if isinstance(result, str):
            failures[i] = result
        else:
            done[i] = result
    return done, failures


def _read_feature_table(features_path: str, build):
    """Read a non-empty feature CSV and return build(names, categories, matrix)."""

    def parse(text):
        names, categories, matrix = read_features_csv(io.StringIO(text))
        if not names:
            raise ValueError("feature CSV has no data rows")
        return build(names, categories, matrix)

    return _parse_file(features_path, parse, "")


def _standardized_matrix(features_path: str):
    def standardize(names, categories, matrix):
        params = fit_standardize(matrix, feature_log_flags())
        return names, categories, apply_standardize(params, matrix)

    return _read_feature_table(features_path, standardize)


def _forest_params(cfg: RunConfig) -> ForestParams:
    return ForestParams(
        trees=cfg.trees,
        features_per_split=cfg.features_per_split,
        min_split=cfg.min_split,
        log_flags=feature_log_flags(),
    )


def cmd_features(args: argparse.Namespace, cfg: RunConfig) -> int:
    rows = read_manifest(args.manifest)
    done, failures = _extract_all([graph_path for graph_path, _, _ in rows], cfg.workers)
    out = io.StringIO()
    write_features_csv(out, [(rows[i][1], rows[i][2], fv) for i, fv in done.items()])
    atomic_write(args.out, out.getvalue())
    for i, err in failures.items():
        print(f"error: {rows[i][1]}: {err}", file=sys.stderr)
    print(f"extracted features for {len(done)}/{len(rows)} graphs -> {args.out}")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_generate(args: argparse.Namespace, cfg: RunConfig) -> int:
    parse = functools.partial(parse_generator_spec, default_master=cfg.seed)
    units = corpus_units(_parse_file(args.specfile, parse) if args.specfile else parse(STOCK_SPEC))
    if not units:
        raise ValueError("generator spec produces no graphs")

    def write_graph(unit):
        """Make and write one graph; only its manifest row leaves the unit."""
        entry = generate_entry(*unit)
        filename = f"{entry.name}.edges"
        # Made with the first graph, so a failure before it leaves no directory.
        _makedirs(args.out_dir)
        atomic_write(os.path.join(args.out_dir, filename), write_edge_list(entry.graph))
        return [
            filename, entry.name, entry.category,
            str(entry.graph.node_count), str(entry.graph.edge_count),
            entry.params, str(entry.seed),
        ]

    manifest = _pool_map(write_graph, units, cfg.workers)
    header = ["path", "name", "category", "nodes", "edges", "params", "seed"]
    atomic_write(os.path.join(args.out_dir, "manifest.csv"), csv_text(header, manifest))
    print(f"generated {len(manifest)} graphs -> {args.out_dir}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace, cfg: RunConfig) -> int:
    dataset = _read_feature_table(args.features, Dataset.from_feature_table)
    forest = forest_train(dataset, _forest_params(cfg), cfg.seed)
    hits = int((forest_predict(forest, dataset.matrix)[0] == dataset.labels).sum())
    atomic_write(args.model_out, forest_to_json(forest) + "\n")
    print(
        f"trained {cfg.trees} trees on {dataset.n_rows} rows; "
        f"training accuracy {hits / dataset.n_rows:.6f} -> {args.model_out}"
    )
    return EXIT_OK


def cmd_predict(args: argparse.Namespace, cfg: RunConfig) -> int:
    def read_model(text):  # checked before any graph is read
        forest = forest_from_json(text)
        if forest.n_features != len(FEATURE_NAMES):
            raise ValueError(f"the model takes {forest.n_features} features, "
                             f"but a graph gives {len(FEATURE_NAMES)}")
        return forest

    forest = _parse_file(args.model, read_model)
    done, failures = _extract_all(args.graphs, cfg.workers)
    matrix = np.array([fv.as_array() for fv in done.values()])
    labels, votes = forest_predict(forest, matrix.reshape(len(done), len(FEATURE_NAMES)))
    text = csv_text(["path", "predicted"] + [f"votes_{s}" for s in forest.label_names], (
        [args.graphs[i], forest.label_names[label]] + [str(int(v)) for v in row_votes]
        for i, label, row_votes in zip(done, labels, votes)
    ))
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    for err in failures.values():
        print(f"error: {err}", file=sys.stderr)
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_evaluate(args: argparse.Namespace, cfg: RunConfig) -> int:
    dataset = _read_feature_table(args.features, Dataset.from_feature_table)
    result = cross_validate(dataset, _forest_params(cfg), cfg.folds, cfg.seed,
                            map=lambda fold, folds: _pool_map(fold, folds, cfg.workers))
    reports = {
        "confusion.csv": confusion_to_csv(result.confusion),
        "confusion.txt": confusion_to_text(result.confusion),
        "misclassified.csv": misclass_to_csv(dataset, result),
    }
    _makedirs(args.out_dir)
    for filename, text in reports.items():
        atomic_write(os.path.join(args.out_dir, filename), text)
    print(
        f"{cfg.folds}-fold cv accuracy {result.accuracy:.6f} "
        f"({int((result.predictions != dataset.labels).sum())} misclassified) "
        f"-> {args.out_dir}"
    )
    return EXIT_OK


def cmd_embed(args: argparse.Namespace, cfg: RunConfig) -> int:
    names, categories, matrix = _standardized_matrix(args.features)
    embedding = tsne(
        matrix,
        perplexity=cfg.tsne_perplexity,
        iterations=cfg.tsne_iterations,
        learning_rate=cfg.tsne_learning_rate,
        seed=cfg.seed,
    )
    atomic_write(args.out, csv_text(["name", "category", "x", "y"], (
        [name, categories[i]] + [format(v, ".17g") for v in embedding.points[i]]
        for i, name in enumerate(names)
    )))
    print(f"embedded {len(names)} rows (final kl {embedding.kl:.6f}) -> {args.out}")
    return EXIT_OK


def cmd_cluster(args: argparse.Namespace, cfg: RunConfig) -> int:
    names, categories, matrix = _standardized_matrix(args.features)
    labeled = [i for i, c in enumerate(categories) if c]
    if args.overlap_out and not labeled:
        raise ValueError("no labeled rows; cannot write overlap report")
    result = kmeans(
        matrix,
        cfg.kmeans_k,
        max_iter=cfg.kmeans_max_iter,
        restarts=cfg.kmeans_restarts,
        seed=cfg.seed,
    )
    report = None
    if args.overlap_out:
        # Built before any file is written, so a bad threshold writes nothing.
        rows = Dataset.from_feature_table(
            [names[i] for i in labeled], [categories[i] for i in labeled], matrix[labeled]
        )
        report = cluster_category_overlap(
            result.assignments[labeled],
            rows.labels,
            rows.label_names,
            n_clusters=cfg.kmeans_k,
            threshold=cfg.overlap_threshold,
        )
    atomic_write(args.out, csv_text(["name", "category", "cluster"], (
        [name, categories[i], str(int(result.assignments[i]))]
        for i, name in enumerate(names)
    )))
    print(f"clustered {len(names)} rows into {cfg.kmeans_k} groups "
          f"(inertia {result.inertia:.6f}) -> {args.out}")
    if report is not None:
        atomic_write(args.overlap_out, overlap_to_text(report))
        print(f"wrote cluster/category overlap -> {args.overlap_out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap onto the validation code.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _setting(parser, flag: str, dest: str, text: str, worded: str = "") -> None:
    """Add RunConfig field dest's flag, of its type; the help ends with the
    field's default, or with the worded one given."""
    parser.add_argument(flag, type=_SETTING_TYPES[dest][0], dest=dest,
                        help=f"{text} (default {worded or getattr(RunConfig, dest)})")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value settings file")
    _setting(common, "--seed", "seed", "master seed")
    _setting(common, "--workers", "workers",
             "processes for the graphs of generate, features and predict and the folds "
             "of evaluate", worded="one per CPU, at most one per unit; each holds one "
             "graph at a time, so 1 uses the least memory; same bytes at any count")

    forest_flags = argparse.ArgumentParser(add_help=False)
    _setting(forest_flags, "--trees", "trees", "forest size")
    _setting(forest_flags, "--features-per-split", "features_per_split",
             "candidate features per node", worded="round(sqrt(D))")
    _setting(forest_flags, "--min-split", "min_split", "minimum samples to split")

    parser = _Parser(
        prog="netclass",
        description="Deterministic structural classification of networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", parents=[common],
                       help="extract feature vectors for a manifest of graphs")
    p.add_argument("manifest", help="CSV of path,name,category rows")
    p.add_argument("--out", required=True, help="output feature CSV")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("generate", parents=[common],
                       help="generate a synthetic ER/BA corpus")
    p.add_argument("specfile", nargs="?", default=None,
                   help="corpus spec file (default: netclass.synth.STOCK_SPEC, the stock corpus)")
    p.add_argument("--out-dir", required=True, help="directory for graphs + manifest")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", parents=[common, forest_flags],
                       help="train a random forest on a feature CSV")
    p.add_argument("features", help="labeled feature CSV")
    p.add_argument("--model-out", required=True, help="output model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common],
                       help="classify graph files with a trained model")
    p.add_argument("model", help="model JSON from `netclass train`")
    p.add_argument("graphs", nargs="+", help="graph files (.mtx or edge list)")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", parents=[common, forest_flags],
                       help="stratified k-fold cross-validation report")
    p.add_argument("features", help="labeled feature CSV")
    p.add_argument("--out-dir", default=".", help="report directory (default .)")
    _setting(p, "--folds", "folds", "fold count")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("embed", parents=[common],
                       help="project feature vectors to 2-D")
    p.add_argument("features", help="feature CSV (categories may be blank)")
    p.add_argument("--out", required=True, help="output embedding CSV")
    _setting(p, "--perplexity", "tsne_perplexity", "t-SNE perplexity")
    _setting(p, "--iterations", "tsne_iterations", "t-SNE gradient steps")
    _setting(p, "--learning-rate", "tsne_learning_rate", "t-SNE step size")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("cluster", parents=[common],
                       help="k-means clustering of feature vectors")
    p.add_argument("features", help="feature CSV (categories may be blank)")
    p.add_argument("--out", required=True, help="output assignment CSV")
    _setting(p, "--k", "kmeans_k", "cluster count")
    _setting(p, "--restarts", "kmeans_restarts",
             "k-means runs from new seeds; the lowest inertia wins")
    _setting(p, "--max-iter", "kmeans_max_iter", "Lloyd iterations per restart")
    _setting(p, "--overlap-threshold", "overlap_threshold",
             "overlap mass at which two categories are suggested for merging")
    p.add_argument("--overlap-out", help="write cluster/category overlap report here")
    p.set_defaults(func=cmd_cluster)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    try:
        cfg = resolve_config(args)
        return args.func(args, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
