"""Traced in-process pass: each workload's command sequence, one span per call.

The spans are recorded here, around calls into the package's public
functions; nothing inside `src/` is instrumented.  A span holds a name, a
start, an end, its parent span and a group id shared by the spans of one
graph or command.  Spans stay in memory and go into the result record at
the end.  The feature kernels run as siblings of `extract_features` on the
same graph, so their sum can be set against it.  End-to-end numbers never
come from this pass.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import inputs
from netclass import data, evaluate, features, forest, graph, synth
from netclass.kmeans import kmeans
from netclass.tsne import joint_affinities, tsne

PER_LAYER = (  # name, unit; reported to the driver on every workload
    ("trace.pass_s", "s"), ("trace.spans", "count"), ("trace.overhead_s", "s"),
)
LAYER_TIMES = (  # span name whose total duration is the metric <name>_s
    "graph.parse_edge_list", "graph.parse_matrix_market", "graph.write_edge_list",
    "synth.barabasi_albert", "synth.erdos_renyi",
    "features.triangle_counts", "features.core_decomposition", "features.assortativity",
    "features.avg_local_clustering", "features.clique_lower_bound",
    "features.greedy_chromatic", "features.extract_features",
    "forest.forest_train", "forest.forest_predict", "forest.forest_to_json",
    "forest.forest_from_json", "evaluate.cross_validate",
    "tsne.joint_affinities", "tsne.tsne", "kmeans.kmeans",
)
SERIAL_SPANS = ("io.read_graph", "graph.parse_edge_list", "graph.parse_matrix_market",
                "features.extract_features")


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, group, parent, start, end]
        self.counts = {}
        self._stack = []

    @contextmanager
    def span(self, name: str, group: str):
        record = [len(self.spans), name, group,
                  self._stack[-1][0] if self._stack else None, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(record)
        record[4] = time.perf_counter()
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, group: str, fn, *args, **kwargs):
        with self.span(name, group):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def span_cost(samples: int = 20000) -> float:
    """Seconds of bookkeeping per span, from a loop of empty spans."""
    tr = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tr.span("x", "x"):
            pass
    return (time.perf_counter() - start) / samples


def self_times(spans) -> list:
    """Duration minus the time covered by children (children never overlap)."""
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[5] - s[4]
    return own


def _read_manifest(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _forest_params():
    return forest.ForestParams(log_flags=data.feature_log_flags())  # CLI defaults


def _load_graph(tr: Tracer, path: Path, group: str):
    text = tr.call("io.read_graph", group, path.read_text)
    if path.suffix == ".mtx":
        g, _ = tr.call("graph.parse_matrix_market", group, graph.parse_matrix_market, text)
    else:
        g, _ = tr.call("graph.parse_edge_list", group, graph.parse_edge_list, text)
    tr.count("graph.edges_parsed", g.edge_count)
    return g


def _generate(tr: Tracer, r, out_dir: Path) -> None:
    """Re-run the generators with the manifest's params and seeds."""
    same = True
    with tr.span("cli.generate", "generate"):
        for row in _read_manifest(out_dir / "manifest.csv"):
            key, _, value = row["params"].partition("=")
            n, seed, name = int(row["nodes"]), int(row["seed"]), row["name"]
            if key == "m":
                g = tr.call("synth.barabasi_albert", name, synth.barabasi_albert,
                            n, int(value), seed)
            else:
                g = tr.call("synth.erdos_renyi", name, synth.erdos_renyi, n, float(value), seed)
            text = tr.call("graph.write_edge_list", name, graph.write_edge_list, g)
            same &= text.encode() == (out_dir / row["path"]).read_bytes()
    r.check("traced generate matches CLI edge files", same)


def _features(tr: Tracer, r, manifest: Path, cli_csv: Path) -> str:
    """Serial parse + extract over a manifest, kernels as siblings."""
    rows = []
    with tr.span("cli.features", "features"):
        for row in _read_manifest(manifest):
            name = row["name"]
            g = _load_graph(tr, manifest.parent / row["path"], name)
            fv = tr.call("features.extract_features", name, features.extract_features, g)
            rows.append((name, row["category"], fv))
            _, total = counts = tr.call("features.triangle_counts", name,
                                        features.triangle_counts, g)
            tr.count("features.triangles", total)
            decomp = tr.call("features.core_decomposition", name,
                             features.core_decomposition, g)
            tr.call("features.assortativity", name, features.assortativity, g)
            tr.call("features.avg_local_clustering", name,
                    features.avg_local_clustering, g, counts[0])
            tr.call("features.clique_lower_bound", name, features.clique_lower_bound, g, decomp)
            tr.call("features.greedy_chromatic", name, features.greedy_chromatic, g, decomp)
            del g
        out = io.StringIO()
        tr.call("features.write_features_csv", "features", features.write_features_csv, out, rows)
    text = out.getvalue()
    r.check("serial in-process features CSV equals CLI --workers output",
            cli_csv.is_file() and text.encode() == cli_csv.read_bytes())
    return text


def _dataset(tr: Tracer, csv_text: str, group: str):
    names, cats, matrix = tr.call("features.read_features_csv", group,
                                  features.read_features_csv, io.StringIO(csv_text))
    return names, cats, matrix, data.Dataset.from_feature_table(names, cats, matrix)


def _evaluate(tr: Tracer, r, ds, seed: int, cli_reports: Path) -> None:
    with tr.span("cli.evaluate", "evaluate"):
        cv = tr.call("evaluate.cross_validate", "evaluate", evaluate.cross_validate,
                     ds, _forest_params(), inputs.FOLDS, seed)
    confusion = cli_reports / "confusion.csv"
    r.check("traced confusion matrix equals CLI report", confusion.is_file()
            and evaluate.confusion_to_csv(cv.confusion).encode() == confusion.read_bytes())


def _train(tr: Tracer, r, ds, seed: int, cli_model: Path) -> str:
    with tr.span("cli.train", "train"):
        model = tr.call("forest.forest_train", "train", forest.forest_train,
                        ds, _forest_params(), seed)
        for i in range(ds.n_rows):
            tr.call("forest.forest_predict", ds.names[i], forest.forest_predict,
                    model, ds.matrix[i])
        text = tr.call("forest.forest_to_json", "train", forest.forest_to_json, model) + "\n"
    tr.count("forest.model_bytes", len(text.encode()))
    r.check("traced model equals CLI model", cli_model.is_file()
            and text.encode() == cli_model.read_bytes())
    return text


def _embed_cluster(tr: Tracer, r, matrix, seed: int, perplexity: float, cli: Path) -> None:
    with tr.span("cli.embed", "embed"):
        params = tr.call("data.fit_standardize", "embed", data.fit_standardize,
                         matrix, data.feature_log_flags())
        x = tr.call("data.apply_standardize", "embed", data.apply_standardize, params, matrix)
        sq = (x * x).sum(axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
        np.fill_diagonal(d2, 0.0)
        tr.call("tsne.joint_affinities", "embed", joint_affinities, d2, perplexity)
        emb = tr.call("tsne.tsne", "embed", tsne, x, perplexity=perplexity,
                      iterations=1000, learning_rate=200.0, seed=seed)
        tr.count("tsne.iterations", emb.kl_trace[-1][0])
    with tr.span("cli.cluster", "cluster"):
        result = tr.call("kmeans.kmeans", "cluster", kmeans, x, inputs.CLUSTERS,
                         max_iter=300, restarts=10, seed=seed)
        tr.count("kmeans.lloyd_iterations", sum(len(t) for t in result.restart_traces))
    with open(cli / "embedding.csv", newline="") as handle:
        cli_points = [(row["x"], row["y"]) for row in csv.DictReader(handle)]
    r.check("traced embedding equals CLI embedding", cli_points == [
        (format(x, ".17g"), format(y, ".17g")) for x, y in emb.points])
    with open(cli / "clusters.csv", newline="") as handle:
        cli_clusters = [int(row["cluster"]) for row in csv.DictReader(handle)]
    r.check("traced clusters equal CLI clusters",
            cli_clusters == [int(a) for a in result.assignments])


def corpus(tr: Tracer, r, seed: int, rundir: Path) -> None:
    cli = rundir / "pass-1"
    _generate(tr, r, cli / "corpus")
    csv_text = _features(tr, r, cli / "corpus" / "manifest.csv", cli / "features.csv")
    _, _, matrix, ds = _dataset(tr, csv_text, "evaluate")
    _evaluate(tr, r, ds, seed, cli / "reports")
    model_text = _train(tr, r, ds, seed, cli / "model.json")
    with tr.span("cli.predict", "predict"):
        model = tr.call("forest.forest_from_json", "predict", forest.forest_from_json, model_text)
        for row in _read_manifest(cli / "corpus" / "manifest.csv"):
            g = _load_graph(tr, cli / "corpus" / row["path"], row["name"])
            fv = tr.call("features.extract_features", row["name"], features.extract_features, g)
            tr.call("forest.forest_predict", row["name"], forest.forest_predict,
                    model, fv.as_array())
    _embed_cluster(tr, r, matrix, seed, inputs.CORPUS_PERPLEXITY, cli)


def scale(tr: Tracer, r, seed: int, rundir: Path) -> None:
    cli = rundir / "pass-1"
    _generate(tr, r, cli / "generated")
    _features(tr, r, rundir / "inputs" / "manifest.csv", cli / "features.csv")


def learn(tr: Tracer, r, seed: int, rundir: Path) -> None:
    cli = rundir / "pass-1"
    _, _, matrix, ds = _dataset(tr, (rundir / "inputs" / "learn.csv").read_text(), "learn")
    model_text = _train(tr, r, ds, seed, cli / "model.json")
    tr.call("forest.forest_from_json", "train", forest.forest_from_json, model_text)
    _evaluate(tr, r, ds, seed, cli / "reports")
    _embed_cluster(tr, r, matrix, seed, inputs.LEARN_PERPLEXITY, cli)


TRACED = {"corpus": corpus, "scale": scale, "learn": learn}


def layer_metrics(tr: Tracer, cost: float, pass_s: float) -> dict:
    totals = {}
    for _, name, _, _, start, end in tr.spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    # features.serial_s: read + parse + extract inside the features command
    serial = sum(s[5] - s[4] for s in tr.spans if s[1] in SERIAL_SPANS
                 and s[3] is not None and tr.spans[s[3]][1] == "cli.features")
    out = {f"{name}_s": totals[name] for name in LAYER_TIMES if name in totals}
    if "cli.features" in totals:
        out["features.serial_s"] = serial
    out.update(tr.counts)
    out["trace.pass_s"] = pass_s
    out["trace.spans"] = len(tr.spans)
    out["trace.overhead_s"] = len(tr.spans) * cost
    return out


def run(workload: str, seed: int, rundir: Path, cli_pass: list, r,
        seconds: float) -> tuple[dict, list]:
    """Traced passes until `seconds` are used (at least one); median per metric."""
    cost = span_cost()
    samples, spans = [], []
    while True:
        tr = Tracer()
        start = time.perf_counter()
        TRACED[workload](tr, r, seed, rundir)
        took = time.perf_counter() - start
        samples.append(layer_metrics(tr, cost, took))
        spans = tr.spans
        seconds -= took
        if seconds <= 0 or time.monotonic() + 1.3 * took > r.deadline:
            break
    layers = {k: float(statistics.median(s[k] for s in samples)) for k in samples[0]}
    features_s = [c.wall_s for c in cli_pass if c.name == "features"]
    if features_s and "features.serial_s" in layers:
        layers["cli.workers_speedup"] = layers["features.serial_s"] / features_s[0]
    own = self_times(spans)
    layers["trace.passes"] = len(samples)
    return layers, [s + [own[s[0]]] for s in spans]


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_bytes", "bytes"), ("speedup", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def report(record: dict) -> dict:
    layers = record["layers"]
    print(f"per-layer metrics (traced in-process pass, median of "
          f"{layers['trace.passes']:.0f}):")
    for name in sorted(layers):
        print(f"metric {name} = {layers[name]:.6f} {_unit(name)}")
    by_name = {}
    for span in record["spans"]:
        by_name[span[1]] = by_name.get(span[1], 0.0) + span[6]
    print("self time by span name (last traced pass):")
    for name, own in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<32} {own:9.4f} s")
    return {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
