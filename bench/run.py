"""netclass benchmark: three workloads through the real CLI, plus a traced pass.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 7 --seconds 30 --trace 0

Workloads (the functions in PASSES):

- corpus: the stock-shaped 125-graph corpus through the README quick start
  (generate, features, evaluate, train, predict, embed, cluster).
- scale:  `generate` of one BA and one ER graph at n = 1.5e4, then
  `features` over a 1M-edge uniform edge list and a 5e5-edge power-law
  Matrix Market file.
- learn:  train, evaluate, embed and cluster on a 500-row, 4-class table.

With `--trace 0` the CLI command sequence ("a pass") runs again and again,
each pass into a fresh directory, until `--seconds` have passed.  Commands
run one after another (a closed loop with one client); each is a child
`python -m netclass.cli` process with `src` on the path.  The end-to-end
metrics are medians over passes.  With `--trace 1` one untraced pass runs,
then in-process traced passes (bench/traced.py) until `--seconds` have
passed; the per-layer metrics are medians over traced passes.

End-to-end metrics reported on every workload: setup_s (wall time of
`netclass --help`, i.e. interpreter start plus `import netclass`, median of
samples spread over the run), pipeline_s (wall time of one pass), cpu_s
(user + system time of the pass's commands) and peak_rss_mb (largest
per-command peak RSS in a pass).  Each command's own wall time (generate_s,
features_s, ...) is printed too, but only for the workloads that run it, so
it is not part of the JSON summary, which must hold the same metrics on
every workload.

Every run checks the outputs; each command, each graph of `features` and
`predict`, and each output check is one operation, and the last stdout
line is the JSON summary {"correct", "attempted", "failed", "metrics"}.
A full record (environment, per-pass numbers, digests, spans) goes to
.bench_work/results/.

Writing into an existing output directory is left out on purpose: it was
measured at 6-10 s of I/O wait for `generate` against about 1 s into a fresh
directory, with the same CPU time, and that wait does not repeat.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

RUN_LIMIT_S = 170.0        # the whole run, set-up included, ends before this
SETUP_REPEATS = 4          # `--help` calls before the passes and after each
CORPUS_CV_FLOOR = 0.95     # AC-2 asks for 0.99 on four of five seeds
CORPUS_FIT_FLOOR = 0.99    # resubstitution accuracy of `predict`
LEARN_CV_FLOOR = 0.60      # chance is 1/4
TREES = 100                # CLI default forest size
EMBED_LIMIT = 1e4          # |coordinate| bound for t-SNE output

END_TO_END = (  # (name, unit): reported to the driver on every workload
    ("setup_s", "s"), ("pipeline_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
)


@dataclass
class Cmd:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    log: str


@dataclass
class Runner:
    """Runs CLI commands one at a time and counts operations and failures."""

    deadline: float
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        env = dict(os.environ)
        env.pop("NETCLASS_SEED", None)  # the seed comes from --seed only
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok

    def cli(self, name: str, args: list, cwd: Path) -> Cmd:
        """Run `python -m netclass.cli ARGS` in cwd; peak RSS from its own rusage."""
        log_path = cwd / f"{name}.log"
        timeout = max(5.0, self.deadline - time.monotonic())
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "netclass.cli", *args], cwd=cwd, env=self.env,
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                # os.wait4 gives this child's own peak RSS; RUSAGE_CHILDREN
                # would be the high-water mark over every child so far.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cmd = Cmd(name, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, log_path.read_text(errors="replace"))
        self.check(f"{name} exit code", cmd.code == 0, f"{cmd.code}: {cmd.log[-300:]}")
        return cmd


def read_csv(path: Path) -> list[dict]:
    try:
        with open(path, newline="") as handle:
            return list(csv.DictReader(handle))
    except OSError:
        return []


def cv_accuracy(cmd: Cmd) -> float:
    found = re.search(r"cv accuracy ([0-9.]+)", cmd.log)
    return float(found.group(1)) if found else -1.0


def digests(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file() and p.suffix != ".log"
    }


# ---------------------------------------------------------------- inputs

def prepare(workload: str, seed: int, dest: Path) -> dict:
    """Write the workload's inputs under dest; returns what the checks expect."""
    dest.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    if workload == "corpus":
        (dest / "corpus.ini").write_text(inputs.corpus_spec())
        return {}
    if workload == "learn":
        (dest / "learn.csv").write_text(inputs.learn_table(rng))
        return {}
    (dest / "scale.ini").write_text(inputs.scale_spec())
    u, v = inputs.uniform_graph(rng)
    (dest / "uniform.edges").write_text(inputs.edge_list_text(u, v))
    expected = {"uniform": (len(np.union1d(u, v)), len(u))}
    u, v = inputs.powerlaw_graph(rng)
    (dest / "powerlaw.mtx").write_text(
        inputs.matrix_market_text(u, v, inputs.POWERLAW_NODES))
    expected["powerlaw"] = (inputs.POWERLAW_NODES, len(u))
    (dest / "manifest.csv").write_text(
        "path,name,category\nuniform.edges,uniform,uniform\n"
        "powerlaw.mtx,powerlaw,powerlaw\n")
    return expected


# ---------------------------------------------------------------- passes

def edge_file_nodes(path: Path) -> int:
    """Distinct node labels in an integer edge-list file."""
    try:
        return len(np.unique(np.fromstring(path.read_text(), dtype=np.int64, sep=" ")))
    except OSError:
        return -1


def check_features(r: Runner, path: Path, expected: dict) -> None:
    """One operation per graph: a row with the expected nodes and edges."""
    rows = {row["name"]: row for row in read_csv(path)}
    for name, (nodes, edges) in expected.items():
        row = rows.get(name)
        got = (int(row["nodes"]), int(row["edges"])) if row else None
        r.check(f"features row {name}", got == (nodes, edges),
                f"got {got}, want {(nodes, edges)}")


def check_embed_cluster(r: Runner, d: Path, rows: int) -> None:
    emb = read_csv(d / "embedding.csv")
    coords = np.array([[float(e["x"]), float(e["y"])] for e in emb]) if emb else np.zeros((0, 2))
    r.check("embed rows finite and bounded",
            len(emb) == rows and bool(np.isfinite(coords).all())
            and float(np.abs(coords).max(initial=0.0)) < EMBED_LIMIT,
            f"{len(emb)} rows")
    clusters = [int(c["cluster"]) for c in read_csv(d / "clusters.csv")]
    r.check("cluster ids in range",
            len(clusters) == rows and all(0 <= c < inputs.CLUSTERS for c in clusters),
            f"{len(clusters)} rows")
    overlap = d / "overlap.txt"
    r.check("overlap report written", overlap.is_file() and overlap.stat().st_size > 0)


def corpus_pass(r: Runner, seed: str, workers: str, d: Path, _expected) -> list:
    cmds = [r.cli("generate", ["generate", "../inputs/corpus.ini",
                               "--out-dir", "corpus", "--seed", seed], d)]
    manifest = read_csv(d / "corpus" / "manifest.csv")
    r.check("generate wrote 125 graphs",
            len(manifest) == inputs.CORPUS_BA + inputs.CORPUS_ER, f"{len(manifest)}")
    cmds.append(r.cli("features", ["features", "corpus/manifest.csv", "--out", "features.csv",
                                   "--workers", workers, "--seed", seed], d))
    # An edge list cannot carry isolated nodes, so a graph's node count is the
    # number of labels in its file; the manifest's own count is reported.
    in_files = {m["name"]: edge_file_nodes(d / "corpus" / m["path"]) for m in manifest}
    check_features(r, d / "features.csv",
                   {m["name"]: (in_files[m["name"]], int(m["edges"])) for m in manifest})
    r.notes["isolated nodes in the manifest but not in the edge-list files"] = sum(
        int(m["nodes"]) - in_files[m["name"]] for m in manifest)
    cmds.append(r.cli("evaluate", ["evaluate", "features.csv", "--out-dir", "reports",
                                   "--folds", str(inputs.FOLDS), "--seed", seed], d))
    acc = r.notes["cv accuracy"] = cv_accuracy(cmds[-1])
    r.check("corpus cv accuracy", acc >= CORPUS_CV_FLOOR, f"{acc}")
    cmds.append(r.cli("train", ["train", "features.csv", "--model-out", "model.json",
                                "--seed", seed], d))
    graphs = ["corpus/" + m["path"] for m in manifest]
    if graphs:
        cmds.append(r.cli("predict", ["predict", "model.json", *graphs,
                                      "--out", "predictions.csv", "--seed", seed], d))
    else:
        r.check("predict has graphs", False)
    predicted = {p["path"]: p for p in read_csv(d / "predictions.csv")}
    hits = 0
    for m in manifest:
        p = predicted.get("corpus/" + m["path"])
        votes = sum(int(p[c]) for c in p if c.startswith("votes_")) if p else 0
        r.check(f"predict row {m['name']}", p is not None and votes == TREES
                and p["predicted"] in ("BA", "ER"), f"{p}")
        hits += bool(p) and p["predicted"] == m["category"]
    r.check("predict resubstitution accuracy",
            hits >= CORPUS_FIT_FLOOR * max(len(manifest), 1), f"{hits}/{len(manifest)}")
    cmds.append(r.cli("embed", ["embed", "features.csv", "--out", "embedding.csv", "--perplexity",
                                str(inputs.CORPUS_PERPLEXITY), "--seed", seed], d))
    cmds.append(r.cli("cluster", ["cluster", "features.csv", "--out", "clusters.csv",
                                  "--k", str(inputs.CLUSTERS), "--overlap-out", "overlap.txt",
                                  "--seed", seed], d))
    check_embed_cluster(r, d, len(manifest))
    return cmds


def scale_pass(r: Runner, seed: str, workers: str, d: Path, expected: dict) -> list:
    cmds = [r.cli("generate", ["generate", "../inputs/scale.ini",
                               "--out-dir", "generated", "--seed", seed], d)]
    n, m = inputs.SCALE_GEN_NODES, inputs.SCALE_GEN_BA_M
    mean_er = n * inputs.SCALE_GEN_ER_DEGREE / 2
    manifest = read_csv(d / "generated" / "manifest.csv")
    r.check("generate wrote 2 graphs", len(manifest) == 2, f"{len(manifest)}")
    for row in manifest:
        edges = int(row["edges"])
        if row["category"] == "BA":
            sized = edges == m * (m - 1) // 2 + m * (n - m)
        else:
            sized = abs(edges - mean_er) < 0.05 * mean_er
        with open(d / "generated" / row["path"], "rb") as handle:
            lines = sum(1 for _ in handle)
        r.check(f"generated graph {row['name']}",
                int(row["nodes"]) == n and sized and lines == edges,
                f"nodes {row['nodes']}, edges {edges}, lines {lines}")
    cmds.append(r.cli("features", ["features", "../inputs/manifest.csv", "--out",
                                   "features.csv", "--workers", workers, "--seed", seed], d))
    check_features(r, d / "features.csv", expected)
    return cmds


def learn_pass(r: Runner, seed: str, workers: str, d: Path, _expected) -> list:
    table = "../inputs/learn.csv"
    cmds = [
        r.cli("train", ["train", table, "--model-out", "model.json", "--seed", seed], d),
        r.cli("evaluate", ["evaluate", table, "--out-dir", "reports",
                           "--folds", str(inputs.FOLDS), "--seed", seed], d),
    ]
    acc = r.notes["cv accuracy"] = cv_accuracy(cmds[-1])
    r.check("learn cv accuracy", acc >= LEARN_CV_FLOOR, f"{acc}")
    cmds.append(r.cli("embed", ["embed", table, "--out", "embedding.csv", "--perplexity",
                                str(inputs.LEARN_PERPLEXITY), "--seed", seed], d))
    cmds.append(r.cli("cluster", ["cluster", table, "--out", "clusters.csv",
                                  "--k", str(inputs.CLUSTERS), "--overlap-out", "overlap.txt",
                                  "--seed", seed], d))
    check_embed_cluster(r, d, inputs.LEARN_ROWS)
    return cmds


PASSES = {"corpus": corpus_pass, "scale": scale_pass, "learn": learn_pass}


# ---------------------------------------------------------------- environment

def blas_threads():
    """OpenBLAS thread count of numpy's bundled library, or None if unknown."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, workers: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "netclass").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "commit": commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------- main

def median(values) -> float:
    return float(statistics.median(values))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    runner = Runner(deadline=started + RUN_LIMIT_S)
    workers = len(os.sched_getaffinity(0))
    rundir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    record = {"workload": workload, "trace": int(trace),
              "environment": environment(seed, workers)}
    try:
        expected = prepare(workload, seed, rundir / "inputs")
        help_dir = rundir / "help"
        help_dir.mkdir()
        runner.cli("help", ["--help"], help_dir)  # warm caches and bytecode
        setup = []

        def sample_setup():  # spread over the run, so a burst of load is outvoted
            if not trace:
                setup.extend(runner.cli("help", ["--help"], help_dir).wall_s
                             for _ in range(SETUP_REPEATS))

        sample_setup()
        passes, pass_digests = [], []
        t0 = time.monotonic()
        while True:
            d = rundir / f"pass-{len(passes) + 1}"  # fresh output directory
            d.mkdir()
            began = time.monotonic()
            passes.append(PASSES[workload](runner, str(seed), str(workers), d, expected))
            pass_digests.append(digests(d))
            sample_setup()
            if len(pass_digests) > 1:
                runner.check("outputs identical across passes",
                             pass_digests[-1] == pass_digests[0],
                             f"pass {len(passes)} differs")
            took = time.monotonic() - began
            if trace or time.monotonic() - t0 >= seconds \
                    or time.monotonic() + 1.3 * took > runner.deadline:
                break
        record["passes"] = [[vars(c) | {"log": None} for c in p] for p in passes]
        record["digests"] = pass_digests[0]
        if trace:
            sys.path.insert(0, str(SRC))
            import traced
            record["layers"], record["spans"] = traced.run(
                workload, seed, rundir, passes[0], runner, seconds - (time.monotonic() - t0))
            runner.notes["bench process peak rss MB (traced pass)"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            record["setup_s"] = setup
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    record["attempted"], record["failed"] = runner.attempted, runner.failed
    record["failures"] = runner.failures
    record["notes"] = runner.notes
    return record


def end_to_end(record: dict) -> dict:
    passes = record["passes"]
    return {
        "setup_s": median(record["setup_s"]),
        "pipeline_s": median([sum(c["wall_s"] for c in p) for p in passes]),
        "cpu_s": median([sum(c["cpu_s"] for c in p) for p in passes]),
        "peak_rss_mb": median([max(c["rss_mb"] for c in p) for p in passes]),
    }


def report(record: dict) -> dict:
    """Print the human-readable report; return the driver's metrics."""
    env = record["environment"]
    passes = record["passes"]
    print(f"netclass bench: workload {record['workload']}, seed {env['seed']}, "
          f"trace {record['trace']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes: {len(passes)} (closed loop, one client, fresh output directory each)")
    for cmd in passes[0]:
        runs = [c for p in passes for c in p if c["name"] == cmd["name"]]
        print(f"metric {cmd['name']}_s = {median(c['wall_s'] for c in runs):.6f} s "
              f"(median of {len(runs)}; peak rss {max(c['rss_mb'] for c in runs):.1f} MB)")
    rate = record["failed"] / record["attempted"]
    print(f"metric failure_rate = {rate:.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations)")
    for failure in record["failures"][:20]:
        print(f"  FAILED {failure}")
    for note, value in record["notes"].items():
        print(f"note: {note}: {value}")
    if record["trace"]:
        import traced
        return traced.report(record)
    metrics = end_to_end(record)
    for name, unit in END_TO_END:
        print(f"metric {name} = {metrics[name]:.6f} {unit}")
    print(f"setup_s samples: {len(record['setup_s'])}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "netclass" / "cli.py").is_file():
        print(f"error: no netclass sources under {SRC}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = report(record)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record | {"metrics": metrics}, indent=1))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
