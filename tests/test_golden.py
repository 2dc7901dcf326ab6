"""Golden digests: CLI outputs pinned by sha256.

A change to any digest below is a change to output bytes; make it on
purpose and declare it in CHANGES.md.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from test_acceptance import read, run_all_commands

import netclass
from netclass.cli import SEED_ENV_VAR, main
from netclass.data import feature_log_flags
from netclass.features import CSV_HEADER
from netclass.synth import barabasi_albert

OUTPUTS = (
    "manifest.csv", "graphs/*.edges", "features.csv", "model.json", "pred.csv",
    "reports/confusion.csv", "reports/confusion.txt",
    "reports/misclassified.csv", "embed.csv", "clusters.csv", "overlap.txt",
)

GOLDEN = {
    "manifest.csv": "73fe63623a20605f100f183ce96e2e107c56e9ab5374675224be9db3fd50bb5e",
    "graphs/*.edges": "ae83e02f7e752f131a8de443d3084ecdc165369da5589b84933b9bc3fefcdf4c",
    "features.csv": "0f662f236fd9269008c432680f34ecb4b07eb37597cb644890ba241b843e6fd5",
    "model.json": "85bc2130c65881924b31bd7edacb8856f96dd54ec6580850e15abb6f9506ddfc",
    "pred.csv": "bc5f357f6c476b8cd93891fa610e0ca435218a07e52a95605adf1b144480211e",
    "reports/confusion.csv": "b357a5aada45c04015fd563c55f8724a63b804feeb309234c216203e6fd730a0",
    "reports/confusion.txt": "aa3260944e72c034885ab6f26725862601382f8210c93ecd99c2cc3acb94163e",
    "reports/misclassified.csv": "5bd216848727dca453c2f1e843206c93f2ec5fb03b3618e264e9d049fd906a9b",
    "embed.csv": "9425fcf76cc9bc3773cee31c2b6db7be499ad5f4114cbf231c53198dcaad4c5b",
    "clusters.csv": "01625c3ff015783c15f0d2fd7d062ff170ed2b47c6c46dff1991199adf29d2c3",
    "overlap.txt": "60c76bf1e05e34160122757413c3b5448abfe50851d893362e881f69262949d4",
}

# The stock 125-graph corpus (no spec file), seed 7, and every output of the
# README quick start run on it.
STOCK_GOLDEN = {
    "manifest.csv": "7d3963a14a391628c970b9c18e3f1ef991a1534d4ddb506fb0016534ff1e9e03",
    "graphs/*.edges": "9fdf7bcc79e909cf969047375bd5ac085b7db66ee5190b1ecaefa9702f31853e",
    "features.csv": "8254ff9ee109e16fc71fbf28dd2cdb099563544f7c2206a76eef46c0d58d461e",
    "model.json": "180a1b804243994b24534cb5d54c27ee7ddca25f41192a1e903d27c0cf86c6f6",
    "pred.csv": "7114ad399351135426d4cddfd4780f595b244101b1bcd1d20e79a474af26ff42",
    "reports/confusion.csv": "54e6e7ff97a4cacd7ce9ab1be22f8f45602ac30a85458ee801b4b4c07c7b470a",
    "reports/confusion.txt": "d988049d71a819539a308b2680526da1438538d0b44a4f191689bb857637e6a8",
    "reports/misclassified.csv": "517469b3af3b454708e83531be0d977b570cfca9944e6bed2e6f1a0f0cdf2959",
    "embed.csv": "d143cdff7930323d28fd8f57d5832b6e3fae3c3895e6442aaf5d8eb94fd02ff8",
    "clusters.csv": "06cc5e6d28015b79eddad0b572e9e58d8da044daacca2a6afbc2d75723dbeaad",
    "overlap.txt": "a3aaa7986026acfd19409f55fd2513d05f44e68b3569a905cbb1dd4437328c04",
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_outputs_match_golden_digests(tmp_path):
    parts = run_all_commands(tmp_path, 0, "1").split("\x00")
    assert len(parts) == len(OUTPUTS)
    assert {name: sha256(text) for name, text in zip(OUTPUTS, parts)} == GOLDEN


def test_stock_corpus_matches_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(["generate", "--out-dir", "corpus", "--seed", "7"]) == 0
    assert main(["features", "corpus/manifest.csv", "--out", "features.csv"]) == 0
    assert main(["train", "features.csv", "--model-out", "model.json"]) == 0
    graphs = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.glob("corpus/*.edges"))
    assert main(["predict", "model.json", *graphs, "--out", "pred.csv"]) == 0
    assert main(["evaluate", "features.csv", "--folds", "5", "--out-dir", "reports"]) == 0
    assert main(["embed", "features.csv", "--out", "embed.csv", "--perplexity", "20"]) == 0
    assert main(["cluster", "features.csv", "--out", "clusters.csv", "--k", "4",
                 "--overlap-out", "overlap.txt"]) == 0
    manifest = read(tmp_path / "corpus" / "manifest.csv")
    edges = "".join(
        read(tmp_path / "corpus" / line.split(",")[0])
        for line in manifest.splitlines()[1:]
    )
    got = {
        "manifest.csv": sha256(manifest),
        "graphs/*.edges": sha256(edges),
    }
    for name in list(STOCK_GOLDEN)[2:]:
        got[name] = sha256(read(tmp_path / name))
    assert got == STOCK_GOLDEN


# barabasi_albert(15000, 10, 7), the shape of the benchmark's scale graph:
# sha256 of its edge arrays (u, then v) as little-endian int64.
BA_SCALE_GOLDEN = "d4c8058ddf29d56f27fa27599bed54cadc0d747697ec1a3485a26adae6b59712"


def test_scale_shaped_barabasi_albert_matches_golden_digest():
    g = barabasi_albert(15000, 10, 7)
    edges = np.stack(g.edge_arrays()).astype("<i8")
    assert hashlib.sha256(edges.tobytes()).hexdigest() == BA_SCALE_GOLDEN


# The 500-row, 4-class table of multiclass_csv(), seed 7.
MULTICLASS_GOLDEN = {
    "model.json": "3f7dc4cc15fa3cc6686849d1f2125c476f71558c94bee6eb16e1b2f255b6338d",
    "reports/confusion.csv": "94f6579e685175b608b46e1c89f379cf619de5493701d7887848f6ba84b34b74",
    "reports/confusion.txt": "119a30eb2cbe1d6cadbc43bf6ba2a2d0b17f2d17c806ad36bd194418084c4d2e",
    "reports/misclassified.csv": "0616ec86a1d0f97bc2a7a7bbd782dcb372bc7fcdb8a926ab75bd4269e98eb7e2",
    "embed.csv": "9e6b216a4fa2db40b26a5e993f2c1de4e4f3edfd0b9294a70a5fbb497c8f2b18",
}


def multiclass_csv():
    """A 500-row, 4-class feature CSV of overlapping Gaussian blobs.  Log
    columns hold small whole counts, so equal values are common."""
    rng = np.random.default_rng(2017)
    labels = np.arange(500) % 4
    z = rng.normal(size=(4, 15))[labels] + rng.normal(0.0, 1.5, size=(500, 15))
    lines = [CSV_HEADER]
    for i, row in enumerate(z):
        cells = [str(round(math.exp(1.0 + v))) if log else format(v, ".17g")
                 for v, log in zip(row, feature_log_flags())]
        lines.append(f"row_{i:03d},class_{labels[i]}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def test_multiclass_table_matches_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    (tmp_path / "table.csv").write_text(multiclass_csv())
    assert main(["train", "table.csv", "--model-out", "model.json", "--seed", "7"]) == 0
    assert main(["evaluate", "table.csv", "--folds", "5", "--out-dir", "reports",
                 "--seed", "7"]) == 0
    assert main(["embed", "table.csv", "--out", "embed.csv", "--seed", "7"]) == 0
    assert {name: sha256(read(tmp_path / name)) for name in MULTICLASS_GOLDEN} == MULTICLASS_GOLDEN


def test_embedding_bytes_do_not_depend_on_blas_threads(tmp_path):
    """embed on the 500-row table writes the same bytes with the BLAS and
    OpenMP thread pools at one thread and at two.  Each run is a fresh
    process, because the pools read these variables when numpy loads."""
    (tmp_path / "table.csv").write_text(multiclass_csv())
    src = str(Path(netclass.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop(SEED_ENV_VAR, None)
        out = f"embed_{threads}.csv"
        subprocess.run([sys.executable, "-m", "netclass.cli", "embed", "table.csv",
                        "--out", out, "--seed", "7"],
                       cwd=tmp_path, env=env, check=True, capture_output=True)
        digests.append(sha256(read(tmp_path / out)))
    assert digests[0] == digests[1]
