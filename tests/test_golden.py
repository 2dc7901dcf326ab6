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
    "graphs/*.edges": "e43ea025158a774a5506b18ba5bd9c0129fc06512b50282a8f87a3be251d006c",
    "features.csv": "7baf8390204af84e49b5f8fc3c8d93e5659fcf24389c6299c31f5357a7f48864",
    "model.json": "7bff531c4ae7a134123d97e7556a221f1dd0b4fae21c965264db11ecaea03d8d",
    "pred.csv": "bc5f357f6c476b8cd93891fa610e0ca435218a07e52a95605adf1b144480211e",
    "reports/confusion.csv": "122cca701d09786d9216d68230b6f1f2d70e0363fd6fd0540c16bf7818c068c1",
    "reports/confusion.txt": "d7f9bfdd9d051b3dbf8d44028d03d2dd6cf1ab3a579c34648d1775d25e68e78a",
    "reports/misclassified.csv": "e636aa91209196f364bcfda749ba49ccbbe556cc2e9ba00f7cc6ef47b9582f22",
    "embed.csv": "e7e41a89551c6e3666f1e6bd1a29ded4f63cad85915ba83c7aa10eb41964b079",
    "clusters.csv": "01625c3ff015783c15f0d2fd7d062ff170ed2b47c6c46dff1991199adf29d2c3",
    "overlap.txt": "60c76bf1e05e34160122757413c3b5448abfe50851d893362e881f69262949d4",
}

# The stock 125-graph corpus (no spec file), seed 7, and every output of the
# README quick start run on it.
STOCK_GOLDEN = {
    "manifest.csv": "7d3963a14a391628c970b9c18e3f1ef991a1534d4ddb506fb0016534ff1e9e03",
    "graphs/*.edges": "93a5284a33dc06f7c62ffb2d72dfbd021431217c94920ea7579fece0263ab518",
    "features.csv": "1a61aed90ceb047db8f6059fc958404c51958fa9439a0af1206b7faffc4f0ff0",
    "model.json": "e3e243d7b4ef208785a67491626e4ab0769c435b500df8b15766b85a00b0d7cb",
    "pred.csv": "3bc2e35e551bbf87cab26926e11b398ba984470b619aafbc50b387cf9f81a196",
    "reports/confusion.csv": "def18a0cdbf48ccfc5051605298c0a68d26a28ddd822924b49f596220f580db1",
    "reports/confusion.txt": "0974612911ab91d6789b907526be39ebfc9548895090b5bbda90de8b2dde2195",
    "reports/misclassified.csv": "319dea07dd0028473bdb0485043de1f4928c92d6290d7c4b71f212cf65b63982",
    "embed.csv": "3aa546573059e038f6bc006e7adc89bdde1e834ba46859ae472588f900def6af",
    "clusters.csv": "466960645998911708d163d93ef18c0a7043ebc9d50c6c93d094494e46c0df20",
    "overlap.txt": "51374520678fb34f47266d6f84ef3849ec1da2693c334dc157c258cc29251503",
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
BA_SCALE_GOLDEN = "9e7db3a6de78c8b99e19fd86f8591f41f86e1a02a1770ce06d10cb6bf10a197c"


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
    "embed.csv": "18e4047d5915dfb1de9dc8f187a0528776f6d36553e17e7af9b50bad3556326b",
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
