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
import pytest
from test_acceptance import read, run_all_commands

import netclass
from netclass.cli import SEED_ENV_VAR, main
from netclass.data import feature_log_flags
from netclass.features import CSV_HEADER
from netclass.seeding import derive_seed, make_rng
from netclass.synth import barabasi_albert, erdos_renyi

OUTPUTS = (
    "manifest.csv", "graphs/*.edges", "features.csv", "model.json", "pred.csv",
    "reports/confusion.csv", "reports/confusion.txt",
    "reports/misclassified.csv", "embed.csv", "clusters.csv", "overlap.txt",
)

GOLDEN = {
    "manifest.csv": "49e62e4cb0b63ab4c07050bb720475b41210a0fed877772e472cb9662e11f6cd",
    "graphs/*.edges": "e2bea05d1dace2b1a1f4ab03f25e8adcca609d46e7437faa67515417576b70e9",
    "features.csv": "7008ddc8489988902d2d7c41b13e1be19fb106349a1804f09a453fdfd9955cb4",
    "model.json": "adf02a7fc28006dae84920d9872523e5f9fa50168880751d8e6422d04c869709",
    "pred.csv": "bc5f357f6c476b8cd93891fa610e0ca435218a07e52a95605adf1b144480211e",
    "reports/confusion.csv": "16cc098c88ebf6488e960e157be412ccb1cf3362243ea86cf021d0926afcf9de",
    "reports/confusion.txt": "09342840d31644cae081132ae3429614d04c728e11f32fb091b240a800bc1c38",
    "reports/misclassified.csv": "af6e8ef16b49b94414c24991eab628366ae32044d119a2fec14f168696dcbe5e",
    "embed.csv": "ab9c559cb4a6ef4d3daf6a137752c34d22159f1a7f644d16f5c3e014642a4444",
    "clusters.csv": "01625c3ff015783c15f0d2fd7d062ff170ed2b47c6c46dff1991199adf29d2c3",
    "overlap.txt": "60c76bf1e05e34160122757413c3b5448abfe50851d893362e881f69262949d4",
}

# The stock 125-graph corpus (no spec file), seed 7, and every output of the
# README quick start run on it.
STOCK_GOLDEN = {
    "manifest.csv": "8c7d4a572cdec9dc14fa9f956a086d6728a441101ff8193cfbd4dd628b51d0a8",
    "graphs/*.edges": "2cb7c0530eea4a6aaeaf4835e901da45abb4e018203707bc374ff043367cc8ba",
    "features.csv": "bbe97f1f9d4fccf225f83e22799c7b413c50604d80f4a911d6a3cdb60a794d8b",
    "model.json": "b9604cd5d13437438d52d1fc0301221f657735753305875244b69086d8c87952",
    "pred.csv": "e95d60f7193206b2cc40a4a7e23eead1dbd19dd4bbd452e02152f325d42a2f01",
    "reports/confusion.csv": "93e7c6ba79b5ca597832d8dde1f89ea34e61a36fe93980deb7ac8cdfeb36bdfd",
    "reports/confusion.txt": "b0b8132ebeaf5f2b04672bdc966b0d5d0b72df5344861da42559fff18c6b65d6",
    "reports/misclassified.csv": "2379a7cf9ebceefd3e67b78abe968b7515232e1803a1463f51991a8639e6d70b",
    "embed.csv": "77cbabeb7cc307de541e0789c63335742712953f1171d9a78b46d15fbe9e5bb2",
    "clusters.csv": "d80a4acbf4b2cc0637615b0e0be43bdf6d825ded549be108c96bb24639f98b8d",
    "overlap.txt": "41579f0162e975b12aa411583f9e91582e36b9bca8f6705b08b43aca4767b51a",
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


# barabasi_albert(15000, 10, 7) and erdos_renyi(15000, 10/14999, 7), the
# shapes of the benchmark's scale graphs: sha256 of their edge arrays (u,
# then v) as little-endian int64.
BA_SCALE_GOLDEN = "d4c8058ddf29d56f27fa27599bed54cadc0d747697ec1a3485a26adae6b59712"
ER_SCALE_GOLDEN = "d25c25f263df20ad3085c28284796cfbecd08b15a9d7164763fc23dc158b757a"

# Prints the two scale digests, BA then ER, and the SIMD targets still on.
SCALE_DIGESTS = """
import hashlib
import numpy as np
import numpy._core._multiarray_umath as umath
from netclass.synth import barabasi_albert, erdos_renyi
for g in (barabasi_albert(15000, 10, 7), erdos_renyi(15000, 10 / 14999, 7)):
    print(hashlib.sha256(np.stack(g.edge_arrays()).astype("<i8").tobytes()).hexdigest())
print(" ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)))
"""


def edge_digest(g):
    return hashlib.sha256(np.stack(g.edge_arrays()).astype("<i8").tobytes()).hexdigest()


def test_seed_layer_matches_pinned_words():
    """derive_seed and the first raw PCG64 words of make_rng, as literals.

    numpy promises that PCG64 seeded through SeedSequence gives the same raw
    stream (bit_generator.random_raw) in every release; only the Generator
    methods built on it may change.  So when a digest above fails on another
    numpy, this test tells whether the seed layer moved or a Generator
    method did."""
    assert [derive_seed(master, index) for master, index in
            [(0, 0), (7, 0), (7, 1), (7, 249), (-1, 3), (2**64 + 5, 2)]] == [
        15793235383387715774, 16920295385781661272, 6635463128224577688,
        16485770923515401665, 11914516797924694533, 4160164373342109173]
    # A master of 2**64 or more is taken modulo 2**64.
    assert derive_seed(2**64 + 5, 2) == derive_seed(5, 2)
    assert {seed: make_rng(seed).bit_generator.random_raw(3).tolist()
            for seed in (0, 7, 2**63 + 1, -7)} == {
        0: [11749869230777074271, 4976686463289251617, 755828109848996024],
        7: [11530976094092348043, 16550673365885938325, 14308875409591826786],
        2**63 + 1: [953996738939091389, 793366763428888510, 9253908185257916779],
        -7: [17517628225200278199, 392789439069447972, 4338531053134498390],
    }


def test_scale_shaped_barabasi_albert_matches_golden_digest():
    assert edge_digest(barabasi_albert(15000, 10, 7)) == BA_SCALE_GOLDEN


def test_scale_shaped_erdos_renyi_matches_golden_digest():
    assert edge_digest(erdos_renyi(15000, 10 / 14999, 7)) == ER_SCALE_GOLDEN


def test_generators_hold_their_bytes_without_simd_dispatch():
    """With every SIMD target above numpy's baseline switched off, both
    generators give the pinned bytes.  The variable is read when numpy
    loads, so the run is a fresh process.  The child's variable names the
    targets on here and those the variable already turns off here, since a
    child that named only the first would turn the others back on."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not targets:
        pytest.skip("numpy dispatches to nothing above its baseline on this CPU")
    outer = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ").split()
    disabled = outer + [t for t in targets if t not in outer]
    src = str(Path(netclass.__file__).resolve().parent.parent)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCALE_DIGESTS], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == [BA_SCALE_GOLDEN, ER_SCALE_GOLDEN, ""]


# The 500-row, 4-class table of multiclass_csv(), seed 7.
MULTICLASS_GOLDEN = {
    "model.json": "5da62f454fdd7027fe2fa099694bcde1793987672febe246ab2f2852eb8e6b6d",
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
