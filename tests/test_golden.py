"""Golden digests: CLI outputs pinned by sha256.

A change to any digest below is a change to output bytes; make it on
purpose and declare it in CHANGES.md.
"""

import hashlib

from test_acceptance import read, run_all_commands

from netclass.cli import main

OUTPUTS = (
    "manifest.csv", "graphs/*.edges", "features.csv", "model.json", "pred.csv",
    "reports/confusion.csv", "reports/confusion.txt",
    "reports/misclassified.csv", "embed.csv", "clusters.csv", "overlap.txt",
)

GOLDEN = {
    "manifest.csv": "73fe63623a20605f100f183ce96e2e107c56e9ab5374675224be9db3fd50bb5e",
    "graphs/*.edges": "e43ea025158a774a5506b18ba5bd9c0129fc06512b50282a8f87a3be251d006c",
    "features.csv": "7baf8390204af84e49b5f8fc3c8d93e5659fcf24389c6299c31f5357a7f48864",
    "model.json": "b3692d21e43dae7555a32129a167ff7de493857d1d1e38bda39bf6f0653c94b2",
    "pred.csv": "bc5f357f6c476b8cd93891fa610e0ca435218a07e52a95605adf1b144480211e",
    "reports/confusion.csv": "122cca701d09786d9216d68230b6f1f2d70e0363fd6fd0540c16bf7818c068c1",
    "reports/confusion.txt": "d7f9bfdd9d051b3dbf8d44028d03d2dd6cf1ab3a579c34648d1775d25e68e78a",
    "reports/misclassified.csv": "e636aa91209196f364bcfda749ba49ccbbe556cc2e9ba00f7cc6ef47b9582f22",
    "embed.csv": "d0ada52bf834e40357d578c964a8cba6896b3c8ff4f84aded9d149a5db4d2316",
    "clusters.csv": "01625c3ff015783c15f0d2fd7d062ff170ed2b47c6c46dff1991199adf29d2c3",
    "overlap.txt": "60c76bf1e05e34160122757413c3b5448abfe50851d893362e881f69262949d4",
}

# The stock 125-graph corpus (no spec file), seed 7, and its features.
STOCK_GOLDEN = {
    "manifest.csv": "7d3963a14a391628c970b9c18e3f1ef991a1534d4ddb506fb0016534ff1e9e03",
    "graphs/*.edges": "93a5284a33dc06f7c62ffb2d72dfbd021431217c94920ea7579fece0263ab518",
    "features.csv": "1a61aed90ceb047db8f6059fc958404c51958fa9439a0af1206b7faffc4f0ff0",
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_outputs_match_golden_digests(tmp_path):
    parts = run_all_commands(tmp_path, 0, "1").split("\x00")
    assert len(parts) == len(OUTPUTS)
    assert {name: sha256(text) for name, text in zip(OUTPUTS, parts)} == GOLDEN


def test_stock_corpus_matches_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--out-dir", "corpus", "--seed", "7"]) == 0
    assert main(["features", "corpus/manifest.csv", "--out", "features.csv"]) == 0
    manifest = read(tmp_path / "corpus" / "manifest.csv")
    edges = "".join(
        read(tmp_path / "corpus" / line.split(",")[0])
        for line in manifest.splitlines()[1:]
    )
    got = {
        "manifest.csv": sha256(manifest),
        "graphs/*.edges": sha256(edges),
        "features.csv": sha256(read(tmp_path / "features.csv")),
    }
    assert got == STOCK_GOLDEN
