"""Golden digests: every CLI output of the acceptance run, pinned by sha256.

A change to any digest below is a change to output bytes; make it on
purpose and declare it in CHANGES.md.
"""

import hashlib

from test_acceptance import run_all_commands

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


def test_outputs_match_golden_digests(tmp_path):
    parts = run_all_commands(tmp_path, 0, "1").split("\x00")
    assert len(parts) == len(OUTPUTS)
    got = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in zip(OUTPUTS, parts)
    }
    assert got == GOLDEN
