"""End-to-end command-line behaviour, run in process through main()."""

import csv
import functools
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import netclass.cli as cli_module
from netclass.cli import SEED_ENV_VAR, main
from netclass.features import CSV_HEADER, FEATURE_NAMES, read_features_csv

SPEC = """\
[corpus]
master_seed = 3

[ba]
count = 6
nodes_min = 30
nodes_max = 60
m_min = 2
m_max = 4

[er]
count = 6
nodes_min = 30
nodes_max = 60
p_min = 0.10
p_max = 0.30
"""

# no master_seed here, so the section seeds derive from the CLI seed
SPEC_SEEDLESS = """\
[er]
count = 4
nodes_min = 20
nodes_max = 40
p_min = 0.15
p_max = 0.25
"""


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# With one CPU, --workers 2 runs in this process and no pool is started.
needs_two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                                    reason="needs two CPUs for a worker pool")

# The pool pickles the function it maps by name, so the stand-ins for
# cli._extract_one below live at module level and call the real one.
_extract_one = cli_module._extract_one


def _extract_noting_pid(directory, path):
    """_extract_one, leaving a file named for the process that ran it."""
    (directory / f"{os.getpid()}-{os.path.basename(path)}").touch()
    time.sleep(0.05)  # long enough that an idle worker takes the next graph
    return _extract_one(path)


def _extract_dying_on(parent, doomed, path):
    """_extract_one, except that a worker handed `doomed` dies at once (the
    parent never does, so a pool gone serial fails the test, not the run)."""
    if path == doomed and os.getpid() != parent:
        os._exit(9)
    return _extract_one(path)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    os.environ.pop(SEED_ENV_VAR, None)
    root = tmp_path_factory.mktemp("cli_corpus")
    spec = root / "spec.ini"
    spec.write_text(SPEC, encoding="utf-8")
    graphs = root / "graphs"
    assert main(["generate", str(spec), "--out-dir", str(graphs)]) == 0
    features = root / "features.csv"
    assert main(["features", str(graphs / "manifest.csv"), "--out", str(features)]) == 0
    model = root / "model.json"
    assert main(["train", str(features), "--model-out", str(model), "--trees", "9"]) == 0
    return {"root": root, "spec": spec, "graphs": graphs,
            "features": features, "model": model}


class TestArgParsing:
    def test_missing_required_flag(self, tmp_path, capsys):
        assert main(["features", str(tmp_path / "m.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    def test_workers_must_be_positive(self, corpus, capsys):
        code = main(["features", str(corpus["graphs"] / "manifest.csv"),
                     "--out", "x.csv", "--workers", "0"])
        assert code == 1
        assert "workers" in capsys.readouterr().err


# Each setting is range-checked by the library step that uses it, not by the
# CLI (only --workers is checked there).  Every output goes under work/, so an
# empty work/ afterwards means the command wrote nothing.  The fixture table
# has 12 rows, so embed cases that test another setting pass --perplexity 2.
# The last cases name an output path that cannot be written (under a missing
# directory, through the regular file afile, or onto a directory); a later
# output flag overrides the one in OUT_FLAGS.
INPUTS = {"features": "graphs/manifest.csv", "generate": "spec.ini"}
OUT_FLAGS = {
    "features": ["--out", "work/f.csv"],
    "generate": ["--out-dir", "work/corpus"],
    "train": ["--model-out", "work/m.json"],
    "evaluate": ["--out-dir", "work/reports"],
    "embed": ["--out", "work/e.csv"],
    "cluster": ["--out", "work/c.csv"],
    "predict": ["--out", "work/p.csv"],
}
NON_FINITE = ("nan", "inf")
TABLE_COMMANDS = ("train", "evaluate", "embed", "cluster")
BAD_SETTINGS = [
    *[(command, flags, message)
      for command in ("train", "evaluate")
      for flags, message in [
          (["--trees", "0"], "need at least one tree"),
          (["--min-split", "1"], "min_split must be at least 2"),
          (["--features-per-split", "0"], "features_per_split 0 outside"),
          (["--features-per-split", "99"], "features_per_split 99 outside"),
      ]],
    ("evaluate", ["--folds", "1"], "need at least 2 folds"),
    ("cluster", ["--k", "0"], "k must be in"),
    ("cluster", ["--restarts", "0"], "restarts must be positive"),
    ("cluster", ["--max-iter", "0"], "max_iter and restarts must be positive"),
    ("embed", ["--perplexity", "2", "--iterations", "0"], "iterations must be positive"),
    ("embed", ["--perplexity", "0.5"], "perplexity must be in"),
    ("embed", ["--perplexity", "nan"], "perplexity must be in"),
    ("embed", ["--perplexity", "2", "--learning-rate", "0"], "learning rate must be positive"),
    ("embed", ["--perplexity", "2", "--learning-rate", "nan"], "learning rate must be positive"),
    ("cluster", ["--k", "2", "--overlap-threshold", "1.5", "--overlap-out", "work/o.txt"],
     "overlap threshold must be within"),
    ("cluster", ["--k", "2", "--overlap-threshold", "nan", "--overlap-out", "work/o.txt"],
     "overlap threshold must be within"),
    ("train", ["--workers", "0"], "workers must be at least 1"),
    # A run that diverges stops with one error and writes nothing.
    *[("embed", ["--perplexity", "2", "--iterations", "60", "--learning-rate", rate],
       "optimization diverged") for rate in ("1e300", "inf")],
    ("features", ["--out", "work/nodir/f.csv"],
     "cannot write work/nodir/f.csv: No such file or directory"),
    ("generate", ["--out-dir", "afile"], "cannot write afile: File exists"),
    ("evaluate", ["--out-dir", "afile/reports"], "cannot write afile/reports: Not a directory"),
    ("train", ["--model-out", "work"], "cannot write work: Is a directory"),
    # Inputs from BAD_INPUTS: a CSV field past the csv module's size limit,
    # and a quoted carriage return, which csv.writer would leave unquoted.
    ("features", [], "long_name.csv: line 2: field larger than field limit (131072)"),
    ("train", [], "long_name_features.csv: line 2: field larger than field limit (131072)"),
    ("features", [], "cannot write CSV line 2: a cell holds a carriage return"),
    # A bad record after a quoted name that spans two lines: its physical line.
    ("features", [], "two_line_name.csv line 4: expected 3+ columns"),
    # Inputs holding the byte 0xff, which is not UTF-8: each message names the
    # file.  The model is read before any graph, so predict's graph is never read.
    *[(command, flags, f"{filename}: 'utf-8' codec can't decode byte 0xff")
      for command, flags, filename in [
          ("features", [], "latin1_manifest.csv"),
          ("train", [], "latin1_features.csv"),
          ("train", ["--config", "latin1.cfg"], "latin1.cfg"),
          ("generate", [], "latin1_spec.ini"),
          ("predict", ["never_read.edges"], "latin1_model.json"),
      ]],
    # Specs above graph.MAX_NODES, refused before anything is allocated.
    *[("generate", [], f"huge_{family}.ini: bad [{family}] section: "
       "10000000000000 nodes exceed the limit of 3037000499") for family in ("ba", "er")],
    ("features", [], "empty_path.csv line 3: empty graph path"),
    # A feature cell that is not a finite number, named by its row and column.
    *[(command, [], f"{value}_{command}.csv: feature CSV row for 'g': "
       f"assortativity is {value}, not a finite number")
      for value in NON_FINITE for command in TABLE_COMMANDS],
    # One row per category: every category deals its row to fold 0.
    ("evaluate", ["--folds", "3"], "fold 0 leaves no training rows"),
    # A feature cell that is not a number at all, named by its row and column.
    *[(command, [], f"abc_{command}.csv: feature CSV row for 'g': nodes is 'abc', not a number")
      for command in TABLE_COMMANDS],
    # Every output names its rows, so a name may appear only once.
    *[(command, [], f"dup_{command}.csv: feature CSV line 4: duplicate name 'g'")
      for command in TABLE_COMMANDS],
    # An infinite degree bound is refused before any graph is drawn.
    ("generate", [], "inf_degree.ini: bad [er] section: bad degree range [1.0, inf]"),
    # An empty name, in either table.
    *[(command, [], f"noname_{command}.csv: feature CSV line 3: empty name")
      for command in TABLE_COMMANDS],
    ("features", [], "noname.csv line 3: empty name"),
    # A table with nothing to read.
    ("train", [], "header_only.csv: feature CSV has no data rows"),
    ("features", [], "empty_manifest.csv: empty manifest"),
    # Reversed ranges, and the family rules: exactly one of a family's ranges.
    ("generate", [], "reversed_nodes.ini: bad [ba] section: bad node range [9, 5]"),
    ("generate", [], "reversed_p.ini: bad [er] section: bad probability range [0.5, 0.2]"),
    ("generate", [], "ba_without_m.ini: bad [ba] section: "
     "BA spec needs exactly one range of m and no other, got none"),
    ("generate", [], "er_with_m.ini: bad [er] section: "
     "ER spec needs exactly one range of p or avg_degree and no other, got ['p', 'm']"),
    ("generate", [], "ba_with_p.ini: bad [ba] section: "
     "BA spec needs exactly one range of m and no other, got ['p', 'm']"),
    ("generate", [], "ba_with_degree.ini: bad [ba] section: "
     "BA spec needs exactly one range of m and no other, got ['avg_degree']"),
]


def feature_line(name, category, **cells):
    """A feature CSV data line whose every feature but those in cells is 1."""
    return ",".join([name, category] + [cells.get(feature, "1") for feature in FEATURE_NAMES])


# The inputs of the last cases of BAD_SETTINGS, in order.  Each is read in
# place of the one in INPUTS, or in place of a flag value equal to its file
# name.  It is written beside the corpus, so its graph paths resolve, and
# "\udcff" is written as the byte 0xff.
BAD_INPUT_FILES = [
    ("long_name.csv", f"path,name,category\ngraphs/ba_0000.edges,{'n' * 200_000},BA\n"),
    ("long_name_features.csv",
     f"{CSV_HEADER}\n{'n' * 200_000},BA,{','.join(['1'] * len(FEATURE_NAMES))}\n"),
    ("cr_name.csv", 'path,name,category\ngraphs/ba_0000.edges,"x\ry",BA\n'),
    ("two_line_name.csv",
     'path,name,category\ngraphs/ba_0000.edges,"two\nlines",BA\ngraphs/ba_0001.edges\n'),
    ("latin1_manifest.csv", "path,name,category\ngraphs/ba_0000.edges,n\udcff,BA\n"),
    ("latin1_features.csv",
     f"{CSV_HEADER}\nn\udcff,BA,{','.join(['1'] * len(FEATURE_NAMES))}\n"),
    ("latin1.cfg", "trees = 5  # \udcff\n"),
    ("latin1_spec.ini", "# \udcff\n[ba]\n"),
    ("latin1_model.json", '{"label_names": ["\udcff"]}\n'),
    ("huge_ba.ini", "[ba]\ncount = 1\nnodes_min = 10000000000000\n"
     "nodes_max = 10000000000000\nm_min = 2\nm_max = 4\n"),
    ("huge_er.ini", "[er]\ncount = 1\nnodes_min = 10000000000000\n"
     "nodes_max = 10000000000000\navg_degree_min = 2\navg_degree_max = 4\n"),
    ("empty_path.csv", "path,name,category\ngraphs/ba_0000.edges,g0,BA\n,g1,BA\n"),
    *[(f"{value}_{command}.csv",
       f"{CSV_HEADER}\n{feature_line('g', 'BA', assortativity=value)}\n")
      for value in NON_FINITE for command in TABLE_COMMANDS],
    ("three_categories.csv",
     "\n".join([CSV_HEADER] + [feature_line(name, name) for name in "abc"]) + "\n"),
    *[(f"abc_{command}.csv", f"{CSV_HEADER}\n{feature_line('g', 'BA', nodes='abc')}\n")
      for command in TABLE_COMMANDS],
    *[(f"dup_{command}.csv", "\n".join(
        [CSV_HEADER] + [feature_line(name, category) for name, category in
                        [("g", "BA"), ("h", "ER"), ("g", "ER")]]) + "\n")
      for command in TABLE_COMMANDS],
    ("inf_degree.ini", "[er]\ncount = 1\nnodes_min = 10\nnodes_max = 20\n"
     "avg_degree_min = 1\navg_degree_max = inf\n"),
    *[(f"noname_{command}.csv", "\n".join(
        [CSV_HEADER] + [feature_line(name, category) for name, category in
                        [("g", "BA"), ("", "ER"), ("h", "ER")]]) + "\n")
      for command in TABLE_COMMANDS],
    ("noname.csv", "path,name,category\ngraphs/ba_0000.edges,g0,BA\ngraphs/ba_0001.edges,,BA\n"),
    ("header_only.csv", f"{CSV_HEADER}\n"),
    ("empty_manifest.csv", ""),
    ("reversed_nodes.ini", "[ba]\ncount = 1\nnodes_min = 9\nnodes_max = 5\n"
     "m_min = 2\nm_max = 2\n"),
    ("reversed_p.ini", "[er]\ncount = 1\nnodes_min = 5\nnodes_max = 9\n"
     "p_min = 0.5\np_max = 0.2\n"),
    ("ba_without_m.ini", "[ba]\ncount = 1\nnodes_min = 5\nnodes_max = 9\n"),
    ("er_with_m.ini", "[er]\ncount = 1\nnodes_min = 5\nnodes_max = 9\n"
     "p_min = 0.1\np_max = 0.2\nm_min = 2\nm_max = 2\n"),
    ("ba_with_p.ini", "[ba]\ncount = 1\nnodes_min = 5\nnodes_max = 9\n"
     "m_min = 2\nm_max = 2\np_min = 0.1\np_max = 0.2\n"),
    ("ba_with_degree.ini", "[ba]\ncount = 1\nnodes_min = 5\nnodes_max = 9\n"
     "avg_degree_min = 2\navg_degree_max = 3\n"),
]
BAD_INPUTS = {
    message: input_file
    for (_, _, message), input_file in zip(
        BAD_SETTINGS[-len(BAD_INPUT_FILES):], BAD_INPUT_FILES)
}


@pytest.mark.parametrize("command,flags,message", BAD_SETTINGS)
def test_out_of_range_setting_exits_1_and_writes_nothing(
    command, flags, message, tmp_path, corpus, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "work").mkdir()
    (tmp_path / "afile").write_text("", encoding="utf-8")
    source = corpus["root"] / INPUTS.get(command, "features.csv")
    if message in BAD_INPUTS:
        filename, text = BAD_INPUTS[message]
        path = corpus["root"] / filename
        path.write_text(text, encoding="utf-8", errors="surrogateescape", newline="")
        if filename in flags:
            flags = [str(path) if flag == filename else flag for flag in flags]
        else:
            source = path
    code = main([command, str(source)] + OUT_FLAGS[command] + flags)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert list((tmp_path / "work").iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "work"]


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path, corpus, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trees = 5\nbogus = 3\n", encoding="utf-8")
        code = main(["train", str(corpus["features"]),
                     "--model-out", str(tmp_path / "m.json"), "--config", str(cfg)])
        assert code == 1
        assert f"{cfg}: config line 2: unknown key 'bogus'" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path, corpus, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trees = many\n", encoding="utf-8")
        code = main(["train", str(corpus["features"]),
                     "--model-out", str(tmp_path / "m.json"), "--config", str(cfg)])
        assert code == 1
        assert f"{cfg}: config line 1: bad value 'many'" in capsys.readouterr().err

    def test_missing_equals_rejected(self, tmp_path, corpus, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trees 5\n", encoding="utf-8")
        code = main(["train", str(corpus["features"]),
                     "--model-out", str(tmp_path / "m.json"), "--config", str(cfg)])
        assert code == 1
        assert f"{cfg}: config line 1: expected key=value" in capsys.readouterr().err

    def test_values_take_effect(self, tmp_path, corpus, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trees = 7  # small forest\n\n", encoding="utf-8")
        code = main(["train", str(corpus["features"]),
                     "--model-out", str(tmp_path / "m.json"), "--config", str(cfg)])
        assert code == 0
        assert "trained 7 trees" in capsys.readouterr().out

    def test_none_is_the_default(self, tmp_path, corpus):
        # features_per_split = none asks for round(sqrt(D)), as no setting does.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("features_per_split = none\n", encoding="utf-8")
        model = tmp_path / "m.json"
        assert main(["train", str(corpus["features"]), "--model-out", str(model),
                     "--trees", "9", "--config", str(cfg)]) == 0
        assert model.read_bytes() == corpus["model"].read_bytes()

    def test_unused_setting_not_checked(self, tmp_path):
        # generate grows no forest, so an out-of-range trees does not stop it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trees = 0\n", encoding="utf-8")
        spec = tmp_path / "seedless.ini"
        spec.write_text(SPEC_SEEDLESS, encoding="utf-8")
        code = main(["generate", str(spec), "--out-dir", str(tmp_path / "g"),
                     "--config", str(cfg)])
        assert code == 0

    def test_bad_env_seed(self, monkeypatch, corpus, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "lots")
        code = main(["cluster", str(corpus["features"]), "--out", "x.csv"])
        assert code == 1
        assert SEED_ENV_VAR in capsys.readouterr().err


class TestSeedPrecedence:
    def run_generate(self, tmp_path, name, argv, env=None, monkeypatch=None):
        if env is not None:
            monkeypatch.setenv(SEED_ENV_VAR, env)
        spec = tmp_path / "seedless.ini"
        spec.write_text(SPEC_SEEDLESS, encoding="utf-8")
        out = tmp_path / name
        assert main(["generate", str(spec), "--out-dir", str(out)] + argv) == 0
        return read(out / "manifest.csv")

    def test_env_overrides_default(self, tmp_path, monkeypatch):
        via_env = self.run_generate(tmp_path, "a", [], env="5", monkeypatch=monkeypatch)
        monkeypatch.delenv(SEED_ENV_VAR)
        via_flag = self.run_generate(tmp_path, "b", ["--seed", "5"])
        default = self.run_generate(tmp_path, "c", [])
        assert via_env == via_flag
        assert via_env != default

    def test_config_overrides_env(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 6\n", encoding="utf-8")
        via_cfg = self.run_generate(
            tmp_path, "a", ["--config", str(cfg)], env="5", monkeypatch=monkeypatch
        )
        monkeypatch.delenv(SEED_ENV_VAR)
        assert via_cfg == self.run_generate(tmp_path, "b", ["--seed", "6"])

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 6\n", encoding="utf-8")
        via_flag = self.run_generate(tmp_path, "a", ["--config", str(cfg), "--seed", "7"])
        assert via_flag == self.run_generate(tmp_path, "b", ["--seed", "7"])


class TestGenerate:
    def test_layout_and_manifest(self, corpus):
        graphs = corpus["graphs"]
        manifest = read(graphs / "manifest.csv").splitlines()
        assert manifest[0] == "path,name,category,nodes,edges,params,seed"
        rows = [line.split(",") for line in manifest[1:]]
        assert [r[1] for r in rows[:6]] == [f"ba_{i:04d}" for i in range(6)]
        assert [r[1] for r in rows[6:]] == [f"er_{i:04d}" for i in range(6, 12)]
        assert {r[2] for r in rows} == {"BA", "ER"}
        for r in rows:
            assert (graphs / r[0]).is_file()
            assert 30 <= int(r[3]) <= 60

    def test_worker_count_never_changes_bytes(self, tmp_path, corpus):
        outs = []
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}"
            assert main(["generate", str(corpus["spec"]), "--out-dir", str(out),
                         "--workers", workers]) == 0
            manifest = read(out / "manifest.csv")
            body = "".join(
                read(out / line.split(",")[0])
                for line in manifest.splitlines()[1:]
            )
            outs.append(manifest + body)
        assert outs[0] == outs[1]

    def test_no_leftover_temp_files(self, corpus):
        names = [p.name for p in corpus["graphs"].iterdir()]
        assert not any(n.startswith(".tmp.netclass.") for n in names)

    def test_outputs_get_the_mode_the_umask_gives(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text(SPEC_SEEDLESS, encoding="utf-8")
        graphs, features, model = tmp_path / "g", tmp_path / "f.csv", tmp_path / "m.json"
        outputs = [graphs / "manifest.csv", graphs / "er_0000.edges", features, model]
        previous = os.umask(0o022)
        try:
            # The second run replaces the first run's files.
            for umask, mode in [(0o022, 0o644), (0o077, 0o600)]:
                os.umask(umask)
                assert main(["generate", str(spec), "--out-dir", str(graphs)]) == 0
                assert main(["features", str(graphs / "manifest.csv"),
                             "--out", str(features)]) == 0
                assert main(["train", str(features), "--model-out", str(model),
                             "--trees", "3"]) == 0
                assert [oct(path.stat().st_mode & 0o777) for path in outputs] \
                    == [oct(mode)] * len(outputs)
        finally:
            os.umask(previous)

    def test_unknown_section_rejected(self, tmp_path, capsys):
        spec = tmp_path / "bad.ini"
        spec.write_text("[smallworld]\ncount = 1\n", encoding="utf-8")
        assert main(["generate", str(spec), "--out-dir", str(tmp_path / "o")]) == 1
        assert "unknown generator section" in capsys.readouterr().err

    def test_out_of_range_section_names_file_and_section(self, tmp_path, capsys):
        spec = tmp_path / "bad.ini"
        spec.write_text(
            "[er]\ncount = 2\nnodes_min = 10\nnodes_max = 20\n"
            "p_min = 0.1\np_max = 0.2\n\n"
            "[ba]\ncount = 2\nnodes_min = 10\nnodes_max = 20\n"
            "m_min = 2\nm_max = 10\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["generate", str(spec), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{spec}: bad [ba] section:" in err
        assert "m_hi < n_lo" in err
        assert not out.exists()

    def test_zero_graph_spec_rejected(self, tmp_path, capsys):
        spec = tmp_path / "empty.ini"
        spec.write_text(
            "[er]\ncount = 0\nnodes_min = 10\nnodes_max = 20\n"
            "p_min = 0.1\np_max = 0.2\n",
            encoding="utf-8",
        )
        assert main(["generate", str(spec), "--out-dir", str(tmp_path / "o")]) == 1
        assert "no graphs" in capsys.readouterr().err

    def test_missing_specfile(self, tmp_path, capsys):
        assert main(["generate", str(tmp_path / "nope.ini"),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch):
        # Stands in for a spec whose graphs are too large for this machine.
        def exhausted(specs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

        monkeypatch.setattr(cli_module, "generate_corpus", exhausted)
        out = tmp_path / "o"
        assert main(["generate", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: not enough memory: Unable to allocate 7.45 GiB" in err
        assert not out.exists()


class TestFeatures:
    def test_output_matches_manifest_order(self, corpus):
        names, categories, matrix = read_features_csv(io.StringIO(read(corpus["features"])))
        manifest = read(corpus["graphs"] / "manifest.csv").splitlines()[1:]
        assert names == [line.split(",")[1] for line in manifest]
        assert matrix.shape == (12, 15)
        assert categories[:6] == ["BA"] * 6

    def test_worker_count_never_changes_bytes(self, tmp_path, corpus):
        outs = []
        for workers in ("1", "4"):
            out = tmp_path / f"f{workers}.csv"
            assert main(["features", str(corpus["graphs"] / "manifest.csv"),
                         "--out", str(out), "--workers", workers]) == 0
            outs.append(read(out))
        assert outs[0] == outs[1]
        assert outs[0] == read(corpus["features"])

    def test_partial_failure_keeps_good_rows(self, tmp_path, corpus, capsys):
        manifest = tmp_path / "m.csv"
        graphs = corpus["graphs"]
        manifest.write_text(
            "path,name,category\n"
            f"{graphs / 'ba_0000.edges'},ok,BA\n"
            f"{tmp_path / 'missing.edges'},gone,ER\n"
            f"{graphs / 'er_0006.edges'},ok2,ER\n"
            f"{tmp_path / 'absent.edges'},lost,BA\n",
            encoding="utf-8",
        )
        runs = []
        for workers in ("1", "2"):
            out = tmp_path / f"f{workers}.csv"
            assert main(["features", str(manifest), "--out", str(out),
                         "--workers", workers]) == 2
            err = capsys.readouterr().err.splitlines()
            assert [line.split(":")[1] for line in err] == [" gone", " lost"]
            runs.append((read(out), err))
        names, _, _ = read_features_csv(io.StringIO(runs[0][0]))
        assert names == ["ok", "ok2"]
        assert runs[0] == runs[1]

    @needs_two_cpus
    def test_workers_run_in_separate_processes(self, tmp_path, corpus, monkeypatch):
        seen = tmp_path / "seen"
        seen.mkdir()
        monkeypatch.setattr(cli_module, "_extract_one",
                            functools.partial(_extract_noting_pid, seen))
        out = tmp_path / "f.csv"
        assert main(["features", str(corpus["graphs"] / "manifest.csv"),
                     "--out", str(out), "--workers", "2"]) == 0
        calls = [name.split("-", 1) for name in os.listdir(seen)]
        pids = {int(pid) for pid, _ in calls}
        assert len(calls) == 12
        assert len(pids) >= 2 and os.getpid() not in pids
        assert read(out) == read(corpus["features"])
        assert multiprocessing.active_children() == []

    @needs_two_cpus
    def test_dead_worker_exits_1(self, tmp_path, corpus, capsys, monkeypatch):
        # Stands in for a worker the OOM killer ends.
        monkeypatch.setattr(cli_module, "_extract_one", functools.partial(
            _extract_dying_on, os.getpid(), str(corpus["graphs"] / "er_0007.edges")))
        out = tmp_path / "f.csv"
        started = time.monotonic()
        assert main(["features", str(corpus["graphs"] / "manifest.csv"),
                     "--out", str(out), "--workers", "2"]) == 1
        assert time.monotonic() - started < 30
        assert "error: a worker process died" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not out.exists()

    def test_import_loads_no_pool_modules(self):
        # Every command pays for what importing the CLI loads.
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        loaded = subprocess.run(
            [sys.executable, "-c", "import sys, netclass.cli; print(sorted(m for m in "
             "sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"],
            env=env, check=True, capture_output=True, text=True).stdout
        assert loaded == "[]\n"

    @pytest.mark.parametrize("command", ["features", "predict"])
    def test_oversized_matrix_market_fails_one_graph(self, tmp_path, corpus, capsys, command):
        # 10**18 rows: an allocation that size is refused at once, never filled.
        huge = tmp_path / "huge.mtx"
        huge.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                        f"{10**18} {10**18} 0\n", encoding="utf-8")
        good = corpus["graphs"] / "ba_0000.edges"
        out = tmp_path / "out.csv"
        if command == "features":
            manifest = tmp_path / "m.csv"
            manifest.write_text(f"path,name,category\n{good},ok,BA\n{huge},huge,BA\n",
                                encoding="utf-8")
            argv = ["features", str(manifest), "--out", str(out)]
        else:
            argv = ["predict", str(corpus["model"]), str(good), str(huge), "--out", str(out)]
        assert main(argv) == 2
        assert f"{huge}: line 2: {10**18} rows exceed the limit" in capsys.readouterr().err
        assert len(read(out).splitlines()) == 2

    @pytest.mark.parametrize("command", ["features", "predict"])
    def test_matrix_market_without_dimensions_fails_one_graph(self, tmp_path, corpus, capsys,
                                                              command):
        # A graph file is one row of a batch, so it fails with exit 2, not 1.
        bad = tmp_path / "nodims.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate pattern general\n% no sizes\n",
                       encoding="utf-8")
        good = corpus["graphs"] / "ba_0000.edges"
        out = tmp_path / "out.csv"
        if command == "features":
            manifest = tmp_path / "m.csv"
            manifest.write_text(f"path,name,category\n{good},ok,BA\n{bad},bad,BA\n",
                                encoding="utf-8")
            argv = ["features", str(manifest), "--out", str(out)]
        else:
            argv = ["predict", str(corpus["model"]), str(good), str(bad), "--out", str(out)]
        assert main(argv) == 2
        assert f"{bad}: missing dimensions line" in capsys.readouterr().err
        assert len(read(out).splitlines()) == 2

    @pytest.mark.parametrize("command", ["features", "predict"])
    def test_unreadable_graph_names_its_path_once(self, tmp_path, corpus, capsys, command):
        missing = tmp_path / "missing.edges"
        latin1 = tmp_path / "latin1.edges"
        latin1.write_bytes(b"0 1\n# caf\xe9\n")
        good = corpus["graphs"] / "ba_0000.edges"
        out = tmp_path / "out.csv"
        if command == "features":
            manifest = tmp_path / "m.csv"
            manifest.write_text(f"path,name,category\n{good},ok,BA\n{missing},gone,ER\n"
                                f"{latin1},latin,ER\n", encoding="utf-8")
            argv = ["features", str(manifest), "--out", str(out)]
        else:
            argv = ["predict", str(corpus["model"]), str(good), str(missing), str(latin1),
                    "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"cannot read {missing}: No such file or directory" in err
        assert f"cannot read {latin1}: 'utf-8' codec can't decode byte 0xe9" in err
        assert err.count(str(missing)) == 1 and err.count(str(latin1)) == 1
        assert len(read(out).splitlines()) == 2

    @pytest.mark.parametrize("command", ["features", "predict"])
    def test_out_of_memory_graph_fails_alone(self, tmp_path, corpus, capsys, monkeypatch,
                                             command):
        good = corpus["graphs"] / "ba_0000.edges"
        huge = tmp_path / "huge.edges"
        huge.write_text("0 1\n", encoding="utf-8")
        real = cli_module.extract_features

        # The one-edge graph stands in for a graph too large for this machine.
        def extract(graph):
            if graph.edge_count == 1:
                raise MemoryError("Unable to allocate 7.45 GiB for an array")
            return real(graph)

        monkeypatch.setattr(cli_module, "extract_features", extract)
        out = tmp_path / "out.csv"
        if command == "features":
            manifest = tmp_path / "m.csv"
            manifest.write_text(f"path,name,category\n{good},ok,BA\n{huge},huge,BA\n",
                                encoding="utf-8")
            argv = ["features", str(manifest), "--out", str(out)]
        else:
            argv = ["predict", str(corpus["model"]), str(good), str(huge), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{huge}: not enough memory: Unable to allocate 7.45 GiB" in err
        assert len(read(out).splitlines()) == 2

    def test_matrix_market_input(self, tmp_path):
        mtx = tmp_path / "tri.mtx"
        mtx.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 3\n2 1\n3 1\n3 2\n",
            encoding="utf-8",
        )
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"path,name,category\ntri.mtx,tri,T\n", encoding="utf-8")
        out = tmp_path / "f.csv"
        assert main(["features", str(manifest), "--out", str(out)]) == 0
        names, _, matrix = read_features_csv(io.StringIO(read(out)))
        assert names == ["tri"] and matrix[0, 0] == 3.0 and matrix[0, 7] == 1.0

    def test_manifest_header_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("file,label\nx,y\n", encoding="utf-8")
        assert main(["features", str(manifest), "--out", str(tmp_path / "f.csv")]) == 1
        assert "manifest header" in capsys.readouterr().err

    def test_duplicate_name_rejected(self, tmp_path, corpus, capsys):
        good = corpus["graphs"] / "ba_0000.edges"
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            f"path,name,category\n{good},twin,BA\n{good},twin,BA\n", encoding="utf-8"
        )
        assert main(["features", str(manifest), "--out", str(tmp_path / "f.csv")]) == 1
        assert "duplicate name" in capsys.readouterr().err

    def test_header_only_manifest_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,name,category\n", encoding="utf-8")
        assert main(["features", str(manifest), "--out", str(tmp_path / "f.csv")]) == 1
        assert "no graphs" in capsys.readouterr().err

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_manifest_line_ends_never_change_bytes(self, tmp_path, corpus, end):
        lines = read(corpus["graphs"] / "manifest.csv").splitlines()
        rows = [lines[0]] + [os.path.join(corpus["graphs"], line) for line in lines[1:]]
        manifest = tmp_path / "m.csv"
        manifest.write_text(end.join(rows) + end, encoding="utf-8", newline="")
        out = tmp_path / "f.csv"
        assert main(["features", str(manifest), "--out", str(out)]) == 0
        assert out.read_bytes() == corpus["features"].read_bytes()

    def test_names_needing_quotes_survive_every_table(self, tmp_path, corpus):
        names = ["comma, inside", 'a "quoted" word', "two\nlines",
                 '"all", three\nat once', "plain", 'ends in "']
        graphs = ["ba_0000", "ba_0001", "ba_0002", "er_0006", "er_0007", "er_0008"]
        manifest = tmp_path / "m.csv"
        with open(manifest, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["path", "name", "category"])
            for graph, name in zip(graphs, names):
                writer.writerow([f"{corpus['graphs'] / graph}.edges", name, graph[:2]])
        features, embed, cluster = (tmp_path / f for f in ("f.csv", "e.csv", "c.csv"))
        assert main(["features", str(manifest), "--out", str(features)]) == 0
        assert main(["embed", str(features), "--out", str(embed),
                     "--perplexity", "1", "--iterations", "60"]) == 0
        assert main(["cluster", str(features), "--out", str(cluster), "--k", "2"]) == 0
        for table in (features, embed, cluster):
            with open(table, encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(handle))
            assert [row[0] for row in rows[1:]] == names, table.name


class TestTrainPredict:
    def test_model_document(self, corpus, capsys):
        doc = json.loads(read(corpus["model"]))
        assert doc["format"] == "netclass-forest"
        assert doc["version"] == 3
        assert doc["label_names"] == ["BA", "ER"]
        assert len(doc["trees"]) == 9

    def test_train_reports_accuracy(self, tmp_path, corpus, capsys):
        code = main(["train", str(corpus["features"]),
                     "--model-out", str(tmp_path / "m.json"), "--trees", "5"])
        assert code == 0
        assert "training accuracy" in capsys.readouterr().out

    def test_predict_stdout(self, corpus, capsys):
        graph = str(corpus["graphs"] / "er_0006.edges")
        code = main(["predict", str(corpus["model"]), graph, graph])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "path,predicted,votes_BA,votes_ER"
        assert lines[1] == lines[2]
        predicted, ba, er = lines[1].split(",")[1:]
        assert predicted in {"BA", "ER"}
        assert int(ba) + int(er) == 9

    def test_predict_partial_failure(self, tmp_path, corpus, capsys):
        good = str(corpus["graphs"] / "ba_0001.edges")
        out = tmp_path / "pred.csv"
        code = main(["predict", str(corpus["model"]), good,
                     str(tmp_path / "absent.edges"), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "absent.edges" in captured.err
        assert len(read(out).splitlines()) == 2

    def test_predict_rejects_bad_model(self, tmp_path, corpus, capsys):
        bad = tmp_path / "notamodel.json"
        bad.write_text('{"format": "something-else"}\n', encoding="utf-8")
        graph = str(corpus["graphs"] / "ba_0000.edges")
        assert main(["predict", str(bad), graph]) == 1
        assert "model" in capsys.readouterr().err

        good = json.loads(read(corpus["model"]))
        leaf = good["trees"][0]["feature"].index(-1)

        def edited(path, value):
            doc = json.loads(read(corpus["model"]))
            *keys, last = path
            target = doc
            for key in keys:
                target = target[key]
            target[last] = value
            return json.dumps(doc)

        cases = {
            "feature index 99": (
                edited(["trees", 0, "feature", 0], 99), "feature index outside"),
            "one count per leaf": (
                edited(["trees", 0, "counts", leaf], [1]), "malformed"),
            "three counts per leaf": (
                edited(["trees", 0, "counts", leaf], [1, 0, 0]), "malformed"),
            "all nodes three counts": (
                edited(["trees", 0, "counts"],
                       [c + [0] for c in good["trees"][0]["counts"]]), "2 counts"),
            "child loops to parent": (
                edited(["trees", 0, "left", 0], 0), "child index"),
            "no trees": (edited(["trees"], []), "no trees"),
            "version 1": (edited(["version"], 1), "retrain"),
            "version 2": (edited(["version"], 2), "retrain"),
            "nested 5000 deep": (
                '{"format":"netclass-forest","version":2,"trees":'
                + "[" * 5000 + "]" * 5000 + "}", "not valid JSON"),
            "NaN threshold": (edited(["trees", 0, "threshold", 0], float("nan")), "finite"),
            "count of -1": (edited(["trees", 0, "counts", leaf, 0], -1), "at least 0"),
            "fractional feature index": (
                edited(["trees", 0, "feature", 0], good["trees"][0]["feature"][0] + 0.5),
                "whole numbers"),
            "fractional child index": (
                edited(["trees", 0, "left", 0], good["trees"][0]["left"][0] + 0.5),
                "whole numbers"),
            "fractional count": (
                edited(["trees", 0, "counts", leaf, 0], good["trees"][0]["counts"][leaf][0] + 0.5),
                "whole numbers"),
            "label_names a string": (
                edited(["label_names"], "".join(map(str, range(len(good["label_names"]))))),
                "list of strings"),
            "label_names numbers": (
                edited(["label_names"], list(range(len(good["label_names"])))),
                "list of strings"),
            "label_names repeated": (
                edited(["label_names"], ["BA", "BA"]), "distinct, non-empty"),
            "label_names empty": (edited(["label_names"], ["", "ER"]), "distinct, non-empty"),
            "log_flags strings": (
                edited(["params", "log_flags"], ["no"] * len(FEATURE_NAMES)),
                "list of booleans"),
            "log_flags one too many": (
                edited(["params", "log_flags"], good["params"]["log_flags"] + [False]),
                f"{bad.name}: the model takes 16 features, but a graph gives 15"),
            "params trees a string": (edited(["params", "trees"], "7"), "must be integers"),
            "params trees one more than stored": (
                edited(["params", "trees"], len(good["trees"]) + 1),
                f"holds {len(good['trees'])} trees"),
            "min_split 2.9": (edited(["params", "min_split"], 2.9), "must be integers"),
            "min_split 1": (edited(["params", "min_split"], 1), "min_split must be at least 2"),
            "features_per_split true": (
                edited(["params", "features_per_split"], True), "must be integers"),
            "features_per_split 99": (
                edited(["params", "features_per_split"], 99), "features_per_split 99 outside"),
        }
        for name, (text, message) in cases.items():
            bad.write_text(text, encoding="utf-8")
            assert main(["predict", str(bad), graph]) == 1, name
            assert message in capsys.readouterr().err, name

        # The model's width is checked before any graph is read.
        bad.write_text(cases["log_flags one too many"][0], encoding="utf-8")
        assert main(["predict", str(bad), str(tmp_path / "absent.edges")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: the model takes 16 features, but a graph gives 15"]

    def test_internal_errors_map_to_3(self, tmp_path, corpus, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli_module, "forest_train", boom)
        code = main(["train", str(corpus["features"]),
                     "--model-out", str(tmp_path / "m.json")])
        assert code == 3
        assert "internal error" in capsys.readouterr().err


class TestEvaluate:
    def test_writes_reports(self, tmp_path, corpus, capsys):
        out_dir = tmp_path / "reports"
        code = main(["evaluate", str(corpus["features"]), "--out-dir", str(out_dir),
                     "--folds", "3", "--trees", "9"])
        assert code == 0
        assert "cv accuracy" in capsys.readouterr().out
        confusion = read(out_dir / "confusion.csv")
        assert confusion.splitlines()[0] == "category,BA,ER"
        total = sum(
            int(v) for line in confusion.splitlines()[1:] for v in line.split(",")[1:]
        )
        assert total == 12
        assert "accuracy" in read(out_dir / "confusion.txt")
        header = read(out_dir / "misclassified.csv").splitlines()[0]
        assert header == "name,category,predicted,votes_BA,votes_ER"

    def test_too_many_folds(self, tmp_path, corpus, capsys):
        code = main(["evaluate", str(corpus["features"]),
                     "--out-dir", str(tmp_path), "--folds", "50"])
        assert code == 1
        assert "cannot split" in capsys.readouterr().err


class TestEmbedCluster:
    def test_embed_output(self, tmp_path, corpus):
        out = tmp_path / "embed.csv"
        argv = ["embed", str(corpus["features"]), "--out", str(out),
                "--perplexity", "2", "--iterations", "150"]
        assert main(argv) == 0
        lines = read(out).splitlines()
        assert lines[0] == "name,category,x,y"
        assert len(lines) == 13
        coords = np.array([[float(v) for v in line.split(",")[2:]] for line in lines[1:]])
        assert np.all(np.isfinite(coords))
        rerun = tmp_path / "embed2.csv"
        assert main(argv[:2] + ["--out", str(rerun)] + argv[4:]) == 0
        assert read(out) == read(rerun)

    def test_embed_perplexity_guard(self, tmp_path, corpus, capsys):
        code = main(["embed", str(corpus["features"]), "--out", str(tmp_path / "e.csv")])
        assert code == 1
        assert "perplexity" in capsys.readouterr().err

    def test_cluster_assignments(self, tmp_path, corpus):
        out = tmp_path / "clusters.csv"
        overlap = tmp_path / "overlap.txt"
        code = main(["cluster", str(corpus["features"]), "--out", str(out),
                     "--k", "2", "--overlap-out", str(overlap)])
        assert code == 0
        lines = read(out).splitlines()
        assert lines[0] == "name,category,cluster"
        clusters = {line.split(",")[2] for line in lines[1:]}
        assert clusters <= {"0", "1"}
        text = read(overlap)
        assert "purity" in text
        assert "merge candidates" in text

    def test_cluster_k_exceeds_rows(self, tmp_path, corpus, capsys):
        code = main(["cluster", str(corpus["features"]),
                     "--out", str(tmp_path / "c.csv"), "--k", "40"])
        assert code == 1
        assert "k must be" in capsys.readouterr().err

    def test_overlap_requires_labels(self, tmp_path, corpus, capsys):
        stripped = tmp_path / "unlabeled.csv"
        lines = read(corpus["features"]).splitlines()
        body = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            cells[1] = ""
            body.append(",".join(cells))
        stripped.write_text("\n".join(body) + "\n", encoding="utf-8")
        code = main(["cluster", str(stripped), "--out", str(tmp_path / "c.csv"),
                     "--k", "2", "--overlap-out", str(tmp_path / "o.txt")])
        assert code == 1
        assert "no labeled rows" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()


class TestValuesNearTheFloatLimit:
    """A finite table whose avg_degree holds 1e308 and 1.7e308: their mean
    and std overflow, and the midpoint between them too."""

    @pytest.fixture
    def table(self, tmp_path):
        path = tmp_path / "huge.csv"
        rows = [feature_line(f"g{i}", "BA" if i % 2 else "ER",
                             avg_degree="1e308" if i % 2 else "1.7e308") for i in range(6)]
        path.write_text("\n".join([CSV_HEADER] + rows) + "\n", encoding="utf-8")
        return path

    def test_train_and_evaluate_succeed(self, table, tmp_path, capsys):
        assert main(["train", str(table), "--model-out", str(tmp_path / "m.json"),
                     "--trees", "5"]) == 0
        assert "training accuracy 1.000000" in capsys.readouterr().out
        assert main(["evaluate", str(table), "--out-dir", str(tmp_path / "reports"),
                     "--trees", "5", "--folds", "3"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["embed", "cluster"])
    def test_standardizing_names_the_file_and_column(self, table, tmp_path, capsys, command):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, str(table), "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {table}: cannot standardize column 5 (avg_degree): "
                       "its mean or std overflows"]
        assert not (tmp_path / "out.csv").exists()
