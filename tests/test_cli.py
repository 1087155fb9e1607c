import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import balancepack
from balancepack import cli
from balancepack.concepts import ConceptVocabulary, save_embeddings, save_vocabulary
from balancepack.packing import load_plan


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_echo(outdir):
    return json.loads((outdir / "config.json").read_text())


def dir_bytes(path):
    return {
        p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()
    }


@pytest.fixture
def synth_dir(tmp_path, capsys):
    out = tmp_path / "synth"
    code, _, _ = run_cli(
        ["synth", "--output", str(out), "--n", "400", "--vocab-size", "50", "--k", "3",
         "--seed", "5"],
        capsys,
    )
    assert code == 0
    return out


def test_synth_writes_outputs_and_echo(synth_dir):
    assert (synth_dir / "manifest.jsonl").exists()
    assert (synth_dir / "assignments.jsonl").exists()
    echo = read_echo(synth_dir)
    assert echo["command"] == "synth"
    assert echo["params"]["n"] == 400
    assert echo["params"]["seed"] == 5
    assert "output" not in echo["params"]


def test_synth_rerun_is_byte_identical(tmp_path, capsys, synth_dir):
    echo = read_echo(synth_dir)
    out2 = tmp_path / "again"
    code, _, _ = run_cli(cli.echo_to_argv(echo, str(out2)), capsys)
    assert code == 0
    assert dir_bytes(synth_dir) == dir_bytes(out2)


def test_pack_worked_example_matches_ffd(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    lines = [
        {"id": f"s{i}", "source": "web", "length": length}
        for i, length in enumerate([5, 5, 4, 3, 3])
    ]
    manifest.write_text("".join(json.dumps(o) + "\n" for o in lines))
    out = tmp_path / "packed"
    code, _, _ = run_cli(
        ["pack", "--output", str(out), "--input", str(manifest), "--capacity", "10",
         "--strategy", "ffd"],
        capsys,
    )
    assert code == 0
    plan = load_plan(out / "plan.jsonl")
    assert [[it.length for it in p] for p in plan.packs] == [[5, 5], [4, 3, 3]]
    stats = json.loads((out / "stats.json").read_text())["stats"]
    assert stats["compression_ratio"] == 2.5
    assert stats["utilization"] == 1.0


def test_pack_threads_do_not_change_bytes(tmp_path, capsys, synth_dir):
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"pack-t{threads}"
        code, _, _ = run_cli(
            ["pack", "--output", str(out), "--input", str(synth_dir / "manifest.jsonl"),
             "--capacity", "2048", "--shards", "4", "--threads", threads, "--seed", "3"],
            capsys,
        )
        assert code == 0
        outs.append(dir_bytes(out))
    assert outs[0] == outs[1]


def test_weigh_sample_coverage_chain(tmp_path, capsys, synth_dir):
    weigh_dir = tmp_path / "weigh"
    code, _, _ = run_cli(
        ["weigh", "--output", str(weigh_dir), "--input", str(synth_dir / "assignments.jsonl"),
         "--vocab-size", "50"],
        capsys,
    )
    assert code == 0

    sample_dir = tmp_path / "sample"
    code, _, _ = run_cli(
        ["sample", "--output", str(sample_dir), "--input", str(weigh_dir / "weights.jsonl"),
         "--n", "100", "--seed", "5"],
        capsys,
    )
    assert code == 0
    lines = (sample_dir / "sampled.txt").read_text().splitlines()
    assert lines[0].startswith("# seed=5 n=100")
    assert len(lines) == 101

    cov_dir = tmp_path / "cov"
    code, _, _ = run_cli(
        ["coverage", "--output", str(cov_dir), "--input", str(synth_dir / "assignments.jsonl"),
         "--vocab-size", "50", "--subset", str(sample_dir / "sampled.txt")],
        capsys,
    )
    assert code == 0
    report = json.loads((cov_dir / "report.json").read_text())
    assert report["num_samples"] == 100
    assert 0 < report["coverage"] <= 1
    csv_lines = (cov_dir / "coverage.csv").read_text().splitlines()
    assert csv_lines[0] == "rank,count"
    assert len(csv_lines) == 51


def test_coverage_subset_with_replacement_matches_pipeline_report(tmp_path, capsys):
    pipe = tmp_path / "pipe"
    code, _, _ = run_cli(
        ["pipeline", "--output", str(pipe), "--n", "300", "--vocab-size", "40", "--k", "3",
         "--seed", "11", "--sample-n", "250", "--replacement"],
        capsys,
    )
    assert code == 0
    sampled = [int(x) for x in (pipe / "sampled.txt").read_text().splitlines()[1:]]
    assert len(set(sampled)) < len(sampled)  # the draw repeats indices

    cov = tmp_path / "cov"
    code, _, _ = run_cli(
        ["coverage", "--output", str(cov), "--input", str(pipe / "assignments.jsonl"),
         "--vocab-size", "40", "--subset", str(pipe / "sampled.txt")],
        capsys,
    )
    assert code == 0
    report = json.loads((cov / "report.json").read_text())
    balanced = json.loads((pipe / "report.json").read_text())["balanced"]
    assert report["num_samples"] == 250
    assert {key: report[key] for key in balanced} == balanced


@pytest.mark.parametrize("bad", ["-1", "400"])
def test_coverage_subset_rejects_out_of_range_index(tmp_path, capsys, synth_dir, bad):
    subset = tmp_path / "subset.txt"
    subset.write_text(f"# seed=0 n=2 replacement=false\n3\n{bad}\n")
    code, _, err = run_cli(
        ["coverage", "--output", str(tmp_path / "cov"), "--input",
         str(synth_dir / "assignments.jsonl"), "--vocab-size", "50", "--subset", str(subset)],
        capsys,
    )
    assert code == 1
    assert f"sampled index {bad} out of range [0, 400)" in err


def test_sample_n_too_large_names_bound(tmp_path, capsys, synth_dir):
    weigh_dir = tmp_path / "weigh"
    run_cli(
        ["weigh", "--output", str(weigh_dir), "--input", str(synth_dir / "assignments.jsonl"),
         "--vocab-size", "50"],
        capsys,
    )
    code, _, err = run_cli(
        ["sample", "--output", str(tmp_path / "s"), "--input",
         str(weigh_dir / "weights.jsonl"), "--n", "1000", "--seed", "1"],
        capsys,
    )
    assert code != 0
    obj = json.loads(err.strip())
    assert obj["command"] == "sample"
    assert "n=1000" in obj["error"] and "400" in obj["error"]


def test_stats_subcommand_recomputes(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"id":"a","source":"w","length":8}\n')
    pack_dir = tmp_path / "p"
    run_cli(
        ["pack", "--output", str(pack_dir), "--input", str(manifest), "--capacity", "10",
         "--strategy", "ffd"],
        capsys,
    )
    stats_dir = tmp_path / "st"
    code, _, _ = run_cli(
        ["stats", "--output", str(stats_dir), "--input", str(pack_dir / "plan.jsonl"),
         "--min-utilization", "0.9"],
        capsys,
    )
    assert code == 0
    stats = json.loads((stats_dir / "stats.json").read_text())["stats"]
    assert stats["success_rate"] == 0.0
    assert stats["utilization"] == 0.8


def test_stats_config_holds_only_what_the_plan_records(tmp_path, capsys, synth_dir):
    pack_dir = tmp_path / "p"
    code, _, _ = run_cli(
        ["pack", "--output", str(pack_dir), "--input", str(synth_dir / "manifest.jsonl"),
         "--capacity", "2048", "--shards", "8", "--seed", "3", "--max-sources-per-pack", "2",
         "--max-samples-per-pack", "4"],
        capsys,
    )
    assert code == 0
    stats_dir = tmp_path / "st"
    code, _, _ = run_cli(
        ["stats", "--output", str(stats_dir), "--input", str(pack_dir / "plan.jsonl"),
         "--min-utilization", "0.5"],
        capsys,
    )
    assert code == 0
    stats = json.loads((stats_dir / "stats.json").read_text())
    assert stats["config"] == {"capacity": 2048, "min_utilization": 0.5}


def test_assign_cli_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(0)
    images = rng.standard_normal((20, 8)).astype(np.float32)
    vocab = ConceptVocabulary(
        names=[f"c{i}" for i in range(10)],
        embeddings=rng.standard_normal((10, 8)).astype(np.float32),
    )
    save_embeddings(tmp_path / "img.emb", images)
    save_vocabulary(tmp_path / "v.tsv", tmp_path / "v.emb", vocab)
    out = tmp_path / "assign"
    code, _, _ = run_cli(
        ["assign", "--output", str(out), "--input", str(tmp_path / "img.emb"),
         "--vocab-names", str(tmp_path / "v.tsv"), "--vocab-emb", str(tmp_path / "v.emb"),
         "--k", "4"],
        capsys,
    )
    assert code == 0
    lines = (out / "assignments.jsonl").read_text().splitlines()
    assert len(lines) == 20
    rec = json.loads(lines[0])
    assert len(rec["c"]) == 4


def test_pipeline_report_and_schema(tmp_path, capsys):
    out = tmp_path / "pipe"
    code, _, _ = run_cli(
        ["pipeline", "--output", str(out), "--n", "3000", "--vocab-size", "200", "--k", "3",
         "--capacity", "2048", "--seed", "2"],
        capsys,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(report, cli.REPORT_SCHEMA)
    assert report["balanced"]["entropy_bits"] > report["unbalanced"]["entropy_bits"]
    for name in ("manifest.jsonl", "assignments.jsonl", "weights.jsonl", "sampled.txt",
                 "plan.jsonl", "stats.json", "report.json", "config.json"):
        assert (out / name).exists()


def test_config_echo_params_of_every_subcommand(tmp_path, capsys):
    # The full echo of each subcommand: every flag that shapes the output,
    # under its flag name, and nothing else (no --output, no --threads).
    synth_params = {
        "n": 200, "vocab-size": 30, "k": 3, "zipf": 1.5, "length-mu": math.log(700.0),
        "length-sigma": 0.35, "length-min": 32, "length-max": 8192,
        "sources": "web=0.5,docs=0.3,images=0.2", "seed": 4,
    }
    pack_params = {
        "capacity": 2048, "strategy": "bucket", "buckets": 6, "min-utilization": 0.9,
        "max-samples-per-pack": None, "max-sources-per-pack": 2, "shards": 3, "seed": 7,
    }
    rng = np.random.default_rng(0)
    save_embeddings(tmp_path / "img.emb", rng.standard_normal((6, 4)).astype(np.float32))
    save_vocabulary(
        tmp_path / "v.tsv",
        tmp_path / "v.emb",
        ConceptVocabulary(
            names=[f"c{i}" for i in range(5)],
            embeddings=rng.standard_normal((5, 4)).astype(np.float32),
        ),
    )
    d = {name: tmp_path / name for name in
         ("synth", "assign", "weigh", "sample", "pack", "stats", "coverage", "pipeline")}
    runs = {
        "synth": (
            ["--n", "200", "--vocab-size", "30", "--k", "3", "--seed", "4", "--threads", "2"],
            synth_params,
        ),
        "assign": (
            ["--input", str(tmp_path / "img.emb"), "--vocab-names", str(tmp_path / "v.tsv"),
             "--vocab-emb", str(tmp_path / "v.emb"), "--k", "2"],
            {"input": str(tmp_path / "img.emb"), "vocab-names": str(tmp_path / "v.tsv"),
             "vocab-emb": str(tmp_path / "v.emb"), "k": 2},
        ),
        "weigh": (
            ["--input", str(d["synth"] / "assignments.jsonl"), "--vocab-size", "30",
             "--mode", "sum"],
            {"input": str(d["synth"] / "assignments.jsonl"), "vocab-size": 30, "mode": "sum"},
        ),
        "sample": (
            ["--input", str(d["weigh"] / "weights.jsonl"), "--n", "40", "--seed", "9",
             "--replacement"],
            {"input": str(d["weigh"] / "weights.jsonl"), "n": 40, "seed": 9,
             "replacement": True},
        ),
        "pack": (
            ["--input", str(d["synth"] / "manifest.jsonl"), "--capacity", "2048",
             "--max-sources-per-pack", "2", "--shards", "3", "--seed", "7"],
            {"input": str(d["synth"] / "manifest.jsonl"), **pack_params},
        ),
        "stats": (
            ["--input", str(d["pack"] / "plan.jsonl"), "--min-utilization", "0.5"],
            {"input": str(d["pack"] / "plan.jsonl"), "min-utilization": 0.5},
        ),
        "coverage": (
            ["--input", str(d["synth"] / "assignments.jsonl"), "--vocab-size", "30"],
            {"input": str(d["synth"] / "assignments.jsonl"), "vocab-size": 30, "subset": None},
        ),
        "pipeline": (
            ["--n", "200", "--vocab-size", "30", "--k", "3", "--seed", "7", "--capacity", "2048",
             "--max-sources-per-pack", "2", "--shards", "3"],
            # sample-n is echoed resolved: the default n // 10.
            {**synth_params, **pack_params, "sample-n": 20, "replacement": False},
        ),
    }
    for command, (flags, params) in runs.items():
        code, _, err = run_cli([command, "--output", str(d[command]), *flags], capsys)
        assert code == 0, err
        assert read_echo(d[command]) == {"command": command, "params": params}, command


def test_pipeline_rejects_n_zero_before_running(tmp_path, capsys):
    out = tmp_path / "pipe0"
    code, _, err = run_cli(["pipeline", "--output", str(out), "--n", "0"], capsys)
    assert code != 0
    obj = json.loads(err.strip())
    assert obj["stage"] == "config"
    assert not (out / "manifest.jsonl").exists()


def test_unknown_flag_is_structured_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["synth", "--output", str(tmp_path / "x"), "--n", "5", "--frobnicate"], capsys
    )
    assert code == 2
    obj = json.loads(err.strip())
    assert "error" in obj


def test_missing_input_is_structured_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["weigh", "--output", str(tmp_path / "w"), "--input", str(tmp_path / "nope.jsonl"),
         "--vocab-size", "5"],
        capsys,
    )
    assert code == 1
    obj = json.loads(err.strip())
    assert obj["command"] == "weigh"


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "script"
    # The child imports the same balancepack sources as this test, also
    # when pytest put them on sys.path itself rather than via PYTHONPATH.
    src = str(Path(balancepack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "balancepack.cli", "synth", "--output", str(out),
         "--n", "50", "--vocab-size", "10", "--k", "2", "--seed", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.jsonl").exists()
    assert "[synth]" in proc.stdout
