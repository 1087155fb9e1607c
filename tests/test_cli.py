import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import packing_oracle as oracle
import pytest

import balancepack
from balancepack import cli
from balancepack.balance import load_sampled_indices
from balancepack.concepts import ConceptVocabulary, save_embeddings, save_vocabulary
from balancepack.packing import PackingConfig, PackItem, PackPlan, load_plan, packing_stats


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


def test_pack_and_stats_build_no_row_objects(tmp_path, capsys, monkeypatch, synth_dir):
    # Items and plans stay columns from reading to writing: count every
    # PackItem and SampleRecord constructed while pack and stats run.
    from balancepack import manifest, packing

    built = []
    for cls in (packing.PackItem, manifest.SampleRecord):
        real = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, real=real: built.append(type(self)) or real(self)
        )
    pack_dir, stats_dir = tmp_path / "p", tmp_path / "st"
    for argv in (
        ["pack", "--output", str(pack_dir), "--input", str(synth_dir / "manifest.jsonl"),
         "--capacity", "2048", "--shards", "4", "--max-sources-per-pack", "2",
         "--max-samples-per-pack", "4"],
        ["stats", "--output", str(stats_dir), "--input", str(pack_dir / "plan.jsonl")],
    ):
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
    assert built == []
    # The counter sees rows where they are built: the plan's row views.
    plan = load_plan(pack_dir / "plan.jsonl")
    assert built == [] and plan.packs
    assert built == [packing.PackItem] * len(plan.packed)


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


def test_coverage_subset_index_beyond_int64_is_one_json_error(tmp_path, capsys, synth_dir):
    subset = tmp_path / "subset.txt"
    subset.write_text("# seed=0 n=2 replacement=false\n3\n99999999999999999999\n")
    code, _, err = run_cli(
        ["coverage", "--output", str(tmp_path / "cov"), "--input",
         str(synth_dir / "assignments.jsonl"), "--vocab-size", "50", "--subset", str(subset)],
        capsys,
    )
    assert code == 1
    assert json.loads(err) == {
        "error": f"{subset}: line 3: '99999999999999999999\\n' is not an index line",
        "command": "coverage",
    }


@pytest.mark.parametrize(
    "capacity, packs, fault",
    [
        (10, [[PackItem("a", 4)], [PackItem("a", 4)]], "partition violation: sample 'a' repeated"),
        (2**70, [], f"capacity={2**70} is beyond the int64 range"),
    ],
)
def test_stats_names_the_plan_of_a_whole_plan_fault_in_its_one_json_error(
    tmp_path, capsys, capacity, packs, fault
):
    # emit_plan refuses these plans; an empty plan's stats do not depend on its capacity.
    plan = tmp_path / "bad.jsonl"
    stats = packing_stats(PackPlan.of(10, packs), PackingConfig(capacity=10)).to_dict()
    oracle.emit_plan(plan, capacity, packs, [], stats)
    code, _, err = run_cli(
        ["stats", "--output", str(tmp_path / "stats"), "--input", str(plan)], capsys
    )
    assert code == 1
    assert json.loads(err) == {"error": f"{plan}: {fault}", "command": "stats"}


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


def test_assign_names_a_late_non_finite_image_before_any_vocabulary_fault(tmp_path, capsys):
    # The image file is read one block at a time, but all of it is checked
    # on opening, before the vocabulary is read: a NaN in its last block is
    # reported, not the vocabulary's other dimension.
    from balancepack.concepts import _ROW_BLOCK

    rng = np.random.default_rng(1)
    n = 3 * _ROW_BLOCK + 5
    save_embeddings(tmp_path / "img.emb", rng.standard_normal((n, 8)).astype(np.float32))
    data = bytearray((tmp_path / "img.emb").read_bytes())
    element = (n - 1) * 8 + 6
    data[12 + element * 4 : 16 + element * 4] = np.float32(np.nan).tobytes()
    (tmp_path / "img.emb").write_bytes(bytes(data))
    vocab = ConceptVocabulary(
        names=[f"c{i}" for i in range(10)],
        embeddings=rng.standard_normal((10, 5)).astype(np.float32),
    )
    save_vocabulary(tmp_path / "v.tsv", tmp_path / "v.emb", vocab)
    argv = ["assign", "--output", str(tmp_path / "out"), "--input", str(tmp_path / "img.emb"),
            "--vocab-names", str(tmp_path / "v.tsv"), "--vocab-emb", str(tmp_path / "v.emb"),
            "--k", "99"]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert json.loads(err)["error"] == (
        f"{tmp_path / 'img.emb'}: non-finite value at byte {12 + element * 4} (element {element})"
    )
    # With the NaN gone, the dimension mismatch comes before the k range.
    data[12 + element * 4 : 16 + element * 4] = np.float32(1.0).tobytes()
    (tmp_path / "img.emb").write_bytes(bytes(data))
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert json.loads(err)["error"].startswith("dimension mismatch: images have dim 8")
    assert not (tmp_path / "out" / "assignments.jsonl").exists()


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
            ["--n", "200", "--vocab-size", "30", "--k", "3", "--seed", "4"],
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


def test_pipeline_names_the_synth_stage_when_synth_fails(tmp_path, capsys):
    out = tmp_path / "pipe"
    code, _, err = run_cli(
        ["pipeline", "--output", str(out), "--n", "50", "--zipf", "300", "--k", "30"], capsys
    )
    assert code == 1
    obj = json.loads(err.strip())
    assert obj["stage"] == "synth"
    assert "fewer than k=30" in obj["error"]
    assert not (out / "manifest.jsonl").exists()


def test_synth_refuses_k_beyond_the_positive_concept_weights_at_k_equal_to_the_vocabulary(
    tmp_path, capsys
):
    # Zipf(400) weights underflow to 0 past rank 6, so no draw of all 20 concepts exists.
    out = tmp_path / "synth"
    code, _, err = run_cli(
        ["synth", "--output", str(out), "--n", "10", "--k", "20", "--vocab-size", "20",
         "--zipf", "400"],
        capsys,
    )
    assert code == 1
    assert json.loads(err)["error"] == "only 6 of 20 concept weights are positive, fewer than k=20"
    assert not (out / "manifest.jsonl").exists()


def test_synth_names_a_length_max_beyond_the_int64_range(tmp_path, capsys):
    out = tmp_path / "synth"
    code, _, err = run_cli(
        ["synth", "--output", str(out), "--n", "3", "--length-mu", "60", "--length-sigma", "0",
         "--length-max", "1000000000000000000000000000000"],
        capsys,
    )
    assert code == 1
    assert json.loads(err)["error"].startswith(
        "length_max=1000000000000000000000000000000 is beyond the int64 range"
    )
    assert not (out / "manifest.jsonl").exists()


@pytest.mark.parametrize(
    "flag, value", [("--capacity", "99999999999999999999"), ("--shards", str(2**64))]
)
def test_pack_flags_beyond_the_int64_range_are_named(tmp_path, capsys, synth_dir, flag, value):
    want = f"{flag[2:]}={value} is beyond the int64 range"
    out = tmp_path / "pack"
    code, _, err = run_cli(
        ["pack", "--output", str(out), "--input", str(synth_dir / "manifest.jsonl"), flag, value],
        capsys,
    )
    assert code == 1
    assert json.loads(err) == {"error": want, "command": "pack"}
    assert not (out / "plan.jsonl").exists()
    out = tmp_path / "pipe"
    code, _, err = run_cli(["pipeline", "--output", str(out), "--n", "20", flag, value], capsys)
    assert code == 1
    assert json.loads(err) == {"error": want, "command": "pipeline", "stage": "config"}
    assert not (out / "manifest.jsonl").exists()


def test_a_run_that_fails_part_way_writes_no_echo(tmp_path, capsys, synth_dir):
    # An output path taken by a directory makes the writer fail after the
    # files before it were written; config.json is written only after all.
    out = tmp_path / "pipe"
    (out / "plan.jsonl").mkdir(parents=True)
    code, _, err = run_cli(["pipeline", "--output", str(out), "--n", "200"], capsys)
    assert code == 1
    assert json.loads(err)["command"] == "pipeline"
    assert json.loads(err)["stage"] == "pack"
    for name in ("manifest.jsonl", "assignments.jsonl", "weights.jsonl", "sampled.txt",
                 "sampled_uniform.txt"):
        assert (out / name).is_file(), name
    assert not (out / "config.json").exists()
    assert not list(out.glob(".*.partial"))

    out = tmp_path / "packed"
    (out / "stats.json").mkdir(parents=True)
    code, _, err = run_cli(
        ["pack", "--output", str(out), "--input", str(synth_dir / "manifest.jsonl")], capsys
    )
    assert code == 1
    assert json.loads(err)["command"] == "pack"
    assert (out / "plan.jsonl").is_file()
    assert not (out / "config.json").exists()
    assert not list(out.glob(".*.partial"))


def test_a_failed_rerun_into_a_used_directory_leaves_no_echo(tmp_path, capsys):
    # The echo of a complete first run must not vouch for the files a
    # failed second run left next to it.
    out = tmp_path / "pipe"
    code, _, _ = run_cli(["pipeline", "--output", str(out), "--n", "2000", "--seed", "1"], capsys)
    assert code == 0 and read_echo(out)["params"]["seed"] == 1
    (out / "plan.jsonl").unlink()
    (out / "plan.jsonl").mkdir()
    code, _, err = run_cli(["pipeline", "--output", str(out), "--n", "3000", "--seed", "2"], capsys)
    assert code == 1 and json.loads(err)["stage"] == "pack"
    assert len((out / "manifest.jsonl").read_text().splitlines()) == 3000
    assert not (out / "config.json").exists()
    assert not list(out.glob(".*.partial"))


def test_a_rerun_into_a_used_directory_keeps_every_byte(tmp_path, capsys):
    argv = ["pipeline", "--n", "300", "--seed", "4"]
    assert run_cli([*argv, "--output", str(tmp_path / "fresh")], capsys)[0] == 0
    assert run_cli([*argv, "--output", str(tmp_path / "used"), "--seed", "5"], capsys)[0] == 0
    assert run_cli([*argv, "--output", str(tmp_path / "used")], capsys)[0] == 0
    assert dir_bytes(tmp_path / "used") == dir_bytes(tmp_path / "fresh")


def test_pipeline_with_replacement_writes_a_plan_stats_can_read(tmp_path, capsys):
    # 400 draws from 200 samples repeat some; each drawn sample is packed once.
    out = tmp_path / "pipe"
    code, _, err = run_cli(
        ["pipeline", "--output", str(out), "--n", "200", "--sample-n", "400", "--replacement",
         "--seed", "3", "--shards", "2"],
        capsys,
    )
    assert code == 0, err
    drawn = load_sampled_indices(out / "sampled.txt")
    assert drawn.size == 400 and np.unique(drawn).size < 400
    ids = [json.loads(line)["id"] for line in (out / "manifest.jsonl").read_text().splitlines()]
    plan = load_plan(out / "plan.jsonl")
    assert sorted(plan.packed.ids + plan.overflowed.ids) == sorted({ids[i] for i in drawn})
    report = json.loads((out / "report.json").read_text())
    assert report["packing"]["num_samples"] == np.unique(drawn).size
    assert sum(report["balanced"]["sorted_counts"]) == 400 * 5  # k = 5 concepts per draw

    code, _, err = run_cli(
        ["stats", "--output", str(tmp_path / "stats"), "--input", str(out / "plan.jsonl")], capsys
    )
    assert code == 0, err


def test_sharded_pack_takes_an_id_with_a_lone_surrogate(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        '{"id":"\\ud800","length":3}\n{"id":"a","length":4}\n{"id":"b\\udfff","length":9}\n'
    )
    out = tmp_path / "packed"
    code, _, err = run_cli(
        ["pack", "--output", str(out), "--input", str(manifest), "--capacity", "10",
         "--shards", "2"],
        capsys,
    )
    assert code == 0, err
    plan = load_plan(out / "plan.jsonl")
    assert {it.sample_id for p in plan.packs for it in p} == {"\ud800", "a", "b\udfff"}


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


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["assign", "pack", "pipeline"])
def test_threads_below_one_is_the_one_json_error(tmp_path, capsys, command, threads):
    # Every other flag is valid or absent: no input is read before the refusal.
    args = {
        "assign": ["--input", "i.emb", "--vocab-names", "v.tsv", "--vocab-emb", "v.emb"],
        "pack": ["--input", str(tmp_path / "manifest.jsonl")],
        "pipeline": ["--n", "50"],
    }[command]
    out = tmp_path / "out"
    code, stdout, err = run_cli(
        [command, "--output", str(out), *args, f"--threads={threads}"], capsys
    )
    assert code == 1
    assert json.loads(err) == {"error": f"threads must be >= 1, got {threads}", "command": command}
    assert stdout == ""
    assert not out.exists()


def test_synth_refuses_threads_as_argparse_does_an_unknown_flag(tmp_path, capsys):
    # synth runs on one thread; it takes no --threads to ignore.
    out = tmp_path / "synth"
    code, stdout, err = run_cli(
        ["synth", "--output", str(out), "--n", "5", "--threads", "2"], capsys
    )
    assert code == 2
    assert json.loads(err)["error"] == "unrecognized arguments: --threads 2"
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "pipeline"])
def test_a_nan_zipf_exponent_is_the_one_json_error_before_any_draw(tmp_path, capsys, command):
    out = tmp_path / "out"
    code, stdout, err = run_cli(
        [command, "--output", str(out), "--n", "20", "--zipf", "nan"], capsys
    )
    assert code == 1
    want = {"error": "zipf_exponent must be >= 0", "command": command}
    assert json.loads(err) == (want if command == "synth" else {**want, "stage": "config"})
    assert stdout == ""
    assert list(out.iterdir()) == []


def test_an_infinite_zipf_exponent_still_runs_at_k_one(tmp_path, capsys):
    out = tmp_path / "synth"
    code, _, err = run_cli(
        ["synth", "--output", str(out), "--n", "20", "--zipf", "inf", "--k", "1"], capsys
    )
    assert (code, err) == (0, "")
    assert (out / "config.json").exists()


@pytest.mark.parametrize("command", ["weigh", "synth"])
def test_an_allocation_numpy_refuses_is_the_one_json_error(tmp_path, capsys, synth_dir, command):
    # 10**15 concepts need 7.11 PiB, which numpy refuses before touching any memory.
    args = {
        "weigh": ["--input", str(synth_dir / "assignments.jsonl")],
        "synth": ["--n", "10", "--k", "1"],
    }[command]
    out = tmp_path / "out"
    code, stdout, err = run_cli(
        [command, "--output", str(out), *args, "--vocab-size", "1000000000000000"], capsys
    )
    assert code == 1
    assert err.count("\n") == 1
    obj = json.loads(err)
    assert obj["command"] == command and obj["error"].startswith("Unable to allocate 7.11 PiB")
    assert not (out / "config.json").exists()


def child_env():
    """Environment of a CLI child that imports the same balancepack sources
    as this test, also when pytest put them on sys.path itself rather than
    via PYTHONPATH."""
    src = str(Path(balancepack.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "script"
    proc = subprocess.run(
        [sys.executable, "-m", "balancepack.cli", "synth", "--output", str(out),
         "--n", "50", "--vocab-size", "10", "--k", "2", "--seed", "1"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.jsonl").exists()
    assert "[synth]" in proc.stdout


def test_importing_the_cli_maps_no_openssl():
    # hashlib's module import loads _hashlib, which maps OpenSSL (about
    # 3.4 MB of RSS); the keyed shard hash needs only the builtin blake2b.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, balancepack.cli; print('_hashlib' in sys.modules)"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def start_pipeline(out):
    return subprocess.Popen(
        [sys.executable, "-m", "balancepack.cli", "pipeline", "--output", str(out),
         "--n", "20000", "--seed", "1", "--threads", "1"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=child_env(),
    )


def wait_for(proc, ready):
    while proc.poll() is None and not ready():
        time.sleep(0.001)


def test_a_killed_pipeline_leaves_only_complete_files_and_no_early_echo(tmp_path):
    # SIGKILL a pipeline at seeded delays spread over the span in which a
    # complete run writes its files: from the first entry in the output
    # directory to its config.json. Every file left under its real name
    # must be the complete run's, byte for byte; config.json may stand only
    # beside all of them; a hidden .{name}.partial may remain.
    def started(out):
        return lambda: out.is_dir() and any(out.iterdir())

    complete = tmp_path / "complete"
    with start_pipeline(complete) as proc:
        wait_for(proc, started(complete))
        first = time.perf_counter()
        wait_for(proc, (complete / "config.json").exists)
        span = time.perf_counter() - first
        assert proc.wait() == 0
    want = dir_bytes(complete)
    partial = re.compile(r"\.(.+)\.partial")
    kills, cut = 8, 0
    for i, u in enumerate(np.random.default_rng(10).random(kills)):
        out = tmp_path / f"killed{i}"
        with start_pipeline(out) as proc:
            wait_for(proc, started(out))
            time.sleep(span * (i + u) / kills)
            proc.kill()
            proc.wait()
        got = dir_bytes(out)
        assert sorted(p.name for p in out.iterdir()) == sorted(got)  # files only
        left = {name for name in got if partial.fullmatch(name)}
        assert {partial.fullmatch(name)[1] for name in left} <= set(want)
        real = {name: data for name, data in got.items() if name not in left}
        assert set(real) <= set(want)
        assert all(data == want[name] for name, data in real.items()), f"kill {i}"
        if "config.json" in real:
            assert set(real) == set(want), f"kill {i}: config.json before every file"
        else:
            cut += 1
    assert cut > 0, "every run finished before its kill"
