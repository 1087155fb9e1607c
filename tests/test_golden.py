"""sha256 pins of every file the CLI writes on four fixed runs.

The pins hold output bytes still while the code beneath them changes:
one pipeline run, one staged synth -> weigh -> sample -> coverage chain,
one assign and one capped, sharded pack. Each run works in its own
directory with relative paths, so the ``input`` paths echoed into
``config.json`` are the same on every machine. The assign input is built
from entries of +-1/4 on unit rows, so every similarity is a sum of exact
products and its bits do not depend on the BLAS summation order.
"""

import hashlib

import numpy as np
import pytest

from balancepack import cli
from balancepack.concepts import ConceptVocabulary, save_embeddings, save_vocabulary

PINS = {
    "pipeline": {
        "assignments.jsonl": "9f6b270847892b387de01588127f15e28971654a21e847cd6fd4e0a5b5cd3311",
        "config.json": "a8bcb6a072c0e6853cf0ad74aad1fd9204a5be0f83ebdc0ac7d77b101d95f67b",
        "manifest.jsonl": "7af15151875c668567a665e4e71e7d3a8a170617bd771bcb164ca9563243ade5",
        "plan.jsonl": "10c4c0c3d2cc2e62c53de5fc3ecd08881a061865e526e829cd74e86db19f4591",
        "report.json": "b016a4a2496034a9bf986af2a4a0684719fd19873ba365b08639c06c92779b3e",
        "sampled.txt": "5a787563db664673800a00ba2215ab090fcce5e7561de6dfd16937e1ac8a4b8e",
        "sampled_uniform.txt": "e72a33e20c9b11d82da9e513ec76b3de69985b7afc194b345de2386b8902d64d",
        "stats.json": "55ffc9a0e5605396114f13de5e2b08011fff8b78c990809bebbe8dbf89d0633e",
        "weights.jsonl": "995c6ef984f7a23b8bf30526f814eecb20852da8864ee29f233b9b8c4ed97a50",
    },
    "synth": {
        "assignments.jsonl": "b31a8c43979a06bf599b6f2685d3cf82f716d3828849d4acd24aa6a76d1fa57c",
        "config.json": "9d1475dc7ca424154794f9a765426c877809471665bc42b9ad4b3c32fde61be9",
        "manifest.jsonl": "02e9a90047f16e7f80fb5814366259e543da57bfa897817632d9929ad122610f",
    },
    "weigh": {
        "config.json": "32ff1804e8bfefd1a3f20bf55f9b7ffcbc9a3e38136e680013262cafa193421d",
        "weights.jsonl": "00c62ecd161c2e0ffc16513200261412cd09fd70033456b81a3898ad26813f1a",
    },
    "sample": {
        "config.json": "b0d63e0a4f0763479f33fa46a06708e7c6f6a2fed5464cc881d4b76408f2e610",
        "sampled.txt": "cc6ebaf9b2e82ccf26764bd529194558433b741da983eb96f4e4888ea75ac7d1",
    },
    "coverage": {
        "config.json": "0b777f6c650e3fa0ced9d4e7615a97329eed97ebb8c348c45da883c3cf5276a4",
        "coverage.csv": "dd6ec2cbbf12763e2325a6c585dafa330351bca70db76a3d5531052149065665",
        "report.json": "b1aaaa961c99601495207e1018806253316eaa929d437a47ef5462262a133ce6",
    },
    "assign": {
        "assignments.jsonl": "a5a9961eb2284b142dcd361b85ef465466be850876a46475493d0a828285576d",
        "config.json": "e536a9feb366d739f82d156fb47c73354666697dd0ae6ed85ff60d960b8f18c1",
    },
    "pack": {
        "config.json": "8492e3d50e3f09b3b4aa32b701adbb97f2d2429826914b38459405ecb06f953b",
        "plan.jsonl": "3bce4412698bf591ea17a1ff7eaee65f185fdff4a199c06dfc3e917b81af64f2",
        "stats.json": "c4891c965988b3a5452405a1888f00a23db51631752fa162c04728bfc9431cd9",
    },
}


def run(argv, capsys):
    assert cli.main(argv) == 0
    capsys.readouterr()


def digests(outdir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
    }


def quarter_rows(rng, rows, dim):
    """Unit rows: 16 entries of +-1/4 at random places, zeros elsewhere."""
    m = np.zeros((rows, dim), dtype=np.float32)
    for r in range(rows):
        m[r, rng.choice(dim, size=16, replace=False)] = rng.choice([-0.25, 0.25], size=16)
    return m


def test_pipeline_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(["pipeline", "--output", "pipe", "--n", "20000", "--seed", "5"], capsys)
    assert digests(tmp_path / "pipe") == PINS["pipeline"]


def test_staged_chain_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(["synth", "--output", "synth", "--n", "5000", "--k", "7", "--zipf", "2.0",
         "--seed", "9"], capsys)
    run(["weigh", "--output", "weigh", "--input", "synth/assignments.jsonl",
         "--vocab-size", "1000", "--mode", "sum"], capsys)
    run(["sample", "--output", "sample", "--input", "weigh/weights.jsonl", "--n", "3000",
         "--seed", "9", "--replacement"], capsys)
    run(["coverage", "--output", "coverage", "--input", "synth/assignments.jsonl",
         "--vocab-size", "1000", "--subset", "sample/sampled.txt"], capsys)
    for stage in ("synth", "weigh", "sample", "coverage"):
        assert digests(tmp_path / stage) == PINS[stage], stage


@pytest.mark.parametrize("threads", ["1", "2"])
def test_assign_bytes(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(606)
    save_embeddings("img.emb", quarter_rows(rng, 9000, 32))
    names = [f"concept-{i}" for i in range(120)]
    save_vocabulary("v.tsv", "v.emb", ConceptVocabulary(names, quarter_rows(rng, 120, 32)))
    run(["assign", "--output", "assign", "--input", "img.emb", "--vocab-names", "v.tsv",
         "--vocab-emb", "v.emb", "--k", "5", "--threads", threads], capsys)
    assert digests(tmp_path / "assign") == PINS["assign"]


def test_capped_pack_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(["synth", "--output", "synth", "--n", "20000", "--seed", "5"], capsys)
    run(["pack", "--output", "pack", "--input", "synth/manifest.jsonl", "--shards", "8",
         "--max-sources-per-pack", "2", "--max-samples-per-pack", "16", "--seed", "5"], capsys)
    assert digests(tmp_path / "pack") == PINS["pack"]
