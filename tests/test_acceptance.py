"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``)."""

import json
import time
from collections import Counter

import numpy as np
from packing_oracle import pack_optimal_oracle

from balancepack import cli
from balancepack.balance import (
    balance_report,
    concept_frequencies,
    image_weights,
    sample_balanced,
)
from balancepack.concepts import (
    ConceptVocabulary,
    cosine_similarities,
    l2_normalize,
    load_assignments,
    load_embeddings,
    save_assignments,
    save_embeddings,
    save_vocabulary,
    topk_concepts,
)
from balancepack.manifest import (
    SampleRecord,
    SynthConfig,
    emit_manifest,
    estimate_tokens,
    ingest_manifest,
    records_to_pack_items,
    synth_corpus,
)
from balancepack.packing import (
    PackingConfig,
    PackItem,
    emit_plan,
    load_plan,
    pack_bucketed,
    pack_ffd,
    packing_stats,
)


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_compression_ratio_reproduction():
    start = time.time()
    cfg = SynthConfig(n_samples=100_000, seed=1001)
    records, _ = synth_corpus(cfg)
    items = records_to_pack_items(records)
    pack_cfg = PackingConfig(capacity=8192, strategy="bucket", seed=1001)
    plan = pack_bucketed(items, pack_cfg)
    stats = packing_stats(plan, pack_cfg)
    elapsed = time.time() - start
    detail = (
        f"ratio={stats.compression_ratio:.3f} (>=10.0) "
        f"utilization={stats.utilization:.4f} (>=0.93) elapsed={elapsed:.1f}s"
    )
    check(
        1,
        "compression-ratio reproduction",
        stats.compression_ratio >= 10.0 and stats.utilization >= 0.93,
        detail,
    )


def test_criterion_2_ffd_within_bound_of_optimal():
    rng = np.random.default_rng(1002)
    violations = 0
    for _ in range(500):
        n = int(rng.integers(1, 13))
        cap = int(rng.integers(6, 64))
        items = [PackItem(f"i{j}", int(rng.integers(1, cap + 1))) for j in range(n)]
        opt = pack_optimal_oracle(items, cap)
        ffd = len(pack_ffd(items, cap).packs)
        if ffd > -(-11 * opt // 9) + 1:
            violations += 1
    check(2, "FFD within ceil(11/9 OPT)+1", violations == 0, f"violations={violations}/500")


def test_criterion_3_partition_capacity_composition_invariants():
    rng = np.random.default_rng(1003)
    violations = 0
    for trial in range(10_000):
        n = int(rng.integers(0, 50))
        cap = int(rng.integers(4, 64))
        items = [
            PackItem(
                f"t{trial}-{j}",
                int(rng.integers(1, int(cap * 1.3) + 2)),
                f"src{int(rng.integers(4))}",
            )
            for j in range(n)
        ]
        cfg = PackingConfig(
            capacity=cap,
            strategy="ffd" if rng.random() < 0.5 else "bucket",
            num_buckets=int(rng.integers(1, 8)),
            shards=int(rng.integers(1, 5)),
            min_utilization=float(rng.uniform(0.05, 1.0)),
            max_samples_per_pack=int(rng.integers(1, 8)) if rng.random() < 0.3 else None,
            max_sources_per_pack=int(rng.integers(1, 4)) if rng.random() < 0.3 else None,
            seed=int(rng.integers(1 << 31)),
        )
        if cfg.strategy == "ffd":
            plan = pack_ffd(
                items,
                cap,
                max_samples_per_pack=cfg.max_samples_per_pack,
                max_sources_per_pack=cfg.max_sources_per_pack,
            )
        else:
            plan = pack_bucketed(items, cfg)

        want = Counter(it.sample_id for it in items)
        got = Counter(
            [it.sample_id for p in plan.packs for it in p]
            + [it.sample_id for it in plan.overflow]
        )
        if want != got:
            violations += 1
            continue
        for p, pad in zip(plan.packs, plan.paddings()):
            total = sum(it.length for it in p)
            if not p or total > cap or pad < 0 or total + pad != cap:
                violations += 1
                break
            if cfg.max_samples_per_pack is not None and len(p) > cfg.max_samples_per_pack:
                violations += 1
                break
            if (
                cfg.max_sources_per_pack is not None
                and len({it.source for it in p}) > cfg.max_sources_per_pack
            ):
                violations += 1
                break
        if any(it.length <= cap for it in plan.overflow):
            violations += 1
    check(3, "partition/capacity/composition invariants", violations == 0,
          f"violations={violations}/10000 cases")


def _run_cli(argv):
    code = cli.main(argv)
    assert code == 0, f"CLI failed: {argv}"


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def test_criterion_4_determinism_echo_and_threads(tmp_path):
    rng = np.random.default_rng(1004)
    images = rng.standard_normal((64, 16)).astype(np.float32)
    vocab = ConceptVocabulary(
        names=[f"c{i}" for i in range(40)],
        embeddings=rng.standard_normal((40, 16)).astype(np.float32),
    )
    save_embeddings(tmp_path / "img.emb", images)
    save_vocabulary(tmp_path / "v.tsv", tmp_path / "v.emb", vocab)

    first_runs = {
        "synth": ["synth", "--output", "", "--n", "2000", "--vocab-size", "100",
                  "--k", "4", "--seed", "11"],
        # a value that starts with "-" must rerun from the echo as it ran
        "synth-dash": ["synth", "--output", "", "--sources=-web=0.5,docs=0.5", "--n", "50"],
        "assign": ["assign", "--output", "", "--input", str(tmp_path / "img.emb"),
                   "--vocab-names", str(tmp_path / "v.tsv"),
                   "--vocab-emb", str(tmp_path / "v.emb"), "--k", "5"],
        "pipeline": ["pipeline", "--output", "", "--n", "3000", "--vocab-size", "150",
                     "--k", "3", "--capacity", "2048", "--shards", "4", "--seed", "11"],
    }
    outputs = {}
    for name, argv in first_runs.items():
        out = tmp_path / name
        argv[2] = str(out)
        _run_cli(argv)
        outputs[name] = out

    # chain the remaining subcommands off the synth outputs
    synth_out = outputs["synth"]
    chains = {
        "weigh": ["weigh", "--output", "", "--input", str(synth_out / "assignments.jsonl"),
                  "--vocab-size", "100"],
        "pack": ["pack", "--output", "", "--input", str(synth_out / "manifest.jsonl"),
                 "--capacity", "2048", "--shards", "3", "--seed", "11"],
    }
    for name, argv in chains.items():
        out = tmp_path / name
        argv[2] = str(out)
        _run_cli(argv)
        outputs[name] = out
    more = {
        "sample": ["sample", "--output", "", "--input",
                   str(outputs["weigh"] / "weights.jsonl"), "--n", "200", "--seed", "11"],
        "stats": ["stats", "--output", "", "--input", str(outputs["pack"] / "plan.jsonl")],
    }
    for name, argv in more.items():
        out = tmp_path / name
        argv[2] = str(out)
        _run_cli(argv)
        outputs[name] = out
    cov = ["coverage", "--output", str(tmp_path / "coverage"), "--input",
           str(synth_out / "assignments.jsonl"), "--vocab-size", "100",
           "--subset", str(outputs["sample"] / "sampled.txt")]
    _run_cli(cov)
    outputs["coverage"] = tmp_path / "coverage"

    mismatches = []
    for name, out in outputs.items():
        echo = json.loads((out / "config.json").read_text())
        rerun = tmp_path / f"{name}-rerun"
        _run_cli(cli.echo_to_argv(echo, str(rerun)))
        if _dir_bytes(out) != _dir_bytes(rerun):
            mismatches.append(name)

    # thread-count independence on the subcommands that parallelize
    for name, argv in (("assign", first_runs["assign"]), ("pack", chains["pack"]),
                       ("pipeline", first_runs["pipeline"])):
        t1 = tmp_path / f"{name}-t1"
        t8 = tmp_path / f"{name}-t8"
        argv1 = list(argv)
        argv1[2] = str(t1)
        argv8 = list(argv)
        argv8[2] = str(t8)
        _run_cli(argv1 + ["--threads", "1"])
        _run_cli(argv8 + ["--threads", "8"])
        if _dir_bytes(t1) != _dir_bytes(t8):
            mismatches.append(f"{name}-threads")

    check(4, "byte-identical reruns and thread independence", not mismatches,
          f"mismatches={mismatches or 'none'}")


def test_criterion_5_topk_matches_scan_sort_oracle():
    rng = np.random.default_rng(1005)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(1, 65))
        d = int(rng.integers(1, 33))
        k = int(rng.integers(1, m + 1))
        images = rng.standard_normal((n, d)).astype(np.float32)
        vocab = ConceptVocabulary(
            names=[f"c{i}" for i in range(m)],
            embeddings=rng.standard_normal((m, d)).astype(np.float32),
        )
        got = topk_concepts(images, vocab, k)
        img = l2_normalize(images)
        con = l2_normalize(vocab.embeddings)
        sims = cosine_similarities(img, con)
        for i, a in enumerate(got):
            want = sorted(range(m), key=lambda j: (-sims[i, j], j))[:k]
            if list(a.indices) != want:
                mismatches += 1
                break
    check(5, "top-k equals exhaustive scan-and-sort", mismatches == 0,
          f"mismatching instances={mismatches}/1000")


def test_criterion_6_balance_improvement_on_zipf():
    gaps = []
    coverage_wins = 0
    for seed in range(10):
        cfg = SynthConfig(n_samples=100_000, vocab_size=1000, k=5, zipf_exponent=1.5, seed=seed)
        _, assigns = synth_corpus(cfg)
        freqs = concept_frequencies(assigns, 1000)
        weights = image_weights(assigns, freqs)
        n = 10_000  # 10 percent
        balanced_idx = sample_balanced(weights, n, seed)
        uniform = np.full(len(assigns), 1.0 / len(assigns))
        uniform_idx = sample_balanced(uniform, n, seed)
        rb = balance_report([assigns[i] for i in balanced_idx], 1000)
        ru = balance_report([assigns[i] for i in uniform_idx], 1000)
        gaps.append(rb.entropy_bits - ru.entropy_bits)
        if rb.coverage > ru.coverage:
            coverage_wins += 1
    mean_gap = float(np.mean(gaps))
    check(6, "balanced sampling beats uniform", mean_gap >= 0.1 and coverage_wins >= 9,
          f"mean entropy gap={mean_gap:.3f} bits (>=0.1), coverage wins={coverage_wins}/10 (>=9)")


def test_criterion_7_token_arithmetic_spot_checks():
    a = estimate_tokens(SampleRecord(id="a", source="", text_tokens=0, image=(336, 336)))
    b = estimate_tokens(SampleRecord(id="b", source="", text_tokens=0, image=(448, 448)))
    check(7, "projector token arithmetic", a == 144 and b == 256, f"336->{a} 448->{b}")


def test_criterion_8_weight_formula_oracle():
    from balancepack.balance import ConceptFrequencyTable
    from balancepack.concepts import ConceptAssignment

    def make(i, idxs):
        sims = tuple(1.0 - 0.1 * r for r in range(len(idxs)))
        return ConceptAssignment(sample_index=i, concepts=tuple(zip(idxs, sims)))

    assigns = [make(0, [0]), make(1, [0]), make(2, [0, 1])]
    freqs = concept_frequencies(assigns, 2)
    w = image_weights(assigns, freqs)
    hand = np.array([0.25, 0.25, 0.5])
    exact = float(np.max(np.abs(w - hand)))

    rng = np.random.default_rng(1008)
    scale_err = 0.0
    for _ in range(50):
        sample_count = int(rng.integers(1, 40))
        assigns = [
            make(i, sorted(map(int, rng.choice(20, size=int(rng.integers(1, 6)), replace=False))))
            for i in range(sample_count)
        ]
        freqs = concept_frequencies(assigns, 20)
        w1 = image_weights(assigns, freqs)
        factor = int(rng.integers(2, 100))
        scaled = ConceptFrequencyTable(
            counts=freqs.counts * factor, total_samples=freqs.total_samples * factor
        )
        w2 = image_weights(assigns, scaled)
        scale_err = max(scale_err, float(np.max(np.abs(w1 - w2))))

    check(8, "weight formula oracle", exact < 1e-12 and scale_err < 1e-12,
          f"hand-example err={exact:.2e}, scaling err={scale_err:.2e} (tol 1e-12)")


def test_criterion_9_format_round_trips(tmp_path):
    rng = np.random.default_rng(1009)
    failures = 0

    emb_path = tmp_path / "m.emb"
    for _ in range(1000):
        m = rng.standard_normal((int(rng.integers(1, 12)), int(rng.integers(1, 16)))).astype(
            np.float32
        )
        save_embeddings(emb_path, m)
        if load_embeddings(emb_path).tobytes() != m.tobytes():
            failures += 1

    man_path = tmp_path / "m.jsonl"
    for trial in range(1000):
        records = []
        for i in range(int(rng.integers(1, 8))):
            if rng.random() < 0.5:
                records.append(
                    SampleRecord(
                        id=f"r{trial}-{i}", source="web",
                        text_tokens=int(rng.integers(1, 2000)),
                    )
                )
            else:
                records.append(
                    SampleRecord(
                        id=f"r{trial}-{i}", source="img",
                        text_tokens=int(rng.integers(0, 100)),
                        image=(int(rng.integers(14, 800)), int(rng.integers(14, 800))),
                    )
                )
        emit_manifest(man_path, records)
        back = ingest_manifest(man_path)
        emit_manifest(tmp_path / "m2.jsonl", back)
        if back != records or man_path.read_bytes() != (tmp_path / "m2.jsonl").read_bytes():
            failures += 1

    plan_path = tmp_path / "p.jsonl"
    for trial in range(1000):
        items = [
            PackItem(f"p{trial}-{i}", int(rng.integers(1, 40)), f"s{int(rng.integers(3))}")
            for i in range(int(rng.integers(1, 30)))
        ]
        cfg = PackingConfig(capacity=int(rng.integers(8, 48)), shards=int(rng.integers(1, 3)))
        plan = pack_bucketed(items, cfg)
        emit_plan(plan, plan_path, cfg)
        back = load_plan(plan_path)
        emit_plan(back, tmp_path / "p2.jsonl", cfg)
        if (
            back.packs != plan.packs
            or back.overflow != plan.overflow
            or plan_path.read_bytes() != (tmp_path / "p2.jsonl").read_bytes()
        ):
            failures += 1

    # assignments JSONL rides along: it is the remaining cross-module format
    assign_path = tmp_path / "a.jsonl"
    from balancepack.concepts import ConceptAssignment

    for trial in range(200):
        assigns = []
        for i in range(int(rng.integers(1, 6))):
            k = int(rng.integers(1, 6))
            idxs = rng.choice(30, size=k, replace=False)
            sims = np.sort(rng.uniform(-1, 1, size=k))[::-1]
            assigns.append(
                ConceptAssignment(
                    sample_index=i,
                    concepts=tuple((int(c), float(s)) for c, s in zip(idxs, sims)),
                )
            )
        save_assignments(assign_path, assigns)
        if load_assignments(assign_path) != assigns:
            failures += 1

    check(9, "format round-trips bit-exact", failures == 0, f"failures={failures}")
