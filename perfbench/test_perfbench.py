"""Self-tests of the benchmark: generator, span and pacing arithmetic, and gates."""

from __future__ import annotations

import json
import signal
import time
from pathlib import Path

import pytest

import corpus
import gates
import pace
import run
import spans
import workloads
from phonoprep import evaluate
from phonoprep.encoders import metaphone_encode
from phonoprep.pipeline import PipelineConfig, run_pipeline

ROOT = Path(__file__).resolve().parent.parent


def test_generator_is_deterministic_per_seed():
    assert corpus.generate(corpus.WIDE, 3) == corpus.generate(corpus.WIDE, 3)
    assert corpus.generate(corpus.WIDE, 3) != corpus.generate(corpus.WIDE, 4)


def test_default_seed_reproduces_bundled_desk_corpus():
    lines = corpus.generate(corpus.DESK, corpus.DESK_SEED)
    assert corpus.corpus_text(lines).encode() == (ROOT / "data" / "desk_en.txt").read_bytes()
    assert corpus.type_token_ratio(lines) < 0.05


def test_wide_corpus_has_wide_vocabulary():
    assert corpus.type_token_ratio(corpus.generate(corpus.WIDE, 1)) >= 0.3


def _span(sid, name, start, end, parent):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "pass_id": 0}


def test_self_time_subtracts_child_spans():
    tree = [
        _span(0, "pass", 0.0, 10.0, None),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "leaf", 2.0, 3.0, 1),
        _span(3, "b", 5.0, 9.0, 0),
        _span(4, "leaf", 6.0, 6.5, 3),
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 3.5, 4: 0.5}
    assert spans.self_time_by_name(tree) == {"pass": 3.0, "a": 2.0, "leaf": 1.5, "b": 3.5}
    assert spans.check_tree(tree) == []
    tree[4]["end"] = 9.5  # leaks out of its parent
    assert spans.check_tree(tree)


def test_tracer_wraps_the_called_name_and_restores_it():
    original = evaluate.bleu
    tracer = spans.Tracer(pass_id=5)
    with spans.installed(tracer), tracer.span(spans.ROOT):
        evaluate.bleu(["a b c d"], ["a b c d"])
    assert evaluate.bleu is original
    assert [(s["name"], s["parent"], s["pass_id"]) for s in tracer.spans] == [
        ("pass", None, 5), ("evaluate.bleu", 0, 5)]
    assert tracer.counters["evaluate.bleu.calls"] == 1
    assert spans.check_tree(tracer.spans) == []


def test_paced_time_is_own_time_at_the_mean_sampled_speed():
    sampler = pace.Sampler()
    sampler.wall_s = 2.0
    ref = pace.BURST_REFERENCE_S
    sampler.bursts = [ref, 2 * ref, ref, 4 * ref]
    assert sampler.own_s == pytest.approx(2.0 - 8 * ref)
    assert sampler.speed == pytest.approx((1 + 0.5 + 1 + 0.25) / 4)
    assert sampler.paced_s == pytest.approx(sampler.own_s * sampler.speed)


def test_sampler_bursts_while_work_runs_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Sampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.bursts) >= 3
    assert 0.0 < sampler.own_s < sampler.wall_s
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.fixture
def small_run(tmp_path):
    train = tmp_path / "train.txt"
    train.write_text(corpus.corpus_text(corpus.generate(corpus.DESK, 1)[:300]),
                     encoding="utf-8")
    out = run_pipeline(PipelineConfig(
        train_path=str(train), output_dir=str(tmp_path / "out"), encoder="metaphone",
        combine_mode="concat", bpe_operations_words=100, bpe_operations_codes=50))
    golden = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["files"]
    return out, {"train": train}, golden


def test_pipeline_gate_accepts_a_clean_run(small_run):
    out, splits, golden = small_run
    assert gates.check_pipeline(out, splits, metaphone_encode, golden) == []


def test_pipeline_gate_rejects_one_flipped_merge_byte(small_run):
    out, splits, golden = small_run
    merges = out / "models" / "words.bpe"
    data = bytearray(merges.read_bytes())
    at = data.index(b"\n") + 1  # first byte of the first merge
    data[at] = ord("q") if data[at] != ord("q") else ord("z")
    merges.write_bytes(bytes(data))
    failures = gates.check_pipeline(out, splits, metaphone_encode, golden)
    assert any("checksum of models/words.bpe" in f for f in failures)
    assert any("differ from golden" in f for f in failures)


def _geometry_summary() -> dict:
    golden = gates.load_golden()["geometry-desk"]
    return {
        "gamma": dict(golden["gamma"]),
        "kmeans_iterations": golden["kmeans_iterations"],
        "density": {"kmeans": {"max": [0.1, 0.2, 0.2], "sum": [1.0, 2.0, 3.0]}},
        "coverage": {"kmeans": [0.1, 0.2, 0.2]},
        "noise_rate": 0.2,
        "lines_kept": True,
        "bleu": {"noise": 54.0, "perturb": 65.0},
    }


def test_geometry_gate_accepts_golden_values():
    assert gates.check_geometry(_geometry_summary(), gates.load_golden()["geometry-desk"]) == []


@pytest.mark.parametrize("perturb", ["gamma", "order", "density", "iterations"])
def test_geometry_gate_rejects_a_perturbed_result(perturb):
    summary = _geometry_summary()
    golden = gates.load_golden()["geometry-desk"]
    if perturb == "gamma":
        summary["gamma"]["metaphone"] *= 1 + 1e-6
    elif perturb == "order":
        summary["gamma"]["random"] = summary["gamma"]["kmeans"] * 2
    elif perturb == "density":
        summary["density"]["kmeans"]["max"] = [0.2, 0.1, 0.3]
    else:
        summary["kmeans_iterations"] += 1
    assert gates.check_geometry(summary, golden)


def test_benchmark_json_names_every_metric_the_benchmark_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
