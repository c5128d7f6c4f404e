#!/usr/bin/env python3
"""phonoprep benchmark: one workload, seeded, for a fixed time.

    python3 perfbench/run.py --workload pipeline-desk --seed 1 --seconds 30 --trace 0

Run it from the repository root. Workloads are described in
``workloads.py``. The load is a closed loop: one client, one pass in
flight, each pass in a fresh child process with BLAS pinned to one thread.
Passes run back to back until another one would overrun ``--seconds``
(at least ``MIN_PASSES``). Set-up (imports, corpus generation, input
files) is timed as its own child ``SETUP_REPEATS`` times and must write
identical inputs every time. The benchmark and its children are pinned to
one CPU.

Every time reported is paced (see ``pace.py``): wall time scaled to a
fixed reference speed of the host, which a fixed burst of work sampled
every 50 ms in the timed process measures, because the shared host's own
speed swings by up to ~2x. The raw wall times are printed and recorded
alongside.

``--trace 0`` prints the end-to-end metrics: median pass time ``run_s``,
input ``tokens_per_s``, median ``setup_s``, median ``peak_rss_mb`` of a
pass's process and ``ok_frac``, the share of passes whose gate held
(``failed``/``attempted`` give the failed share). ``--trace 1`` alternates
untraced and traced passes and prints per-layer self times and counters
from the traced ones, plus ``trace.overhead_s`` (traced minus untraced
``run_s``); all spans are written to ``.perfbench_work/<workload>/trace.json``.

The last line of stdout is the JSON result; the line before it records the
environment, the seeds and the inputs' type/token ratio. Everything, with
what each pass's gate saw (the values ``golden.json`` holds at the default
seed), is also kept in ``.perfbench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("pipeline-desk", "pipeline-wide", "geometry-desk")

SETUP_REPEATS = 5
MIN_PASSES = 2
BUDGET_S = 170.0  # the whole run, set-up included
BLAS_THREADS = "1"

SELF_TIMED = (
    "pipeline.run_pipeline", "pipeline.encode_corpus", "pipeline.combine",
    "subword.bpe_learn", "subword.bpe_apply", "evaluate.vocab_stats",
    "geometry.train_embeddings", "geometry.cooccurrence_counts", "geometry.ppmi",
    "geometry.pca_project", "geometry.smooth_hull", "geometry.volume_cdf",
    "geometry.coverage_curve", "geometry.density_measure",
    "geometry.concentration_factor", "clustering.kmeans_fit",
    "clustering.random_cluster", "clustering.derive_size_distribution",
    "augment.noise_augment", "augment.perturb_corpus", "evaluate.bleu",
)
COUNTS = (
    "subword.bpe_learn.merges", "subword.bpe_apply.calls", "encoders.codec_calls",
    "geometry.cooccurrence_counts.nnz", "geometry.smooth_hull.calls",
    "geometry.density_measure.samples", "clustering.kmeans_fit.iterations",
    "augment.noise_augment.replaced_tokens",
)
RATIOS = {  # metric: (numerator counter, denominator counter)
    "subword.bpe_apply.repeat_ratio": ("subword.bpe_apply.repeats", "subword.bpe_apply.tokens"),
    "encoders.token_repeat_ratio": ("encoders.codec_repeats", "encoders.codec_calls"),
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SELF_TIMED}
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units.update({"pipeline.bytes_written": "B", "trace.run_s": "s", "trace.overhead_s": "s"})
    return units


END_TO_END_UNITS = {"run_s": "s", "tokens_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}


class RunError(Exception):
    pass


def _child(args: list[str], deadline: float) -> tuple[int, dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return -1, {"failures": [f"timed out after {timeout:.0f}s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"failures": [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    return proc.returncode, out


def set_up(workload: str, seed: int, work: Path,
           deadline: float) -> tuple[list[float], list[float], dict]:
    """Time ``SETUP_REPEATS`` set-ups, paced and raw; the first one's inputs are kept."""
    times, walls, info = [], [], None
    for i in range(SETUP_REPEATS):
        dest = work / f"inputs{i}"
        t0 = time.perf_counter()
        code, out = _child(["setup", workload, str(seed), str(dest)], deadline)
        wall = time.perf_counter() - t0
        if code != 0:
            raise RunError(f"set-up failed: {out['failures']}")
        walls.append(wall)
        times.append((wall - out["burst_s"]) * out["speed"])
        if i == 0:
            info = out
            continue
        for f in sorted((work / "inputs0").iterdir()):
            if f.read_bytes() != (dest / f.name).read_bytes():
                raise RunError(f"set-up {i} wrote a different {f.name}: not deterministic")
        shutil.rmtree(dest)
    return times, walls, info


def layer_metrics(dump: dict, record: dict, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; self times are scaled by ``scale``."""
    selfs = spans.self_time_by_name(dump["spans"])
    counters = dump["counters"]
    m = {f"{name}.self_s": selfs.get(name, 0.0) * scale for name in SELF_TIMED}
    m.update({name: counters.get(name, 0) for name in COUNTS})
    for name, (num, den) in RATIOS.items():
        m[name] = counters.get(num, 0) / counters[den] if counters.get(den) else 0.0
    m["pipeline.bytes_written"] = record.get("bytes_written", 0)
    return m


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    started = time.perf_counter()
    deadline = started + BUDGET_S
    work = ROOT / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_times, setup_walls, info = set_up(workload, seed, work, deadline)
    inputs = work / "inputs0"
    run_failures = info["failures"]
    for failure in run_failures:
        print(f"set-up FAILED: {failure}", file=sys.stderr)

    passes: list[dict] = []
    dumps: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        pass_id = len(passes)
        traced = trace and pass_id % 2 == 1
        out_dir = work / f"pass{pass_id}"
        trace_file = work / f"trace{pass_id}.json"
        t0 = time.perf_counter()
        code, out = _child(["pass", workload, str(seed), str(inputs), str(out_dir),
                            str(pass_id), str(trace_file) if traced else "-"], deadline)
        wall = time.perf_counter() - t0
        out.update(pass_id=pass_id, traced=traced, ok=code == 0 and not out["failures"])
        if traced and out["ok"]:
            dump = json.loads(trace_file.read_text(encoding="utf-8"))
            out["layers"] = layer_metrics(dump, out["record"], out["speed"])
            dumps.append(dump)
            trace_file.unlink()
        shutil.rmtree(out_dir, ignore_errors=True)
        passes.append(out)
        for failure in out["failures"]:
            print(f"pass {pass_id} FAILED: {failure}", file=sys.stderr)
        now = time.perf_counter()
        if code == -1 or now + 1.5 * wall > deadline:
            break
        # stop once another pass as long as this one would overrun ``seconds``
        enough = len(passes) >= MIN_PASSES and (not trace or any(p["traced"] for p in passes))
        if enough and now - loop_start + wall > seconds:
            break
    if dumps:
        (work / "trace.json").write_text(json.dumps(
            {"workload": workload, "seed": seed,
             "spans": [s for d in dumps for s in d["spans"]],
             "counters": {str(d["spans"][0]["pass_id"]): d["counters"] for d in dumps}}),
            encoding="utf-8")

    ok = [p for p in passes if p["ok"]]
    plain = [p for p in ok if not p["traced"]]
    tokens = info["input"]["tokens"]

    def med(values):
        return statistics.median(values) if values else 0.0

    if trace:
        traced_ok = [p for p in ok if p["traced"]]
        metrics = {name: med([p["layers"][name] for p in traced_ok])
                   for name in per_layer_units() if not name.startswith("trace.")}
        metrics["trace.run_s"] = med([p["run_s"] for p in traced_ok])
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - med([p["run_s"] for p in plain])
        units = per_layer_units()
    else:
        metrics = {
            "run_s": med([p["run_s"] for p in plain]),
            "tokens_per_s": med([tokens / p["run_s"] for p in plain]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": med([p["peak_rss_mb"] for p in plain]),
            "ok_frac": len(ok) / len(passes),
        }
        units = END_TO_END_UNITS
    failed = len(passes) - len(ok)
    result = {
        "correct": failed == 0 and not run_failures and bool(ok),
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "program_seeds": info["program_seeds"], "environment": info["environment"],
        "input": info["input"], "setup_s": setup_times, "setup_wall_s": setup_walls,
        "wall": {"run_s": med([p["wall_s"] for p in plain]),
                 "setup_s": statistics.median(setup_walls)},
        "run_failures": run_failures,
        "passes": [{k: p.get(k) for k in ("pass_id", "traced", "ok", "run_s", "wall_s",
                                          "speed", "bursts", "peak_rss_mb", "failures",
                                          "record")}
                   for p in passes],
        "wall_s": time.perf_counter() - started,
    }
    (work / "result.json").write_text(json.dumps({"record": record, "result": result},
                                                 indent=1), encoding="utf-8")
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=corpus.DESK_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # one CPU for the benchmark and its children, so that the passes of a
    # run share a core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "phonoprep" / "__init__.py").is_file():
        print(f"perfbench: no phonoprep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for name, value in record["wall"].items():
        print(f"{args.workload} {name} (raw wall, unpaced) = {value:.6g} s")
    print(json.dumps({"input": record["input"], "environment": record["environment"],
                      "seed": args.seed, "program_seeds": record["program_seeds"],
                      "passes": len(record["passes"])}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
