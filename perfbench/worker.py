"""Child process of the benchmark: one set-up or one pass, then exit.

    python3 perfbench/worker.py setup WORKLOAD SEED DEST
    python3 perfbench/worker.py pass WORKLOAD SEED INPUTS OUT PASS_ID TRACE_FILE|-

Prints one JSON object on stdout. A pass runs in a fresh process so that
its peak resident memory is its own; only the call into the workload is
timed, and the gate runs after the clock stops. ``run_s`` is the paced
time (see ``pace.py``), ``wall_s`` the raw one.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path

import pace

if __name__ == "__main__":
    # a set-up is paced from here on, its imports included
    STARTUP = pace.Sampler().start()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _blas_version(module) -> str:
    deps = module.show_config(mode="dicts")["Build Dependencies"]
    return deps["blas"].get("version", "unknown")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(np),
        "scipy_openblas": _blas_version(scipy),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "machine": platform.machine(),
    }


def setup(name: str, seed: int, dest: Path, startup: pace.Sampler) -> dict:
    """Write the inputs; the parent times this process, ``burst_s`` of which
    went to the bursts of ``startup``, sampling since the process started."""
    w = workloads.WORKLOADS[name]
    info = workloads.make_inputs(w, seed, dest)
    out = {"input": info, "environment": environment(), "program_seeds": workloads.SEEDS,
           "failures": workloads.bundled_corpus_check(w, seed, dest)}
    startup.stop()
    return dict(out, burst_s=sum(startup.bursts), speed=startup.speed)


def run_one(name: str, seed: int, inputs: Path, out: Path, pass_id: int,
            trace_file: str) -> dict:
    w = workloads.WORKLOADS[name]
    tracer = spans.Tracer(pass_id) if trace_file != "-" else None
    if tracer is None:
        with pace.Sampler() as sampler:
            result = workloads.run_pass(w, inputs, out)
    else:
        with spans.installed(tracer), tracer.span(spans.ROOT), pace.Sampler() as sampler:
            result = workloads.run_pass(w, inputs, out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures, record = workloads.check_pass(w, seed, inputs, result)
    if w.is_pipeline:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        record["manifest_files"] = manifest["files"]
    if tracer is not None:
        failures += spans.check_tree(tracer.spans)
        Path(trace_file).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return {"run_s": sampler.paced_s, "wall_s": sampler.wall_s, "speed": sampler.speed,
            "bursts": len(sampler.bursts), "burst_s": sum(sampler.bursts),
            "peak_rss_mb": peak_rss_mb, "failures": failures,
            "record": record}


def main(argv: list[str], startup: pace.Sampler) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode != "setup":
        startup.stop()
    try:
        if mode == "setup":
            out = setup(name, seed, Path(argv[3]), startup)
        else:
            out = run_one(name, seed, Path(argv[3]), Path(argv[4]), int(argv[5]), argv[6])
    except Exception:  # reported to the parent, which counts the pass as failed
        print(json.dumps({"failures": [traceback.format_exc()]}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], STARTUP))
