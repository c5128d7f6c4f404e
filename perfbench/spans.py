"""In-memory spans and counters, wrapped around phonoprep's public functions.

A span is ``{id, name, start, end, parent, pass_id}`` with ``parent`` the id
of the enclosing span (``None`` for the pass root). Spans and counters stay
in memory and are written out once the pass ends. Wrappers are installed on
the name the caller resolves (``phonoprep.pipeline.bpe_learn`` is the one
``run_pipeline`` calls), so the program itself is not changed.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ROOT = "pass"


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.seen: dict[object, set] = defaultdict(set)  # for repeat counters
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "pass_id": self.pass_id,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(self, result, args, kwargs)`` after it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counters[f"{name}.calls"] += 1
            if count is not None:
                count(self, result, args, kwargs)
            return result
        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def _count_merges(t, model, args, kwargs):
    t.counters["subword.bpe_learn.merges"] += len(model.merges)


def _count_repeats(t, result, args, kwargs):
    # bpe_apply(sentence, model): a token repeats if this model has segmented it before
    known = t.seen[id(args[1])]
    for tok in args[0]:
        t.counters["subword.bpe_apply.tokens"] += 1
        if tok in known:
            t.counters["subword.bpe_apply.repeats"] += 1
        else:
            known.add(tok)


def _count_nnz(t, result, args, kwargs):
    t.counters["geometry.cooccurrence_counts.nnz"] += int(result[1].nnz)


def _count_samples(t, report, args, kwargs):
    t.counters["geometry.density_measure.samples"] += report.samples_used


def _count_iterations(t, model, args, kwargs):
    # Lloyd iterations of the restart kept (cost is recorded once per iteration)
    t.counters["clustering.kmeans_fit.iterations"] += len(model.cost_history)


def _count_replaced(t, result, args, kwargs):
    stats = kwargs.get("stats_out")
    if stats is not None:
        t.counters["augment.noise_augment.replaced_tokens"] += stats["replaced_tokens"]


# (module, attribute the caller resolves, span name, counter hook)
TARGETS = (
    ("phonoprep.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("phonoprep.pipeline", "encode_corpus", "pipeline.encode_corpus", None),
    ("phonoprep.pipeline", "combine", "pipeline.combine", None),
    ("phonoprep.pipeline", "bpe_learn", "subword.bpe_learn", _count_merges),
    ("phonoprep.pipeline", "bpe_apply", "subword.bpe_apply", _count_repeats),
    ("phonoprep.pipeline", "vocab_stats", "evaluate.vocab_stats", None),
    ("phonoprep.geometry", "train_embeddings", "geometry.train_embeddings", None),
    ("phonoprep.geometry", "cooccurrence_counts", "geometry.cooccurrence_counts", _count_nnz),
    ("phonoprep.geometry", "ppmi", "geometry.ppmi", None),
    ("phonoprep.geometry", "pca_project", "geometry.pca_project", None),
    ("phonoprep.geometry", "smooth_hull", "geometry.smooth_hull", None),
    ("phonoprep.geometry", "volume_cdf", "geometry.volume_cdf", None),
    ("phonoprep.geometry", "coverage_curve", "geometry.coverage_curve", None),
    ("phonoprep.geometry", "density_measure", "geometry.density_measure", _count_samples),
    ("phonoprep.geometry", "concentration_factor", "geometry.concentration_factor", None),
    ("phonoprep.clustering", "kmeans_fit", "clustering.kmeans_fit", _count_iterations),
    ("phonoprep.clustering", "random_cluster", "clustering.random_cluster", None),
    ("phonoprep.clustering", "derive_size_distribution",
     "clustering.derive_size_distribution", None),
    ("phonoprep.augment", "noise_augment", "augment.noise_augment", _count_replaced),
    ("phonoprep.augment", "perturb_corpus", "augment.perturb_corpus", None),
    ("phonoprep.evaluate", "bleu", "evaluate.bleu", None),
)


def _counting_codec(tracer: Tracer, fn):
    # codecs run once per token: count calls and repeats, no span
    @functools.wraps(fn)
    def codec(token):
        known = tracer.seen[fn]
        tracer.counters["encoders.codec_calls"] += 1
        if token in known:
            tracer.counters["encoders.codec_repeats"] += 1
        else:
            known.add(token)
        return fn(token)
    return codec


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target (and every pipeline codec) for the ``with`` body."""
    restore: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            restore.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        codecs = importlib.import_module("phonoprep.pipeline").WORD_ENCODERS
        for key, original in list(codecs.items()):
            restore.append((codecs, key, original))
            codecs[key] = _counting_codec(tracer, original)
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for sid, t in self_times(spans).items():
        totals[spans[sid]["name"]] += t
    return dict(totals)


def check_tree(spans: list[dict]) -> list[str]:
    """Problems with the nesting: one root per pass, children inside parents."""
    problems = []
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1 or roots[0]["name"] != ROOT:
        problems.append(f"expected one {ROOT!r} root, got {[r['name'] for r in roots]}")
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} is not closed")
            continue
        p = by_id.get(s["parent"])
        if s["parent"] is not None and (
            p is None or p["pass_id"] != s["pass_id"]
            or s["start"] < p["start"] or s["end"] > p["end"]
        ):
            problems.append(f"span {s['id']} {s['name']} is not inside its parent")
    return problems
