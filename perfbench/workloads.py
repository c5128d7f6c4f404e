"""The three workloads: their inputs, one pass each, and the pass's gate.

- ``pipeline-desk``: ``run_pipeline`` with metaphone, concat, a train split
  only and 2000/1000 BPE operations on the desk-shaped corpus (~160k
  tokens, ~5k types, so ~97% of tokens repeat a type). ``bpe_learn``
  dominates; per-type memoisation has the most to reuse here.
- ``pipeline-wide``: ``run_pipeline`` with nysiis, multi_source and
  train/dev/test = 80/10/10 on the wide corpus (type/token ~0.35):
  encoding and segmentation mostly meet new types, BPE is applied to
  held-out splits, and a second codec and combine path run.
- ``geometry-desk``: embeddings, PCA, K-Means and the dispersion measures
  on the desk-shaped corpus, then noise, perturbation and BLEU. It makes
  no BPE or pipeline call, so it is the bypass side for those layers.

The program only sees the files ``make_inputs`` writes. Calls go through
module attributes (``pipeline.run_pipeline``), which is where the tracer
installs its wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpus
import gates
from phonoprep import augment, clustering, evaluate, geometry, pipeline
from phonoprep.encoders import metaphone_encode, nysiis_encode

BPE_OPS_WORDS = 2000
BPE_OPS_CODES = 1000
COVERAGE_GROUPS = 12
# Lloyd iterations per K-Means restart. Uncapped, convergence took 17 to 39
# iterations over seeds 11-20, which made K-Means 2.7 to 6.5 s of a pass and
# the pass's cost depend on the seed; the default seed converges in 19.
KMEANS_MAX_ITER = 20
# the program's own seeds; the workload seed only drives the corpus
SEEDS = {"pipeline": 7, "embeddings": 7, "random_cluster": 0, "kmeans": 0,
         "coverage": 1, "density": 0, "noise": 11, "perturb": 5}


@dataclass(frozen=True)
class Workload:
    name: str
    shape: corpus.CorpusShape
    splits: tuple[tuple[str, float], ...]  # split name, cumulative share
    encoder: str | None = None  # pipeline workloads only
    combine_mode: str | None = None

    @property
    def is_pipeline(self) -> bool:
        return self.encoder is not None


WORKLOADS = {
    w.name: w for w in (
        Workload("pipeline-desk", corpus.DESK, (("train", 1.0),),
                 encoder="metaphone", combine_mode="concat"),
        Workload("pipeline-wide", corpus.WIDE,
                 (("train", 0.8), ("dev", 0.9), ("test", 1.0)),
                 encoder="nysiis", combine_mode="multi_source"),
        Workload("geometry-desk", corpus.DESK, (("train", 1.0),)),
    )
}
CODECS = {"metaphone": metaphone_encode, "nysiis": nysiis_encode}


def make_inputs(w: Workload, seed: int, dest: Path) -> dict:
    """Write the workload's input files for ``seed``; describe what was written."""
    lines = corpus.generate(w.shape, seed)
    dest.mkdir(parents=True, exist_ok=True)
    start = 0
    for name, share in w.splits:
        end = round(share * len(lines))
        (dest / f"{name}.txt").write_text(corpus.corpus_text(lines[start:end]),
                                          encoding="utf-8")
        start = end
    tokens = sum(len(line.split()) for line in lines)
    return {
        "sentences": len(lines),
        "tokens": tokens,
        "type_token_ratio": corpus.type_token_ratio(lines),
    }


def bundled_corpus_check(w: Workload, seed: int, inputs: Path) -> list[str]:
    """The desk shape at the default seed must reproduce the bundled corpus."""
    bundled = Path(__file__).resolve().parent.parent / "data" / "desk_en.txt"
    if w.shape is not corpus.DESK or seed != corpus.DESK_SEED or not bundled.exists():
        return []
    if (inputs / "train.txt").read_bytes() != bundled.read_bytes():
        return [f"seed {seed} does not reproduce data/desk_en.txt"]
    return []


def split_paths(w: Workload, inputs: Path) -> dict[str, Path]:
    return {name: inputs / f"{name}.txt" for name, _ in w.splits}


def run_pass(w: Workload, inputs: Path, out: Path):
    """One pass of the workload: the part that is timed."""
    if w.is_pipeline:
        paths = split_paths(w, inputs)
        return pipeline.run_pipeline(pipeline.PipelineConfig(
            train_path=str(paths["train"]),
            dev_path=str(paths["dev"]) if "dev" in paths else None,
            test_path=str(paths["test"]) if "test" in paths else None,
            output_dir=str(out),
            encoder=w.encoder,
            combine_mode=w.combine_mode,
            seed=SEEDS["pipeline"],
            bpe_operations_words=BPE_OPS_WORDS,
            bpe_operations_codes=BPE_OPS_CODES,
        ))
    return _geometry_pass(inputs / "train.txt")


def _geometry_pass(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    table = geometry.train_embeddings(lines, d=100, window=5, seed=SEEDS["embeddings"],
                                      normalize=True)
    _, projected = geometry.pca_project(table)
    units = sorted(table.vectors)
    pts = np.array([projected[u] for u in units])

    groupings = {"metaphone": geometry.group_points(
        projected, {u: metaphone_encode(u) for u in units})}
    k = len(groupings["metaphone"])
    dist = clustering.derive_size_distribution(units, metaphone_encode)
    rnd = clustering.random_cluster(units, dist, seed=SEEDS["random_cluster"])
    groupings["random"] = geometry.group_points(projected, rnd.assignment)
    km = clustering.kmeans_fit(pts, k=k, seed=SEEDS["kmeans"], n_init=2,
                               max_iter=KMEANS_MAX_ITER)
    groupings["kmeans"] = [pts[km.assignment == j] for j in range(k)
                           if (km.assignment == j).any()]

    result = {"kmeans_iterations": len(km.cost_history), "groups": k,
              "gamma": {}, "density": {}, "coverage": {}}
    for name, groups in groupings.items():
        result["gamma"][name] = geometry.concentration_factor(groups).gamma
        geometry.volume_cdf(groups)
        pick = np.random.default_rng(SEEDS["coverage"]).choice(
            len(groups), COVERAGE_GROUPS, replace=False)
        result["coverage"][name] = [v for _, v in geometry.coverage_curve(
            [groups[i] for i in pick], order_seed=SEEDS["coverage"])]
        dens = geometry.density_measure(pts, groups, neighbor_index=3, m=4000,
                                        seed=SEEDS["density"])
        result["density"][name] = {
            "max": [dens.max_density[i] for i in (1, 2, 3)],
            "sum": [dens.sum_density[i] for i in (1, 2, 3)],
        }

    stats: dict = {}
    noised = augment.noise_augment(
        lines, table, augment.NoiseSpec(fraction=0.2, top_n=10, seed=SEEDS["noise"]),
        stats_out=stats)
    perturbed = augment.perturb_corpus(
        lines, units, augment.PerturbationSpec(k=3, seed=SEEDS["perturb"]))
    result["bleu"] = {"noise": evaluate.bleu(noised, lines).bleu,
                      "perturb": evaluate.bleu(perturbed, lines).bleu}
    result["noise_rate"] = stats["replacement_rate"]
    result["_corpora"] = (lines, noised, perturbed)
    return result


def check_pass(w: Workload, seed: int, inputs: Path, result) -> tuple[list[str], dict]:
    """Gate a pass's output; also return what the gate saw, for the record."""
    # goldens were recorded at the default seed, the one reproducing data/desk_en.txt
    golden = gates.load_golden()[w.name] if seed == corpus.DESK_SEED else None
    if w.is_pipeline:
        failures = gates.check_pipeline(result, split_paths(w, inputs),
                                         CODECS[w.encoder], golden)
        files = [p for p in result.rglob("*") if p.is_file()]
        return failures, {"bytes_written": sum(p.stat().st_size for p in files)}
    lines, noised, perturbed = result.pop("_corpora")
    result["lines_kept"] = (
        len(noised) == len(lines) == len(perturbed)
        and all(len(a.split()) == len(b.split()) for a, b in zip(noised, lines))
    )
    return gates.check_geometry(result, golden), result
