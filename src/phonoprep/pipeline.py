"""End-to-end corpus preparation: encode, BPE, and combine streams.

``run_pipeline`` reads tokenized input corpora, converts every token to
its code (phonetic, table, or cluster), learns BPE models on the training
split only, applies them to every split, and emits either a single
concatenated stream (words + separator + codes) or paired multi-source
files, together with models, vocabulary reports, and a manifest carrying
every seed, parameter, and output checksum. Reruns with the same config
are byte-identical.
"""

from __future__ import annotations

import os
import shutil
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from . import __version__
from .encoders import (
    GRANULARITIES,
    TABLE_KINDS,
    bundled_table_path,
    encode_or_passthrough,
    load_code_table,
    metaphone_encode,
    nysiis_encode,
    soundex_encode,
    table_encode,
)
from .errors import PhonoprepError, PipelineStageError, check_fraction, check_int
from .evaluate import vocab_stats
from .subword import (
    CONTINUATION,
    BpeModel,
    TypeMap,
    bpe_apply,
    bpe_learn,
    iter_lines,
    line_writer,
    map_tokens,
    save_bpe_model,
    token_counts,
    write_json,
)

# clustering, and numpy with it, is imported only where the cluster encoder needs
# it, so that a run with a word or table codec loads no numpy
if TYPE_CHECKING:
    from .clustering import ClusterModel

__all__ = [
    "PipelineConfig",
    "EncodedCorpus",
    "ENCODERS",
    "COMBINE_MODES",
    "TokenEncoder",
    "WORD_ENCODERS",
    "make_token_encoder",
    "cluster_corpus",
    "bpe_pieces",
    "encode_corpus",
    "combine",
    "run_pipeline",
]

WORD_ENCODERS: dict[str, Callable[[str], str]] = {
    "soundex": soundex_encode,
    "nysiis": nysiis_encode,
    "metaphone": metaphone_encode,
}
ENCODERS = (*WORD_ENCODERS, *TABLE_KINDS, "cluster")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one run needs; serializes to/from a flat JSON document."""

    train_path: str
    output_dir: str
    encoder: str = "metaphone"
    combine_mode: str = "concat"  # one of COMBINE_MODES
    separator: str = "<sep>"
    seed: int = 0
    bpe_operations_words: int = 0
    bpe_operations_codes: int = 0
    dev_path: str | None = None
    test_path: str | None = None
    table_path: str | None = None  # pinyin/wubi only: table instead of the bundled one
    granularity: str = "per_character"  # table encoders only
    cluster_baseline: str = "metaphone"  # cluster only: the codec whose code sizes it copies
    cluster_fraction: float | None = None  # cluster only: near-equal clusters instead

    def __post_init__(self):
        for name in ("train_path", "output_dir"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        for name in ("dev_path", "test_path", "table_path"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name} must be a string or null, got {getattr(self, name)!r}")
        # stored as plain numbers, which the manifest's JSON echo can write
        for name in ("seed", "bpe_operations_words", "bpe_operations_codes"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 0))
        if self.cluster_fraction is not None:
            object.__setattr__(self, "cluster_fraction",
                               check_fraction("cluster_fraction", self.cluster_fraction))
        # concat lines are split back at the separator token, which BPE never touches
        sep = self.separator
        if not isinstance(sep, str) or sep.split() != [sep] or sep.endswith(CONTINUATION):
            raise ValueError(f"separator must be one token not ending with {CONTINUATION!r},"
                             f" got {sep!r}")
        if self.encoder not in ENCODERS:
            raise ValueError(f"unknown encoder {self.encoder!r}; pick one of {ENCODERS}")
        if self.combine_mode not in COMBINE_MODES:
            raise ValueError(f"unknown combine mode {self.combine_mode!r}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.cluster_baseline not in WORD_ENCODERS:
            raise ValueError(f"unknown cluster_baseline {self.cluster_baseline!r}")
        defaults = {f.name: f.default for f in fields(self)}
        for name, readers in (("table_path", TABLE_KINDS), ("granularity", TABLE_KINDS),
                              ("cluster_baseline", ("cluster",)),
                              ("cluster_fraction", ("cluster",))):
            if getattr(self, name) != defaults[name] and self.encoder not in readers:
                raise ValueError(f"{name} is read only by {' and '.join(readers)}")
        if self.cluster_fraction is not None and (
                self.cluster_baseline != defaults["cluster_baseline"]):
            raise ValueError("cluster_baseline is read only without cluster_fraction")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise PhonoprepError(f"unknown config key(s): {', '.join(unknown)}")
        missing = sorted(f.name for f in fields(cls)
                         if f.default is MISSING and f.name not in data)
        if missing:
            raise PhonoprepError(f"missing config key(s): {', '.join(missing)}")
        return cls(**data)


@dataclass
class EncodedCorpus:
    """A split's token counts in the word and code streams, and each type's code string
    (``codes``: its codes joined by spaces)."""

    word_counts: Counter[str]
    code_counts: Counter[str]
    codes: dict[str, str]
    token_parity: bool  # every token has one code, so the streams align token by token
    passthrough_tokens: int


Encoding = tuple[str, bool]  # (code string, token passed through as-is)
TokenEncoder = Callable[[str], Encoding]


def make_token_encoder(
    name: str,
    table_path: str | Path | None = None,
    granularity: str = "per_character",
    cluster_model: ClusterModel | None = None,
) -> TokenEncoder:
    """Build the token encoder named in a pipeline config.

    The encoder maps a token to ``(code string, passthrough)``: its codes
    joined by spaces, and a flag marking tokens the codec rejected and
    passed through as-is. It keeps nothing; callers hold one ``TypeMap``
    over it, so the codec runs once per distinct token.

    Table encoders read the code table at ``table_path``, or the one shipped
    with the package when it is None or empty; other encoders ignore it.
    """
    if name in WORD_ENCODERS:
        codec = WORD_ENCODERS[name]
        return lambda tok: encode_or_passthrough(tok, codec)
    if name in TABLE_KINDS:
        table = load_code_table(table_path or bundled_table_path(name))
        return lambda tok: (" ".join(table_encode(tok, table, granularity)), False)
    if name == "cluster":
        if cluster_model is None:
            raise ValueError("cluster encoder needs a ClusterModel")
        from .clustering import encode_with_clusters

        return lambda tok: (encode_with_clusters([tok], cluster_model)[0], False)
    raise ValueError(f"unknown encoder {name!r}")


def cluster_corpus(
    counts: Mapping[str, int],
    seed: int,
    fraction: float | None = None,
    baseline: str = "metaphone",
) -> ClusterModel:
    """Random cluster model over the distinct tokens of a corpus, the keys of its ``counts``.

    With ``fraction`` the clusters are near-equal and number
    ``fraction`` times the vocabulary; otherwise their sizes copy how many
    tokens share each code of the ``baseline`` word codec.
    """
    from .clustering import derive_size_distribution, random_cluster, random_cluster_uniform

    units = sorted(counts)
    if fraction is not None:
        return random_cluster_uniform(units, fraction, seed)
    dist = derive_size_distribution(units, WORD_ENCODERS[baseline])
    return random_cluster(units, dist, seed)


def bpe_pieces(model: BpeModel) -> TypeMap:
    """Text -> the BPE pieces of its tokens, joined by spaces; keys are tokens or code strings."""
    return TypeMap(lambda text: " ".join(bpe_apply(text.split(), model)))


def encode_corpus(counts: Mapping[str, int], encoder: TokenEncoder) -> EncodedCorpus:
    """A split's code counts, code strings, passthrough count and parity.

    ``counts`` holds each token's count in the split, as ``bpe_learn`` takes
    them. Each token type is encoded once, and its codes gain its count; a
    token the codec rejects passes through (counted per token). Parity holds
    when every token has one code.
    """
    word_counts = Counter(counts)
    code_of: dict[str, str] = {}
    code_counts: Counter[str] = Counter()
    passthrough = 0
    parity = True
    for tok, n in word_counts.items():
        joined, passed = encoder(tok)
        code_of[tok] = joined
        if passed:
            passthrough += n
        codes = joined.split()
        if len(codes) != 1:
            parity = False
        for code in codes:
            code_counts[code] += n
    return EncodedCorpus(word_counts, code_counts, code_of, parity, passthrough)


# combined input files of each mode, by suffix
_COMBINED = {"codes_only": ("input-codes",), "concat": ("concat",),
            "multi_source": ("src-words", "src-codes")}
COMBINE_MODES = tuple(_COMBINED)


def combine(
    lines: Iterable[str],
    encoded: EncodedCorpus,
    pieces: tuple[Mapping[str, str], Mapping[str, str]],
    mode: str,
    separator: str,
    out_dir: str | Path,
    prefix: str = "corpus",
) -> list[Path]:
    """Write the split's ``.words`` and ``.codes`` files and the combined input files
    of ``mode`` from its lines, one at a time; returns the paths. ``encoded`` is
    the split's count, and ``pieces`` map each token and each code string to its
    BPE pieces (``bpe_pieces`` of the word and of the code model)."""
    if mode not in _COMBINED:
        raise ValueError(f"unknown combine mode {mode!r}")
    word_pieces, code_pieces = pieces
    # concat lines are split back at the separator, which must be no piece of
    # either stream: the pieces are checked per type, and only on a collision
    # are the lines read, to name the first holding it (words before codes)
    for stream, table, keys in (("word stream", word_pieces, encoded.codes.keys()),
                                ("code stream", code_pieces, encoded.codes.values())
                                ) if mode == "concat" else ():
        hits = {tok for tok, key in zip(encoded.codes, keys) if separator in table[key].split()}
        if hits:
            first = next(i for i, line in enumerate(lines, start=1)
                         if not hits.isdisjoint(line.split()))
            raise PhonoprepError(f"separator {separator!r} occurs in {stream} line {first}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"{prefix}.{suffix}" for suffix in ("words", "codes", *_COMBINED[mode])]
    with ExitStack() as stack:
        writers = [stack.enter_context(line_writer(path)) for path in paths]
        for line in lines:
            tokens = line.split()
            code_keys = list(map(encoded.codes.__getitem__, tokens))
            words, codes = map_tokens(word_pieces, tokens), map_tokens(code_pieces, code_keys)
            combined = ((codes,) if mode == "codes_only" else (words, codes)
                        if mode == "multi_source" else (f"{words} {separator} {codes}".strip(),))
            for write, text in zip(writers, (" ".join(tokens), " ".join(code_keys), *combined)):
                write(text)
    return paths


def run_pipeline(config: PipelineConfig) -> Path:
    """Execute encode -> BPE -> combine and write the artifact directory.

    The artifacts are built in a hidden sibling directory that replaces
    ``output_dir`` only once its manifest is written, so a failed run
    leaves any earlier output as it was, and a rerun leaves no stale files.
    An existing ``output_dir`` is replaced only if it is empty or holds an
    earlier run's manifest; anything else is refused before any work.

    A failure inside a stage raises ``PipelineStageError`` whose ``stage`` is
    one of ``read-inputs``, ``build-encoder``, ``encode``, ``bpe-learn``,
    ``bpe-apply``, ``combine`` or ``reports``.
    """
    out = Path(config.output_dir)
    target = out.resolve()
    if target.exists() and not (target.is_dir() and (
            (target / "manifest.json").is_file() or not any(target.iterdir()))):
        raise FileExistsError(
            f"output directory {out} exists and is not an earlier pipeline output"
        )
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = target.with_name(f".{target.name}.tmp-{os.urandom(6).hex()}")
    staging.mkdir()
    try:
        _write_artifacts(config, staging)
        _replace_dir(staging, target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return out


def _replace_dir(new: Path, out: Path) -> None:
    """Rename ``new`` to ``out``; an existing ``out`` goes only after that succeeded."""
    if not out.exists():
        os.replace(new, out)
        return
    old = new.with_name(new.name + ".old")
    os.replace(out, old)
    try:
        os.replace(new, out)
    except OSError:
        os.replace(old, out)
        raise
    shutil.rmtree(old)


def _sha256(path: Path) -> str:
    import hashlib  # loads OpenSSL, which only the manifest needs

    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


@contextmanager
def _stage(name: str):
    """Re-raise a failure inside the block as a ``PipelineStageError`` of stage ``name``."""
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, str(exc)) from exc


def _write_artifacts(config: PipelineConfig, out: Path) -> None:
    for sub in ("inputs", "models", "streams", "reports"):
        (out / sub).mkdir()

    # each split is read twice, a line at a time: here to count, by ``combine`` to write
    sources = {"train": config.train_path, "dev": config.dev_path, "test": config.test_path}
    sources = {name: src for name, src in sources.items() if name == "train" or src}
    counts: dict[str, Counter[str]] = {}
    with _stage("read-inputs"):
        for name, src in sources.items():
            counts[name] = token_counts(iter_lines(src))
            shutil.copyfile(src, out / "inputs" / f"{name}.txt")

    # models are learned on the training split only
    cluster_model = None
    with _stage("build-encoder"):
        if config.encoder == "cluster":
            from .clustering import save_cluster_model

            cluster_model = cluster_corpus(counts["train"], config.seed,
                                           fraction=config.cluster_fraction,
                                           baseline=config.cluster_baseline)
            save_cluster_model(cluster_model, out / "models" / "clusters.tsv")
        # one memo for the run: the codec runs once per distinct token of all splits
        memo = TypeMap(make_token_encoder(config.encoder, config.table_path,
                                          config.granularity, cluster_model))

    with _stage("encode"):
        encoded = {name: encode_corpus(c, memo.__getitem__) for name, c in counts.items()}
    del memo, counts  # frees the memo, and the counts encode_corpus copied, before BPE learning

    train = encoded["train"]
    with _stage("bpe-learn"):
        word_bpe = bpe_learn(train.word_counts, config.bpe_operations_words)
        code_bpe = bpe_learn(train.code_counts, config.bpe_operations_codes)
        save_bpe_model(word_bpe, out / "models" / "words.bpe")
        save_bpe_model(code_bpe, out / "models" / "codes.bpe")

    # token -> BPE pieces and code string -> BPE pieces, shared by the splits
    pieces = word_pieces, code_pieces = bpe_pieces(word_bpe), bpe_pieces(code_bpe)
    for name, enc in encoded.items():
        with _stage("bpe-apply"):
            # only types the learners left out are segmented here, so a token
            # ending in the marker, which they leave out, fails here
            word_pieces.fill(enc.codes)
            code_pieces.fill(enc.codes.values())
        with _stage("combine"):
            combine(iter_lines(sources[name]), enc, pieces, config.combine_mode,
                    config.separator, out / "streams", prefix=name)

    with _stage("reports"):
        write_json(out / "reports" / "vocab.json", vocab_stats({
            "words": train.word_counts,
            "codes": train.code_counts,
            "combined": train.word_counts + train.code_counts,
        }).to_dict())

    manifest = {
        "schema": "phonoprep/manifest/1",
        "tool_version": __version__,
        "config": config.to_dict(),
        "token_parity": {name: enc.token_parity for name, enc in encoded.items()},
        "passthrough_tokens": {
            name: enc.passthrough_tokens for name, enc in encoded.items()
        },
        # ``out`` is this run's fresh build directory: it holds exactly its artifacts
        "files": {
            str(p.relative_to(out)): _sha256(p) for p in sorted(out.rglob("*")) if p.is_file()
        },
    }
    write_json(out / "manifest.json", manifest)
