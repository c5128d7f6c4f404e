"""Command-line interface: every capability as a scriptable subcommand.

Exit codes: 0 success, 1 usage error, 2 data/contract error, 3 internal
error. Randomized subcommands require a seed, from ``--seed`` or from
the config's ``seed`` (``auto`` draws one and records it in the output). A
flat JSON ``--config`` file supplies defaults; explicit flags override it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from . import __version__
from .encoders import GRANULARITIES, TABLE_KINDS
from .errors import PhonoprepError, check_int
from .evaluate import bleu, vocab_stats
from .pipeline import (
    COMBINE_MODES,
    ENCODERS,
    PipelineConfig,
    WORD_ENCODERS,
    bpe_pieces,
    cluster_corpus,
    make_token_encoder,
    run_pipeline,
)
from .subword import (
    TypeMap,
    bpe_decode,
    bpe_learn,
    iter_lines,
    json_text,
    line_writer,
    load_bpe_model,
    map_tokens,
    read_lines,
    save_bpe_model,
    token_counts,
    write_lines,
)

# each command imports the modules that load numpy (augment, clustering,
# geometry) in its handler, so that the commands that use none load no numpy
if TYPE_CHECKING:
    import numpy as np

    from .geometry import HullParams


def _parse_seed(value: str) -> int:
    """'auto' draws a fresh seed and writes it to stderr; else an integer >= 0.

    A negative seed is a data error (exit 2), refused before any input is read.
    """
    if value == "auto":
        seed = int.from_bytes(os.urandom(8), "big") >> 1  # secrets.randbits(63), without OpenSSL
        print(f"phonoprep: seed {seed}", file=sys.stderr)
        return seed
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer or 'auto', got {value!r}"
        ) from None
    try:
        return check_int("seed", seed, 0)
    except ValueError as exc:  # argparse would make a ValueError a usage error (exit 1)
        raise PhonoprepError(str(exc)) from None


def _emit(args, lines: Iterable[str]) -> None:
    """Write ``lines`` to ``--output``, else to stdout, as they come."""
    if args.output:
        write_lines(args.output, lines)
    else:
        for line in lines:
            print(line)


def _emit_report(args, report) -> None:
    """Render ``report`` as ``--format`` asks; a report without a text form prints CSV."""
    if args.format == "json":
        text = json.dumps(report.to_dict(), sort_keys=True)
    elif args.format == "text" and hasattr(report, "format_line"):
        text = report.format_line()
    else:
        header, rows = report.rows()
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        text = buf.getvalue().rstrip("\n")
    _emit(args, [text])


def _hull_params(args) -> HullParams | None:
    from .geometry import HullParams

    if args.beta is None and args.radius is None:
        return None
    if args.beta is None or args.radius is None:
        raise PhonoprepError("--beta and --radius must be given together")
    return HullParams(beta=args.beta, radius=args.radius)


def _grouped_points(args) -> list[np.ndarray]:
    from .clustering import load_cluster_model
    from .geometry import group_points, load_embeddings

    projected = load_embeddings(args.points).vectors
    encoding = load_cluster_model(args.groups).assignment
    groups = group_points(projected, encoding)
    if not groups:
        raise PhonoprepError(f"groups {args.groups} share no unit with points {args.points}")
    return groups


# --- subcommand handlers ---

def cmd_encode(args) -> int:
    for flag, value, codecs in (("--table", args.table, TABLE_KINDS),
                                ("--granularity", args.granularity, TABLE_KINDS),
                                ("--model", args.model, ("cluster",))):
        if value is not None and args.codec not in codecs:
            raise PhonoprepError(f"{flag} is read only by --codec {' and '.join(codecs)}")
    cluster_model = None
    if args.codec == "cluster":
        if not args.model:
            raise PhonoprepError("--codec cluster requires --model")
        from .clustering import load_cluster_model

        cluster_model = load_cluster_model(args.model)
    encoder = make_token_encoder(args.codec, args.table, args.granularity or "per_character",
                                 cluster_model=cluster_model)
    codes = TypeMap(lambda tok: encoder(tok)[0])
    lines = iter_lines(args.input or sys.stdin.buffer)
    _emit(args, (map_tokens(codes, line.split()) for line in lines))
    return 0


def cmd_cluster(args) -> int:
    from .clustering import save_cluster_model

    if args.baseline is not None and args.fraction is not None:
        raise PhonoprepError("--baseline is read only without --fraction")
    model = cluster_corpus(token_counts(iter_lines(args.corpus)), args.seed,
                           fraction=args.fraction, baseline=args.baseline or "metaphone")
    save_cluster_model(model, args.output)
    print(f"wrote {model.num_clusters} clusters for {len(model.assignment)} units"
          f" to {args.output}")
    return 0


def cmd_bpe_learn(args) -> int:
    model = bpe_learn(token_counts(iter_lines(args.corpus)), args.operations)
    save_bpe_model(model, args.output)
    print(f"learned {len(model.merges)} merges to {args.output}")
    return 0


def cmd_bpe_apply(args) -> int:
    model = load_bpe_model(args.model)
    pieces, lines = bpe_pieces(model), iter_lines(args.input or sys.stdin.buffer)
    _emit(args, (" ".join(bpe_decode(line.split(), model)) if args.reverse
                 else map_tokens(pieces, line.split()) for line in lines))
    return 0


def cmd_pipeline_run(args) -> int:
    data = {f.name: getattr(args, f.name) for f in dataclasses.fields(PipelineConfig)
            if getattr(args, f.name, None) is not None}
    out = run_pipeline(PipelineConfig.from_dict(data))
    print(f"artifacts written to {out}")
    return 0


def cmd_geometry_embed(args) -> int:
    from .geometry import save_embeddings, train_embeddings

    table = train_embeddings(
        read_lines(args.corpus), d=args.dim, window=args.window, seed=args.seed,
        normalize=args.normalize,
    )
    save_embeddings(table, args.output)
    print(f"wrote {len(table.vectors)} vectors (d={table.dimension}) to {args.output}"
          f" (seed {args.seed})")
    return 0


def cmd_geometry_project(args) -> int:
    from .geometry import EmbeddingTable, load_embeddings, pca_project, save_embeddings

    table = load_embeddings(args.vectors)
    _, projected = pca_project(table)
    save_embeddings(EmbeddingTable(2, projected), args.output)
    print(f"projected {len(projected)} units to {args.output}")
    return 0


def cmd_geometry_gamma(args) -> int:
    from .geometry import concentration_factor

    _emit_report(args, concentration_factor(_grouped_points(args)))
    return 0


def cmd_geometry_cdf(args) -> int:
    from .geometry import CurveReport, volume_cdf

    cdf = volume_cdf(_grouped_points(args), _hull_params(args))
    _emit_report(args, CurveReport.volume_cdf(cdf))
    return 0


def cmd_geometry_coverage(args) -> int:
    from .geometry import CurveReport, coverage_curve

    curve = coverage_curve(_grouped_points(args), order_seed=args.seed,
                           params=_hull_params(args))
    _emit_report(args, CurveReport.coverage(curve, args.seed))
    return 0


def cmd_geometry_density(args) -> int:
    import numpy as np

    from .geometry import density_measure

    if args.samples < 1:
        raise PhonoprepError(f"--samples must be >= 1, got {args.samples}")
    groups = _grouped_points(args)
    _emit_report(args, density_measure(
        np.vstack(groups), groups, neighbor_index=args.index, params=_hull_params(args),
        m=args.samples, threshold=args.threshold, seed=args.seed,
    ))
    return 0


def cmd_augment_noise(args) -> int:
    from .augment import NoiseSpec, noise_augment
    from .geometry import load_embeddings

    if args.manifest and Path(args.manifest).resolve() == Path(args.output).resolve():
        raise PhonoprepError(f"--manifest and --output name the same file {args.output}")
    table = load_embeddings(args.embeddings)
    spec = NoiseSpec(fraction=args.fraction, top_n=args.top_n, seed=args.seed)
    stats: dict = {}
    # both files are opened before either is written, so a bad path leaves neither;
    # the output is renamed into place last
    with ExitStack() as stack:
        write = stack.enter_context(line_writer(args.output))
        write_manifest = stack.enter_context(line_writer(args.manifest)) if args.manifest else None
        for line in noise_augment(read_lines(args.input), table, spec, stats_out=stats):
            write(line)
        if write_manifest:
            write_manifest(json_text({"schema": "phonoprep/noise-manifest/1", "seed": args.seed,
                                      "fraction": args.fraction, "top_n": args.top_n,
                                      "stats": stats}))
    print(f"replaced {stats['replaced_tokens']} of {stats['total_tokens']} tokens"
          f" (seed {args.seed})")
    return 0


def cmd_augment_perturb(args) -> int:
    from .augment import PerturbationSpec, perturb_corpus

    lines = read_lines(args.input)
    vocab = sorted(token_counts(lines))
    spec = PerturbationSpec(k=args.k, seed=args.seed)
    write_lines(args.output, perturb_corpus(lines, vocab, spec))
    print(f"applied {args.k} edits per sentence to {len(lines)} sentences (seed {args.seed})")
    return 0


def cmd_eval_bleu(args) -> int:
    _emit_report(args, bleu(iter_lines(args.hyp), iter_lines(args.ref), smooth=args.smooth))
    return 0


def cmd_eval_vocab(args) -> int:
    streams: dict = {}
    for p in args.inputs:
        name = Path(p).name
        if name in streams:  # the report keys each stream by its file name
            raise PhonoprepError(f"two --input files are named {name!r}")
        streams[name] = token_counts(iter_lines(p))
    _emit_report(args, vocab_stats(streams))
    return 0


# --- parser assembly ---

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes an argument starting with "-" for a value where its private
        # ``_negative_number_matcher`` matches: widen it from -1 and -.5 to float()'s grammar
        self._negative_number_matcher = re.compile(
            r"-((\d(_?\d)*(\.(\d(_?\d)*)?)?|\.\d(_?\d)*)(e[-+]?\d(_?\d)*)?|inf(inity)?|nan)$", re.I)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_seed(p) -> None:
    p.add_argument("--seed", type=_parse_seed, required=True, help="an integer >= 0, or 'auto'")


def _add_format(p, default="text", choices=("text", "json", "csv")) -> None:
    p.add_argument("--format", choices=choices, default=default)
    p.add_argument("--output", help="write to file instead of stdout")


def _add_hull(p) -> None:
    p.add_argument("--beta", type=float, default=None,
                   help="outlier threshold: fraction (<1) or count (>=1)")
    p.add_argument("--radius", type=float, default=None, help="outlier ball radius")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phonoprep", description=__doc__)
    parser.add_argument("--version", action="version", version=f"phonoprep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("encode", help="encode tokens on stdin or a file")
    p.add_argument("--codec", choices=ENCODERS, required=True)
    p.add_argument("--table", help="code table override for pinyin/wubi")
    p.add_argument("--granularity", choices=GRANULARITIES)
    p.add_argument("--model", help="cluster model file for --codec cluster")
    p.add_argument("--input", help="input file (default: stdin)")
    p.add_argument("--output", help="output file (default: stdout)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("cluster", help="build a random clustering model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--baseline", choices=tuple(WORD_ENCODERS), default=None,
                   help="word codec whose code sizes the clusters copy (default: metaphone)")
    p.add_argument("--fraction", type=float, default=None,
                   help="uniform clustering at this fraction of the vocabulary")
    _add_seed(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("bpe", help="subword segmentation")
    bpe_sub = p.add_subparsers(dest="bpe_command", required=True, parser_class=_Parser)
    q = bpe_sub.add_parser("learn")
    q.add_argument("--corpus", required=True)
    q.add_argument("--operations", type=int, required=True)
    q.add_argument("--output", required=True)
    q.set_defaults(func=cmd_bpe_learn)
    q = bpe_sub.add_parser("apply")
    q.add_argument("--model", required=True)
    q.add_argument("--input", help="input file (default: stdin)")
    q.add_argument("--output", help="output file (default: stdout)")
    q.add_argument("--reverse", action="store_true", help="decode instead of encode")
    q.set_defaults(func=cmd_bpe_apply)

    p = sub.add_parser("pipeline", help="end-to-end corpus preparation")
    pipe_sub = p.add_subparsers(dest="pipeline_command", required=True,
                                parser_class=_Parser)
    q = pipe_sub.add_parser("run")
    q.add_argument("--train-path", dest="train_path")
    q.add_argument("--output-dir", dest="output_dir")
    q.add_argument("--encoder", choices=ENCODERS)
    q.add_argument("--combine-mode", dest="combine_mode", choices=COMBINE_MODES)
    q.add_argument("--separator")
    _add_seed(q)
    q.add_argument("--bpe-operations-words", dest="bpe_operations_words", type=int)
    q.add_argument("--bpe-operations-codes", dest="bpe_operations_codes", type=int)
    q.add_argument("--dev-path", dest="dev_path")
    q.add_argument("--test-path", dest="test_path")
    q.add_argument("--table-path", dest="table_path")
    q.add_argument("--granularity", choices=GRANULARITIES)
    q.add_argument("--cluster-baseline", dest="cluster_baseline",
                   choices=tuple(WORD_ENCODERS))
    q.add_argument("--cluster-fraction", dest="cluster_fraction", type=float)
    q.set_defaults(func=cmd_pipeline_run)

    p = sub.add_parser("geometry", help="dispersion analysis")
    geo_sub = p.add_subparsers(dest="geometry_command", required=True,
                               parser_class=_Parser)
    q = geo_sub.add_parser("embed")
    q.add_argument("--corpus", required=True)
    q.add_argument("--dim", type=int, default=100)
    q.add_argument("--window", type=int, default=5)
    _add_seed(q)
    q.add_argument("--normalize", action="store_true",
                   help="rescale vectors to unit length")
    q.add_argument("--output", required=True)
    q.set_defaults(func=cmd_geometry_embed)
    q = geo_sub.add_parser("project")
    q.add_argument("--vectors", required=True)
    q.add_argument("--output", required=True)
    q.set_defaults(func=cmd_geometry_project)
    for name, handler in (
        ("gamma", cmd_geometry_gamma),
        ("cdf", cmd_geometry_cdf),
        ("coverage", cmd_geometry_coverage),
        ("density", cmd_geometry_density),
    ):
        q = geo_sub.add_parser(name)
        q.add_argument("--groups", required=True, help="unit<TAB>group-id file")
        q.add_argument("--points", required=True, help="unit x y vectors file")
        if name in ("cdf", "coverage", "density"):
            _add_hull(q)
        if name in ("coverage", "density"):
            _add_seed(q)
        if name == "density":
            q.add_argument("--index", type=int, choices=(1, 2, 3), default=3)
            q.add_argument("--samples", type=int, default=10_000)
            q.add_argument("--threshold", type=float, default=0.001)
        _add_format(q, default="text" if name == "gamma" else "csv")
        q.set_defaults(func=handler)

    p = sub.add_parser("augment", help="robustness data generation")
    aug_sub = p.add_subparsers(dest="augment_command", required=True,
                               parser_class=_Parser)
    q = aug_sub.add_parser("noise")
    q.add_argument("--input", required=True)
    q.add_argument("--embeddings", required=True)
    q.add_argument("--output", required=True)
    q.add_argument("--fraction", type=float, default=0.2)
    q.add_argument("--top-n", dest="top_n", type=int, default=10)
    _add_seed(q)
    q.add_argument("--manifest", help="write seed/spec/stats JSON here")
    q.set_defaults(func=cmd_augment_noise)
    q = aug_sub.add_parser("perturb")
    q.add_argument("--input", required=True)
    q.add_argument("--output", required=True)
    q.add_argument("-k", "--k", type=int, required=True,
                   help="edit operations per sentence")
    _add_seed(q)
    q.set_defaults(func=cmd_augment_perturb)

    p = sub.add_parser("eval", help="scoring and statistics")
    eval_sub = p.add_subparsers(dest="eval_command", required=True,
                                parser_class=_Parser)
    q = eval_sub.add_parser("bleu")
    q.add_argument("--hyp", required=True)
    q.add_argument("--ref", required=True)
    q.add_argument("--smooth", action="store_true")
    _add_format(q, default="text", choices=("text", "json"))
    q.set_defaults(func=cmd_eval_bleu)
    q = eval_sub.add_parser("vocab")
    q.add_argument("--input", dest="inputs", action="append", required=True,
                   help="corpus file; repeat for multiple streams")
    _add_format(q, default="csv", choices=("json", "csv"))
    q.set_defaults(func=cmd_eval_vocab)

    return parser


def _parsers(parser: argparse.ArgumentParser):
    """``parser`` and every subparser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def _command_parsers(parser: argparse.ArgumentParser, argv: list[str]):
    """``parser`` and each subparser that a subcommand name in ``argv`` selects, top down."""
    chain, words = [parser], iter(argv)
    while sub := next((a for a in chain[-1]._actions
                       if isinstance(a, argparse._SubParsersAction)), None):
        name = next((w for w in words if w in sub.choices), None)
        if name is None:
            break
        chain.append(sub.choices[name])
    return chain


# JSON kinds a config value may take, and how an error names them, by option type
_CONFIG_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                 None: ((str,), "a string")}


def _config_value(config_path: str, key: str, value, action: argparse.Action):
    """``value`` checked and converted as ``action`` checks its flag's text.

    A switch takes true or false; any other option refuses a bool, and a
    number, or a string for an option whose ``type`` is a parser of its own
    (``--seed``), goes through the option's ``type`` as its text would. An
    ``auto`` seed is left for argparse, which draws it only if no flag
    overrides it. A repeatable option takes a list of such values.
    """
    switch = isinstance(action, argparse._StoreConstAction)  # store_true, store_false
    kinds, what = ((bool,), "true or false") if switch else _CONFIG_KINDS.get(
        action.type, ((int, str), "an integer or a string"))
    repeated = isinstance(action, argparse._AppendAction)
    items = value if repeated else [value]
    if repeated:
        what = f"a list of values that are each {what}"
    if not isinstance(items, list) or any(
            isinstance(v, bool) is not switch or not isinstance(v, kinds) for v in items):
        raise PhonoprepError(f"config {config_path}: {key} must be {what}, got {value!r}")
    if action.type is not None:
        try:
            items = [v if v == "auto" else action.type(str(v)) for v in items]
        except (argparse.ArgumentTypeError, PhonoprepError) as exc:
            # argparse catches these only for a flag; here the message names the config
            raise PhonoprepError(f"config {config_path}: {exc}") from None
    if action.choices is not None and any(v not in action.choices for v in items):
        raise PhonoprepError(f"config {config_path}: {key} must be one of "
                             f"{', '.join(map(str, action.choices))}, got {value!r}")
    return items if repeated else items[0]


def _apply_config_defaults(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Load a flat JSON config named by --config FILE or --config=FILE as defaults.

    Defaults go onto the parser and the subparsers of the command, whose
    namespaces are their own. A key must name an option of some subcommand,
    and its value must pass the checks of the command's options with that
    name; the value then stands in for the flag, required or not.
    """
    argv = [w for a in argv for w in (a.split("=", 1) if a.startswith("--config=") else [a])]
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        return argv  # let argparse report the missing value
    config_path = argv[at + 1]
    argv = argv[:at] + argv[at + 2:]
    data = json.loads(Path(config_path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise PhonoprepError(f"config {config_path} must be a flat JSON object")
    defaults = {k.replace("-", "_"): v for k, v in data.items()}
    # one flat config serves every subcommand: a key is known if any option has
    # it; a subcommand selector's dest names no option and is chosen in argv
    known = {action.dest for p in _parsers(parser) for action in p._actions
             if action.option_strings and action.default is not argparse.SUPPRESS}
    unknown = sorted(set(defaults) - known)
    if unknown:
        raise PhonoprepError(f"config {config_path}: unknown key(s) {', '.join(unknown)}")
    for p in _command_parsers(parser, argv):
        own = {action.dest: _config_value(config_path, action.dest, defaults[action.dest],
                                          action)
               for action in p._actions if action.dest in defaults}
        p.set_defaults(**own)
        for action in p._actions:
            if action.option_strings and action.dest in own:
                action.required = False
    return argv


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_defaults(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (PhonoprepError, OSError, ValueError) as exc:  # a bad config's JSON is a ValueError
        print(f"phonoprep: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"phonoprep: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
