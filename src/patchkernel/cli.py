"""Batch command-line surface.

Every subcommand exits 0 on success; on failure it prints one machine
parsable line `stage: message` to stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import encode, evaluation, index as index_mod, proposals, synth
from .embed import load_descriptors, save_descriptors
from .errors import StageError
from .pipeline import (
    CONFIG_KEYS,
    PipelineConfig,
    config_from_file,
    describe_corpus,
    describe_image,
    encode_sets,
    evaluate_index,
    load_corpus,
    resolve_threads,
    run_pipeline,
    stage,
    train_codebook,
    with_settings,
)
from .raster import read_pgm


def _add_config_flags(parser: argparse.ArgumentParser, *stages: str, config: bool = True) -> None:
    """A flag per config key that one of `stages` reads; --config unless `config` is false."""
    if config:
        parser.add_argument("--config", type=Path, help="key=value config file")
    for key in CONFIG_KEYS:
        if key.stage not in stages:
            continue
        if key.switch is None:
            parser.add_argument(
                key.flag, dest=key.field, type=key.parse, choices=key.choices, help=key.help
            )
        else:
            parser.add_argument(
                key.flag, dest=key.field, action="store_const", const=key.switch, help=key.help
            )


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    config = getattr(args, "config", None)  # propose offers no --config
    cfg = PipelineConfig() if config is None else config_from_file(config)
    updates = {
        key.field: getattr(args, key.field)
        for key in CONFIG_KEYS
        if getattr(args, key.field, None) is not None
    }
    return with_settings(cfg, updates)


def _cmd_synth(args: argparse.Namespace) -> None:
    ids = synth.generate_corpus(args.out, n_base=args.n_base, seed=args.seed)
    print(f"wrote {len(ids)} images and groundtruth.csv to {args.out}")


def _cmd_propose(args: argparse.Namespace) -> None:
    cfg = _config_from_args(args)
    found = proposals.propose(read_pgm(args.image), cfg)
    proposals.write_patches_csv(args.out, found)
    print(f"wrote {len(found)} patches to {args.out}")


def _cmd_embed(args: argparse.Namespace) -> None:
    img = read_pgm(args.image)
    cfg = _config_from_args(args)
    dset = describe_image(Path(args.image).stem, img, cfg)
    save_descriptors(args.out, dset)
    print(f"wrote {dset.values.shape[0]} descriptors to {args.out}")


def _cmd_train(args: argparse.Namespace) -> None:
    cfg = _config_from_args(args)
    resolve_threads(cfg.threads)  # a malformed KCNN_THREADS fails before any work
    with stage("corpus"):
        corpus = load_corpus(args.corpus)
    with stage("embed"):
        sets = describe_corpus(corpus, cfg)
    with stage("train"):
        pca, gmm = train_codebook(sets, cfg)
        encode.save_model(args.out, pca, gmm)
    count = sum(dset.values.shape[0] for dset in sets)
    print(f"trained on {count} descriptors; model written to {args.out}")


def _cmd_encode(args: argparse.Namespace) -> None:
    cfg = _config_from_args(args)
    pca, gmm = encode.load_model(args.model)
    sets = [load_descriptors(path) for path in args.descriptors]
    idx = index_mod.build(encode_sets(pca, gmm, sets, cfg))
    index_mod.save(args.out, idx)
    print(f"encoded {len(idx)} images to {args.out}")


def _cmd_index(args: argparse.Namespace) -> None:
    entries: list[index_mod.IndexEntry] = []
    for path in args.inputs:
        part = index_mod.load(path)
        entries.extend(index_mod.IndexEntry(image_id=i, values=part.vector(i)) for i in part.ids)
    idx = index_mod.build(entries)
    index_mod.save(args.out, idx)
    print(f"indexed {len(idx)} images to {args.out}")


def _cmd_search(args: argparse.Namespace) -> None:
    idx = index_mod.load(args.index)
    queries = index_mod.load(args.queries)
    lines = ["query_id,rank,image_id,score"]
    for query_id in queries.ids:
        results = index_mod.search(idx, queries.vector(query_id), args.k)
        for rank, (image_id, score) in enumerate(results, start=1):
            lines.append(f"{query_id},{rank},{image_id},{score:.6f}")
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_eval(args: argparse.Namespace) -> None:
    idx = index_mod.load(args.index)
    gt = evaluation.load_ground_truth(args.gt)
    rows, overall = evaluate_index(idx, gt, args.mode)
    evaluation.write_metric_report(args.out, rows, overall, mode=args.mode)
    label = "mAP" if args.mode == "map" else "mean top-4"
    print(f"{label} = {overall:.6f} over {len(rows)} queries; report at {args.out}")


def _cmd_sensitivity(args: argparse.Namespace) -> None:
    corpus = load_corpus(args.corpus)
    if args.grid:
        grid = [float(v) for v in args.grid.split(",")]
    else:
        grid = evaluation.default_grid(args.kind, min(img.width for _, img in corpus))
    curve = evaluation.sensitivity_study(corpus, args.kind, grid)
    evaluation.write_curve_csv(args.out, curve)
    print(f"wrote {len(curve.grid)}-point {args.kind} curve to {args.out}")


def _cmd_pipeline(args: argparse.Namespace) -> None:
    cfg = _config_from_args(args)
    artifacts = run_pipeline(args.corpus, args.out, cfg)
    print(
        f"pipeline complete: {artifacts.image_count} images, "
        f"{artifacts.descriptor_count} descriptors, index at {artifacts.index_path}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchkernel",
        description="Patch-based kernel-aggregated image retrieval toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--n-base", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("propose", help="detect object-like patches in one image")
    p.add_argument("image", type=Path)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p, "propose", config=False)
    p.set_defaults(func=_cmd_propose)

    p = sub.add_parser("embed", help="compute patch descriptors for one image")
    p.add_argument("image", type=Path)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p, "propose", "describe")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("train", help="train the PCA+GMM codebook on a corpus")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p, "propose", "describe", "pool", "train")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("encode", help="aggregate descriptor files into an index")
    p.add_argument("descriptors", type=Path, nargs="+")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p, "encode")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("index", help="merge index files")
    p.add_argument("inputs", type=Path, nargs="+")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("search", help="rank index entries for each query vector")
    p.add_argument("--index", type=Path, required=True)
    p.add_argument("--queries", type=Path, required=True)
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("eval", help="score an index against ground truth")
    p.add_argument("--index", type=Path, required=True)
    p.add_argument("--gt", type=Path, required=True)
    p.add_argument("--mode", choices=["map", "top4"], default="map")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sensitivity", help="transform-sensitivity curve over a corpus")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--kind", choices=list(evaluation.TRANSFORMS), required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--grid", type=str, help="comma-separated parameter values")
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("pipeline", help="embed, train, encode, and index a corpus")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p, "propose", "describe", "pool", "train", "encode")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with stage(args.command):
            args.func(args)
    except StageError as exc:
        print(f"{exc.stage}: {exc.message}".replace("\n", " "), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
