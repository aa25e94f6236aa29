"""End-to-end batch pipeline: propose, embed, train, encode, index, score.

Every stage is deterministic given (config, seed); the worker-thread count
only parallelizes independent per-image work, so artifacts are byte-stable
across thread counts.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import encode, evaluation, index as index_mod
from .embed import (
    DESCRIPTOR_DIM,
    META_DTYPE,
    PATCH_SIDE,
    DescriptorSet,
    embed_patches,
    quarter_turn_copies,
    save_descriptors,
)
from .errors import StageError, read_utf8
from .proposals import (
    MIN_PATCH_SIDE,
    Patch,
    augment_rotations,
    check_patch_side,
    patch_rasters,
    propose,
)
from .raster import Image, read_pgm

THREADS_ENV_VAR = "KCNN_THREADS"


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs shared by the commands; every value is checked when the config is built."""

    n_proposals: int = 127
    pca_dim: int = 128
    gmm_components: int = 64
    rotations: bool = True
    use_proposals: bool = True
    normalization: str = "improved"
    whiten: bool = False
    seed: int = 42
    threads: int | None = None
    nms_iou: float = 0.5
    scales: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_proposals < 1:
            raise ValueError(f"proposal count must be >= 1, got {self.n_proposals}")
        if not 0.0 < self.nms_iou < 1.0:
            raise ValueError(f"nms_iou must lie in (0, 1), got {self.nms_iou}")
        if self.scales is not None and len(self.scales) == 0:
            raise ValueError("scales must be non-empty")
        if any(s < MIN_PATCH_SIDE for s in self.scales or ()):
            raise ValueError(f"every scale must be >= {MIN_PATCH_SIDE}")
        if not 1 <= self.pca_dim <= DESCRIPTOR_DIM:
            raise ValueError(f"pca dim must lie in 1..{DESCRIPTOR_DIM}, got {self.pca_dim}")
        if self.gmm_components < 1:
            raise ValueError(f"component count must be >= 1, got {self.gmm_components}")
        if self.normalization not in encode.NORMALIZATION_POLICIES:
            raise ValueError(f"unknown normalization policy {self.normalization!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"thread count must be >= 1, got {self.threads}")


_BOOL_VALUES = {"1": True, "true": True, "on": True, "0": False, "false": False, "off": False}


def boolean(raw: str) -> bool:
    """on/off, true/false or 1/0, in any case."""
    if raw.lower() not in _BOOL_VALUES:
        raise ValueError(f"expected a boolean, got {raw!r}")
    return _BOOL_VALUES[raw.lower()]


def int_tuple(raw: str) -> tuple[int, ...]:
    """Comma-separated integers such as the window sides "32,64"."""
    return tuple(int(v) for v in raw.split(",") if v)


class ConfigKey(NamedTuple):
    """How one PipelineConfig field is read from a config file and from a flag.

    A row with `switch` set is a flag without a value that sets the field
    to `switch`; every other flag passes its value through `parse`, as the
    config file does.
    """

    field: str
    stage: str  # the one that reads the field: propose, describe, pool, train or encode
    parse: Callable[[str], object]
    flag: str
    help: str
    switch: object = None
    choices: tuple[str, ...] | None = None


CONFIG_KEYS = (
    ConfigKey("n_proposals", "propose", int, "--n", "proposals per image (default 127)"),
    ConfigKey("nms_iou", "propose", float, "--nms-iou", "proposal NMS threshold (default 0.5)"),
    ConfigKey("scales", "propose", int_tuple, "--scales", "comma-separated window sides"),
    ConfigKey(
        "rotations", "describe", boolean, "--rotations", "8-way patch rotation, on|off (default on)"
    ),
    ConfigKey(
        "use_proposals", "describe", boolean, "--global-baseline",
        "bypass proposals: one full-frame descriptor per image (rotations default off)",
        switch=False,
    ),
    ConfigKey("threads", "pool", int, "--threads", "worker threads (default: usable CPUs)"),
    ConfigKey("pca_dim", "train", int, "--pca-dim", "PCA output dimension (default 128)"),
    ConfigKey("gmm_components", "train", int, "--components", "GMM component count (default 64)"),
    ConfigKey("whiten", "train", boolean, "--whiten", "enable PCA whitening", switch=True),
    ConfigKey("seed", "train", int, "--seed", "training seed (default 42)"),
    ConfigKey(
        "normalization", "encode", str, "--policy", "aggregation normalization (default improved)",
        choices=encode.NORMALIZATION_POLICIES,
    ),
)


def with_settings(cfg: PipelineConfig, settings: dict[str, object]) -> PipelineConfig:
    """cfg with the given field values. Turning proposals off also turns
    rotations off unless `settings` sets them, in a config file as by flag."""
    if settings.get("use_proposals") is False:
        settings = {"rotations": False, **settings}
    return replace(cfg, **settings)


def config_from_file(path: str | Path) -> PipelineConfig:
    """The default config with key=value lines (# comments allowed) applied.

    Keys are the field names of CONFIG_KEYS. A line that does not parse, or
    whose value the config rejects, raises ValueError naming path:lineno
    and the key; a file that is not UTF-8 raises FormatError naming the
    byte offset.
    """
    cfg = PipelineConfig()
    settings: dict[str, object] = {}
    parsers = {key.field: key.parse for key in CONFIG_KEYS}
    for lineno, line in enumerate(read_utf8(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        name, raw = (part.strip() for part in line.split("=", 1))
        if name not in parsers:
            raise ValueError(f"{path}:{lineno}: unknown config key {name!r}")
        try:
            settings[name] = parsers[name](raw)
            cfg = with_settings(PipelineConfig(), settings)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {name}: {exc}") from None
    return cfg


def resolve_threads(requested: int | None) -> int:
    """Worker count: KCNN_THREADS environment overrides, else flag, else the usable CPUs."""
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            threads = int(env)
        except ValueError:
            threads = 0
        if threads < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer >= 1, got {env!r}")
        return threads
    if requested is not None:
        return requested
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def stage(name: str):
    """Tag exceptions with the pipeline stage they came from."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def describe_image(image_id: str, img: Image, cfg: PipelineConfig) -> DescriptorSet:
    """Proposal + rotation + embedding stage for one image.

    With proposals disabled the single full-frame patch is used, so the
    rotations-off variant reduces exactly to the global whole-image
    descriptor path. With rotations on, two rasters per patch are embedded
    and the other six copies are derived by a column permutation
    (embed.quarter_turn_copies); rows stay in (patch_id, rotation_index)
    order, copy j being the patch turned by 45 j degrees. An image with a side
    below MIN_PATCH_SIDE is refused before any work, in either mode.
    """
    check_patch_side(img)
    if cfg.use_proposals:
        patches = propose(img, cfg)
    else:
        patches = [Patch(0, 0, img.width, img.height, 0.0)]

    if cfg.rotations:
        pairs, turns = augment_rotations(img, patches)
        pair_values = embed_patches(pairs.reshape(-1, PATCH_SIDE, PATCH_SIDE))
        copies = quarter_turn_copies(pair_values.reshape(len(patches), 2, -1), turns)
    else:
        copies = embed_patches(patch_rasters(img, patches))[:, None]
    per_patch = np.array(
        [(patch_id, *p[:4], 0, p.objectness) for patch_id, p in enumerate(patches)],
        dtype=META_DTYPE,
    )
    meta = np.repeat(per_patch, copies.shape[1]).view(np.recarray)
    meta.rotation_index = np.tile(np.arange(copies.shape[1]), len(patches))
    values = copies.reshape(-1, DESCRIPTOR_DIM)
    return DescriptorSet(image_id=image_id, meta=meta, values=values)


def load_corpus(corpus_dir: str | Path) -> list[tuple[str, Image]]:
    """All PGM images of a directory as (id, image), sorted by id."""
    corpus_dir = Path(corpus_dir)
    paths = sorted(corpus_dir.glob("*.pgm"))
    if not paths:
        raise ValueError(f"no .pgm images found in {corpus_dir}")
    return [(p.stem, read_pgm(p)) for p in paths]


def describe_corpus(corpus: list[tuple[str, Image]], cfg: PipelineConfig) -> list[DescriptorSet]:
    """Describe every image in the thread pool, with values rounded to f32 as KDESC stores them.

    Rounding moves a unit row's norm by about 6e-8, inside the 1e-6 within which
    `load_descriptors` keeps a row verbatim, so these are the values it would read back.
    """
    with ThreadPoolExecutor(max_workers=resolve_threads(cfg.threads)) as pool:
        sets = list(pool.map(lambda item: describe_image(item[0], item[1], cfg), corpus))
    return [DescriptorSet(d.image_id, d.meta, d.values.astype(np.float32)) for d in sets]


def train_codebook(
    sets: list[DescriptorSet], cfg: PipelineConfig
) -> tuple[encode.PCAModel, encode.GMMModel]:
    """Fit PCA on every descriptor, then the GMM on their projections."""
    # The stacked matrix is dead once PCA is fitted, so EM does not hold it.
    pca = encode.pca_train(
        np.vstack([dset.values for dset in sets]), cfg.pca_dim, whiten=cfg.whiten
    )
    reduced = np.vstack([encode.pca_project(pca, dset.values) for dset in sets])
    return pca, encode.gmm_train(reduced, cfg.gmm_components, cfg.seed)


def encode_sets(
    pca: encode.PCAModel, gmm: encode.GMMModel, sets: list[DescriptorSet], cfg: PipelineConfig
) -> list[index_mod.IndexEntry]:
    """Project and aggregate each set into its Fisher vector, in one loop.

    No thread pool: `aggregate`'s GEMMs already run on every BLAS thread.
    """
    entries = []
    for dset in sets:
        fv = encode.aggregate(gmm, encode.pca_project(pca, dset.values), cfg.normalization)
        entries.append(index_mod.IndexEntry(image_id=dset.image_id, values=fv.values))
    return entries


@dataclass
class PipelineArtifacts:
    index_path: Path
    model_path: Path
    descriptor_dir: Path
    image_count: int
    descriptor_count: int


def run_pipeline(corpus_dir: str | Path, out_dir: str | Path, cfg: PipelineConfig) -> PipelineArtifacts:
    """Describe a corpus, train the codebook on it, encode, and persist an index."""
    out_dir = Path(out_dir)
    desc_dir = out_dir / "descriptors"
    model_path = out_dir / "model.kmdl"
    index_path = out_dir / "index.kidx"
    resolve_threads(cfg.threads)  # a malformed KCNN_THREADS fails before any work

    with stage("corpus"):
        corpus = load_corpus(corpus_dir)
    with stage("embed"):
        sets = describe_corpus(corpus, cfg)
        desc_dir.mkdir(parents=True, exist_ok=True)
        for dset in sets:
            save_descriptors(desc_dir / f"{dset.image_id}.kdesc", dset)
    with stage("train"):
        pca, gmm = train_codebook(sets, cfg)
        encode.save_model(model_path, pca, gmm)
    with stage("encode"):
        entries = encode_sets(pca, gmm, sets, cfg)
    with stage("index"):
        index_mod.save(index_path, index_mod.build(entries))

    return PipelineArtifacts(
        index_path=index_path,
        model_path=model_path,
        descriptor_dir=desc_dir,
        image_count=len(corpus),
        descriptor_count=sum(dset.values.shape[0] for dset in sets),
    )


def evaluate_index(
    idx: index_mod.Index, gt: dict[str, dict[str, str]], mode: str
) -> tuple[list[tuple[str, float]], float]:
    """Run every ground-truth query (query_id -> {image_id -> label}) against the index.

    mode "map" follows the junk-aware protocol with the query dropped from
    its own ranked list; mode "top4" keeps the query and counts it as
    relevant.
    """
    if mode not in ("map", "top4"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    rows: list[tuple[str, float]] = []
    for query_id, labels in sorted(gt.items()):
        if query_id not in idx:
            raise ValueError(f"unknown query id {query_id!r}: not present in index")
        ranked = [image_id for image_id, _ in index_mod.search(idx, idx.vector(query_id), len(idx))]
        if mode == "map":
            ranked = [image_id for image_id in ranked if image_id != query_id]
            rows.append((query_id, evaluation.average_precision(ranked, labels)))
        else:
            rows.append((query_id, evaluation.top4_score(ranked, labels, query_id)))
    overall = float(np.mean([value for _, value in rows]))
    return rows, overall
