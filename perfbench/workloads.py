"""Inputs, set-up and measured loops of the three benchmark workloads.

``run.py`` starts this file in a fresh process per role:

    workloads.py inputs  --workload W --seed N --work DIR --size S
    workloads.py probe   --workload W --work DIR --size S --t0 T
    workloads.py measure --workload W --seed N --work DIR --size S --t0 T
                         --seconds S --trace 0|1

``inputs`` writes the seeded inputs (untimed).  ``probe`` only sets up
(import, plus ``load_model`` or ``index.load``) and reports how long that
took from process start, ``t0`` being the parent's monotonic clock just
before it started the process.  ``measure`` sets up the same way, then runs
whole passes over the workload's fixed work in a closed loop with one client,
checking every output: the workload's ``min_passes`` first, then another
only while it is expected (from the longest pass so far) to end within
``--seconds``.  The first pass gives the exact counts.
With ``--trace 1`` it runs three passes instead (untraced to warm up, traced,
untraced) and reports per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from patchkernel import embed, encode, evaluation, index, pipeline, raster, synth

import tracing
from run import source_digest

SIZES = {
    "default": {
        "build_scenes": 20, "train_scenes": 8, "ingest_scenes": 30,
        "rows": 1000, "dim": 16384, "duplicates": 8, "clusters": 50, "queries": 100, "k": 10,
    },
    "tiny": {
        "build_scenes": 2, "train_scenes": 2, "ingest_scenes": 2,
        "rows": 60, "dim": 256, "duplicates": 4, "clusters": 6, "queries": 12, "k": 10,
    },
}

# A Fisher vector or index row is unit-L2 within this tolerance (rows are stored as f32).
UNIT_TOL = 1e-5
# Reference scores closer than this count as a tie, broken by ascending id.
TIE_TOL = 1e-9
# The ingest codebook is trained on this seed's corpus, once per source tree.
CODEBOOK_SEED = 1_000_003
CACHE = Path(".perfbench") / "cache"


class Recorder:
    """Times operations, runs their output checks, and counts failures.

    An exception in an operation, or a failed check, counts as one failed
    operation and the loop goes on.
    """

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies: list[float] = []  # seconds, main operations only
        self.timed_s = 0.0  # every timed operation, main or not

    def run(self, request, op, check, main: bool = True):
        self.attempted += 1
        result = None
        traced = self.tracer is not None
        try:
            with self.tracer.operation(request) if traced else nullcontext():
                start = time.perf_counter()
                result = op()
                elapsed = time.perf_counter() - start
            self.timed_s += elapsed
            if main:
                self.latencies.append(elapsed)
            with self.tracer.paused() if traced else nullcontext():
                problem = check(result)
        except Exception as exc:  # the loop must survive any failure of the program
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{request}: {problem}")
        return result


def unit_vector_problem(values: np.ndarray) -> str | None:
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        return "non-finite vector"
    norm = float(np.linalg.norm(values))
    if abs(norm - 1.0) > UNIT_TOL:
        return f"vector norm {norm!r} is not 1"
    return None


def ranking_problem(got, ids: list[str], scores: np.ndarray, k: int) -> str | None:
    """Compare a top-k list with the float64 reference scores of every row.

    The list must hold the min(k, N) best rows by score, in descending
    score, ties broken by ascending id; scores within TIE_TOL are ties.
    """
    want = min(k, len(ids))
    got_ids = [image_id for image_id, _ in got]
    if len(got_ids) != want or len(set(got_ids)) != want:
        return f"expected {want} distinct results, got {got_ids}"
    row_of = {image_id: row for row, image_id in enumerate(ids)}
    if any(image_id not in row_of for image_id in got_ids):
        return "result id not in the index"
    rows = [row_of[image_id] for image_id in got_ids]
    for (image_id, score), row in zip(got, rows):
        if abs(score - scores[row]) > TIE_TOL:
            return f"{image_id}: score {score!r} != reference {scores[row]!r}"

    def before(a, b):  # a ranks ahead of b
        if abs(scores[a] - scores[b]) <= TIE_TOL:
            return ids[a] < ids[b]
        return scores[a] > scores[b]

    for a, b in zip(rows, rows[1:]):
        if not before(a, b):
            return f"{ids[b]} should rank ahead of {ids[a]}"
    last = rows[-1]
    chosen = set(rows)
    for row in range(len(ids)):
        if row not in chosen and before(row, last):
            return f"{ids[row]} missing from the top {want}"
    return None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --------------------------------------------------------------------- build


class Build:
    """README quickstart: run_pipeline at default flags, then eval in map mode.

    A measured run holds at least two builds: one ~27 s build is too short to
    average out the host's slow and fast spells.
    """

    min_passes = 2

    def inputs(self, work: Path, seed: int, size: dict) -> None:
        synth.generate_corpus(work / "corpus", n_base=size["build_scenes"], seed=seed)

    def setup(self, work: Path, size: dict) -> None:
        self.work = work
        self.corpus = work / "corpus"

    def prepare(self) -> None:
        self.image_ids = sorted(p.stem for p in self.corpus.glob("*.pgm"))
        self.passes = 0
        self.maps: list[float] = []
        self.counts: dict | None = None

    def one_build(self, out: Path):
        artifacts = pipeline.run_pipeline(self.corpus, out, pipeline.PipelineConfig())
        idx = index.load(artifacts.index_path)
        gt = evaluation.load_ground_truth(self.corpus / "groundtruth.csv")
        _, mean_ap = pipeline.evaluate_index(idx, gt, "map")
        return artifacts, idx, mean_ap

    def check(self, result) -> str | None:
        artifacts, idx, mean_ap = result
        if idx.ids != self.image_ids:
            return "index ids differ from the corpus ids"
        for image_id in idx.ids:
            problem = unit_vector_problem(idx.vector(image_id))
            if problem:
                return f"{image_id}: {problem}"
        copy = artifacts.index_path.with_suffix(".copy")
        index.save(copy, idx)
        if copy.read_bytes() != artifacts.index_path.read_bytes():
            return "index does not round-trip save -> load -> save"
        patches = 0
        for path in sorted(artifacts.descriptor_dir.glob("*.kdesc")):
            patches += len({m.patch_id for m in embed.load_descriptors(path).meta})
        counts = {
            "images": artifacts.image_count,
            "descriptors": artifacts.descriptor_count,
            "patches": patches,
            "kidx_bytes": artifacts.index_path.stat().st_size,
            "kmdl_bytes": artifacts.model_path.stat().st_size,
            "kidx_sha256": sha256(artifacts.index_path),
            "kmdl_sha256": sha256(artifacts.model_path),
        }
        if self.counts is not None and counts != self.counts:
            return "a repeated build gave different artifacts"
        self.counts = counts
        self.maps.append(mean_ap)
        return None

    def run_pass(self, rec: Recorder) -> None:
        out = self.work / f"build{self.passes}"
        rec.run(f"build{self.passes}", lambda: self.one_build(out), self.check)
        self.passes += 1
        shutil.rmtree(out, ignore_errors=True)

    def quality(self) -> float:
        return statistics.median(self.maps) if self.maps else 0.0


# -------------------------------------------------------------------- ingest


class Ingest:
    """Steady-state write path: one image at a time through an existing codebook.

    A measured run holds two passes (the first on a fresh heap, the second
    warm), which also averages over the host's slow and fast spells.
    """

    min_passes = 2

    def inputs(self, work: Path, seed: int, size: dict) -> None:
        # Training is untimed but takes ~11 s, so the codebook is kept for the
        # next run; the key holds the program's source, so a change retrains.
        src = Path(pipeline.__file__).parent
        cached = CACHE / f"codebook-{source_digest(src)[:16]}-{size['train_scenes']}.kmdl"
        if not cached.is_file():
            synth.generate_corpus(work / "train", n_base=size["train_scenes"], seed=CODEBOOK_SEED)
            trained = pipeline.run_pipeline(
                work / "train", work / "trained", pipeline.PipelineConfig(seed=CODEBOOK_SEED)
            )
            CACHE.mkdir(parents=True, exist_ok=True)
            partial = cached.with_suffix(f".{os.getpid()}.part")
            shutil.copy(trained.model_path, partial)
            os.replace(partial, cached)
            shutil.rmtree(work / "trained")
            shutil.rmtree(work / "train")
        shutil.copy(cached, work / "model.kmdl")
        synth.generate_corpus(work / "corpus", n_base=size["ingest_scenes"], seed=seed)

    def setup(self, work: Path, size: dict) -> None:
        self.work = work
        self.pca, self.gmm = encode.load_model(work / "model.kmdl")

    def prepare(self) -> None:
        self.cfg = pipeline.PipelineConfig()
        self.paths = sorted((self.work / "corpus").glob("*.pgm"))
        self.gt = evaluation.load_ground_truth(self.work / "corpus" / "groundtruth.csv")
        self.passes = 0
        self.map: float | None = None
        self.counts: dict | None = None

    def describe(self, path: Path):
        img = raster.read_pgm(path)
        dset = pipeline.describe_image(path.stem, img, self.cfg)
        reduced = encode.pca_project(self.pca, dset.values)
        return dset, encode.aggregate(self.gmm, reduced, self.cfg.normalization)

    def store(self, entries, out: Path):
        idx = index.build(entries)
        index.save(out, idx)
        return idx

    def run_pass(self, rec: Recorder) -> None:
        entries = []
        descriptors = patches = 0

        def check_vector(result):
            nonlocal descriptors, patches
            dset, fv = result
            problem = unit_vector_problem(fv.values)
            if problem is None:
                entries.append(index.IndexEntry(dset.image_id, fv.values))
                descriptors += len(dset.meta)
                patches += len({m.patch_id for m in dset.meta})
            return problem

        for path in self.paths:
            rec.run(path.stem, lambda: self.describe(path), check_vector)

        out = self.work / f"ingest{self.passes}.kidx"

        def check_index(idx):
            loaded = index.load(out)
            if loaded.ids != idx.ids or loaded.ids != sorted(e.image_id for e in entries):
                return "index ids do not round-trip save -> load"
            if self.map is None and len(entries) == len(self.paths):
                _, self.map = pipeline.evaluate_index(loaded, self.gt, "map")
                self.counts = {
                    "images": len(entries),
                    "descriptors": descriptors,
                    "patches": patches,
                    "kidx_bytes": out.stat().st_size,
                    "kidx_sha256": sha256(out),
                }
            return None

        rec.run(f"index{self.passes}", lambda: self.store(entries, out), check_index, main=False)
        out.unlink(missing_ok=True)
        self.passes += 1

    def quality(self) -> float:
        return self.map or 0.0


# --------------------------------------------------------------------- query


def fisher_rows(rng: np.random.Generator, count: int, dim: int, clusters: int) -> np.ndarray:
    """Rows shaped like improved Fisher vectors: clustered, signed-sqrt, unit-L2."""
    centers = rng.standard_normal((clusters, dim))
    raw = centers[rng.integers(clusters, size=count)] + rng.standard_normal((count, dim))
    rows = np.sign(raw) * np.sqrt(np.abs(raw))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class Query:
    """Read path: exact top-k search over a ~1,000-row KIDX at the default FV dim."""

    min_passes = 1

    def inputs(self, work: Path, seed: int, size: dict) -> None:
        rng = np.random.default_rng(seed)
        distinct = size["rows"] - size["duplicates"]
        rows = fisher_rows(rng, distinct, size["dim"], size["clusters"])
        dup_of = rng.choice(distinct, size=size["duplicates"], replace=False)
        rows = np.vstack([rows, rows[dup_of]]).astype(np.float32)
        names = [f"v{i:05d}" for i in rng.permutation(len(rows))]
        idx = index.build([index.IndexEntry(n, r) for n, r in zip(names, rows)])
        index.save(work / "index.kidx", idx)

        # Queries are perturbed rows; every duplicated row is among them.
        others = np.setdiff1d(np.arange(distinct), dup_of)
        sources = np.concatenate(
            [dup_of, rng.choice(others, size=size["queries"] - len(dup_of), replace=False)]
        )
        noise = rng.standard_normal((len(sources), size["dim"])) / np.sqrt(size["dim"])
        queries = rows[sources].astype(np.float64) + 0.5 * noise
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)

        order = sorted(range(len(names)), key=names.__getitem__)
        ids = [names[row] for row in order]
        scores = queries @ rows[order].astype(np.float64).T
        copies = {s: [s] + [distinct + j for j in np.flatnonzero(dup_of == s)] for s in sources}
        relevant = [sorted(names[row] for row in copies[s]) for s in sources]
        np.save(work / "queries.npy", queries)
        np.save(work / "scores.npy", scores)
        (work / "reference.json").write_text(json.dumps({"ids": ids, "relevant": relevant}))

    def setup(self, work: Path, size: dict) -> None:
        self.work = work
        self.k = size["k"]
        self.idx = index.load(work / "index.kidx")

    def prepare(self) -> None:
        self.queries = np.load(self.work / "queries.npy")
        self.scores = np.load(self.work / "scores.npy")
        reference = json.loads((self.work / "reference.json").read_text())
        self.ids = reference["ids"]
        self.relevant = reference["relevant"]
        self.passes = 0
        self.aps: list[float] = []
        self.counts = {
            "rows": len(self.ids),
            "queries": len(self.queries),
            "rows_scored": len(self.ids) * len(self.queries),
            "kidx_bytes": (self.work / "index.kidx").stat().st_size,
        }

    def run_pass(self, rec: Recorder) -> None:
        for q, query in enumerate(self.queries):

            def check(got, q=q):
                problem = ranking_problem(got, self.ids, self.scores[q], self.k)
                if problem is None and self.passes == 0:
                    relevant = set(self.relevant[q])
                    hits, precision = 0, 0.0
                    for rank, (image_id, _) in enumerate(got, start=1):
                        if image_id in relevant:
                            hits += 1
                            precision += hits / rank
                    self.aps.append(precision / len(relevant))
                return problem

            rec.run(f"q{q}", lambda: index.search(self.idx, query, self.k), check)
        self.passes += 1

    def quality(self) -> float:
        return float(np.mean(self.aps)) if self.aps else 0.0


WORKLOADS = {"build": Build, "ingest": Ingest, "query": Query}


# --------------------------------------------------------------------- roles


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n).

    With ten samples or fewer no percentile qualifies, and the maximum is given.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "workers": pipeline.resolve_threads(None),
        "kcnn_threads": os.environ.get(pipeline.THREADS_ENV_VAR, "unset"),
    }


def measure(workload, work: Path, seconds: float, trace: bool, t0: float, size: dict) -> dict:
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.install_layers(tracer)
    workload.setup(work, size)
    setup_s = time.monotonic() - t0
    if tracer is not None:
        tracer.uninstall()
    workload.prepare()

    rec = Recorder()
    start = time.perf_counter()
    if tracer is None:
        longest = 0.0
        while True:
            began = time.perf_counter()
            workload.run_pass(rec)
            longest = max(longest, time.perf_counter() - began)
            if workload.passes >= workload.min_passes:
                if time.perf_counter() + longest > start + seconds:
                    break
    else:
        # The first pass of a process runs slower (fresh heap pages), so it only
        # warms up; the overhead compares the traced pass with the untraced one after it.
        workload.run_pass(rec)
        traced, after = Recorder(tracer), Recorder()
        tracing.install_layers(tracer)
        try:
            workload.run_pass(traced)
        finally:
            tracer.uninstall()
        workload.run_pass(after)
        for other in (traced, after):
            rec.attempted += other.attempted
            rec.failed += other.failed
            rec.errors += other.errors
        layers = tracing.layer_metrics(
            tracer.spans, traced.timed_s - after.timed_s, after.timed_s
        )
        tracer.write(work / "spans.jsonl")

    latency, percentile, samples = tail(rec.latencies) if rec.latencies else (0.0, 0.0, 0)
    out = {
        "setup_s": setup_s,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "errors": rec.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "p50_ms": 1000.0 * statistics.median(rec.latencies) if rec.latencies else 0.0,
        "tail_ms": 1000.0 * latency,
        "tail_percentile": percentile,
        "samples": samples,
        "ops_per_s": len(rec.latencies) / rec.timed_s if rec.timed_s else 0.0,
        "timed_s": rec.timed_s,
        "passes": workload.passes,
        "map": workload.quality(),
        "counts": workload.counts,
        "environment": environment(),
    }
    if tracer is not None:
        out["layers"] = layers
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("inputs", "probe", "measure"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="default")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--t0", type=float, default=0.0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    size = SIZES[args.size]
    workload = WORKLOADS[args.workload]()
    if args.role == "inputs":
        args.work.mkdir(parents=True, exist_ok=True)
        workload.inputs(args.work, args.seed, size)
        result = {}
    elif args.role == "probe":
        workload.setup(args.work, size)
        result = {"setup_s": time.monotonic() - args.t0}
    else:
        result = measure(workload, args.work, args.seconds, bool(args.trace), args.t0, size)
        seeds = {"benchmark": args.seed}
        if args.workload == "ingest":
            seeds["codebook_corpus"] = CODEBOOK_SEED
        result["environment"]["seeds"] = seeds
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
