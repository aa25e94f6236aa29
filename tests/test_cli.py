"""Command-line surface tests: flows, formats, exit codes, error lines."""

import os
import subprocess
import sys

import numpy as np
import pytest

from patchkernel import index as index_mod
from patchkernel.cli import _config_from_args, build_parser, main
from patchkernel.embed import load_descriptors
from patchkernel.errors import FormatError
from patchkernel.pipeline import CONFIG_KEYS, PipelineConfig, config_from_file, resolve_threads
from patchkernel.raster import Image, write_pgm

# FAST's proposal keys, the only ones of it that `embed` reads.
FAST_PROPOSALS = ["--n", "8", "--scales", "32,64"]
FAST = FAST_PROPOSALS + ["--pca-dim", "16", "--components", "4", "--seed", "42"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(out), "--n-base", "4", "--seed", "42"]) == 0
    return out


@pytest.fixture(scope="module")
def artifacts(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    code = main(["pipeline", "--corpus", str(corpus), "--out", str(out)] + FAST)
    assert code == 0
    return out


def test_synth_counts(corpus):
    assert len(list(corpus.glob("*.pgm"))) == 20
    assert (corpus / "groundtruth.csv").exists()


def test_propose_writes_csv(corpus, tmp_path):
    out = tmp_path / "patches.csv"
    code = main(["propose", str(corpus / "img000.pgm"), "--out", str(out), "--n", "5"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "patch_id,x,y,w,h,score"
    assert 2 <= len(lines) <= 7


@pytest.mark.parametrize(
    "flags",
    [[], ["--n", "16", "--scales", "32,64", "--nms-iou", "0.3"]],
    ids=["defaults", "n16-scales-32-64-nms-0.3"],
)
def test_propose_csv_matches_the_embedded_patches(flags, corpus, tmp_path):
    image = str(corpus / "img000.pgm")
    assert main(["propose", image, "--out", str(tmp_path / "p.csv")] + flags) == 0
    assert main(["embed", image, "--out", str(tmp_path / "e.kdesc")] + flags) == 0
    rows = np.loadtxt(tmp_path / "p.csv", delimiter=",", skiprows=1, ndmin=2)
    meta = load_descriptors(tmp_path / "e.kdesc").meta
    meta = meta[meta.rotation_index == 0]
    assert np.array_equal(rows[:, 0], meta.patch_id)
    assert np.array_equal(rows[:, 1:5], np.column_stack([meta.x, meta.y, meta.w, meta.h]))
    # The CSV keeps 6 decimals of the f64 score; KDESC keeps it rounded to f32.
    np.testing.assert_allclose(rows[:, 5], meta.objectness, rtol=0, atol=1e-6)


@pytest.mark.parametrize(
    "shape, flags, message",
    [
        ((12, 12), [], "image 12x12 is below the 16-px minimum patch side"),
        ((12, 40), [], "image 40x12 is below the 16-px minimum patch side"),
        ((12, 12), ["--n", "0"], "proposal count must be >= 1, got 0"),
        ((12, 12), ["--nms-iou", "1.5"], "nms_iou must lie in (0, 1), got 1.5"),
    ],
    ids=["12x12-image", "40x12-image", "n-0", "nms-iou-1.5"],
)
def test_propose_refusal_is_one_line(shape, flags, message, tmp_path, capsys):
    image = tmp_path / "small.pgm"
    write_pgm(image, Image(np.full(shape, 0.5)))
    code = main(["propose", str(image), "--out", str(tmp_path / "p.csv")] + flags)
    assert code == 1
    assert capsys.readouterr().err == f"propose: {message}\n"


def test_propose_offers_only_the_proposal_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["propose", "img.pgm", "--out", "o", "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_embed_writes_kdesc(corpus, tmp_path):
    out = tmp_path / "img000.kdesc"
    code = main(["embed", str(corpus / "img000.pgm"), "--out", str(out)] + FAST_PROPOSALS)
    assert code == 0
    dset = load_descriptors(out)
    assert dset.image_id == "img000"
    assert dset.values.shape[1] == 128
    assert dset.values.shape[0] % 8 == 0  # rotations on by default


def test_embed_refuses_image_id(corpus, tmp_path, capsys):
    # KDESC carries no id; the loader takes the file stem.
    with pytest.raises(SystemExit) as exc:
        main(["embed", str(corpus / "img000.pgm"), "--out", str(tmp_path / "x.kdesc"),
              "--image-id", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --image-id x" in capsys.readouterr().err


def test_embed_writes_the_pipeline_kdesc_bytes(corpus, artifacts, tmp_path):
    out = tmp_path / "img000.kdesc"
    assert main(["embed", str(corpus / "img000.pgm"), "--out", str(out)] + FAST_PROPOSALS) == 0
    assert out.read_bytes() == (artifacts / "descriptors" / "img000.kdesc").read_bytes()


def test_embed_global_baseline_single_descriptor(corpus, tmp_path):
    out = tmp_path / "g.kdesc"
    code = main(
        ["embed", str(corpus / "img000.pgm"), "--out", str(out), "--global-baseline"]
    )
    assert code == 0
    dset = load_descriptors(out)
    assert dset.values.shape[0] == 1
    assert dset.meta[0].x == 0 and dset.meta[0].y == 0
    assert dset.meta[0].w == 128 and dset.meta[0].h == 128


def test_pipeline_artifacts(artifacts):
    assert (artifacts / "index.kidx").exists()
    assert (artifacts / "model.kmdl").exists()
    assert len(list((artifacts / "descriptors").glob("*.kdesc"))) == 20
    idx = index_mod.load(artifacts / "index.kidx")
    assert len(idx) == 20


def test_eval_map_report(artifacts, corpus, tmp_path):
    report = tmp_path / "report.csv"
    code = main(
        ["eval", "--index", str(artifacts / "index.kidx"), "--gt",
         str(corpus / "groundtruth.csv"), "--mode", "map", "--out", str(report)]
    )
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "query_id,ap"
    assert lines[-1].startswith("ALL,")
    assert len(lines) == 6  # 4 queries + header + ALL
    overall = float(lines[-1].split(",")[1])
    assert 0.0 <= overall <= 1.0


def test_eval_top4_report(artifacts, corpus, tmp_path):
    report = tmp_path / "top4.csv"
    code = main(
        ["eval", "--index", str(artifacts / "index.kidx"), "--gt",
         str(corpus / "groundtruth.csv"), "--mode", "top4", "--out", str(report)]
    )
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "query_id,top4"
    overall = float(lines[-1].split(",")[1])
    assert 0.0 <= overall <= 4.0


def test_eval_unknown_query_is_config_error(artifacts, tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    gt.write_text("query_id,image_id,label\nghost,img000,rel\n")
    code = main(
        ["eval", "--index", str(artifacts / "index.kidx"), "--gt", str(gt),
         "--mode", "map", "--out", str(tmp_path / "r.csv")]
    )
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("eval: ")
    assert "ghost" in err and "\n" not in err


def test_search_csv(artifacts, tmp_path):
    out = tmp_path / "hits.csv"
    code = main(
        ["search", "--index", str(artifacts / "index.kidx"), "--queries",
         str(artifacts / "index.kidx"), "-k", "3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "query_id,rank,image_id,score"
    assert len(lines) == 1 + 20 * 3
    first = lines[1].split(",")
    assert first[0] == first[2]  # self-match ranks first
    assert first[1] == "1"


def test_encode_from_kdesc(artifacts, tmp_path):
    descs = sorted((artifacts / "descriptors").glob("*.kdesc"))[:3]
    out = tmp_path / "sub.kidx"
    code = main(
        ["encode", *map(str, descs), "--model", str(artifacts / "model.kmdl"),
         "--out", str(out)]
    )
    assert code == 0
    idx = index_mod.load(out)
    assert len(idx) == 3
    full = index_mod.load(artifacts / "index.kidx")
    for image_id in idx.ids:
        assert np.array_equal(idx.vector(image_id), full.vector(image_id))


def test_index_merge_roundtrip(artifacts, tmp_path):
    merged = tmp_path / "merged.kidx"
    code = main(["index", str(artifacts / "index.kidx"), "--out", str(merged)])
    assert code == 0
    assert merged.read_bytes() == (artifacts / "index.kidx").read_bytes()


def test_index_merge_duplicate_rejected(artifacts, tmp_path, capsys):
    code = main(
        ["index", str(artifacts / "index.kidx"), str(artifacts / "index.kidx"),
         "--out", str(tmp_path / "dup.kidx")]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("index: ")


def test_sensitivity_curve(corpus, tmp_path):
    out = tmp_path / "curve.csv"
    code = main(
        ["sensitivity", "--corpus", str(corpus), "--kind", "translate",
         "--out", str(out), "--grid", "0,32,64,96,128"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param,mean,std,count"
    ref = lines[1].split(",")
    assert float(ref[1]) == pytest.approx(1.0, abs=1e-9)
    assert float(ref[2]) == pytest.approx(0.0, abs=1e-9)


def test_sensitivity_translate_grid_snaps_to_whole_pixels(corpus, tmp_path):
    out = tmp_path / "curve.csv"
    code = main(
        ["sensitivity", "--corpus", str(corpus), "--kind", "translate",
         "--out", str(out), "--grid", "0,7.6,33"]
    )
    assert code == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == [
        "0.000000", "7.000000", "33.000000"
    ]


def test_sensitivity_grid_without_reference_fails(corpus, tmp_path, capsys):
    code = main(
        ["sensitivity", "--corpus", str(corpus), "--kind", "scale",
         "--out", str(tmp_path / "c.csv"), "--grid", "0.5,2.0"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("sensitivity: ")


def test_missing_image_error_format(tmp_path, capsys):
    code = main(["propose", str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "p.csv")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("propose: ")
    assert "\n" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--out", "{junk}"], "[Errno 17] File exists: '{junk}'"),
        (["embed", "{junk}", "--out", "{out}"], "{junk}: not a P5 PGM (bad magic at byte offset 0)"),
        (["encode", "{junk}", "--model", "{junk}", "--out", "{out}"],
         "{junk}: bad magic at byte offset 0"),
        (["search", "--index", "{junk}", "--queries", "{junk}"],
         "{junk}: bad magic at byte offset 0"),
        (["synth", "--out", "{out}", "--n-base", "0"], "n_base must be >= 1, got 0"),
    ],
)
def test_command_failure_is_one_line_named_by_command(argv, message, tmp_path, capsys):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"JUNK" + bytes(60))
    names = {"junk": junk, "out": tmp_path / "out"}
    assert main([arg.format(**names) for arg in argv]) == 1
    assert capsys.readouterr().err == f"{argv[0]}: {message.format(**names)}\n"


def test_stage_prefix_from_pipeline(tmp_path, capsys):
    # The inner stage's tag wins over the command name that tags the rest.
    for command in ("pipeline", "train"):
        code = main([command, "--corpus", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"corpus: no .pgm images found in {tmp_path}\n", command


def test_train_reproduces_pipeline_model(corpus, artifacts, tmp_path):
    out = tmp_path / "model.kmdl"
    code = main(["train", "--corpus", str(corpus), "--out", str(out)] + FAST)
    assert code == 0
    assert out.read_bytes() == (artifacts / "model.kmdl").read_bytes()


def test_encode_reproduces_pipeline_index(artifacts, tmp_path):
    descs = sorted((artifacts / "descriptors").glob("*.kdesc"))
    assert len(descs) == 20
    out = tmp_path / "all.kidx"
    code = main(
        ["encode", *map(str, descs), "--model", str(artifacts / "model.kmdl"),
         "--out", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == (artifacts / "index.kidx").read_bytes()


def test_config_file_roundtrip(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\nn_proposals=9\npca_dim=24\ngmm_components=3\n"
        "rotations=off\nnms_iou=0.4\nscales=32,48\nseed=7\n"
        "normalization=raw\nwhiten=true\nuse_proposals=0\nthreads=2\n"
    )
    cfg = config_from_file(cfg_file)
    assert cfg == PipelineConfig(
        n_proposals=9, pca_dim=24, gmm_components=3, rotations=False,
        nms_iou=0.4, scales=(32, 48), seed=7, normalization="raw", whiten=True,
        use_proposals=False, threads=2,
    )
    bad = tmp_path / "bad.cfg"
    bad.write_text("x=1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_file(bad)


@pytest.mark.parametrize(
    "line",
    ["n_proposals=abc", "rotations=maybe", "nms_iou=1.5", "scales=8", "threads=0", "seed=-1"],
)
def test_config_file_bad_value_names_line_and_key(line, tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"seed=7\n{line}\n")
    code = main(
        ["pipeline", "--corpus", str(tmp_path), "--out", str(tmp_path / "o"),
         "--config", str(cfg_file)]
    )
    assert code == 1
    err = capsys.readouterr().err.strip()
    key = line.split("=")[0]
    assert err.startswith(f"pipeline: {cfg_file}:2: {key}: ")
    assert "\n" not in err


def test_config_file_not_utf8_is_a_format_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"seed=7\n\xff\n")
    with pytest.raises(FormatError, match=f"{cfg_file}: not UTF-8 at byte offset 7"):
        config_from_file(cfg_file)
    code = main(
        ["pipeline", "--corpus", str(tmp_path), "--out", str(tmp_path / "o"),
         "--config", str(cfg_file)]
    )
    assert code == 1
    assert capsys.readouterr().err == f"pipeline: {cfg_file}: not UTF-8 at byte offset 7\n"


def test_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("rotations=on\nwhiten=off\nscales=32\n")
    args = build_parser().parse_args(
        ["pipeline", "--corpus", "c", "--out", "o", "--config", str(cfg_file),
         "--global-baseline", "--whiten", "--scales", "16,48", "--policy", "raw"]
    )
    assert _config_from_args(args) == PipelineConfig(
        use_proposals=False, rotations=False, whiten=True, scales=(16, 48),
        normalization="raw",
    )



def test_config_file_without_proposals_builds_what_global_baseline_builds(corpus, tmp_path):
    cfg_file = tmp_path / "gb.cfg"
    cfg_file.write_text("use_proposals=false\npca_dim=8\ngmm_components=2\n")
    flags = ["--global-baseline", "--pca-dim", "8", "--components", "2"]
    for out, extra in (("flag", flags), ("file", ["--config", str(cfg_file)])):
        assert main(["pipeline", "--corpus", str(corpus), "--out", str(tmp_path / out)] + extra) == 0
    for name in ("model.kmdl", "index.kidx"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()
    # rotations set in the same file stay as set
    cfg_file.write_text("use_proposals=false\nrotations=on\n")
    assert config_from_file(cfg_file) == PipelineConfig(use_proposals=False, rotations=True)

# The config fields each command's stages read, and the arguments it needs besides.
PROPOSE_FIELDS = {"n_proposals", "nms_iou", "scales"}
EMBED_FIELDS = PROPOSE_FIELDS | {"rotations", "use_proposals"}
TRAIN_FIELDS = EMBED_FIELDS | {"threads", "pca_dim", "gmm_components", "whiten", "seed"}
COMMAND_FIELDS = {
    "propose": (["img.pgm"], PROPOSE_FIELDS),
    "embed": (["img.pgm"], EMBED_FIELDS),
    "train": (["--corpus", "c"], TRAIN_FIELDS),
    "encode": (["a.kdesc", "--model", "m"], {"normalization"}),
    "pipeline": (["--corpus", "c"], TRAIN_FIELDS | {"normalization"}),
}
FLAG_VALUES = {
    "n_proposals": "9", "nms_iou": "0.4", "scales": "32,48", "rotations": "off",
    "threads": "2", "pca_dim": "24", "gmm_components": "3", "seed": "7",
    "normalization": "raw",
}


@pytest.mark.parametrize("key", CONFIG_KEYS, ids=[key.field for key in CONFIG_KEYS])
@pytest.mark.parametrize("command", list(COMMAND_FIELDS))
def test_command_offers_a_flag_iff_its_stages_read_the_key(command, key, capsys):
    positional, fields = COMMAND_FIELDS[command]
    flag = [key.flag] if key.switch is not None else [key.flag, FLAG_VALUES[key.field]]
    argv = [command, *positional, "--out", "o", *flag]
    if key.field in fields:
        value = key.switch if key.switch is not None else key.parse(flag[1])
        assert getattr(_config_from_args(build_parser().parse_args(argv)), key.field) == value
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["embed", "train", "encode", "pipeline"])
def test_config_file_sets_every_key_on_every_command_that_takes_it(command, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "".join(f"{key.field}={FLAG_VALUES.get(key.field, key.switch)}\n" for key in CONFIG_KEYS)
    )
    positional, _ = COMMAND_FIELDS[command]
    args = build_parser().parse_args(
        [command, *positional, "--out", "o", "--config", str(cfg_file)]
    )
    assert _config_from_args(args) == config_from_file(cfg_file)
    assert config_from_file(cfg_file) != PipelineConfig()


def test_threads_env_override(monkeypatch):
    monkeypatch.setenv("KCNN_THREADS", "3")
    assert resolve_threads(8) == 3
    monkeypatch.delenv("KCNN_THREADS")
    assert resolve_threads(8) == 8
    assert resolve_threads(None) >= 1


def test_threads_default_counts_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("KCNN_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_threads(None) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert resolve_threads(None) == 3


@pytest.mark.parametrize("command", [["embed", "img.pgm"], ["encode", "a.kdesc", "--model", "m"]])
def test_threads_flag_refused_where_no_pool_runs(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out", "o", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_threads_flag_sizes_the_describe_pool(command):
    args = build_parser().parse_args([command, "--corpus", "c", "--out", "o", "--threads", "2"])
    assert _config_from_args(args).threads == 2


# The corpus directory is empty: the variable must be refused before the corpus is read.
@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_threads_env_not_an_integer(command, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("KCNN_THREADS", "two")
    code = main([command, "--corpus", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"{command}: ")
    assert "KCNN_THREADS" in err and "'two'" in err


@pytest.mark.parametrize("command", ["train", "pipeline"])
@pytest.mark.parametrize("value", ["0", "-4"])
def test_threads_env_below_one_refused(value, command, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("KCNN_THREADS", value)
    code = main([command, "--corpus", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 1
    message = f"KCNN_THREADS must be an integer >= 1, got {value!r}"
    assert capsys.readouterr().err == f"{command}: {message}\n"


def test_console_entry_point(tmp_path):
    # one subprocess run to pin the installed entry point and exit codes
    result = subprocess.run(
        [sys.executable, "-m", "patchkernel.cli", "synth", "--out",
         str(tmp_path / "c"), "--n-base", "1"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    result = subprocess.run(
        [sys.executable, "-m", "patchkernel.cli", "eval", "--index",
         str(tmp_path / "missing.kidx"), "--gt", str(tmp_path / "missing.csv"),
         "--out", str(tmp_path / "r.csv")],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("eval: ")
