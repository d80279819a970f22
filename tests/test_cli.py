"""End-to-end command-line flows and exit codes.

``run_cli`` drives ``cli.main`` in-process; a fresh interpreter starts only
where the process is the subject: imports, page faults, the oldest
supported Python and one ``python -m iem`` entry-point check.
"""

import ast
import builtins
import contextlib
import ctypes
import dataclasses
import errno
import glob
import importlib
import io
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iem
import oracles
from iem import cli, errors, harness, kernels, pgm, synth, trainer
from iem.cli import CONFIG_KEYS, make_configs, read_config_file
from iem.errors import DataError
from iem.selection import SelectionConfig
from iem.trainer import TrainConfig, init_params, load_params, save_params

FAST_CONFIG = "iterations_per_step=2\nt=1\nd=50\n"


SRC_DIR = os.path.dirname(os.path.dirname(iem.__file__))


def run_python(*args):
    """Run the interpreter with the same source tree as the tests first."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC_DIR + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env)


def run_cli(*args):
    """Run ``cli.main`` on ``args`` in-process, as ``python -m iem`` would:
    its exit code, or a usage error's, and what it printed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([str(arg) for arg in args])
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, stdout.getvalue(),
                                       stderr.getvalue())


@pytest.fixture(scope="module")
def trained(tiny_dataset_dir, tmp_path_factory):
    """One iem and one naive training run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli-out")
    config = root / "fast.cfg"
    config.write_text(FAST_CONFIG)
    for strategy in ("iem", "naive"):
        out = run_cli("train", "--strategy", strategy, "--data",
                      tiny_dataset_dir, "--out", root / "runs",
                      "--config", config, "--seed", 0)
        assert out.returncode == 0, out.stderr
        (root / f"{strategy}.stdout").write_text(out.stdout)
    return root


# -- parsing helpers -------------------------------------------------------


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "d = 3\n"
        "learning_rate=0.25\n"
        "jitter=0\n"
        "error_weight_fp=0\n"
        "error_weight_fn = 0\n"
    )
    values = read_config_file(str(path))
    assert values == {"d": 3, "learning_rate": 0.25, "jitter": 0.0,
                      "error_weight_fp": 0.0, "error_weight_fn": 0.0}
    selcfg, traincfg = make_configs(values)
    assert selcfg.d == 3 and selcfg.error_weights == (0.0, 0.0, 1.0)
    assert traincfg.learning_rate == 0.25 and traincfg.jitter == 0.0


@pytest.mark.parametrize(
    "text, complaint",
    [
        ("mystery=1\n", "unknown config key"),
        ("d=3\nd=4\n", "duplicate config key"),
        ("d=many\n", "bad value for d"),
        ("just-a-word\n", "expected key=value"),
        # settings that are no longer options: K is the new chunk's
        # positive count, 0.5 binarizes, and both flips are always views
        ("K=3\n", "unknown config key 'K'"),
        ("binarize_threshold=0.6\n", "unknown config key 'binarize_threshold'"),
        ("horizontal_flip=no\n", "unknown config key 'horizontal_flip'"),
        ("vertical_flip=no\n", "unknown config key 'vertical_flip'"),
    ],
)
def test_config_file_rejects(tmp_path, text, complaint):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(DataError, match=complaint):
        read_config_file(str(path))


def test_config_file_names_the_line_of_a_non_utf8_byte(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"d=3\n# caf\xe9\n")
    with pytest.raises(DataError, match=r"run\.cfg:2: .*byte 0xe9"):
        read_config_file(str(path))


def test_config_file_ignores_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfd=3\n")
    assert read_config_file(str(path)) == {"d": 3}
    # the mark holds no newline, so a bad byte is still named by its line
    path.write_bytes(b"\xef\xbb\xbfd=3\n# caf\xe9\n")
    with pytest.raises(DataError, match=r"bom\.cfg:2: .*byte 0xe9"):
        read_config_file(str(path))


def test_config_keys_are_the_config_fields():
    # the keys are derived from the dataclasses; a field added to one of
    # them must show up here as a deliberate change
    assert CONFIG_KEYS == {
        "d": int, "t": int, "iterations_per_step": int,
        "seed": int, "tau": float,
        "error_weight_fp": float, "error_weight_fn": float,
        "error_weight_ji": float, "learning_rate": float,
        "epochs_per_iteration": int, "jitter": float,
    }


def test_readme_config_table_lists_every_key_and_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for key, default in re.findall(r"^\| `([^`]+)`\s*\|\s*([^|]*?)\s*\|",
                                   section, re.MULTILINE):
        keys = [key]
        if "/" in key:  # error_weight_fp/fn/ji stands for three keys
            prefix, _, names = key.rpartition("_")
            keys = [f"{prefix}_{n}" for n in names.split("/")]
        documented.update(dict.fromkeys(keys, default.strip("`")))
    defaults = {f.name: f.default
                for cls in (SelectionConfig, TrainConfig)
                for f in dataclasses.fields(cls)}
    assert set(documented) == set(CONFIG_KEYS)
    for key, text in documented.items():
        assert CONFIG_KEYS[key](text) == defaults[key], key


def test_readme_lists_the_flags_that_override_the_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    paragraph = section.strip().split("\n\n", 1)[0]
    documented = {
        command: set(re.findall(r"`(--[\w-]+)`", text))
        for command, text in re.findall(r"`iem (\w+)` takes (.*?)(?=`iem |$)",
                                        paragraph, re.DOTALL)
    }
    not_overrides = {"-h", "--help", "--data", "--out", "--config",
                     "--strategy", "--checkpoint", "--test"}
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    flags = {
        command: {flag for action in commands[command]._actions
                  for flag in action.option_strings} - not_overrides
        for command in ("train", "eval")
    }
    assert documented == flags == {"train": {"--seed"}, "eval": set()}


def test_readme_library_use_block_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert [row.stage for row in names["report"].rows] == [0, 1, 2, 3, 4]
    assert len(names["staged_pool"].records) == len(names["pool"].records) == 400


def test_readme_quick_start_table_matches_a_fresh_run(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    [config] = re.findall(r"^printf '(.*)' > run\.cfg$", section, re.MULTILINE)
    (tmp_path / "run.cfg").write_text(config.replace("\\n", "\n"))
    settings = read_config_file(str(tmp_path / "run.cfg"))
    selcfg, traincfg = make_configs({**settings, "seed": 0})
    synth.generate_scenario(synth.default_scenario(0), str(tmp_path / "data"))
    chunks, test = harness.load_dataset(str(tmp_path / "data"))
    reports = [harness.run_strategy(strategy, chunks, test, selcfg, traincfg)[0]
               for strategy in harness.STRATEGIES]
    [documented] = re.findall(r"^```\n(strategy .*?)```", section,
                              re.MULTILINE | re.DOTALL)
    # every column but seconds, which moves from run to run
    cells = [[line.split()[:6] + line.split()[7:] for line in lines]
             for lines in (documented.splitlines(),
                           harness.final_stage_table(reports).splitlines())]
    assert cells[0] == cells[1]


def test_make_configs_wraps_validation_errors():
    with pytest.raises(DataError, match="bad configuration"):
        make_configs({"tau": 5.0})


def test_every_config_key_round_trips(tmp_path):
    sample = {
        "d": "3", "t": "2", "iterations_per_step": "4", "seed": "9",
        "tau": "0.4",
        "error_weight_fp": "0.5", "error_weight_fn": "0.25",
        "error_weight_ji": "2.0", "learning_rate": "0.1",
        "epochs_per_iteration": "2", "jitter": "0.05",
    }
    assert set(sample) == set(CONFIG_KEYS)
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in sample.items()))
    selcfg, traincfg = make_configs(read_config_file(str(path)))
    assert selcfg.d == 3 and selcfg.seed == 9 and selcfg.tau == 0.4
    assert selcfg.error_weights == (0.5, 0.25, 2.0)
    assert traincfg.epochs_per_iteration == 2 and traincfg.jitter == 0.05


# -- gen -------------------------------------------------------------------


def test_gen_writes_dataset_and_reruns_identically(tmp_path):
    first = run_cli("gen", "--out", tmp_path / "a", "--seed", 3)
    assert first.returncode == 0
    assert "chunks [200, 50, 50, 50, 50]" in first.stdout
    assert (tmp_path / "a" / "chunk4" / "manifest.tsv").is_file()
    assert (tmp_path / "a" / "test" / "manifest.tsv").is_file()

    second = run_cli("gen", "--out", tmp_path / "b", "--seed", 3)
    assert second.returncode == 0
    for rel in ("chunk0/manifest.tsv", "chunk2/chunk2-0004.pgm",
                "test/manifest.tsv"):
        assert ((tmp_path / "a" / rel).read_bytes()
                == (tmp_path / "b" / rel).read_bytes())


def test_gen_unwritable_destination(tmp_path):
    blocker = tmp_path / "file.txt"
    blocker.write_text("in the way")
    out = run_cli("gen", "--out", blocker / "sub")
    assert out.returncode == 3
    assert "error:" in out.stderr


def test_gen_refuses_a_negative_seed(tmp_path):
    out = run_cli("gen", "--out", tmp_path / "data", "--seed", -1)
    assert out.returncode == 3
    assert out.stderr.splitlines() == [
        "error: bad configuration: seed must be >= 0, got -1"]
    assert not (tmp_path / "data").exists()


def test_train_refuses_a_negative_seed_as_gen_does(tiny_dataset_dir,
                                                   tmp_path, capsys):
    assert cli.main(["train", "--strategy", "iem", "--data",
                     str(tiny_dataset_dir), "--out", str(tmp_path / "runs"),
                     "--seed", "-1"]) == 3
    assert capsys.readouterr().err == (
        "error: bad configuration: seed must be >= 0, got -1\n")
    assert not (tmp_path / "runs").exists()


# -- train / eval ----------------------------------------------------------


def test_train_writes_outputs_and_eval_reads_them(trained, tiny_dataset_dir):
    run_dir = trained / "runs" / "iem_incremental"
    for name in ("report.csv", "timings.csv", "trace.txt", "checkpoint.txt",
                 "pool.tsv"):
        assert (run_dir / name).is_file()

    out = run_cli("eval", "--checkpoint", run_dir / "checkpoint.txt",
                  "--test", os.path.join(tiny_dataset_dir, "test", "manifest.tsv"))
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "precision,recall,f1,jaccard"
    values = [float(v) for v in lines[1].split(",")]
    assert len(values) == 4
    assert all(0.0 <= v <= 1.0 for v in values)


@pytest.fixture
def eval_inputs(trained, tiny_dataset_dir):
    """(checkpoint, test manifest) of a trained run, for ``iem eval``."""
    return (str(trained / "runs" / "iem_incremental" / "checkpoint.txt"),
            os.path.join(tiny_dataset_dir, "test", "manifest.tsv"))


def test_eval_line_equals_evaluate_model_with_a_cache(eval_inputs, capsys):
    checkpoint, manifest = eval_inputs
    argv = ["eval", "--checkpoint", checkpoint, "--test", manifest]
    assert cli.main(argv) == 0
    line = capsys.readouterr().out.splitlines()[1]
    want = harness.evaluate_model(
        load_params(checkpoint),
        kernels.stacked((oracles.to_raster(pgm.read_pgm(r.image_ref)),
                         pgm.read_mask_pgm(r.mask_ref))
                        for r in synth.read_manifest(manifest)),
        make_configs({})[0].tau,
    )
    assert line == ",".join(f"{v:.6f}" for v in want)


def test_eval_decodes_each_pair_once_and_keeps_none(eval_inputs, monkeypatch,
                                                   capsys):
    def no_cache():
        raise AssertionError("iem eval reads each pair once; keep none")

    decoded, read = [], pgm._read_pgm_bytes
    monkeypatch.setattr(pgm, "ImageCache", no_cache)
    monkeypatch.setattr(pgm, "_read_pgm_bytes",
                        lambda path: decoded.append(path) or read(path))
    checkpoint, manifest = eval_inputs
    argv = ["eval", "--checkpoint", checkpoint, "--test", manifest]
    assert cli.main(argv) == 0
    records = synth.read_manifest(manifest)
    assert sorted(decoded) == sorted(
        [r.image_ref for r in records] + [r.mask_ref for r in records])
    assert capsys.readouterr().out.startswith("precision,recall,f1,jaccard\n")


# Evaluates a 64-image set, four 16-image blocks, twice in one process and
# prints the minor page faults of the second call.
_EVAL_FAULTS = """
import contextlib, io, os, resource, sys
import numpy as np
from iem import cli, synth, trainer
out = sys.argv[1]
records = synth.generate_chunk(
    synth.ChunkSpec(n_images=64, positive_fraction=0.5, seed=5), out)
synth.write_manifest(records, os.path.join(out, "manifest.tsv"))
params = trainer.ModelParams(weights=np.array([13.0, 1.0, 8.7, -10.8]))
trainer.save_params(params, os.path.join(out, "checkpoint.txt"))
argv = ["eval", "--checkpoint", os.path.join(out, "checkpoint.txt"),
        "--test", os.path.join(out, "manifest.tsv")]
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator setting needs glibc's mallopt")
def test_repeated_eval_keeps_its_pages(tmp_path):
    # with glibc's default thresholds each block's freed arrays go back to
    # the kernel, and the second call takes over 400 faults
    out = run_python("-c", _EVAL_FAULTS, tmp_path)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 64


def _raise(exc):
    def cdll(*args, **kwargs):
        raise exc
    return cdll


@pytest.mark.parametrize("cdll", [
    _raise(OSError("no such library")),
    _raise(TypeError("no default library")),
    lambda *args, **kwargs: object(),
], ids=["oserror", "typeerror", "no-mallopt"])
def test_eval_without_mallopt_prints_the_same(eval_inputs, monkeypatch, capsys,
                                             cdll):
    checkpoint, manifest = eval_inputs
    argv = ["eval", "--checkpoint", checkpoint, "--test", manifest]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("strategy, run_name",
                         [("iem", "iem_incremental"), ("naive", "naive_finetune")])
def test_train_prints_run_totals(trained, strategy, run_name):
    report = (trained / "runs" / run_name / "report.csv").read_text()
    rows = [line.split(",") for line in report.splitlines()
            if line and not line.startswith(("#", "strategy,"))]
    printed = (trained / f"{strategy}.stdout").read_text()
    match = re.search(r"run totals: (\d+) presentations", printed)
    assert match, printed
    assert len(rows) > 1
    assert int(match.group(1)) == sum(int(row[-1]) for row in rows)
    assert ("; dropped per chunk " in printed) == (strategy == "iem")


def test_train_prints_steps_against_allowance_and_drops_per_chunk(
        tmp_path, capsys):
    # at the library defaults hem drops every record and then trains
    # nothing, so it takes 4400 of its 6000 steps
    data = str(tmp_path / "data")
    assert cli.main(["gen", "--out", data, "--seed", "0"]) == 0
    assert cli.main(["train", "--strategy", "hem", "--data", data,
                     "--out", str(tmp_path / "runs"), "--seed", "0"]) == 0
    printed = capsys.readouterr().out
    assert "run totals: 4400 presentations of 6000 allowed, " in printed
    assert "; dropped per chunk 0:200 1:50 2:50 3:50 4:50; " in printed


def test_train_rejects_unknown_strategy(tiny_dataset_dir, tmp_path):
    out = run_cli("train", "--strategy", "sgd", "--data", tiny_dataset_dir,
                  "--out", tmp_path)
    assert out.returncode == 2
    assert "invalid choice" in out.stderr


def test_train_missing_dataset(tmp_path):
    out = run_cli("train", "--strategy", "iem", "--data", tmp_path / "nope",
                  "--out", tmp_path)
    assert out.returncode == 3
    assert "no chunk manifests" in out.stderr


def test_train_bad_config_key(tiny_dataset_dir, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("turbo=1\n")
    out = run_cli("train", "--strategy", "iem", "--data", tiny_dataset_dir,
                  "--out", tmp_path, "--config", config)
    assert out.returncode == 3
    assert "unknown config key 'turbo'" in out.stderr


def test_train_numeric_abort_exit_code(tiny_dataset_dir, tmp_path,
                                      monkeypatch, capsys):
    # a finite rate keeps the clipped-logit trajectory bounded and the
    # config refuses a non-finite one, so the abort comes from a
    # gradient that overflows
    config = tmp_path / "diverge.cfg"
    config.write_text("iterations_per_step=1\nt=1\n")
    args = ["train", "--strategy", "naive", "--data", tiny_dataset_dir,
            "--out", str(tmp_path), "--config", str(config)]
    assert cli.main(args) == 0  # sanity: the data itself trains fine
    monkeypatch.setattr(trainer, "feature_gradient",
                        lambda params, feats, mask: np.full(4, np.inf))
    assert cli.main(args) == 4
    assert "learning rate" in capsys.readouterr().err


@pytest.mark.parametrize("writer", ["save_state", "save_params"])
def test_a_failed_write_leaves_the_previous_run_files_whole(
        tiny_dataset_dir, tmp_path, monkeypatch, capsys, writer):
    config = tmp_path / "fast.cfg"
    config.write_text(FAST_CONFIG)
    argv = ["train", "--strategy", "iem", "--data", tiny_dataset_dir,
            "--out", str(tmp_path / "runs"), "--config", str(config)]
    assert cli.main([*argv, "--seed", "0"]) == 0
    run = tmp_path / "runs" / "iem_incremental"
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    assert sorted(before) == sorted([
        harness.REPORT_NAME, harness.TIMINGS_NAME, harness.TRACE_NAME,
        harness.POOL_NAME, harness.CHECKPOINT_NAME])  # no partial name left

    def half_written(obj, path):
        Path(path).write_text("half")
        raise OSError(f"{path}: no space left on device")

    # the pool is written before the checkpoint, the checkpoint last
    monkeypatch.setattr(harness, writer, half_written)
    assert cli.main([*argv, "--seed", "1"]) == 3
    assert "no space left on device" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before


def _no_space(data):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture
def full_disk(monkeypatch):
    """Give the modules passed a full disk: a file they open to write
    opens, and each write raises ``ENOSPC`` naming no file, as a write to
    ``/dev/full`` does; reads are untouched."""
    def full_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if set(mode) & set("wax+"):
            fh.write = fh.writelines = _no_space
        return fh

    def fill(*modules):
        for module in modules:
            monkeypatch.setattr(module, "open", full_open, raising=False)
    return fill


ENOSPC = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"


def test_a_failed_run_file_write_names_it_and_keeps_the_run(
        tiny_dataset_dir, tmp_path, capsys, full_disk):
    config = tmp_path / "fast.cfg"
    config.write_text(FAST_CONFIG)
    argv = ["train", "--strategy", "iem", "--data", tiny_dataset_dir,
            "--out", str(tmp_path / "runs"), "--config", str(config)]
    assert cli.main([*argv, "--seed", "0"]) == 0
    run = tmp_path / "runs" / "iem_incremental"
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    capsys.readouterr()
    full_disk(errors, pgm)
    assert cli.main([*argv, "--seed", "1"]) == 3
    # the report is the first file of the set written; its partial is gone
    assert capsys.readouterr().err == (
        f"error: cannot write {run / harness.REPORT_NAME}: {ENOSPC}\n")
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before


def test_a_failed_compare_out_write_names_it(trained, tmp_path, capsys,
                                             full_disk):
    out = tmp_path / "merged.csv"
    full_disk(errors, pgm)
    assert cli.main(["compare", *(str(trained / "runs" / name / "report.csv")
                                  for name in ("iem_incremental", "naive_finetune")),
                     "--out", str(out)]) == 3
    # the CSV is written before the table is printed
    assert capsys.readouterr() == ("", f"error: cannot write {out}: {ENOSPC}\n")


@pytest.mark.parametrize("module, what, name", [
    (pgm, "image file ", "chunk0-0000.pgm"),  # the first file gen writes
    (errors, "", "manifest.tsv"),
], ids=["image", "manifest"])
def test_a_failed_gen_write_names_its_file(tmp_path, capsys, full_disk,
                                           module, what, name):
    full_disk(module)
    assert cli.main(["gen", "--out", str(tmp_path), "--seed", "0"]) == 3
    assert capsys.readouterr().err == (
        f"error: cannot write {what}{tmp_path / 'chunk0' / name}: {ENOSPC}\n")


@pytest.mark.parametrize("line", [
    "jitter=nan", "jitter=inf", "error_weight_fp=nan", "error_weight_fn=-1",
    "error_weight_ji=inf", "learning_rate=nan", "learning_rate=inf",
])
def test_train_refuses_non_finite_or_negative_config_values(
        tiny_dataset_dir, tmp_path, line):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    out = run_cli("train", "--strategy", "iem", "--data", tiny_dataset_dir,
                  "--out", tmp_path, "--config", config)
    assert out.returncode == 3
    key, _, _ = line.partition("=")
    assert f"bad configuration: {key} must be a finite number" in out.stderr
    assert not (tmp_path / "iem_incremental").exists()


def test_eval_missing_checkpoint(tmp_path, tiny_dataset_dir):
    out = run_cli("eval", "--checkpoint", tmp_path / "nope.txt",
                  "--test", os.path.join(tiny_dataset_dir, "test", "manifest.tsv"))
    assert out.returncode == 3
    assert "cannot read checkpoint" in out.stderr


def test_eval_refuses_a_config_that_train_refuses(eval_inputs, tmp_path,
                                                  capsys):
    # evaluation reads only tau, but the whole config file is checked
    checkpoint, manifest = eval_inputs
    config = tmp_path / "bad.cfg"
    config.write_text("d=0\n")
    argv = ["eval", "--checkpoint", checkpoint, "--test", manifest,
            "--config", str(config)]
    assert cli.main(argv) == 3
    assert "bad configuration: d, t and iterations_per_step must be >= 1" in (
        capsys.readouterr().err)


def test_eval_rejects_malformed_checkpoint(tmp_path, tiny_dataset_dir):
    checkpoint = tmp_path / "checkpoint.txt"
    save_params(init_params(), checkpoint)
    checkpoint.write_text(checkpoint.read_text().replace("\n4\n", "\n3\n")
                          .replace("0\n", "", 1))
    out = run_cli("eval", "--checkpoint", checkpoint,
                  "--test", os.path.join(tiny_dataset_dir, "test", "manifest.tsv"))
    assert out.returncode == 3
    assert f"{checkpoint}:2: checkpoint holds 3 weights" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("piece", ["test", "chunk2"])
def test_train_rejects_empty_manifest(tiny_dataset_dir, tmp_path, piece):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset_dir, data)
    manifest = data / piece / "manifest.tsv"
    manifest.write_text("")
    out = run_cli("train", "--strategy", "iem", "--data", data,
                  "--out", tmp_path / "runs")
    assert out.returncode == 3
    assert f"{manifest}: empty manifest" in out.stderr


def test_eval_rejects_empty_manifest(tmp_path):
    checkpoint = tmp_path / "checkpoint.txt"
    save_params(init_params(), checkpoint)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("")
    out = run_cli("eval", "--checkpoint", checkpoint, "--test", manifest)
    assert out.returncode == 3
    assert f"{manifest}: empty manifest" in out.stderr


def _train_argv(data, tmp_path, strategy="hem", *extra):
    return ["train", "--strategy", strategy, "--data", str(data),
            "--out", str(tmp_path / "runs"), *extra]


def _non_utf8_config(data, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"t=1\n\xff\n")
    return _train_argv(data, tmp_path, "iem", "--config", str(path)), path


def _non_utf8_manifest(data, tmp_path):
    path = data / "chunk1" / "manifest.tsv"
    path.write_bytes(path.read_bytes() + b"\xff\n")
    return _train_argv(data, tmp_path), path


def _non_utf8_checkpoint(data, tmp_path):
    path = tmp_path / "checkpoint.txt"
    save_params(init_params(), path)
    path.write_bytes(path.read_bytes() + b"\xff\n")
    return ["eval", "--checkpoint", str(path),
            "--test", str(data / "test" / "manifest.tsv")], path


def _non_utf8_report(data, tmp_path):
    good = tmp_path / "report.csv"
    harness.write_report_fragment(harness.StrategyReport(
        "naive_finetune", 0, "e47f77e1728a",
        (harness.StageResult(0, 0.5, 0.5, 0.5, 0.5, 0.0, 1),)), good)
    bad = tmp_path / "other" / "report.csv"
    bad.parent.mkdir()
    bad.write_bytes(good.read_bytes().replace(b"0.500000", b"0.5\xff", 1))
    return ["compare", str(good), str(bad)], bad


def _compare_with(tmp_path, examples, seconds):
    """compare argv of a naive report and, in other/, a full one of
    ``examples`` beside a timings.csv of ``seconds``; and other/."""
    other = tmp_path / "other"
    other.mkdir()
    for path, row in ((tmp_path / "report.csv", "naive_finetune,0,0.5,0.5,0.5,0.5,1"),
                      (other / "report.csv", f"baseline_full,0,1,1,1,1,{examples}")):
        path.write_text(
            f"# seed=0\n# config=e47f77e1728a\n{harness.REPORT_HEADER}\n{row}\n")
    (other / "timings.csv").write_text(
        f"{harness.TIMINGS_HEADER}\nbaseline_full,0,{seconds}\n")
    return ["compare", str(tmp_path / "report.csv"), str(other / "report.csv")], other


def _nan_seconds(data, tmp_path):
    argv, other = _compare_with(tmp_path, 1, "nan")
    return argv, other / "timings.csv"


def _negative_examples(data, tmp_path):
    argv, other = _compare_with(tmp_path, -7, 1.0)
    return argv, other / "report.csv"


def _negative_timings_stage(data, tmp_path):
    argv, other = _compare_with(tmp_path, 1, 1.0)
    with open(other / "timings.csv", "a") as fh:
        fh.write("baseline_full,-1,0.5\n")
    return argv, f"{other / 'timings.csv'}:3"


def _config_value_out_of_range(data, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("t=1\ntau=2\n")
    return _train_argv(data, tmp_path, "iem", "--config", str(path)), f"{path}:2"


def _set_first_id(data, example_id):
    """Set the id of chunk1's first record; return its manifest and line."""
    path = data / "chunk1" / "manifest.tsv"
    lines = path.read_text().splitlines()
    lines[0] = example_id + lines[0][lines[0].index("\t"):]
    path.write_text("\n".join(lines) + "\n")
    return f"{path}:1"


def _empty_example_id(data, tmp_path):
    return _train_argv(data, tmp_path), _set_first_id(data, "")


def _example_id_with_a_comma(data, tmp_path):
    return _train_argv(data, tmp_path), _set_first_id(data, "chunk1-0000,x")


def _repeated_id(data, tmp_path):
    path = data / "chunk1" / "manifest.tsv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[0]]) + "\n")
    return _train_argv(data, tmp_path), path


def _mask_of_another_size(data, tmp_path):
    record = synth.read_manifest(str(data / "chunk0" / "manifest.tsv"))[0]
    pgm.write_mask_pgm(record.mask_ref,
                       np.full((16, 20), record.label == "positive"))
    return _train_argv(data, tmp_path, "full"), record.mask_ref


def _flip_first_label(manifest):
    """Flip the label of a manifest's first record; return its mask path."""
    lines = manifest.read_text().splitlines()
    fields = lines[0].split("\t")
    fields[3] = {"positive": "negative", "negative": "positive"}[fields[3]]
    manifest.write_text("\n".join(["\t".join(fields), *lines[1:]]) + "\n")
    return synth.read_manifest(str(manifest))[0].mask_ref


def _flipped_label(data, tmp_path):
    return (_train_argv(data, tmp_path, "naive"),
            _flip_first_label(data / "chunk1" / "manifest.tsv"))


def _chunk_after_a_gap(data, tmp_path):
    (data / "chunk1").rename(data / "chunk1.old")  # not chunk + digits
    return _train_argv(data, tmp_path, "naive"), data / "chunk2"


def _last_chunk_without_its_manifest(data, tmp_path):
    manifest = data / "chunk2" / "manifest.tsv"
    manifest.unlink()
    return _train_argv(data, tmp_path, "naive"), manifest


@pytest.mark.parametrize("make_case", [
    _non_utf8_config, _non_utf8_manifest, _non_utf8_checkpoint,
    _non_utf8_report, _nan_seconds, _negative_examples, _repeated_id,
    _mask_of_another_size, _flipped_label, _chunk_after_a_gap,
    _last_chunk_without_its_manifest, _negative_timings_stage,
    _config_value_out_of_range, _empty_example_id, _example_id_with_a_comma,
], ids=lambda f: f.__name__.strip("_"))
def test_bad_input_file_exits_3_naming_it(tiny_dataset_dir, tmp_path, capsys,
                                         make_case):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset_dir, data)
    argv, path = make_case(data, tmp_path)
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()  # nothing written


def _log_training(monkeypatch, log):
    """Append "train" to ``log`` at each ``train_on_subset`` call from the
    harness or the mining loop."""
    train = trainer.train_on_subset

    def logged(*args, **kwargs):
        log.append("train")
        return train(*args, **kwargs)

    monkeypatch.setattr(trainer, "train_on_subset", logged)
    monkeypatch.setattr(harness, "train_on_subset", logged)


@pytest.mark.parametrize("strategy", sorted(cli._STRATEGY_ALIASES))
def test_train_reads_each_image_and_mask_file_once(tiny_dataset_dir, tmp_path,
                                                    monkeypatch, strategy):
    read, decode = [], pgm._read_pgm_bytes
    monkeypatch.setattr(pgm, "_read_pgm_bytes",
                        lambda path: read.append(path) or decode(path))
    config = tmp_path / "fast.cfg"
    config.write_text(FAST_CONFIG)
    argv = _train_argv(tiny_dataset_dir, tmp_path, strategy,
                       "--config", str(config))
    assert cli.main(argv) == 0
    chunks, test_records = harness.load_dataset(tiny_dataset_dir)
    records = [rec for chunk in (*chunks, test_records) for rec in chunk]
    assert sorted(read) == sorted([r.image_ref for r in records]
                                  + [r.mask_ref for r in records])


def test_train_iem_refuses_a_bad_label_at_the_stage_of_its_chunk(
        tiny_dataset_dir, tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset_dir, data)
    mask_ref = _flip_first_label(data / "chunk2" / "manifest.tsv")
    log = []
    step = harness.incremental_step
    monkeypatch.setattr(harness, "incremental_step", lambda pool, *rest: (
        log.append(f"stage {pool.next_stage}"), step(pool, *rest)))
    _log_training(monkeypatch, log)
    assert cli.main(_train_argv(data, tmp_path, "iem")) == 3
    err = capsys.readouterr().err
    assert (f"error: {mask_ref}: chunk2-0000: label" in err
            and "disagrees with mask content" in err)
    # chunks 0 and 1 are trained on; chunk 2 fails before its first step
    assert log[0] == "train" and "stage 1" in log and log[-1] == "stage 2"
    assert not (tmp_path / "runs").exists()  # nothing written


@pytest.mark.parametrize("strategy", sorted(cli._STRATEGY_ALIASES))
def test_train_refuses_a_bad_test_label_before_training(
        tiny_dataset_dir, tmp_path, monkeypatch, capsys, strategy):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset_dir, data)
    mask_ref = _flip_first_label(data / "test" / "manifest.tsv")
    log = []
    _log_training(monkeypatch, log)
    assert cli.main(_train_argv(data, tmp_path, strategy)) == 3
    assert f"error: {mask_ref}: " in capsys.readouterr().err
    assert log == []
    assert not (tmp_path / "runs").exists()


def test_eval_refuses_a_test_label_that_train_refuses(
        eval_inputs, tiny_dataset_dir, tmp_path, capsys):
    # two positive test records labeled negative: eval and train each
    # exit 3 naming the first, in the same words
    checkpoint, _ = eval_inputs
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset_dir, data)
    manifest = data / "test" / "manifest.tsv"
    lines = manifest.read_text().splitlines()
    positive = [n for n, line in enumerate(lines)
                if line.split("\t")[3] == "positive"]
    assert len(positive) > 2
    for n in positive[1:3]:
        lines[n] = lines[n].replace("\tpositive\t", "\tnegative\t")
    manifest.write_text("\n".join(lines) + "\n")
    record = synth.read_manifest(str(manifest))[positive[1]]
    want = (f"error: {record.mask_ref}: {record.id}: label 'negative' "
            "disagrees with mask content\n")
    argv = ["eval", "--checkpoint", checkpoint, "--test", str(manifest)]
    assert cli.main(argv) == 3
    assert capsys.readouterr() == ("", want)
    assert cli.main(_train_argv(data, tmp_path, "naive")) == 3
    assert capsys.readouterr().err == want


def test_eval_and_train_refuse_the_same_file_of_a_bad_test_block(
        eval_inputs, tiny_dataset_dir, tmp_path, capsys):
    # the first test record is relabeled and a later image of its block
    # truncated: a block's files are all read before its labels are checked
    checkpoint, _ = eval_inputs
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset_dir, data)
    manifest = data / "test" / "manifest.tsv"
    _flip_first_label(manifest)
    truncated = Path(synth.read_manifest(str(manifest))[3].image_ref)
    truncated.write_bytes(truncated.read_bytes()[:100])
    argv = ["eval", "--checkpoint", checkpoint, "--test", str(manifest)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {truncated}: raster truncated ")
    for strategy in harness.STRATEGIES:
        assert cli.main(_train_argv(data, tmp_path, strategy)) == 3
        assert capsys.readouterr().err == err
    assert not (tmp_path / "runs").exists()


# -- compare ---------------------------------------------------------------


def test_compare_merges_reports(trained, tmp_path):
    iem_report = trained / "runs" / "iem_incremental" / "report.csv"
    naive_report = trained / "runs" / "naive_finetune" / "report.csv"
    merged = tmp_path / "comparison.csv"
    out = run_cli("compare", iem_report, naive_report, "--out", merged)
    assert out.returncode == 0, out.stderr
    assert "iem_incremental" in out.stdout
    assert "naive_finetune" in out.stdout
    lines = merged.read_text().splitlines()
    assert lines[0] == ("strategy,stage,precision,recall,f1,jaccard,"
                        "seconds,examples_trained")
    # two strategies, three stages each, seconds joined from the sidecars
    assert len(lines) == 7
    assert any(float(line.split(",")[6]) > 0 for line in lines[1:])


def test_compare_needs_two_reports(trained):
    out = run_cli("compare", trained / "runs" / "iem_incremental" / "report.csv")
    assert out.returncode == 2
    assert "at least two" in out.stderr


def test_compare_rejects_schema_drift(trained, tmp_path):
    good = (trained / "runs" / "iem_incremental" / "report.csv").read_text()
    bad = tmp_path / "report.csv"
    bad.write_text(good.replace(",jaccard", ""))
    out = run_cli("compare", bad,
                  trained / "runs" / "naive_finetune" / "report.csv")
    assert out.returncode == 3
    assert "missing field 'jaccard'" in out.stderr


def test_compare_refuses_a_report_with_two_seeds(tmp_path, capsys):
    first = tmp_path / "r1.csv"
    second = tmp_path / "r2.csv"
    row = "0,0.5,0.5,0.5,0.5,10"
    first.write_text(f"# seed=0\n# seed=1\n# config=cfg\n"
                     f"{harness.REPORT_HEADER}\nnaive_finetune,{row}\n")
    second.write_text(f"# seed=1\n# config=cfg\n"
                      f"{harness.REPORT_HEADER}\nbaseline_full,{row}\n")
    assert cli.main(["compare", str(first), str(second)]) == 3
    assert (f"{first}:2: repeated annotation 'seed'"
            in capsys.readouterr().err)


def test_compare_takes_each_report_its_own_timings(tmp_path, capsys):
    # a's sidecar also holds a naive_finetune row; b's own 1.0 s must win
    row = "0,0.5,0.5,0.5,0.5,10"
    for name, strategy, timings in (
            ("a", "baseline_full", "baseline_full,0,2.0\nnaive_finetune,0,99.0\n"),
            ("b", "naive_finetune", "naive_finetune,0,1.0\n")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "report.csv").write_text(
            f"# seed=0\n# config=e47f77e1728a\n{harness.REPORT_HEADER}\n"
            f"{strategy},{row}\n")
        (tmp_path / name / "timings.csv").write_text(
            f"{harness.TIMINGS_HEADER}\n{timings}")
    assert cli.main(["compare", str(tmp_path / "b" / "report.csv"),
                     str(tmp_path / "a" / "report.csv")]) == 0
    rows = [line.split(",") for line
            in capsys.readouterr().out.split("\n\n")[1].splitlines()[1:]]
    assert [(f[0], float(f[6])) for f in rows] == [("baseline_full", 2.0),
                                                   ("naive_finetune", 1.0)]


def _four_fragments(tmp_path, hem_total):
    """Reports of the four strategies, each beside its timings.csv: 9000
    examples each, as at the criterion-5 config, but ``hem_total`` for
    hem."""
    rows = {"baseline_full": [(4, 9000)], "baseline_hem": [(4, hem_total)],
            "iem_incremental": [(0, 3000)] + [(s, 1500) for s in range(1, 5)],
            "naive_finetune": [(0, 3000)] + [(s, 1500) for s in range(1, 5)]}
    paths = []
    for strategy, stages in rows.items():
        report = harness.StrategyReport(strategy, 3, "e47f77e1728a", tuple(
            harness.StageResult(stage, 0.75, 0.5, 0.6, 0.9, 0.125, examples)
            for stage, examples in stages))
        (tmp_path / strategy).mkdir()
        paths.append(tmp_path / strategy / "report.csv")
        harness.write_report_fragment(report, paths[-1])
        harness.write_timings(report, tmp_path / strategy / "timings.csv")
    return [str(path) for path in paths]


def test_compare_prints_no_note_when_every_total_agrees(tmp_path, capsys):
    # at the criterion-5 config every strategy takes 9000 steps, so the
    # output is the table, a blank line and the CSV, as it always was
    paths = _four_fragments(tmp_path, 9000)
    merged = [harness.read_report_fragment(path) for path in paths]
    assert cli.main(["compare", *paths]) == 0
    table, csv_lines = (harness.final_stage_table(merged),
                        harness.comparison_csv(merged))
    assert capsys.readouterr().out == "\n".join([table, "", *csv_lines, ""])


def test_compare_names_a_strategy_whose_total_differs(tmp_path, capsys):
    paths = _four_fragments(tmp_path, 4400)
    out_csv = tmp_path / "comparison.csv"
    assert cli.main(["compare", *paths, "--out", str(out_csv)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[6:] == [
        "examples_trained totals differ: baseline_hem 4400 against 9000 "
        "for the others",
        f"full comparison written to {out_csv}"]


def test_compare_rejects_seed_mismatch(trained, tiny_dataset_dir, tmp_path):
    config = tmp_path / "fast.cfg"
    config.write_text(FAST_CONFIG)
    out = run_cli("train", "--strategy", "naive", "--data", tiny_dataset_dir,
                  "--out", tmp_path / "other", "--config", config, "--seed", 5)
    assert out.returncode == 0
    out = run_cli("compare",
                  trained / "runs" / "iem_incremental" / "report.csv",
                  tmp_path / "other" / "naive_finetune" / "report.csv")
    assert out.returncode == 3
    assert "disagree" in out.stderr
    assert f"{tmp_path / 'other' / 'naive_finetune' / 'report.csv'}: seed 5" in (
        out.stderr)


# -- top level -------------------------------------------------------------


def test_cli_import_loads_neither_scipy_nor_numba():
    # importing scipy after iem adds 0.35-0.62 s of start-up and about
    # 22 MB of peak memory; numba is no longer a backend
    code = ("import sys, iem.cli; print(sorted({m.split('.')[0] "
            "for m in sys.modules} & {'scipy', 'numba'}))")
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _opens_for_writing(tree):
    """(function, mode) of each ``open`` call in ``tree`` whose mode may
    write (a literal holding w, a, x or +, or any other mode but
    ``os.O_RDONLY``), and of each ``write_text`` or ``write_bytes`` call."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        name = getattr(node, "func", None)
        name = getattr(name, "attr", getattr(name, "id", None))
        if name in ("write_text", "write_bytes"):
            found.append((function, name))
        elif name == "open":
            modes = [k.value for k in node.keywords if k.arg in ("mode", "flags")]
            mode = (modes or node.args[1:2] or [None])[0]
            if isinstance(mode, ast.Constant):
                writes = bool(set(str(mode.value)) & set("wax+"))
            else:  # os.open flags, or a mode only known at run time
                writes = mode is not None and ast.unparse(mode) != "os.O_RDONLY"
            if writes:
                found.append((function, ast.unparse(mode)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_one_text_writer_and_one_binary_writer_open_files():
    # every text file goes through errors.write_lines, as read_lines reads
    # them, and every PGM through write_pgm
    package = Path(iem.__file__).parent
    found = [(module.name, *site) for module in sorted(package.glob("*.py"))
             for site in _opens_for_writing(ast.parse(module.read_text()))]
    assert found == [("errors.py", "write_lines", "'w'"),
                     ("pgm.py", "write_pgm", "'wb'")]


def _os_error_handlers(module):
    """(function, types) of each ``except`` clause in the ``iem`` source
    file ``module`` whose types, looked up in the module's namespace,
    include ``OSError`` or a subclass of it."""
    namespace = (vars(builtins) if module.stem == "__main__"  # runs on import
                 else vars(importlib.import_module(f"iem.{module.stem}")))
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = eval(ast.unparse(node.type), dict(namespace))
            if any(issubclass(cls, OSError) for cls in
                   (caught if isinstance(caught, tuple) else (caught,))):
                found.append((function, ast.unparse(node.type)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(module.read_text()), None)
    return found


def test_only_the_file_functions_and_main_handle_os_errors():
    # the two readers and two writers turn a file-system error into a
    # DataError naming the file; main exits 3 on what else raises OSError
    # (os.makedirs, os.replace, os.listdir name their path), and the
    # mallopt probe runs where there is no C library to load
    package = Path(iem.__file__).parent
    found = [(module.name, function)
             for module in sorted(package.glob("*.py"))
             for function, _ in _os_error_handlers(module)]
    assert found == [("cli.py", "_keep_freed_arrays_in_heap"),
                     ("cli.py", "main"),
                     ("errors.py", "read_lines"),
                     ("errors.py", "write_lines"),
                     ("pgm.py", "write_pgm"),
                     ("pgm.py", "_read_pgm_bytes")]


@pytest.mark.parametrize("module", ["iem.pgm", "iem.synth"])
def test_a_module_import_loads_only_what_it_needs(module):
    code = (f"import sys, {module}; print(sorted(m for m in sys.modules "
            "if m in ('iem.harness', 'iem.trainer', 'iem.cli')))")
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _python310():
    """A python3.10 that runs: the one on PATH, else one that pyenv
    installed under $PYENV_ROOT (default ~/.pyenv); None if neither runs."""
    pyenv = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    installed = sorted(glob.glob(
        os.path.join(pyenv, "versions", "3.10*", "bin", "python3.10")))
    for exe in [shutil.which("python3.10"), *installed]:
        probe = exe and subprocess.run(
            [exe, "-I", "-c", "import sys; print(sys.version_info[:2])"],
            capture_output=True, text=True)
        if probe and probe.stdout.strip() == "(3, 10)":
            return exe
    return None


def test_sources_compile_on_the_oldest_supported_python():
    # pyproject says requires-python >=3.10: no later syntax, and no regex
    # feature such as a possessive quantifier, may slip into src. compile()
    # writes no bytecode into the tree.
    exe = _python310()
    if exe is None:
        pytest.skip("no python3.10 that runs, on PATH or under pyenv")
    code = ("import pathlib, re, sys\n"
            "for path in sorted(pathlib.Path(sys.argv[1]).glob('*.py')):\n"
            "    compile(path.read_bytes(), str(path), 'exec')\n"
            f"re.compile({pgm._HEADER.pattern!r})\n")
    out = subprocess.run([exe, "-I", "-c", code, os.path.join(SRC_DIR, "iem")],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_no_subcommand_is_usage_error():
    out = run_python("-m", "iem")  # the entry point, in a fresh interpreter
    assert out.returncode == 2


@pytest.mark.parametrize("argv", [
    ["train", "--strategy", "iem", "--data", "data", "--out", "out"],
    ["eval", "--checkpoint", "checkpoint.txt", "--test", "manifest.tsv"],
], ids=["train", "eval"])
def test_no_command_has_a_variant_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--variant", "full"])
    assert exc.value.code == 2
    assert "--variant" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(tmp_path):
    out = run_cli("gen", "--out", tmp_path, "--power", "11")
    assert out.returncode == 2
