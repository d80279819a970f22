"""End-to-end command-line flows and exit codes, run as subprocesses."""

import os
import re
import shutil
import subprocess
import sys

import pytest

import iem
from iem import cli, harness, pgm
from iem.cli import CONFIG_KEYS, make_configs, read_config_file
from iem.errors import DataError
from iem.trainer import init_params, load_params, save_params

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
    """Run ``python -m iem`` against the same source tree as the tests."""
    return run_python("-m", "iem", *args)


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
        "K = 3\n"
        "learning_rate=0.25\n"
        "horizontal_flip=no\n"
        "variant=loss_ji\n"
    )
    values = read_config_file(str(path))
    assert values == {"K": 3, "learning_rate": 0.25,
                      "horizontal_flip": False, "variant": "loss_ji"}
    selcfg, traincfg = make_configs(values)
    assert selcfg.K == 3 and selcfg.variant == "loss_ji"
    assert traincfg.learning_rate == 0.25
    assert not traincfg.recipe.horizontal_flip


@pytest.mark.parametrize(
    "text, complaint",
    [
        ("mystery=1\n", "unknown config key"),
        ("K=3\nK=4\n", "duplicate config key"),
        ("d=many\n", "bad value for d"),
        ("just-a-word\n", "expected key=value"),
        ("horizontal_flip=maybe\n", "bad value for horizontal_flip"),
    ],
)
def test_config_file_rejects(tmp_path, text, complaint):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(DataError, match=complaint):
        read_config_file(str(path))


def test_make_configs_wraps_validation_errors():
    with pytest.raises(DataError, match="bad configuration"):
        make_configs({"tau": 5.0})


def test_every_config_key_round_trips(tmp_path):
    sample = {
        "K": "2", "d": "3", "t": "2", "iterations_per_step": "4", "seed": "9",
        "tau": "0.4", "binarize_threshold": "0.6", "variant": "full",
        "error_weight_fp": "0.5", "error_weight_fn": "0.25",
        "error_weight_ji": "2.0", "learning_rate": "0.1",
        "epochs_per_iteration": "2", "jitter": "0.05",
        "horizontal_flip": "true", "vertical_flip": "false",
    }
    assert set(sample) == set(CONFIG_KEYS)
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in sample.items()))
    selcfg, traincfg = make_configs(read_config_file(str(path)))
    assert selcfg.K == 2 and selcfg.seed == 9 and selcfg.tau == 0.4
    assert selcfg.error_weights == (0.5, 0.25, 2.0)
    assert traincfg.epochs_per_iteration == 2
    assert traincfg.recipe.jitter == 0.05 and not traincfg.recipe.vertical_flip


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
    cache = pgm.ImageCache()
    want = harness.evaluate_model(
        load_params(checkpoint),
        [cache.pair(r.image_ref, r.mask_ref)
         for r in harness.read_nonempty_manifest(manifest)],
        make_configs({})[0],
    )
    assert line == ",".join(f"{v:.6f}" for v in want)


def test_eval_decodes_each_pair_once_and_keeps_none(eval_inputs, monkeypatch,
                                                   capsys):
    def no_cache():
        raise AssertionError("iem eval reads each pair once; keep none")

    decoded = []

    def counting(read):
        return lambda path: decoded.append(path) or read(path)

    monkeypatch.setattr(pgm, "ImageCache", no_cache)
    monkeypatch.setattr(pgm, "read_pgm", counting(pgm.read_pgm))
    monkeypatch.setattr(pgm, "read_mask_pgm", counting(pgm.read_mask_pgm))
    checkpoint, manifest = eval_inputs
    argv = ["eval", "--checkpoint", checkpoint, "--test", manifest]
    assert cli.main(argv) == 0
    records = harness.read_nonempty_manifest(manifest)
    assert sorted(decoded) == sorted(
        [r.image_ref for r in records] + [r.mask_ref for r in records])
    assert capsys.readouterr().out.startswith("precision,recall,f1,jaccard\n")


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


def test_train_numeric_abort_exit_code(tiny_dataset_dir, tmp_path):
    config = tmp_path / "diverge.cfg"
    config.write_text("learning_rate=inf\niterations_per_step=1\nt=1\n")
    out = run_cli("train", "--strategy", "naive", "--data", tiny_dataset_dir,
                  "--out", tmp_path)
    assert out.returncode == 0  # sanity: the data itself trains fine
    out = run_cli("train", "--strategy", "naive", "--data", tiny_dataset_dir,
                  "--out", tmp_path, "--config", config)
    assert out.returncode == 4
    assert "learning rate" in out.stderr


def test_eval_missing_checkpoint(tmp_path, tiny_dataset_dir):
    out = run_cli("eval", "--checkpoint", tmp_path / "nope.txt",
                  "--test", os.path.join(tiny_dataset_dir, "test", "manifest.tsv"))
    assert out.returncode == 3
    assert "cannot read checkpoint" in out.stderr


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


# -- top level -------------------------------------------------------------


def test_cli_import_loads_neither_scipy_nor_numba():
    # importing scipy after iem adds 0.35-0.62 s of start-up and about
    # 22 MB of peak memory; numba is no longer a backend
    code = ("import sys, iem.cli; print(sorted({m.split('.')[0] "
            "for m in sys.modules} & {'scipy', 'numba'}))")
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_no_subcommand_is_usage_error():
    out = run_cli()
    assert out.returncode == 2


def test_unknown_flag_is_usage_error(tmp_path):
    out = run_cli("gen", "--out", tmp_path, "--power", "11")
    assert out.returncode == 2
