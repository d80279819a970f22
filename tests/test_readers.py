"""The bad-input contract of the run-file readers, under seeded mutations.

Each valid file is mutated many times: a line deleted or repeated, a
byte flipped, the file truncated, one field copied from the same field
of another line, or one field set to a value no writer gives. Each reader must then either raise ``DataError`` whose message
starts with the file's path, or return a value that meets its type's
invariants. No other exception may escape.

Readers covered: ``pool.load_state``, ``harness.read_report_fragment``,
``harness.read_timings``, ``trainer.load_params``, ``synth.read_manifest``
and ``cli.read_config_file``; and ``pool.pair_blocks`` of PGM pairs, one
file of which has a byte flipped, is cut short, gains bytes or has a
header token replaced.

The same mutations of each input of ``iem eval`` (checkpoint, test
manifest, a test PGM, config) and of ``iem compare`` (``report.csv``,
``timings.csv``) must make ``cli.main`` exit 0, or 3 naming the file.
"""

import dataclasses
import math
import os
import random
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from iem import cli, harness, pgm, pool, synth, trainer
from iem.errors import DataError

MUTATIONS = 1000
BAD_FIELDS = ("nan", "inf", "-1", "", "\0", "1e400")


def _mutant(data, rng, sep):
    """One seeded mutation of the bytes ``data``, whose lines hold fields
    split by ``sep``."""
    lines = data.split(b"\n")
    kind = rng.randrange(6)
    i = rng.randrange(len(lines))
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2:
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        return bytes(flipped)
    elif kind == 3:
        return data[:rng.randrange(len(data))]
    else:
        fields = lines[i].split(sep)
        j = rng.randrange(len(fields))
        donor = rng.choice(lines).split(sep)
        if kind == 4 and j < len(donor):  # the same field of another line
            fields[j] = donor[j]
        else:
            key, eq, _ = fields[j].partition(b"=")
            bad = rng.choice(BAD_FIELDS).encode()
            fields[j] = key + eq + bad if eq else bad  # keep a key= prefix
        lines[i] = sep.join(fields)
    return b"\n".join(lines)


def _pool_ok(state):
    assert state.stage >= 0
    ids = [r.id for r in state.records]
    assert len(set(ids)) == len(ids)
    for r in state.records:
        assert r.id and "," not in r.id  # trace.txt joins ids by ","
        assert math.isfinite(r.E) and r.E >= 0 and r.C >= 0
        assert r.label in pool.LABELS
        assert 0 <= r.chunk_index <= state.stage
        assert r.E == 0 or not r.dropped


def _report_ok(report):
    assert report.strategy in harness.STRATEGIES
    stages = [row.stage for row in report.rows]
    assert stages == sorted(set(stages)) and stages[0] >= 0
    for row in report.rows:
        assert all(0 <= v <= 1 for v in (row.precision, row.recall, row.f1,
                                           row.jaccard))
        assert math.isfinite(row.seconds) and row.seconds >= 0
        assert row.examples_trained >= 0


def _timings_ok(timings):
    for (strategy, stage), seconds in timings.items():
        assert isinstance(strategy, str) and isinstance(stage, int)
        assert strategy in harness.STRATEGIES and stage >= 0
        assert math.isfinite(seconds) and seconds >= 0


def _checkpoint_ok(params):
    assert params.weights.shape == (trainer.N_FEATURES,)
    assert np.isfinite(params.weights).all()


def _manifest_ok(records):
    ids = [r.id for r in records]
    assert len(set(ids)) == len(ids)
    for r in records:
        assert r.id and "," not in r.id  # trace.txt joins ids by ","
        assert r.label in pool.LABELS and r.chunk_index >= 0
        assert os.path.isfile(r.image_ref) and os.path.isfile(r.mask_ref)


def _config_ok(values):
    for key, value in values.items():
        assert type(value) is cli.CONFIG_KEYS[key]
    cli.make_configs(values)  # every file that reads builds both configs


def _write_pool(path):
    # every other record dropped, so a copied field can break the rule
    # that a dropped record has E = 0
    records = [pool.ExampleRecord(f"ex{i}", f"ex{i}.pgm", f"ex{i}-mask.pgm",
                                  pool.LABELS[i % 3 % 2], chunk_index=i // 4,
                                  E=0.0 if i % 2 else (0.1 + 0.2) * i, C=i,
                                  dropped=bool(i % 2))
               for i in range(8)]
    pool.save_state(pool.PoolState(records=records, stage=1,
                                   config_hash="e47f77e1728a"), path)


def _report():
    rows = tuple(harness.StageResult(stage, 0.5, 0.25, 1 / 3, 0.75,
                                     0.5 + stage, 40 * stage)
                 for stage in range(3))
    return harness.StrategyReport("iem_incremental", 3, "e47f77e1728a", rows)


def _write_report(path):
    harness.write_report_fragment(_report(), path)
    harness.write_timings(_report(), path.parent / harness.TIMINGS_NAME)


def _write_timings(path):
    harness.write_timings(_report(), path)


def _write_checkpoint(path):
    trainer.save_params(trainer.ModelParams(
        weights=np.array([0.5, -1.25, 3e-5, 0.1 + 0.2]), version=3), path)


def _write_manifest(path):
    records = []
    for i in range(6):
        refs = [path.parent / f"ex{i}{end}.pgm" for end in ("", "-mask")]
        for ref in refs:
            ref.touch()  # read_manifest checks only that each file exists
        records.append(pool.ExampleRecord(f"ex{i}", str(refs[0]), str(refs[1]),
                                          pool.LABELS[i % 2], chunk_index=i // 2))
    synth.write_manifest(records, str(path))


def _write_config(path):
    path.write_text("# a run\nseed=7\nt=3\n\ntau=0.5\nlearning_rate=0.05\n"
                    "error_weight_fp=0.25\njitter=0.5\n")


@pytest.mark.parametrize("name, write, read, sep, ok", [
    (harness.POOL_NAME, _write_pool, pool.load_state, b"\t", _pool_ok),
    (harness.REPORT_NAME, _write_report, harness.read_report_fragment, b",",
     _report_ok),
    (harness.TIMINGS_NAME, _write_timings, harness.read_timings, b",",
     _timings_ok),
    (harness.CHECKPOINT_NAME, _write_checkpoint, trainer.load_params, b"\t",
     _checkpoint_ok),
    (synth.MANIFEST_NAME, _write_manifest, synth.read_manifest, b"\t",
     _manifest_ok),
    ("run.cfg", _write_config, cli.read_config_file, b"=", _config_ok),
], ids=["pool", "report", "timings", "checkpoint", "manifest", "config"])
def test_a_mutated_file_is_refused_by_name_or_read_whole(tmp_path, name,
                                                         write, read, sep, ok):
    path = tmp_path / name
    write(path)
    data = path.read_bytes()
    ok(read(str(path)))
    rng = random.Random(f"{name}-mutations")
    refused = 0
    for _ in range(MUTATIONS):
        mutant = _mutant(data, rng, sep)
        path.write_bytes(mutant)
        try:
            value = read(str(path))
        except DataError as exc:
            # read_lines names what it read before the path
            assert re.match(rf"(cannot read [a-z ]+ )?{re.escape(str(path))}",
                            str(exc)), (mutant, exc)
            refused += 1
            continue
        ok(value)
    assert refused > MUTATIONS // 2  # most mutations break the file


PGM_SHAPE = (6, 5)  # (h, w)
# "4" is a size whose raster the file holds: a pair of two valid sizes
PGM_TOKENS = (b"0", b"-1", b"4", b"65535", b"P2", b"#", b"#c\n")


def _pgm_mutant(data, rng):
    """One seeded mutation of a PGM ``data`` written by ``pgm.write_pgm``
    at ``PGM_SHAPE``: a byte flipped, the file cut short or extended, or
    a header token replaced, a comment ended by a newline put before it."""
    kind = rng.randrange(4)
    if kind == 0:
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        return bytes(flipped)
    if kind == 1:
        return data[:rng.randrange(len(data))]
    if kind == 2:
        return data + rng.randbytes(rng.randrange(1, 40))
    h, w = PGM_SHAPE
    tokens = [b"P5", b"%d" % w, b"%d" % h, b"255"]
    raster = data[len(b"P5\n%d %d\n255\n" % (w, h)):]
    j = rng.randrange(4)
    token = rng.choice(PGM_TOKENS)
    tokens[j] = token + tokens[j] if token.endswith(b"\n") else token
    return b"%s\n%s %s\n%s\n" % tuple(tokens) + raster


def _pgm_records(tmp_path):
    """Six records of mixed labels, each with its image and mask PGM."""
    rng = np.random.default_rng(5)
    records = []
    for i in range(6):
        mask = np.zeros(PGM_SHAPE, dtype=bool)
        mask[1:3, 2:4] = i % 2 == 0  # LABELS[0] is positive
        refs = [str(tmp_path / f"ex{i}{end}.pgm") for end in ("", "-mask")]
        pgm.write_pgm(refs[0], rng.random(PGM_SHAPE))
        pgm.write_mask_pgm(refs[1], mask)
        records.append(pool.ExampleRecord(f"ex{i}", *refs, pool.LABELS[i % 2]))
    return records


def _blocks_ok(blocks, records):
    assert sum(len(masks) for _, masks in blocks) == len(records)
    labels = iter(records)
    for rasters, masks in blocks:
        assert rasters.dtype == np.uint8 and masks.dtype == np.bool_
        assert rasters.shape == masks.shape and rasters.ndim == 3
        for mask in masks:
            assert mask.any() == (next(labels).label == "positive")


@pytest.mark.parametrize("keep_header", [False, True],
                         ids=["header-reset", "header-kept"])
def test_a_mutated_pgm_is_refused_by_name_or_read_whole(tmp_path, monkeypatch,
                                                        keep_header):
    monkeypatch.setattr(pgm, "_known_header", ())  # restored afterwards
    records = _pgm_records(tmp_path)
    _blocks_ok(list(pool.pair_blocks(records)), records)
    rng = random.Random("pgm-mutations")
    refused = 0
    for _ in range(MUTATIONS):
        record = rng.choice(records)
        path = Path(rng.choice([record.image_ref, record.mask_ref]))
        data = path.read_bytes()
        path.write_bytes(_pgm_mutant(data, rng))
        if not keep_header:
            pgm._known_header = ()
        try:
            _blocks_ok(list(pool.pair_blocks(records)), records)
        except DataError as exc:
            pair = "|".join(re.escape(p) for p in (record.image_ref,
                                                   record.mask_ref))
            assert re.match(rf"(cannot read image file )?({pair}): ",
                            str(exc)), exc
            refused += 1
        path.write_bytes(data)
    assert 0 < refused < MUTATIONS


CLI_MUTATIONS = 150


@pytest.fixture
def cli_inputs(tiny_dataset_dir, tmp_path):
    """The files of one ``iem eval`` and one ``iem compare`` call, each
    a copy in ``tmp_path``, by name, and each command's argv."""
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset_dir, data)
    manifest = data / "test" / synth.MANIFEST_NAME
    positive = next(r for r in synth.read_manifest(str(manifest))
                    if r.label == "positive")
    files = {"checkpoint": tmp_path / harness.CHECKPOINT_NAME,
             "manifest": manifest, "pgm": Path(positive.mask_ref),
             "config": tmp_path / "run.cfg"}
    _write_checkpoint(files["checkpoint"])
    _write_config(files["config"])
    reports = []
    for strategy in ("iem_incremental", "naive_finetune"):
        (tmp_path / strategy).mkdir()
        reports.append(tmp_path / strategy / harness.REPORT_NAME)
        report = dataclasses.replace(_report(), strategy=strategy)
        harness.write_report_fragment(report, reports[-1])
        harness.write_timings(report, reports[-1].parent / harness.TIMINGS_NAME)
    files["report"] = reports[0]
    files["timings"] = reports[0].parent / harness.TIMINGS_NAME
    argv = {"eval": ["eval", "--checkpoint", str(files["checkpoint"]),
                     "--test", str(manifest), "--config", str(files["config"])],
            "compare": ["compare", *map(str, reports)]}
    return files, argv


@pytest.mark.parametrize("name, command, sep", [
    ("checkpoint", "eval", b"\t"), ("manifest", "eval", b"\t"),
    ("pgm", "eval", b" "), ("config", "eval", b"="),
    ("report", "compare", b","), ("timings", "compare", b","),
], ids=["checkpoint", "manifest", "pgm", "config", "report", "timings"])
def test_a_mutated_cli_input_exits_0_or_3_naming_it(cli_inputs, capsys,
                                                    monkeypatch, name,
                                                    command, sep):
    monkeypatch.setattr(pgm, "_known_header", ())  # restored afterwards
    files, argv = cli_inputs
    path = files[name]
    data = path.read_bytes()
    rng = random.Random(f"{name}-exit-codes")
    refused = 0
    for _ in range(CLI_MUTATIONS):
        mutant = _mutant(data, rng, sep)
        path.write_bytes(mutant)
        code = cli.main(argv[command])
        err = capsys.readouterr().err
        assert code in (0, 3), (mutant, err)
        refused += code == 3
        if code == 3 and str(path) not in err:
            # a label that disagrees with its mask is refused naming the
            # mask and the id, not the mutated manifest
            assert name == "manifest" and err.endswith(
                "disagrees with mask content\n"), (mutant, err)
    assert refused > CLI_MUTATIONS // 2  # most mutations break the file
