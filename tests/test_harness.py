"""Strategy runners, budgets, traces, and report plumbing."""

import numpy as np
import pytest

import oracles
from iem import harness, metrics, pgm
from iem.errors import DataError
from iem.harness import (
    STRATEGIES,
    StageResult,
    StrategyReport,
    comparison_csv,
    evaluate_model,
    final_stage_table,
    load_dataset,
    merge_reports,
    read_report_fragment,
    read_timings,
    run_strategy,
    stage_budgets,
    train_stage,
    write_report_fragment,
    write_strategy_outputs,
    write_timings,
)
from iem.kernels import stacked
from iem.pgm import (pair_blocks, read_mask_pgm, read_pgm, to_image,
                     write_mask_pgm, write_pgm)
from iem.pool import ExampleRecord, PoolState, load_state, save_state
from iem.selection import SelectionConfig
from iem.trainer import (ModelParams, TrainConfig, forward, init_params,
                         load_params, save_params)


def _row(stage, value=0.5, examples=10):
    return StageResult(stage=stage, precision=value, recall=value, f1=value,
                       jaccard=value, seconds=0.25, examples_trained=examples)


def _report(strategy="iem_incremental", stages=(0, 1), seed=3,
            config="e47f77e1728a"):
    return StrategyReport(strategy=strategy, seed=seed, config_hash=config,
                          rows=tuple(_row(s) for s in stages))


# -- result types ----------------------------------------------------------


def test_stage_result_validates_ranges():
    with pytest.raises(ValueError, match="precision"):
        _row(0, value=1.2)
    with pytest.raises(ValueError, match="stage must be >= 0, got -1"):
        _row(-1)
    with pytest.raises(ValueError, match="examples_trained must be >= 0"):
        _row(0, examples=-7)


def test_strategy_report_validates():
    with pytest.raises(ValueError, match="unknown strategy"):
        _report(strategy="sgd")
    with pytest.raises(ValueError, match="stage-ordered"):
        StrategyReport(strategy="iem_incremental", seed=0, config_hash="x",
                       rows=(_row(1), _row(0)))
    assert _report().final_row().stage == 1


# -- budgets ---------------------------------------------------------------


def test_stage_budgets_arithmetic(tiny_dataset):
    chunks, _ = tiny_dataset
    cfg = SelectionConfig(seed=0, iterations_per_step=3)
    # 3 passes over the 24-image chunk, then 3 batches of 4K = 16
    assert stage_budgets(chunks, cfg) == [72, 48, 48]


# -- strategy runs ---------------------------------------------------------


def test_run_strategy_validates_inputs(tiny_dataset, tiny_selcfg, tiny_traincfg):
    chunks, test_records = tiny_dataset
    with pytest.raises(ValueError, match="unknown strategy"):
        run_strategy("sgd", chunks, test_records, tiny_selcfg, tiny_traincfg)
    with pytest.raises(ValueError, match="nonempty"):
        run_strategy("baseline_full", [], test_records, tiny_selcfg, tiny_traincfg)


@pytest.fixture
def no_reads(monkeypatch):
    """Fail any read of an image or mask file."""
    def read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(pgm, "_read_pgm_bytes", read)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_strategy_refuses_an_empty_test_set_before_training(
        strategy, tiny_dataset, tiny_selcfg, tiny_traincfg, no_reads):
    chunks, _ = tiny_dataset
    with pytest.raises(ValueError, match=r"^need a nonempty test set$"):
        run_strategy(strategy, chunks, [], tiny_selcfg, tiny_traincfg)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_strategy_refuses_an_empty_chunk_before_training(
        strategy, tiny_dataset, tiny_selcfg, tiny_traincfg, no_reads):
    chunks, test_records = tiny_dataset
    with pytest.raises(ValueError, match=r"nonempty training chunks; empty: \[1\]$"):
        run_strategy(strategy, [chunks[0], [], chunks[1]], test_records,
                     tiny_selcfg, tiny_traincfg)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_strategy_runs_and_reports(strategy, tiny_dataset, tiny_selcfg,
                                        tiny_traincfg):
    chunks, test_records = tiny_dataset
    report, params, pool, trace = run_strategy(
        strategy, chunks, test_records, tiny_selcfg, tiny_traincfg
    )
    assert report.strategy == strategy
    assert report.seed == tiny_selcfg.seed
    assert report.config_hash == tiny_selcfg.fingerprint()
    if strategy in ("iem_incremental", "naive_finetune"):
        assert [r.stage for r in report.rows] == [0, 1, 2]
    else:
        assert [r.stage for r in report.rows] == [2]
    assert (pool is not None) == (strategy in ("iem_incremental", "baseline_hem"))
    assert np.all(np.isfinite(params.weights))
    assert trace
    for row in report.rows:
        assert row.examples_trained > 0
        assert row.seconds >= 0.0


def test_budget_compliance(tiny_dataset, tiny_selcfg, tiny_traincfg):
    chunks, test_records = tiny_dataset
    budgets = stage_budgets(chunks, tiny_selcfg)
    epochs = tiny_traincfg.epochs_per_iteration

    report, _, _, _ = run_strategy("naive_finetune", chunks, test_records,
                                   tiny_selcfg, tiny_traincfg)
    assert [r.examples_trained for r in report.rows] == [b * epochs for b in budgets]

    report, _, _, _ = run_strategy("iem_incremental", chunks, test_records,
                                   tiny_selcfg, tiny_traincfg)
    for row, budget in zip(report.rows, budgets):
        assert 0 < row.examples_trained <= budget * epochs

    report, _, _, _ = run_strategy("baseline_full", chunks, test_records,
                                   tiny_selcfg, tiny_traincfg)
    assert report.rows[0].examples_trained == sum(budgets) * epochs

    report, _, _, _ = run_strategy("baseline_hem", chunks, test_records,
                                   tiny_selcfg, tiny_traincfg)
    assert 0 < report.rows[0].examples_trained <= sum(budgets) * epochs


@pytest.mark.parametrize("strategy", ["iem_incremental", "naive_finetune"])
def test_a_stream_resumed_after_any_stage_ends_byte_identical(
        strategy, tiny_dataset, tmp_path):
    # the golden config, whose d=5 drops records from the iem pool
    chunks, test_records = tiny_dataset
    selcfg = SelectionConfig(seed=7, iterations_per_step=3, t=3, d=5)
    traincfg = TrainConfig(learning_rate=2.0, epochs_per_iteration=2)
    whole = tmp_path / "whole"
    write_strategy_outputs(str(whole), *run_strategy(
        strategy, chunks, test_records, selcfg, traincfg))
    mining = strategy == "iem_incremental"
    names = [harness.CHECKPOINT_NAME] + [harness.POOL_NAME] * mining
    for k in range(len(chunks) - 1):
        run = tmp_path / f"stopped_after_{k}"
        run.mkdir()

        def save(params, pool):
            save_params(params, run / harness.CHECKPOINT_NAME)
            if mining:
                save_state(pool, run / harness.POOL_NAME)

        params, pool = init_params(), PoolState() if mining else None
        for stage in range(k + 1):
            train_stage(params, pool, chunks[stage], stage, selcfg, traincfg)
        save(params, pool)
        params = load_params(run / harness.CHECKPOINT_NAME)
        pool = load_state(run / harness.POOL_NAME) if mining else None
        for stage in range(k + 1, len(chunks)):
            train_stage(params, pool, chunks[stage], stage, selcfg, traincfg)
        save(params, pool)
        for name in names:
            assert (run / name).read_bytes() == (whole / name).read_bytes(), (k, name)
    if mining:
        assert any(r.dropped for r in load_state(whole / harness.POOL_NAME).records)


def test_train_stage_refuses_a_stage_out_of_sequence(tiny_dataset, tiny_selcfg,
                                                     tiny_traincfg):
    chunks, _ = tiny_dataset
    params, pool = init_params(), PoolState()
    with pytest.raises(ValueError, match="stage 1 is out of sequence"):
        train_stage(params, pool, chunks[1], 1, tiny_selcfg, tiny_traincfg)
    train_stage(params, pool, chunks[0], 0, tiny_selcfg, tiny_traincfg)
    with pytest.raises(ValueError, match="stage 2 is out of sequence"):
        train_stage(params, pool, chunks[2], 2, tiny_selcfg, tiny_traincfg)
    assert pool.stage == 0 and len(pool.records) == len(chunks[0])


def _one_of_each_label(tmp_path, name):
    """An 8x8 positive with a 3x3 lesion and a blank 8x8 negative."""
    records = []
    for label in ("positive", "negative"):
        mask = np.zeros((8, 8), dtype=bool)
        if label == "positive":
            mask[2:5, 3:6] = True
        rid = f"{name}-{label}"
        image_ref = str(tmp_path / f"{rid}.pgm")
        mask_ref = str(tmp_path / f"{rid}-mask.pgm")
        write_pgm(image_ref, 0.2 + 0.6 * mask)
        write_mask_pgm(mask_ref, mask)
        records.append(ExampleRecord(id=rid, image_ref=image_ref,
                                     mask_ref=mask_ref, label=label))
    return records


def test_every_kept_image_is_its_read_only_raster(tiny_dataset, tiny_selcfg,
                                                 tiny_traincfg, monkeypatch):
    # the pool, the fixed training sets and the test blocks keep each
    # image as its decoded uint8 raster, h*w bytes, until a stack of
    # views or of test images is converted
    chunks, test_records = tiny_dataset
    trained, tested = [], []
    real_train, real_eval = harness.train_on_subset, harness.evaluate_model
    monkeypatch.setattr(harness, "train_on_subset", lambda params, examples,
                        *args: (trained.append(examples),
                                real_train(params, examples, *args))[1])
    monkeypatch.setattr(harness, "evaluate_model", lambda params, blocks,
                        tau: (tested.append(blocks),
                              real_eval(params, blocks, tau))[1])
    pools = []
    for strategy in ("baseline_full", "naive_finetune", "iem_incremental"):
        pools.append(run_strategy(strategy, chunks, test_records,
                                  tiny_selcfg, tiny_traincfg)[2])
    pool = pools[-1]
    kept = pool.labeled([r.id for r in pool.records])
    assert len(kept) == sum(len(chunk) for chunk in chunks)
    h, w = kept[0][0].shape
    assert [img.nbytes for img, _ in kept] == [h * w] * len(kept)
    fixed = [pair for examples in trained for pair in examples]
    assert len(trained) > 2 and len(tested) == 1 + 2 * len(chunks)
    test_images = [images for blocks in tested for images, _ in blocks]
    for img in [img for img, _ in kept + fixed] + test_images:
        assert img.dtype == np.uint8 and not img.flags.writeable
    assert [r.id for r in pool.records] == [r.id for c in chunks for r in c]


def test_hem_run_leaves_pool_pixels_as_decoded(tiny_dataset, tiny_selcfg,
                                              tiny_traincfg):
    chunks, test_records = tiny_dataset
    _, _, pool, _ = run_strategy("baseline_hem", chunks, test_records,
                                 tiny_selcfg, tiny_traincfg)
    assert len(pool.records) == sum(len(chunk) for chunk in chunks)
    for rec in pool.records:
        [(img, labels)] = pool.labeled([rec.id])
        want_img, want_mask = read_pgm(rec.image_ref), read_mask_pgm(rec.mask_ref)
        assert np.array_equal(to_image(img), want_img)
        assert np.array_equal(labels != 0, want_mask)


def test_hem_traces_empty_rounds_once_the_pool_runs_dry(tmp_path):
    # budget 3 * 2 + 3 * 4 * 1 = 18 gives 18 // 4 = 4 rounds; the first
    # two select all four examples, which drops them all at d=1
    chunks = [_one_of_each_label(tmp_path, "c0"), _one_of_each_label(tmp_path, "c1")]
    selcfg = SelectionConfig(seed=0, iterations_per_step=3, t=1, d=1)
    report, _, pool, trace = run_strategy("baseline_hem", chunks, chunks[1],
                                          selcfg, TrainConfig())
    assert len(trace) == 4
    assert trace[2:] == [
        f"stage=1\titer={i}\thard_pos=\thard_neg=\teasy_pos=\teasy_neg="
        for i in (2, 3)
    ]
    assert report.final_row().examples_trained == 8
    assert len(pool.records) == 4 and all(r.dropped for r in pool.records)


def test_traces_describe_what_was_trained(tiny_dataset, tiny_selcfg,
                                          tiny_traincfg):
    chunks, test_records = tiny_dataset
    _, _, _, trace = run_strategy("naive_finetune", chunks, test_records,
                                  tiny_selcfg, tiny_traincfg)
    assert trace[0].startswith("stage=0\tset_size=24\t")
    assert trace[1].startswith("stage=1\tset_size=8\t")

    _, _, _, trace = run_strategy("iem_incremental", chunks, test_records,
                                  tiny_selcfg, tiny_traincfg)
    # stage-0 summary line plus one line per iteration per later stage
    assert len(trace) == 1 + 2 * tiny_selcfg.iterations_per_step
    assert trace[1].startswith("stage=1\titer=0\thard_pos=")


def test_runs_are_deterministic(tiny_dataset, tiny_selcfg, tiny_traincfg,
                                tmp_path):
    chunks, test_records = tiny_dataset

    def run():
        return run_strategy("iem_incremental", chunks, test_records,
                            tiny_selcfg, tiny_traincfg)

    report_a, params_a, pool_a, trace_a = run()
    report_b, params_b, pool_b, trace_b = run()
    assert trace_a == trace_b
    assert np.array_equal(params_a.weights, params_b.weights)
    for ra, rb in zip(report_a.rows, report_b.rows):
        assert (ra.stage, ra.precision, ra.recall, ra.f1, ra.jaccard,
                ra.examples_trained) == (
            rb.stage, rb.precision, rb.recall, rb.f1, rb.jaccard,
            rb.examples_trained)
    write_strategy_outputs(str(tmp_path / "a"), report_a, params_a, pool_a, trace_a)
    write_strategy_outputs(str(tmp_path / "b"), report_b, params_b, pool_b, trace_b)
    for name in (harness.REPORT_NAME, harness.POOL_NAME, harness.CHECKPOINT_NAME,
                 harness.TRACE_NAME):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


# -- evaluate_model on rigged fixtures ------------------------------------


def _fixture_records(tmp_path, layouts):
    """Images with unit-intensity pixels at pred spots, masks at gt spots."""
    records = []
    for i, (pred_spots, gt_spots) in enumerate(layouts):
        img = np.zeros((12, 12))
        for r, c in pred_spots:
            img[r, c] = 1.0
        mask = np.zeros((12, 12), dtype=bool)
        for r, c in gt_spots:
            mask[r, c] = True
        image_ref = str(tmp_path / f"f{i}.pgm")
        mask_ref = str(tmp_path / f"f{i}-mask.pgm")
        write_pgm(image_ref, img)
        write_mask_pgm(mask_ref, mask)
        records.append(ExampleRecord(
            id=f"f{i}", image_ref=image_ref, mask_ref=mask_ref,
            label="positive" if mask.any() else "negative",
        ))
    return records


def test_evaluate_model_matches_per_image_reference_with_lesions(tiny_dataset):
    # at the golden config the models find some lesions and miss others;
    # at the default learning rate they predict none on this fixture
    chunks, test_records = tiny_dataset
    selcfg = SelectionConfig(seed=7, iterations_per_step=3, t=3, d=5)
    traincfg = TrainConfig(learning_rate=2.0, epochs_per_iteration=2)
    report, params, _, _ = run_strategy("iem_incremental", chunks,
                                        test_records, selcfg, traincfg)
    assert any(row.precision > 0 and row.recall > 0 for row in report.rows)

    pairs = [(read_pgm(rec.image_ref), read_mask_pgm(rec.mask_ref))
             for rec in test_records]
    preds, gts = [], []
    for img, mask in pairs:
        preds.append(metrics.binarize(forward(params, img)))
        gts.append(mask)
    jis = [metrics.jaccard_index(p, g) for p, g in zip(preds, gts)]
    want = (*metrics.evaluate_detection(preds, gts, selcfg.tau),
            float(np.mean(jis)))
    assert want[0] > 0 and want[1] > 0
    blocks = stacked((oracles.to_raster(img), mask) for img, mask in pairs)
    assert evaluate_model(params, blocks, selcfg.tau) == want


def test_evaluate_model_perfect_and_mixed(tmp_path):
    # steep weights turn unit pixels into confident detections
    sharp = ModelParams(weights=np.array([50.0, 0.0, 0.0, -25.0]))
    tau = SelectionConfig().tau

    def decoded(records):
        return list(pair_blocks((rec.image_ref, rec.mask_ref)
                                for rec in records))

    (tmp_path / "same").mkdir()
    same = _fixture_records(tmp_path / "same", [
        ([(2, 2)], [(2, 2)]), ([(5, 5), (9, 3)], [(5, 5), (9, 3)]),
    ])
    assert evaluate_model(sharp, decoded(same), tau) == (1.0, 1.0, 1.0, 1.0)

    mixed = _fixture_records(tmp_path, [
        ([(2, 2), (2, 10)], [(2, 2), (8, 2)]),
    ])
    precision, recall, f1, ji = evaluate_model(sharp, decoded(mixed), tau)
    assert (precision, recall, f1) == (0.5, 0.5, 0.5)
    assert ji == pytest.approx(1 / 3)

    blind = ModelParams(weights=np.array([0.0, 0.0, 0.0, -50.0]))
    precision, recall, f1, ji = evaluate_model(blind, decoded(mixed), tau)
    assert (precision, recall, f1) == (0.0, 0.0, 0.0)
    assert ji == 0.0


@pytest.mark.parametrize("pairs", [[], iter(())], ids=["list", "generator"])
def test_evaluate_model_refuses_no_pairs(pairs):
    with pytest.raises(ValueError, match=r"^no test pairs to evaluate$"):
        evaluate_model(init_params(), pairs, SelectionConfig().tau)


# -- report files ----------------------------------------------------------


def test_fragment_round_trip(tmp_path):
    report = StrategyReport(
        strategy="naive_finetune", seed=11, config_hash="deadbeef0123",
        rows=(StageResult(0, 0.125, 0.25, 0.5, 0.75, 1.5, 40),
              StageResult(1, 0.5, 0.5, 0.5, 0.984375, 2.5, 80)),
    )
    path = tmp_path / "report.csv"
    write_report_fragment(report, path)
    back = read_report_fragment(path)
    assert back.strategy == report.strategy
    assert back.seed == 11 and back.config_hash == "deadbeef0123"
    for got, want in zip(back.rows, report.rows):
        assert got.stage == want.stage
        assert got.precision == want.precision
        assert got.jaccard == want.jaccard
        assert got.examples_trained == want.examples_trained
        assert got.seconds == 0.0  # wall clock lives in the sidecar


def test_fragment_rerun_is_byte_identical(tmp_path):
    report = _report()
    write_report_fragment(report, tmp_path / "a.csv")
    write_report_fragment(report, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize(
    "mangle, complaint",
    [
        (lambda t: t.replace("# seed=3\n", ""), "seed/config"),
        (lambda t: t.replace(",jaccard", ""),
         r"report\.csv:3: missing field 'jaccard'"),
        (lambda t: t.replace("strategy,stage", "stage,strategy"),
         r"report\.csv:3: bad column order"),
        (lambda t: t + "naive_finetune,9,0.5,0.5,0.5,0.5,10\n", "mixed strategies"),
        (lambda t: t + "iem_incremental,9,0.5,0.5,0.5,10\n", "expected 7 columns"),
        (lambda t: t.replace("0.500000,10", "zz,10"), "bad value"),
        (lambda t: t.replace("incremental,1,0.5", "incremental,1,zz"),
         r"report\.csv:5: bad value"),
        (lambda t: "# seed=3\n# config=e47f77e1728a\n", "empty report"),
        (lambda t: "# seed=0\n" + t, r"report\.csv:2: repeated annotation 'seed'"),
        (lambda t: t + t.splitlines()[-1] + "\n",
         r"report\.csv:6: repeated stage 1"),
        (lambda t: "\n".join(t.splitlines()[:3]) + "\n", r"report\.csv: no rows$"),
        (lambda t: t.replace("0.500000,10\n", "0.500000,-7\n", 1),
         r"report\.csv:4: bad value \(examples_trained must be >= 0, got -7\)"),
        (lambda t: t.replace("incremental,0,", "incremental,-1,"),
         r"report\.csv:4: bad value \(stage must be >= 0, got -1\)"),
        # annotations no run writes: a negative seed, a config that is not
        # 12 lowercase hex digits, any key but seed and config
        (lambda t: t.replace("seed=3", "seed=-3"), r"report\.csv:1: bad seed '-3'"),
        (lambda t: t.replace("config=e47f77e1728a", "config="),
         r"report\.csv:2: bad config ''$"),
        (lambda t: t.replace("config=e47f77e1728a", "config=E47F77E1728A"),
         r"report\.csv:2: bad config 'E47F77E1728A'"),
        (lambda t: t.replace("config=e47f77e1728a", "config=e47f77e1728"),
         r"report\.csv:2: bad config 'e47f77e1728'"),
        (lambda t: t.replace("\nstrategy,", "\n# extra=zzz\nstrategy,"),
         r"report\.csv:3: unknown annotation 'extra'"),
    ],
)
def test_fragment_read_rejects_malformed(tmp_path, mangle, complaint):
    path = tmp_path / "report.csv"
    write_report_fragment(_report(), path)
    path.write_text(mangle(path.read_text()))
    with pytest.raises(DataError, match=complaint):
        read_report_fragment(path)


def test_timings_round_trip(tmp_path):
    report = _report()
    path = tmp_path / "timings.csv"
    write_timings(report, path)
    got = read_timings(path)
    assert got == {("iem_incremental", 0): 0.25, ("iem_incremental", 1): 0.25}
    path.write_text("who,knows\n1,2\n")
    with pytest.raises(DataError, match=r"timings\.csv:1: missing field"):
        read_timings(path)
    path.write_text("strategy,stage,seconds\n"
                    "naive_finetune,4,1.5\nnaive_finetune,4,9.0\n")
    with pytest.raises(DataError,
                       match=r"timings\.csv:3: repeated row naive_finetune,4"):
        read_timings(path)


@pytest.mark.parametrize("seconds", ["nan", "inf", "-inf", "-3.5"])
def test_timings_refuse_non_finite_or_negative_seconds(tmp_path, seconds):
    path = tmp_path / "timings.csv"
    path.write_text(f"strategy,stage,seconds\nnaive_finetune,0,1.5\n"
                    f"naive_finetune,1,{seconds}\n")
    with pytest.raises(DataError, match=r"timings\.csv:3: seconds must be "
                                        r"finite and >= 0$"):
        read_timings(path)


def test_report_reader_joins_its_own_strategy_timings(tmp_path):
    report = _report(strategy="naive_finetune", stages=(0, 1, 2))
    write_report_fragment(report, tmp_path / "report.csv")
    assert [row.seconds for row in
            read_report_fragment(tmp_path / "report.csv").rows] == [0.0] * 3
    # stage 0 has no row of its own strategy, stage 2 none at all
    (tmp_path / "timings.csv").write_text(
        "strategy,stage,seconds\nbaseline_full,0,99.0\nnaive_finetune,1,9.75\n")
    back = read_report_fragment(tmp_path / "report.csv")
    assert [row.seconds for row in back.rows] == [0.0, 9.75, 0.0]


def test_headers_follow_the_stage_result_fields():
    # the headers are built from StageResult's fields: a reorder shows here
    assert harness.FULL_HEADER == (
        "strategy,stage,precision,recall,f1,jaccard,seconds,examples_trained")
    assert harness.REPORT_HEADER == (
        "strategy,stage,precision,recall,f1,jaccard,examples_trained")
    assert harness.TIMINGS_HEADER == "strategy,stage,seconds"


def test_report_timings_and_comparison_bytes(tmp_path):
    # a float field prints 6 decimals even for an int value (1, 0), an int
    # field prints as is; 0.1234565 and 5e-07 sit just below a half step
    full = StrategyReport("baseline_full", 7, "c0ffee", (
        StageResult(4, 1, 0, 2 / 3, 0.9999996, 12.5, 1200),))
    naive = StrategyReport("naive_finetune", 7, "c0ffee", (
        StageResult(0, 0.5, 0.25, 1 / 3, 1, 0, 0),
        StageResult(4, 0, 1, 0.1234565, 0.0000005, 0.25, 200)))
    for report in (full, naive):
        write_report_fragment(report, tmp_path / f"{report.strategy}.csv")
        write_timings(report, tmp_path / f"{report.strategy}.timings.csv")
    assert (tmp_path / "baseline_full.csv").read_bytes() == (
        b"# seed=7\n# config=c0ffee\n"
        b"strategy,stage,precision,recall,f1,jaccard,examples_trained\n"
        b"baseline_full,4,1.000000,0.000000,0.666667,1.000000,1200\n")
    assert (tmp_path / "naive_finetune.csv").read_bytes() == (
        b"# seed=7\n# config=c0ffee\n"
        b"strategy,stage,precision,recall,f1,jaccard,examples_trained\n"
        b"naive_finetune,0,0.500000,0.250000,0.333333,1.000000,0\n"
        b"naive_finetune,4,0.000000,1.000000,0.123456,0.000000,200\n")
    assert (tmp_path / "baseline_full.timings.csv").read_bytes() == (
        b"strategy,stage,seconds\nbaseline_full,4,12.500000\n")
    assert (tmp_path / "naive_finetune.timings.csv").read_bytes() == (
        b"strategy,stage,seconds\n"
        b"naive_finetune,0,0.000000\nnaive_finetune,4,0.250000\n")
    assert comparison_csv([full, naive]) == [
        "strategy,stage,precision,recall,f1,jaccard,seconds,examples_trained",
        "baseline_full,4,1.000000,0.000000,0.666667,1.000000,12.500000,1200",
        "naive_finetune,0,0.500000,0.250000,0.333333,1.000000,0.000000,0",
        "naive_finetune,4,0.000000,1.000000,0.123456,0.000000,0.250000,200"]


# -- merging ---------------------------------------------------------------

# the files the merged reports were read from, in order
PATHS = ["a/report.csv", "b/report.csv", "c/report.csv", "d/report.csv"]


def test_merge_orders_strategies():
    reports = [
        _report(strategy="naive_finetune", stages=(0, 1)),
        _report(strategy="baseline_full", stages=(1,)),
    ]
    assert merge_reports(reports, PATHS) == [reports[1], reports[0]]


def test_merge_rejects_mismatched_runs():
    with pytest.raises(DataError, match=r"^b/report\.csv: seed 2 and config "
                       r"e47f77e1728a disagree with a/report\.csv: seed 1 "
                       r"and config e47f77e1728a$"):
        merge_reports([_report(seed=1), _report(seed=2,
                                                strategy="baseline_full")],
                      PATHS)
    # the first report that differs is named, not a later one
    with pytest.raises(DataError, match=r"^b/report\.csv: seed 3 and config "
                       r"b disagree with a/report\.csv: seed 3 and config a$"):
        merge_reports([_report(config="a"),
                       _report(config="b", strategy="baseline_full"),
                       _report(config="c", strategy="baseline_hem")], PATHS)


def test_merge_rejects_two_reports_of_one_strategy():
    with pytest.raises(DataError, match="more than one report"):
        merge_reports([_report(), _report(stages=(0,)),
                       _report(strategy="baseline_full")], PATHS)
    with pytest.raises(DataError, match=r"report of iem_incremental: "
                       r"a/report\.csv and c/report\.csv$"):
        merge_reports([_report(), _report(strategy="baseline_full"),
                       _report(stages=(0,))], PATHS)


def test_comparison_csv_and_table():
    merged = merge_reports(
        [_report(strategy=s, stages=(0, 1)) for s in STRATEGIES], PATHS
    )
    lines = comparison_csv(merged)
    assert lines[0] == harness.FULL_HEADER
    assert len(lines) == 1 + len(STRATEGIES) * 2

    table = final_stage_table(merged)
    for name in STRATEGIES:
        assert table.count(name) == 1  # one final-stage line per strategy


@pytest.mark.parametrize("totals, note", [
    ((20, 20, 20, 20), None),
    ((20, 11, 20, 20), "baseline_hem 11 against 20"),
    ((20, 11, 20, 7), "baseline_hem 11, naive_finetune 7 against 20"),
    ((11, 20), "baseline_full 11 against 20"),  # a tie goes to the larger
    ((20, 11, 11, 20), "baseline_hem 11, iem_incremental 11 against 20"),
])
def test_uneven_totals_names_the_strategies_off_the_common_total(totals,
                                                                 note):
    reports = [StrategyReport(strategy, 3, "e47f77e1728a", (
        _row(0, examples=total - 5), _row(1, examples=5)))
               for strategy, total in zip(STRATEGIES, totals)]
    got = harness.uneven_totals(reports)
    if note is None:
        assert got is None
    else:
        assert got == f"examples_trained totals differ: {note} for the others"


def test_write_strategy_outputs_layout(tmp_path, tiny_dataset, tiny_selcfg,
                                       tiny_traincfg):
    chunks, test_records = tiny_dataset
    report, params, pool, trace = run_strategy(
        "baseline_hem", chunks, test_records, tiny_selcfg, tiny_traincfg
    )
    out = tmp_path / "hem"
    write_strategy_outputs(str(out), report, params, pool, trace)
    for name in (harness.REPORT_NAME, harness.TIMINGS_NAME, harness.TRACE_NAME,
                 harness.CHECKPOINT_NAME, harness.POOL_NAME):
        assert (out / name).is_file()

    report, params, pool, trace = run_strategy(
        "baseline_full", chunks, test_records, tiny_selcfg, tiny_traincfg
    )
    out = tmp_path / "full"
    write_strategy_outputs(str(out), report, params, pool, trace)
    assert not (out / harness.POOL_NAME).exists()


# -- dataset loading -------------------------------------------------------


def test_load_dataset_round_trip(tiny_dataset_dir):
    chunks, test_records = load_dataset(tiny_dataset_dir)
    assert [len(c) for c in chunks] == [24, 8, 8]
    assert len(test_records) == 12


def test_load_dataset_rejects_missing_pieces(tmp_path):
    from iem.synth import write_manifest

    with pytest.raises(DataError, match="no chunk manifests"):
        load_dataset(str(tmp_path))
    (tmp_path / "chunk0").mkdir()
    write_manifest([], str(tmp_path / "chunk0" / "manifest.tsv"))
    (tmp_path / "chunk2").mkdir()
    with pytest.raises(DataError) as exc:
        load_dataset(str(tmp_path))
    assert str(exc.value) == (f"{tmp_path / 'chunk2'}: chunk directory after "
                              f"the missing {tmp_path / 'chunk1' / 'manifest.tsv'}")
    (tmp_path / "chunk2").rename(tmp_path / "chunk2.old")  # not chunk + digits
    (tmp_path / "chunk1").mkdir()  # now the last chunk directory
    with pytest.raises(DataError) as exc:
        load_dataset(str(tmp_path))
    assert str(exc.value) == (f"{tmp_path / 'chunk1'}: chunk directory without "
                              f"its {tmp_path / 'chunk1' / 'manifest.tsv'}")
    (tmp_path / "chunk1").rmdir()
    with pytest.raises(DataError, match="missing test manifest"):
        load_dataset(str(tmp_path))
    (tmp_path / "test").mkdir()
    write_manifest([], str(tmp_path / "test" / "manifest.tsv"))
    with pytest.raises(DataError, match="chunk0.*empty manifest"):
        load_dataset(str(tmp_path))


def test_load_dataset_rejects_an_id_in_two_train_manifests(tmp_path):
    from iem.synth import ChunkSpec, generate_chunk

    spec = ChunkSpec(n_images=2, positive_fraction=0.5, seed=4)
    for piece in ("chunk0", "chunk1", "test"):
        # chunk_index 0 everywhere, so both train chunks name chunk0-0000
        generate_chunk(spec, str(tmp_path / piece), chunk_index=0)
    with pytest.raises(DataError) as exc:
        load_dataset(str(tmp_path))
    first = tmp_path / "chunk0" / "manifest.tsv"
    second = tmp_path / "chunk1" / "manifest.tsv"
    assert str(exc.value) == (f"{second}: example id 'chunk0-0000' is also "
                              f"in {first}")
