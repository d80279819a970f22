"""Golden output digests: every strategy's files are pinned byte for byte.

A refactor or speed-up must leave ``report.csv``, ``trace.txt``,
``checkpoint.txt`` and ``pool.tsv`` unchanged for a fixed dataset, seed and
config. A change that alters these bits on purpose must say why in
CHANGES.md; never re-pin the digests to hide a defect.
"""

import hashlib
import os

import numpy as np
import pytest

from iem.harness import (STRATEGIES, load_dataset, run_strategy,
                         write_strategy_outputs)
from iem.selection import SelectionConfig
from iem.synth import ChunkSpec, Scenario, generate_scenario
from iem.trainer import TrainConfig

PINNED_FILES = ("report.csv", "trace.txt", "checkpoint.txt", "pool.tsv")

# d=5 makes the mining strategies drop examples, and learning_rate=2 gives
# models that find some lesions and miss others, so the drop rule and every
# term of the error score are pinned too
SELCFG = SelectionConfig(seed=7, iterations_per_step=3, t=3, d=5)
TRAINCFG = TrainConfig(learning_rate=2.0, epochs_per_iteration=2)

# sha256 of each output; None marks a file the strategy does not write
GOLDEN = {
    "baseline_full": {
        "report.csv": "d9aa6e0584c26fa83dbc8f6f7175723b073580fb8dd29048ccb46d9616ff007b",
        "trace.txt": "00908f2a9ed727078d75ca0d5ef943019d93cec91ce22c6d5cb237bc754cb081",
        "checkpoint.txt": "81b2b27979546ff5eb0db132027868e51c0d3a642679a97284aa9ee02a63dd09",
        "pool.tsv": None,
    },
    "baseline_hem": {
        "report.csv": "5ffdafce4900c4152e4fee752c5012c324a70ac0c93f2918fba9f57010abd519",
        "trace.txt": "ea661e45bededb507f4edb2d23b82c27269b1449d3ce4bd6f23a7fe800b14c29",
        "checkpoint.txt": "fca6ac0a21ab1955a0bbe23edc90180584d6b883f0acd322de74aeadc54ad764",
        "pool.tsv": "90f1bec779277a506001fe02e3368c5f8e1fcc3b84568f6271ab2c13890499c8",
    },
    "iem_incremental": {
        "report.csv": "835aab7d77c7f48028a2d8c32743c6575749465baa475386e1ee4bbc3282a7ea",
        "trace.txt": "e4e201c20ef5cf418cd751bda7ac115fc39c45ca1c1c34a066dd3f03a17dbebb",
        "checkpoint.txt": "0b84b7d62ea1c650d1dfb03ab451c8c38838e8dbc7d32b9f5c12ce6d9a4c2fed",
        "pool.tsv": "14358126c55b07bb8dd6e34893f06fe9c61c65f2818c207f35ee4cb8108fca37",
    },
    "naive_finetune": {
        "report.csv": "5b405100ef5f9dad81d08be4f9a13224654f3f9676f3aa2d2d3594a5433427cf",
        "trace.txt": "afc07b7cd9e57c8c41f947eba7f95f5043436386a9ecba640d74472f7308bed7",
        "checkpoint.txt": "9e9ea9dbbcdcbeebf72f4dfe0f0218d57a805617c5a61f31a7a4cf94b85fed33",
        "pool.tsv": None,
    },
}


# the same strategies on a stream whose image size changes: chunk 0 is
# 24x24, the later chunks 16x20, and the test set holds six of each, so
# pools, training subsets and the test set all mix two shapes
GOLDEN_MIXED = {
    "baseline_full": {
        "report.csv": "0752a3898f320dd03aa78337346d053ad44804f8110510718807b47716529302",
        "trace.txt": "00908f2a9ed727078d75ca0d5ef943019d93cec91ce22c6d5cb237bc754cb081",
        "checkpoint.txt": "5a4738c2e4b3c2f455eedabf9deea177105e52b5a2c45974fe0e21224f012ff3",
        "pool.tsv": None,
    },
    "baseline_hem": {
        "report.csv": "d44edbc4c4f6e336fa292decf80dd65cd1fb2a8659b1abb3d29b9bc7b195676d",
        "trace.txt": "7d64eac2633cc21683e15833fa2b7270ed7b7a71eae873149b3f20e6b9c6f7b0",
        "checkpoint.txt": "c7c78f1af0fc2a41731ca56d35c2afc1cb3790a82105f3e15e23b255b96d2ff3",
        "pool.tsv": "ec760df7fcf79c1e6d6e8a9ca67ec1e33fdd3114a869c7283b8e700c24fab9b9",
    },
    "iem_incremental": {
        "report.csv": "1ce443bd1f0c2bfdea845178a767c0172973da3783b8d903624d17a926ed7e3f",
        "trace.txt": "76721ac3eeff0841b03b2e043f24fedf0fe9a2ec8e52c5cb54554d2106ea38e4",
        "checkpoint.txt": "9043c2c6986e656341361f385cc87a85374f64db3768940fecbb6241e0365030",
        "pool.tsv": "b502b07123c5220dde8f930329d27ffb532a51bada844d87fe438a0f7547385a",
    },
    "naive_finetune": {
        "report.csv": "eae7996d35359df842e1fc9b45973455df710e02579d5dc52ae2695e3d2062d4",
        "trace.txt": "afc07b7cd9e57c8c41f947eba7f95f5043436386a9ecba640d74472f7308bed7",
        "checkpoint.txt": "a9c5745ef85b55dbd1f0f811ef71b1765a8a92e8e5fcc1e3512e72d0ce1bb227",
        "pool.tsv": None,
    },
}


@pytest.fixture(scope="module")
def mixed_dataset_dir(tmp_path_factory):
    states = np.random.SeedSequence(456).generate_state(5)
    small = (16, 20)
    scenario = Scenario(
        train=(
            ChunkSpec(n_images=24, positive_fraction=0.5, seed=int(states[0])),
            ChunkSpec(n_images=8, positive_fraction=0.5, shift_offset=0.075,
                      image_size=small, seed=int(states[1])),
            ChunkSpec(n_images=8, positive_fraction=0.5, shift_offset=0.15,
                      image_size=small, seed=int(states[2])),
        ),
        test=(
            ChunkSpec(n_images=6, positive_fraction=0.5, seed=int(states[3])),
            ChunkSpec(n_images=6, positive_fraction=0.5, shift_offset=0.15,
                      image_size=small, seed=int(states[4])),
        ),
    )
    out = tmp_path_factory.mktemp("mixeddata")
    generate_scenario(scenario, str(out))
    return str(out)


def _digest(path, data_root):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    # pool.tsv names image files by path; the dataset lives in a temp dir
    data = data.replace(os.fsencode(data_root + os.sep), b"")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_outputs_match_golden_digests(strategy, tiny_dataset, tiny_dataset_dir,
                                      tmp_path):
    chunks, test_records = tiny_dataset
    report, params, pool, trace = run_strategy(
        strategy, chunks, test_records, SELCFG, TRAINCFG)
    write_strategy_outputs(str(tmp_path), report, params, pool, trace)
    got = {name: _digest(str(tmp_path / name), tiny_dataset_dir)
           for name in PINNED_FILES}
    assert got == GOLDEN[strategy]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_mixed_size_outputs_match_golden_digests(strategy, mixed_dataset_dir,
                                                 tmp_path):
    chunks, test_records = load_dataset(mixed_dataset_dir)
    report, params, pool, trace = run_strategy(
        strategy, chunks, test_records, SELCFG, TRAINCFG)
    write_strategy_outputs(str(tmp_path), report, params, pool, trace)
    got = {name: _digest(str(tmp_path / name), mixed_dataset_dir)
           for name in PINNED_FILES}
    assert got == GOLDEN_MIXED[strategy]
