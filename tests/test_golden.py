"""Golden output digests: every strategy's files are pinned byte for byte.

A refactor or speed-up must leave ``report.csv``, ``trace.txt``,
``checkpoint.txt`` and ``pool.tsv`` unchanged for a fixed dataset, seed and
config. A change that alters these bits on purpose must say why in
CHANGES.md; never re-pin the digests to hide a defect.
"""

import hashlib
import os

import pytest

from iem.harness import STRATEGIES, run_strategy, write_strategy_outputs
from iem.selection import SelectionConfig
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
