"""Pinned sha256 digests of trace.csv for one short config per optimizer path.

Criterion 13 only checks that a trace replays within one session, so a
refactor could change every number and still pass it. These digests pin
the bytes across versions. A change that alters a stream on purpose
updates the digest here and says so in CHANGES.md.

The three sampled BLR digests were re-pinned when the Monte Carlo core
began passing all K samples to the loss as one array: that changes only
the summation order. LOOPED_ROWS keeps the rows the per-sample loop
wrote for those configs, and test_batched_core_keeps_looped_rows checks
the new traces against them value by value.

Seven digests were re-pinned when the softplus behind every loss value
changed from np.logaddexp(0, z) to max(z, 0) + log1p(exp(-|z|)), which
moves values by a few ULP. OLD_DIGESTS keeps the digests of the
logaddexp kernel: with that kernel patched back in, every config must
reproduce them exactly, and with the new kernel only the value columns
may move, within VALUE_RTOL.
"""

import csv
import hashlib

import numpy as np

import pytest

import natvb.models
from natvb.harness import run_experiment


def _config(seed, model, optimizer):
    return {"schema_version": 1, "seed": seed, "model": model, "optimizer": optimizer}


_LOGISTIC = {"kind": "logistic", "n": 60, "p": 3, "data_seed": 4}
_SPIRALS = {"kind": "spirals_mlp", "n": 120, "hidden": [8, 8], "data_seed": 7}

#: the diagonal reparam config that leaves the domain 45 times in 30 steps
HALVING_CONFIG = _config(
    3, {"kind": "logistic", "n": 200, "p": 5},
    {"kind": "blr", "family": "diag", "learning_rate": 1.0, "max_iter": 30,
     "estimator": "reparam", "n_samples": 8})

PINNED = {
    "blr_full_exact_ridge": (
        _config(1, {"kind": "ridge", "n": 30, "p": 4, "data_seed": 2},
                {"kind": "blr", "family": "full", "learning_rate": 0.5,
                 "max_iter": 12, "estimator": "exact"}),
        "ac0340c0c35261fbe61febe8e3cb1df7a9b73d2289e9e966a39795adbf9a1f8e"),
    # P = 40, where the per-step dual-coordinate cross-check dominated the run
    "blr_full_exact_ridge_p40": (
        _config(1, {"kind": "ridge", "n": 60, "p": 40, "data_seed": 3},
                {"kind": "blr", "family": "full", "learning_rate": 0.5,
                 "max_iter": 8, "estimator": "exact"}),
        "51fe05a0c45d0ed54601c7ba7a30b96ab5ccd6eb62205a0731ed22bd5ee52201"),
    "blr_full_delta": (
        _config(1, _LOGISTIC, {"kind": "blr", "family": "full", "learning_rate": 0.5,
                               "max_iter": 8, "estimator": "delta"}),
        "52854879189bd5bf3b2e44ee7385b140e9609c61b6ddf84737729ef82b4d8bdc"),
    "blr_full_mc": (
        _config(2, _LOGISTIC, {"kind": "blr", "family": "full", "learning_rate": 0.3,
                               "max_iter": 8, "estimator": "mc", "n_samples": 8}),
        "83d626128fb0ef127310e88ceb733e54859982137c9cc6438b669501d0eb88b4"),
    "blr_diag_mc": (
        _config(2, _LOGISTIC, {"kind": "blr", "family": "diag", "learning_rate": 0.3,
                               "max_iter": 8, "estimator": "mc", "n_samples": 8}),
        "ba3585a9ea86e7a0931bce435e75a3b309d76e5dac3f090eb8906a58f7d524f7"),
    "blr_diag_reparam_halvings": (
        HALVING_CONFIG,
        "daa945aaf460ca7f3e142944269e01ef6dd49365528532d5264e8bb185c4594e"),
    "von": (
        _config(5, {"kind": "logistic", "n": 60, "p": 2, "data_seed": 21},
                {"kind": "von", "learning_rate": 0.1, "steps": 40, "n_samples": 4}),
        "8c4a0a1e92c63db4caea14b13c421dc3e8cc7c50d70bcf33e5ad1fcd63a03316"),
    "ivon": (
        _config(5, {"kind": "logistic", "n": 60, "p": 2, "data_seed": 5},
                {"kind": "ivon", "steps": 40, "step_size": 0.1, "ess": 100.0}),
        "f94b1bc6d5018f6fccc8c4a3b52055ef7ba4736fcf23da1d1d6505fc2bca76ad"),
    "adam": (
        _config(6, {"kind": "logistic", "n": 60, "p": 2, "data_seed": 3},
                {"kind": "adam", "steps": 40, "step_size": 0.05, "batch_size": 20}),
        "c7634859ea4c2ebf8c251d2a2cf925555d45050b34b04015a3a5fb8f37c43848"),
    "rmsprop": (
        _config(6, {"kind": "logistic", "n": 60, "p": 2, "data_seed": 3},
                {"kind": "rmsprop", "steps": 40, "step_size": 0.05}),
        "20e46438ad95c57f2b9678542b269aaf08443121779e27cc5a5487dbb6ab911a"),
    # the MLP forward pass and backprop, under a minibatch and the full-data record
    "ivon_mlp": (
        _config(7, _SPIRALS, {"kind": "ivon", "steps": 40, "step_size": 0.3,
                              "ess": 3e4, "batch_size": 30}),
        "3a44dcf57f5d646752d05c15402bf173355be8ce30b03e1a48e19d1b4d4b9b7c"),
    "adam_mlp": (
        _config(8, _SPIRALS, {"kind": "adam", "steps": 40, "step_size": 0.05,
                              "batch_size": 30}),
        "5b39870946eb153b59d43bd47ee21a8d1e0e4f4886f7380a8a94291005c8c47e"),
}


#: digests of the np.logaddexp(0, z) softplus kernel, for every pinned config
OLD_DIGESTS = {
    "adam": "1a94f94723d6c1a5a3a67b1d4a1d246a0320680f76008bd09451b3abd6e0653a",
    "adam_mlp": "7ea7af3af5860fb16fa7cf994b49f40d24b4d7425794101eea5d42cefe949334",
    "blr_diag_mc": "ba3585a9ea86e7a0931bce435e75a3b309d76e5dac3f090eb8906a58f7d524f7",
    "blr_diag_reparam_halvings":
        "daa945aaf460ca7f3e142944269e01ef6dd49365528532d5264e8bb185c4594e",
    "blr_full_delta": "bce4c027a09c3d9e45421ecbf6c9a3853e83c799a464412000f490b033460ba2",
    "blr_full_exact_ridge":
        "ac0340c0c35261fbe61febe8e3cb1df7a9b73d2289e9e966a39795adbf9a1f8e",
    "blr_full_exact_ridge_p40":
        "51fe05a0c45d0ed54601c7ba7a30b96ab5ccd6eb62205a0731ed22bd5ee52201",
    "blr_full_mc": "83d626128fb0ef127310e88ceb733e54859982137c9cc6438b669501d0eb88b4",
    "ivon": "16f00af474f2e3c07097904f0d7f55a825c44aa63437f7d06b90bb231e08371b",
    "ivon_mlp": "fb2bebaa96d23c872fbf9776ed3c00c5ea633050ebf93c25c573591b7f4e9271",
    "rmsprop": "ebdb94570cc94f01d8415fc5e104b5b379cae2898db66ae59296403b21b50cf4",
    "von": "2428c76744d921f4426ceda7eb837555d486ac461f749e975c17d7970c1d5404",
}
#: the trace columns that hold a loss value, the only ones the kernel may move
VALUE_COLUMNS = ("objective", "loss")
VALUE_RTOL = 1e-14


def _trace(config, out_dir):
    run_experiment(config, out_dir)
    return (out_dir / "trace.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_digest_pinned(name, tmp_path):
    config, digest = PINNED[name]
    assert hashlib.sha256(_trace(config, tmp_path)).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(PINNED))
def test_softplus_kernel_moves_value_columns_only(name, tmp_path, monkeypatch):
    config, _ = PINNED[name]
    new = _trace(config, tmp_path / "new")
    with monkeypatch.context() as patch:
        patch.setattr(natvb.models, "_softplus", lambda z: np.logaddexp(0.0, z))
        old = _trace(config, tmp_path / "old")
    # with the old kernel back, everything else reproduces the old bytes
    assert hashlib.sha256(old).hexdigest() == OLD_DIGESTS[name]
    old_rows = list(csv.reader(old.decode().splitlines()))
    new_rows = list(csv.reader(new.decode().splitlines()))
    assert new_rows[0] == old_rows[0] and len(new_rows) == len(old_rows)
    for j, column in enumerate(old_rows[0]):
        old_col = [row[j] for row in old_rows[1:]]
        new_col = [row[j] for row in new_rows[1:]]
        if column in VALUE_COLUMNS:
            np.testing.assert_allclose(np.array(new_col, dtype=float),
                                       np.array(old_col, dtype=float),
                                       rtol=VALUE_RTOL, atol=0.0)
        else:
            assert new_col == old_col, column


#: (t, rho, objective, residual) rows of the per-sample Monte Carlo loop
LOOPED_ROWS = {
    "blr_full_mc": [
        (1, 0.3, 35.8972489695127, 0.620870740745235),
        (2, 0.3, 35.026865466952714, 0.8342256381415736),
        (3, 0.3, 34.53607930529969, 0.5018655717228492),
        (4, 0.3, 34.348089594295956, 0.2528909349100723),
        (5, 0.3, 34.33074278892239, 0.4617206211267697),
        (6, 0.3, 34.17281091933954, 0.11689582406087899),
        (7, 0.3, 34.17393514804568, 0.1274723308361823),
        (8, 0.3, 34.15943191912048, 0.21607511096579668),
    ],
    "blr_diag_mc": [
        (1, 0.3, 35.46916813366147, 0.6693858445100983),
        (2, 0.3, 34.83942135085147, 0.8007599712094611),
        (3, 0.3, 34.43694937906593, 0.5447843286294615),
        (4, 0.3, 34.31403790734382, 0.2780975846330744),
        (5, 0.3, 34.32561906865228, 0.4218828709601266),
        (6, 0.3, 34.19589211184871, 0.10419898760390423),
        (7, 0.3, 34.20363199264087, 0.11869576028133211),
        (8, 0.3, 34.195516773399575, 0.20227991400390397),
    ],
    "blr_diag_reparam_halvings": [
        (1, 1.0, 95.87754504831284, 0.8508558200851006),
        (2, 0.5, 131.8295784093866, 0.9360442308133037),
        (3, 0.5, 92.58480165979563, 0.4743299047057799),
        (4, 1.0, 86.19278393063954, 0.7760197718603309),
        (5, 0.5, 85.22569202293323, 0.4629524256406789),
        (6, 1.0, 85.48944609237863, 0.3191636093240305),
        (7, 0.5, 85.32893598851456, 1.4626588572380608),
        (8, 1.0, 89.37416507694093, 0.8885472413765146),
        (9, 1.0, 109.35311405770852, 3.0618114223028776),
        (10, 1.0, 88.47060929280545, 0.556257894940093),
        (11, 1.0, 86.21004786645538, 0.8212467184096657),
        (12, 1.0, 85.64964087234446, 0.565337946757474),
        (13, 1.0, 87.09250250532364, 1.4789090270214997),
        (14, 1.0, 87.27481191116931, 0.245710483424294),
        (15, 1.0, 88.40864659144044, 0.6683748934930931),
        (16, 1.0, 101.38332912088538, 0.7429731866674907),
        (17, 1.0, 91.04539159521605, 1.1821505916838793),
        (18, 1.0, 96.81854262822417, 0.6845998931069728),
        (19, 1.0, 1717.3844276332497, 13.220499611117488),
        (20, 0.125, 1431.0586046247167, 0.4180303942513404),
        (21, 0.5, 900.6496110831057, 3.5916668713664617),
        (22, 0.125, 1237.814657694289, 3.400549871826633),
        (23, 0.03125, 1695.7530793409505, 7.965859473056347),
        (24, 0.125, 7715.143747515927, 6.0811970026774675),
        (25, 0.03125, 7194.922437741926, 6.969718094514211),
        (26, 0.015625, 4945.06976784145, 5.40619459497589),
        (27, 0.00390625, 51470.10430156806, 28.055114745012613),
        (28, 0.125, 37124.96490281265, 11.057929338373082),
        (29, 0.125, 32815.75306440602, 17.401365845745783),
        (30, 0.5, 31099.383891401947, 15.896627247178074),
    ],
}

#: objective/residual tolerance; the halving config's terms reach 1e9
LOOPED_RTOL = {"blr_full_mc": 1e-12, "blr_diag_mc": 1e-12,
               "blr_diag_reparam_halvings": 1e-5}


@pytest.mark.parametrize("name", sorted(LOOPED_ROWS))
def test_batched_core_keeps_looped_rows(name, tmp_path):
    run_experiment(PINNED[name][0], tmp_path)
    with open(tmp_path / "trace.csv", encoding="utf-8") as handle:
        rows = [tuple(map(float, row)) for row in list(csv.reader(handle))[1:]]
    expected = LOOPED_ROWS[name]
    assert len(rows) == len(expected)
    # same steps and rates: every rate halving happens where it did before
    assert [row[:2] for row in rows] == [row[:2] for row in expected]
    got = np.array([row[2:] for row in rows])
    want = np.array([row[2:] for row in expected])
    np.testing.assert_allclose(got, want, rtol=LOOPED_RTOL[name], atol=0.0)
