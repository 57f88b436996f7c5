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

The von digest was re-pinned when VON's sampled step dropped its
per-sample loop for the same batched core; again only the summation
order changed. LOOPED_ROWS keeps that loop's rows too, and
LOOPED_DIGESTS its digest, which the rows must reproduce when written
as a trace.

Seven digests were re-pinned when the softplus behind every loss value
changed from np.logaddexp(0, z) to max(z, 0) + log1p(exp(-|z|)), which
moves values by a few ULP. OLD_DIGESTS keeps the digests of the
logaddexp kernel: with that kernel patched back in, every config must
reproduce them exactly, and with the new kernel only the value columns
may move, within VALUE_RTOL. The von entry there is the batched core's
digest under the logaddexp kernel.

The ivon, ivon_mlp and von digests were re-pinned when IVON's and VON's
step-t draws moved from stream (seed, t), which other consumers of the
same seed also draw (the derivative-gate probe (seed, 0xC) at t = 12, for
one), to their own stream (seed, *SAMPLE_STREAM, t). UNTAGGED_DIGESTS
keeps the digests of the old stream, which these configs reproduce with
the prefix patched back to (); the historical proofs above run with it
patched back too.

The blr_full_mc, blr_diag_mc and blr_diag_reparam_halvings digests were
re-pinned when sampled BLR's step-t estimate moved from stream
((seed << 20) ^ t,) to (seed, *ESTIMATE_STREAM, t). SeedSequence splits
the folded int into 32-bit words, so at seed s = tag << 12 and t = s it
was (s, tag), another consumer's stream. FOLDED_DIGESTS keeps the
digests of the folded stream, which these configs reproduce when the
folded fixture puts that stream back in blr_run; the historical proofs
above run with it put back too.

The ivon_spirals_bench digest, the spirals_ivon benchmark workload's
first 100 steps, was pinned after all of these changes. Its OLD_DIGESTS
entry was computed the same way as the rest: with the logaddexp kernel
and the untagged sample stream patched back in.

The blr_diag_delta digest (the per-theta Hessian diagonal) and the three
*_mlp_prior digests (the MLP with tau > 0 under VON, IVON and diagonal
reparam BLR) were pinned later still, before logistic regression and the
MLP began to share one Bernoulli data term, so that the merge is held to
the bytes of the two separate copies. Their OLD_DIGESTS entries were
computed with the logaddexp kernel, the untagged sample stream and the
folded estimate stream patched back in, as the test runs them.

The blr_ridge_bench and blr_logistic_bench digests are the ridge_full and
logistic_mc benchmark workloads at seed 1, whole. They were pinned before
the linear-loss estimate was memoised and FullGaussian's derivation went
to one scan of the precision, so that those changes are held to the
bytes of the code they replaced. Their OLD_DIGESTS entries were computed
as the test runs them: the ridge trace has no softplus and no draws, so
its entry is its digest; the logistic one has the folded estimate stream.

WIDE_MLP_DIGEST, diagonal reparam BLR on a [64, 64] spirals MLP (P =
4,417), was pinned while every estimate and objective still formed the
dense (P, P) covariance, a 158.6 MB tracemalloc peak. The test holds the
run to those bytes with no such array.

UNBENCHED pins trace.csv and summary.json (less its wall_time_s line) of
two ridge configs that no benchmark workload runs: diagonal exact BLR,
whose estimate and objective take the loss's closed forms at the
diagonal family's covariance, and VON, whose exact step does too. They
were pinned while both routes still expanded the variance vector into a
dense (P, P) covariance, so that the vector route is held to its bytes.
tools/same_bytes.py runs the same two configs.
"""

import csv
import hashlib
import tracemalloc

import numpy as np

import pytest

import natvb.blr
import natvb.deep
import natvb.models
from natvb.harness import run_experiment, write_trace
from natvb.seeding import make_rng


def _config(seed, model, optimizer):
    return {"schema_version": 1, "seed": seed, "model": model, "optimizer": optimizer}


_LOGISTIC = {"kind": "logistic", "n": 60, "p": 3, "data_seed": 4}
_SPIRALS = {"kind": "spirals_mlp", "n": 120, "hidden": [8, 8], "data_seed": 7}
#: the spirals_ivon benchmark workload's model at seed 1
_SPIRALS_IVON = {"kind": "spirals_mlp", "n": 500, "hidden": [16, 16], "data_seed": 1}
#: the spirals MLP with a Gaussian prior, whose loss and gradient carry a tau term
_SPIRALS_PRIOR = {**_SPIRALS, "prior_precision": 0.5}
#: the ridge_full and logistic_mc benchmark workloads' models at seed 1
_RIDGE_BENCH = {"kind": "ridge", "n": 200, "p": 20, "data_seed": 1}
_LOGISTIC_BENCH = {"kind": "logistic", "n": 500, "p": 8, "data_seed": 1}

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
    # the per-theta Hessian diagonal at the mean
    "blr_diag_delta": (
        _config(1, _LOGISTIC, {"kind": "blr", "family": "diag", "learning_rate": 0.5,
                               "max_iter": 8, "estimator": "delta"}),
        "1f6bdce698d649187d65d21d1f59b2ecc93dd25226a68abc96a94d99d11bbb7e"),
    "blr_full_mc": (
        _config(2, _LOGISTIC, {"kind": "blr", "family": "full", "learning_rate": 0.3,
                               "max_iter": 8, "estimator": "mc", "n_samples": 8}),
        "4ff63c5e4ffa487db51a460a6356d9c3f5fa379fa6fae326b319eb31fc2db5a1"),
    "blr_diag_mc": (
        _config(2, _LOGISTIC, {"kind": "blr", "family": "diag", "learning_rate": 0.3,
                               "max_iter": 8, "estimator": "mc", "n_samples": 8}),
        "5489bc80dcf4416e9226d284ca1320c560add901eace59982619d03d562447a2"),
    "blr_diag_reparam_halvings": (
        HALVING_CONFIG,
        "69a9f194a279d6e96452ae6bc878460ad390613a8238d31a2e8160367accd401"),
    "von": (
        _config(5, {"kind": "logistic", "n": 60, "p": 2, "data_seed": 21},
                {"kind": "von", "learning_rate": 0.1, "steps": 40, "n_samples": 4}),
        "ffb3e756f0539252182a4456a77fbd765c24daa6d9faac687454374c73036b74"),
    "ivon": (
        _config(5, {"kind": "logistic", "n": 60, "p": 2, "data_seed": 5},
                {"kind": "ivon", "steps": 40, "step_size": 0.1, "ess": 100.0}),
        "6d91e3f2be2be56226a2ec5aa6f292f114b1c0155f8ab1fa305efc60c62269fd"),
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
        "1ca4c0b8c79e1ffa84c3f59741314bf4d0035835462b1d8b823aa4d582d88bd8"),
    "adam_mlp": (
        _config(8, _SPIRALS, {"kind": "adam", "steps": 40, "step_size": 0.05,
                              "batch_size": 30}),
        "5b39870946eb153b59d43bd47ee21a8d1e0e4f4886f7380a8a94291005c8c47e"),
    # the spirals_ivon workload's first 100 steps: (500, 16) hidden deltas in
    # the full-data record and (100, 16) in the minibatch gradient
    "ivon_spirals_bench": (
        _config(1, _SPIRALS_IVON, {"kind": "ivon", "step_size": 0.3, "steps": 100,
                                   "hess_rate": 3e-3, "weight_decay": 1e-2,
                                   "ess": 3e4, "batch_size": 100}),
        "1f57ec9d23f20e46f861665e9d9b41f525b271f413d65c52acebf1251353f404"),
    # the ridge_full workload: the conjugate estimate at every iterate
    "blr_ridge_bench": (
        _config(1, _RIDGE_BENCH, {"kind": "blr", "family": "full", "learning_rate": 0.5,
                                  "max_iter": 40, "estimator": "exact"}),
        "f40d54fad5329e64c9e119a2a4db5a63d8ef0415875b2a934411cd993d5ce6af"),
    # the logistic_mc workload: 100 sampled full-covariance steps
    "blr_logistic_bench": (
        _config(1, _LOGISTIC_BENCH, {"kind": "blr", "family": "full", "learning_rate": 0.3,
                                     "max_iter": 100, "estimator": "mc",
                                     "n_samples": 32}),
        "d61656966b3d66a3c95b0dc82fbf467f39a4d27bcbcd23504c7494e229d280b0"),
    # the MLP's prior term in the minibatch gradient, the full-data record,
    # the batched gradients and the derivative gate's axis values
    "von_mlp_prior": (
        _config(3, _SPIRALS_PRIOR, {"kind": "von", "learning_rate": 0.01, "steps": 30,
                                    "n_samples": 8, "batch_size": 30,
                                    "init_precision": 10.0}),
        "b33a3d098f2b8eced11435f5777d4ac248e46dad18fab1ba15cad3978a1d2984"),
    "ivon_mlp_prior": (
        _config(5, _SPIRALS_PRIOR, {"kind": "ivon", "steps": 30, "step_size": 0.3,
                                    "ess": 3e4, "batch_size": 30}),
        "8cc9dc536d1c75070a515bbbb2b212cec733b59f1e1533bec24a33482151c880"),
    "blr_diag_reparam_mlp_prior": (
        _config(4, _SPIRALS_PRIOR, {"kind": "blr", "family": "diag", "learning_rate": 0.05,
                                    "max_iter": 10, "estimator": "reparam",
                                    "n_samples": 4}),
        "a171bfa4640552adbfcf6f4f4f4593c454fb76846c2994e8e30e89bb697fabbe"),
}


#: digests of IVON's and VON's draws on stream (seed, t), before SAMPLE_STREAM
UNTAGGED_DIGESTS = {
    "ivon": "f94b1bc6d5018f6fccc8c4a3b52055ef7ba4736fcf23da1d1d6505fc2bca76ad",
    "ivon_mlp": "3a44dcf57f5d646752d05c15402bf173355be8ce30b03e1a48e19d1b4d4b9b7c",
    "von": "ce37afd10fb98bf57d237111ca9eb3d2e59933556ca50e531f1ba3fccb13960c",
}

#: digests of sampled BLR's estimates on stream ((seed << 20) ^ t,), before
#: ESTIMATE_STREAM
FOLDED_DIGESTS = {
    "blr_full_mc": "83d626128fb0ef127310e88ceb733e54859982137c9cc6438b669501d0eb88b4",
    "blr_diag_mc": "ba3585a9ea86e7a0931bce435e75a3b309d76e5dac3f090eb8906a58f7d524f7",
    "blr_diag_reparam_halvings":
        "daa945aaf460ca7f3e142944269e01ef6dd49365528532d5264e8bb185c4594e",
}

#: digests of the np.logaddexp(0, z) softplus kernel, for every pinned config
OLD_DIGESTS = {
    "adam": "1a94f94723d6c1a5a3a67b1d4a1d246a0320680f76008bd09451b3abd6e0653a",
    "adam_mlp": "7ea7af3af5860fb16fa7cf994b49f40d24b4d7425794101eea5d42cefe949334",
    "blr_diag_delta": "a953361754ae4d793d7cae71f0e51f946a6647c1f9e891500fa360edda6c8de7",
    "blr_diag_mc": "ba3585a9ea86e7a0931bce435e75a3b309d76e5dac3f090eb8906a58f7d524f7",
    "blr_diag_reparam_halvings":
        "daa945aaf460ca7f3e142944269e01ef6dd49365528532d5264e8bb185c4594e",
    "blr_diag_reparam_mlp_prior":
        "beaed812d0e5005d638cb045ae36ebe97b17a41dc73e7b19c187cab6b6e9d778",
    "blr_logistic_bench":
        "d9ec2e8ba2e6504b6ac663f8f97fcad5f66f4cfd9320b609b43065dd7a557352",
    "blr_full_delta": "bce4c027a09c3d9e45421ecbf6c9a3853e83c799a464412000f490b033460ba2",
    "blr_full_exact_ridge":
        "ac0340c0c35261fbe61febe8e3cb1df7a9b73d2289e9e966a39795adbf9a1f8e",
    "blr_full_exact_ridge_p40":
        "51fe05a0c45d0ed54601c7ba7a30b96ab5ccd6eb62205a0731ed22bd5ee52201",
    "blr_full_mc": "83d626128fb0ef127310e88ceb733e54859982137c9cc6438b669501d0eb88b4",
    "blr_ridge_bench":
        "f40d54fad5329e64c9e119a2a4db5a63d8ef0415875b2a934411cd993d5ce6af",
    "ivon": "16f00af474f2e3c07097904f0d7f55a825c44aa63437f7d06b90bb231e08371b",
    "ivon_mlp": "fb2bebaa96d23c872fbf9776ed3c00c5ea633050ebf93c25c573591b7f4e9271",
    "ivon_mlp_prior": "a7db8c3bf91065024a2b3e8e74da7f87e729a9d6351c0aad6ed18568d47d24fc",
    "ivon_spirals_bench":
        "e717d22f03c18cdce5d0592e7bd5bf387c28ca6b8439c30faf015bc5d14d8e64",
    "rmsprop": "ebdb94570cc94f01d8415fc5e104b5b379cae2898db66ae59296403b21b50cf4",
    "von": "f2bdb252be85be24066521f8d5f7aff1864cfd423f5892be1f7b632936f9a5bf",
    "von_mlp_prior": "da5ea32506bfc0cd5a9251755584a4e9da21da160ccc2e7b44dc60f056205b26",
}
#: the trace columns that hold a loss value, the only ones the kernel may move
VALUE_COLUMNS = ("objective", "loss")
VALUE_RTOL = 1e-14


def _trace(config, out_dir):
    run_experiment(config, out_dir)
    return (out_dir / "trace.csv").read_bytes()


@pytest.fixture
def untagged(monkeypatch):
    """IVON's and VON's draws back on stream (seed, t)."""
    monkeypatch.setattr(natvb.deep, "SAMPLE_STREAM", ())


class _FoldedStreams:
    """Sampled BLR's step streams before ESTIMATE_STREAM: make_rng((seed << 20) ^ t)."""

    def __init__(self, seed, *prefix):
        self._seed = seed

    def at(self, t):
        return make_rng((self._seed << 20) ^ t)


@pytest.fixture
def folded(monkeypatch):
    """Sampled BLR's estimates back on stream ((seed << 20) ^ t,)."""
    monkeypatch.setattr(natvb.blr, "StepStreams", _FoldedStreams)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_digest_pinned(name, tmp_path):
    config, digest = PINNED[name]
    assert hashlib.sha256(_trace(config, tmp_path)).hexdigest() == digest


WIDE_MLP_CONFIG = _config(
    4, {**_SPIRALS_PRIOR, "hidden": [64, 64]},
    {"kind": "blr", "family": "diag", "learning_rate": 0.05, "max_iter": 10,
     "estimator": "reparam", "n_samples": 4})
WIDE_MLP_DIGEST = "2894a68451d44cded52fa7b214d3731eb0f04a0ad42cbb2b3de659cef39d32c2"


def test_wide_diagonal_run_keeps_its_bytes_in_vector_memory(tmp_path):
    tracemalloc.start()
    try:
        trace = _trace(WIDE_MLP_CONFIG, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hashlib.sha256(trace).hexdigest() == WIDE_MLP_DIGEST
    assert peak < 16_000_000


#: configs no workload runs: (config, trace.csv digest, summary.json digest
#: less its wall_time_s line)
UNBENCHED = {
    "blr_diag_exact_ridge": (
        _config(1, _RIDGE_BENCH, {"kind": "blr", "family": "diag", "learning_rate": 0.5,
                                  "max_iter": 40, "estimator": "exact"}),
        "c46f0380e3d3fb70cefa00c9cc9cc4b8e04165dca01ebe61b37b4da144d6f8d5",
        "b6e4e3faebfb7242ce2e78db8d5eeb6dafe674d4469337eb9d13e4f5a96ab97d"),
    "von_exact_ridge": (
        _config(1, _RIDGE_BENCH, {"kind": "von", "learning_rate": 0.3, "steps": 40}),
        "5caa5fbe737d9d58cfe7a5550a968bcc445dabef0f94ee38e336126c07e83863",
        "6e763084ebcca633c86ed8021dcfbe68860893a4d6dfdb0da18db0f8c2f2856b"),
}


@pytest.mark.parametrize("name", sorted(UNBENCHED))
def test_unbenched_trace_and_summary_digests_pinned(name, tmp_path):
    config, trace_digest, summary_digest = UNBENCHED[name]
    trace = _trace(config, tmp_path)
    summary = b"".join(line for line in (tmp_path / "summary.json").read_bytes()
                       .splitlines(keepends=True)
                       if not line.lstrip().startswith(b'"wall_time_s":'))
    assert hashlib.sha256(trace).hexdigest() == trace_digest
    assert hashlib.sha256(summary).hexdigest() == summary_digest


@pytest.mark.parametrize("name", sorted(UNTAGGED_DIGESTS))
def test_untagged_sample_stream_reproduces_old_digest(name, tmp_path, untagged):
    config, _ = PINNED[name]
    assert hashlib.sha256(_trace(config, tmp_path)).hexdigest() == UNTAGGED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(FOLDED_DIGESTS))
def test_folded_estimate_stream_reproduces_old_digest(name, tmp_path, folded):
    config, _ = PINNED[name]
    assert hashlib.sha256(_trace(config, tmp_path)).hexdigest() == FOLDED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_softplus_kernel_moves_value_columns_only(name, tmp_path, monkeypatch, untagged,
                                                  folded):
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


#: rows the per-sample Monte Carlo loops wrote: (t, rho, objective, residual)
#: for BLR, (step, loss, grad_norm, scale_min, scale_max) for VON
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
    "von": [
        (0, 43.42670790000607, 20.8810993586722, 1.0, 1.0),
        (1, 28.423801989590153, 6.9325553014930765,
         2.0033972696208955, 2.395738350666801),
        (2, 26.593516736691914, 4.837314746433906,
         2.6167206747939806, 3.4967445341483208),
        (3, 25.806291424138543, 3.7733674193816955,
         3.0826118363041246, 4.636519798579812),
        (4, 25.564270083165674, 3.398179415984546, 3.284337875590222, 5.54913013478134),
        (5, 25.35248694912144, 3.1474812369701173, 3.4977902650467207, 6.449546625651048),
        (6, 25.10580684727321, 2.5165730527079346, 3.619730173467439, 7.010307718866941),
        (7, 25.077122207714794, 2.7251381147940226, 3.707792888073153, 7.635477803563521),
        (8, 25.000165834761358, 2.5732221067540606, 3.781023216197892, 8.181893073425442),
        (9, 24.865721434114295, 2.297596021654353, 3.9286447284085257, 8.730854193097262),
        (10, 24.75067579221597, 1.8425335549796182, 3.996522619588508, 9.077157681316638),
        (11, 24.671553274566932, 1.4863726625318947,
         4.047899126888318, 9.394541473332445),
        (12, 24.65217751454214, 1.3497384170398503, 4.011673204544614, 9.5744021375705),
        (13, 24.537320221496575, 0.7516796185533541,
         4.2179100128504565, 10.007645177257489),
        (14, 24.53719490246084, 0.7536720613789203,
         4.157923062219146, 10.177026259692099),
        (15, 24.54841407813113, 0.8591804794280059, 4.08402346291929, 10.342010986377844),
        (16, 24.528439930692276, 0.7428906668005973,
         4.087045145521096, 10.518149661378967),
        (17, 24.494958776105918, 0.5165391502232011,
         4.16519961387022, 10.610967471352504),
        (18, 24.49143327449592, 0.5379579096792106,
         4.139813037527137, 10.752707652588366),
        (19, 24.493418532155115, 0.45199069831069444,
         4.059933490731344, 10.901529406945992),
        (20, 24.49877460204328, 0.4993558946303472, 3.9938928199695622, 10.9210979808171),
        (21, 24.499614325014456, 0.5251304367187056,
         3.9554599293442987, 10.871541571424821),
        (22, 24.498604034055127, 0.4940641143318043,
         3.9192866813274847, 10.97067359535949),
        (23, 24.48938010353033, 0.4554054549248522, 3.93900935624284, 11.220649077433455),
        (24, 24.495142113281787, 0.6014969740718663,
         3.913032370177164, 11.35464502407253),
        (25, 24.49548149400275, 0.7114242057122734,
         3.924278615890511, 11.476846876704938),
        (26, 24.492956811841104, 0.7125281206342551,
         3.9236722795894354, 11.556336753035925),
        (27, 24.490984535340473, 0.6666782516767884,
         3.889892416260545, 11.540065899412705),
        (28, 24.478603318194036, 0.4204810739541922,
         3.8792719800680118, 11.462698928329244),
        (29, 24.477937190741663, 0.35987311741963685,
         3.840031360388461, 11.422443202757563),
        (30, 24.5027224799546, 0.8511350492744457,
         3.8177459402537552, 11.547485971095453),
        (31, 24.484430290190126, 0.6803287022067703,
         3.9137049531377137, 11.716437740923784),
        (32, 24.484723162244087, 0.6694285474290899,
         3.8649010171013987, 11.67343343215352),
        (33, 24.49039405212651, 0.7230466601522404,
         3.8093451974843333, 11.61269302514758),
        (34, 24.492654680056212, 0.7034968409523508,
         3.756852328240454, 11.519201289978914),
        (35, 24.484347346447443, 0.6718956110498613,
         3.846816628186488, 11.72087983672101),
        (36, 24.48365657867142, 0.687769909919951,
         3.8975452074401957, 11.862783113791092),
        (37, 24.491897201029303, 0.8115940602993266,
         3.843322181571786, 11.847472169572363),
        (38, 24.475970978813105, 0.5357855095628361,
         3.840023098113851, 11.754426009336377),
        (39, 24.47289311723173, 0.44706329804730155,
         3.795228636968412, 11.634268624801546),
        (40, 24.470276503064895, 0.3914603872960449,
         3.8455878538218675, 11.711864556943633),
    ],
}

#: the looped trace's digest, before the batched core re-pinned it
LOOPED_DIGESTS = {
    "von": "8c4a0a1e92c63db4caea14b13c421dc3e8cc7c50d70bcf33e5ad1fcd63a03316",
}

#: value-column tolerance; the halving config's terms reach 1e9
LOOPED_RTOL = {"blr_full_mc": 1e-12, "blr_diag_mc": 1e-12,
               "blr_diag_reparam_halvings": 1e-5, "von": 1e-12}
#: leading columns that must match exactly: the step, and a BLR row's rate
LOOPED_EXACT = {"blr_full_mc": 2, "blr_diag_mc": 2, "blr_diag_reparam_halvings": 2,
                "von": 1}


@pytest.mark.parametrize("name", sorted(LOOPED_ROWS))
def test_batched_core_keeps_looped_rows(name, tmp_path, untagged, folded):
    run_experiment(PINNED[name][0], tmp_path)
    with open(tmp_path / "trace.csv", encoding="utf-8") as handle:
        rows = [tuple(map(float, row)) for row in list(csv.reader(handle))[1:]]
    expected = LOOPED_ROWS[name]
    exact = LOOPED_EXACT[name]
    assert len(rows) == len(expected)
    # same steps and rates: every rate halving happens where it did before
    assert [row[:exact] for row in rows] == [row[:exact] for row in expected]
    got = np.array([row[exact:] for row in rows])
    want = np.array([row[exact:] for row in expected])
    np.testing.assert_allclose(got, want, rtol=LOOPED_RTOL[name], atol=0.0)


@pytest.mark.parametrize("name", sorted(LOOPED_DIGESTS))
def test_looped_rows_reproduce_looped_digest(name, tmp_path):
    # the literals are the loop's trace, byte for byte
    columns = ("step", "loss", "grad_norm", "scale_min", "scale_max")
    write_trace(tmp_path / "trace.csv", columns, LOOPED_ROWS[name])
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == LOOPED_DIGESTS[name]
