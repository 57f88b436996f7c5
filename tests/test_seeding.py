"""StepStreams against make_rng and NumPy's SeedSequence, its oracle."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import natvb.blr
import natvb.seeding
from natvb.blr import BLRConfig, blr_run
from natvb.deep import ivon_init, train
from natvb.gaussian import DiagGaussian
from natvb.harness import run_experiment
from natvb.losses import QuadraticLoss
from natvb.models import make_logistic_data
from natvb.natgrad import EstimatorSpec
from natvb.seeding import _KEY_BLOCK, STREAMS, StepStreams, _words, make_rng, seed_keys

SEEDS = (0, 1, 4095, 4096, 2**32 - 1, 2**32, 2**64 + 5)
PREFIXES = ((), (0xBA7C,), (7, 2**32 + 3), (1, 0, 2))
STEPS = (0, 1, _KEY_BLOCK - 1, _KEY_BLOCK, _KEY_BLOCK + 1, 3 * _KEY_BLOCK - 1,
         2**20 - 1, 2**32 + 1)


def _key(generator):
    return tuple(int(k) for k in generator.bit_generator.state["state"]["key"])


def _seed_sequence_key(*entropy):
    return tuple(int(k) for k in np.random.SeedSequence(entropy).generate_state(2, np.uint64))


@pytest.mark.parametrize("seed", SEEDS)
def test_step_keys_equal_seed_sequence(seed):
    for prefix in PREFIXES:
        streams = StepStreams(seed, *prefix)
        for t in STEPS:
            assert _key(streams.at(t)) == _seed_sequence_key(seed, *prefix, t), (prefix, t)


def test_seed_keys_rows_of_any_length():
    # pool-size padding (fewer than 4 words) and the extra-entropy loop (more)
    for entropy in ((0,), (5, 6), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6, 7), (2**40, 9)):
        words = np.array([_words(*entropy)] * 3, dtype=np.uint32)
        for row in seed_keys(words):
            assert tuple(int(k) for k in row) == _seed_sequence_key(*entropy), entropy


def test_step_draws_equal_make_rng():
    streams = StepStreams(3, 0xBA7C)
    for t in (0, 5, _KEY_BLOCK + 2):
        np.testing.assert_array_equal(streams.at(t).standard_normal((4, 3)),
                                      make_rng(3, 0xBA7C, t).standard_normal((4, 3)))
        np.testing.assert_array_equal(streams.at(t).choice(50, 20, replace=False),
                                      make_rng(3, 0xBA7C, t).choice(50, 20, replace=False))


def test_at_restarts_a_partly_used_generator():
    streams = StepStreams(9, 4)
    generator = streams.at(2)
    generator.integers(0, 2**31, size=3, dtype=np.uint32)
    state = generator.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
    # the same step again, and the next one, start at their streams' first draw
    for t in (2, 3):
        np.testing.assert_array_equal(streams.at(t).random(7),
                                      make_rng(9, 4, t).random(7))


def test_at_rejects_steps_outside_the_stream():
    with pytest.raises(ValueError):
        StepStreams(1, 2).at(-1)
    with pytest.raises(ValueError):
        StepStreams(-1, 2)


def test_ivon_run_constructs_constant_philox_count(monkeypatch):
    loss = make_logistic_data(3, 40, 2)
    state = ivon_init(np.zeros(2), step_size=0.1, ess=50.0, seed=4)
    made = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        made.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    train(state, loss, 200, batch_size=10, seed=4)
    # one for the minibatch stream and one for IVON's draws, not two per step
    assert len(made) == 2


def _spy_on_streams(monkeypatch) -> dict:
    """Philox key -> the call sites that drew a generator with that key.

    Every make_rng a natvb module imported, every fixed_normals block and
    every StepStreams.at step is recorded under its caller.
    """
    drawn: dict[tuple, set] = {}

    def note(key):
        frame = sys._getframe(2)  # the spy's caller
        code = frame.f_code
        site = f"{code.co_name} ({Path(code.co_filename).name}:{frame.f_lineno})"
        drawn.setdefault(key, set()).add(site)

    make_rng_, fixed_normals_, at_ = (natvb.seeding.make_rng, natvb.seeding.fixed_normals,
                                      StepStreams.at)

    def make_rng_spy(seed, *stream):
        rng = make_rng_(seed, *stream)
        note(_key(rng))
        return rng

    def fixed_normals_spy(shape, seed, *stream):
        note(_seed_sequence_key(seed, *stream))
        return fixed_normals_(shape, seed, *stream)

    def at_spy(self, t):
        rng = at_(self, t)
        note(_key(rng))
        return rng

    for module in list(sys.modules.values()):
        if module is natvb.seeding or not module.__name__.startswith("natvb"):
            continue
        if getattr(module, "make_rng", None) is make_rng_:
            monkeypatch.setattr(module, "make_rng", make_rng_spy)
        if getattr(module, "fixed_normals", None) is fixed_normals_:
            monkeypatch.setattr(module, "fixed_normals", fixed_normals_spy)
    monkeypatch.setattr(StepStreams, "at", at_spy)
    return drawn


def _sampled_blr_key(seed, t):
    """Philox key of step t's stream in a sampled BLR run at seed."""
    made = []

    class Recorded(StepStreams):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    family = DiagGaussian(2)
    cfg = BLRConfig(0.5, 1, estimator=EstimatorSpec("mc", 2, seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(natvb.blr, "StepStreams", Recorded)
        blr_run(family, family.from_moment(np.zeros(2), np.ones(2)),
                QuadraticLoss(np.eye(2), np.ones(2)), cfg)
    (streams,) = made
    return _key(streams.at(t))


def test_stream_tags_are_distinct_nonzero_words():
    # SeedSequence pads a short tuple with zero words, so a 0 tag would
    # make (seed, tag) the stream (seed,); a tag of 2**32 or more would be
    # two words, (seed, low, high)
    assert len(set(STREAMS)) == len(STREAMS._fields)
    assert all(type(tag) is int and 0 < tag < 2**32 for tag in STREAMS)


@pytest.mark.parametrize("tag", STREAMS, ids=STREAMS._fields)
def test_sampled_blr_step_stream_is_no_tagged_stream(tag):
    # ((seed << 20) ^ t,), the older layout, is (s, tag) at seed s = tag << 12
    # and step s: the stream of the tag's consumer at seed s (its step 0,
    # for a per-step stream, as SeedSequence pads (s, tag) to (s, tag, 0))
    seed = tag << 12
    assert _sampled_blr_key(seed, seed) != _key(make_rng(seed, tag))


@pytest.mark.parametrize("seed, optimizer", [
    # IVON's step 12, 273 and 1433 once fell on the gate probe's, the MLP
    # init's and the spirals data's streams
    (1, {"kind": "ivon", "steps": 1434, "step_size": 0.3, "hess_rate": 3e-3,
         "weight_decay": 1e-2, "ess": 3e4, "batch_size": 10, "init_seed": 1}),
    # VON's step 12 on the probe's, step 14 on the objective fallback's at seed 0
    (0, {"kind": "von", "steps": 15, "learning_rate": 0.01, "batch_size": 10}),
    (1, {"kind": "von", "steps": 15, "learning_rate": 0.01, "batch_size": 10}),
    # sampled BLR's step 1009 at seed 0 once fell on the Bayes-filter probe grid's
    (0, {"kind": "blr", "family": "full", "learning_rate": 0.3, "max_iter": 1010,
         "estimator": "mc", "n_samples": 2}),
])
def test_no_stream_is_drawn_by_two_consumers(seed, optimizer, tmp_path, monkeypatch):
    drawn = _spy_on_streams(monkeypatch)
    if optimizer["kind"] == "blr":
        # P = 3, so the objective takes its Monte Carlo fallback
        model = {"kind": "logistic", "n": 20, "p": 3, "data_seed": seed}
    else:
        model = {"kind": "spirals_mlp", "n": 40, "hidden": [4], "data_seed": seed,
                 "prior_precision": 1.0}
    run_experiment({"schema_version": 1, "seed": seed, "model": model,
                    "optimizer": optimizer}, tmp_path)
    shared = {key: sites for key, sites in drawn.items() if len(sites) > 1}
    assert not shared, sorted(map(sorted, shared.values()))
    assert len(drawn) > optimizer.get("steps", optimizer.get("max_iter"))


_DRAWERS = {"make_rng": 1, "StepStreams": 1, "fixed_normals": 2}


def test_stream_words_are_named_outside_seeding():
    # every stream word a module passes is a name (a tag of STREAMS, a step,
    # a prefix tuple), so the layout is written once, in seeding.STREAMS
    literal = []
    for path in sorted(Path(natvb.seeding.__file__).parent.glob("*.py")):
        if path.name == "seeding.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            for arg in node.args[_DRAWERS.get(name, len(node.args)):]:
                if not any(isinstance(sub, (ast.Name, ast.Attribute, ast.Call, ast.Subscript))
                           for sub in ast.walk(arg)):
                    literal.append(f"{path.name}:{node.lineno}")
    assert not literal, literal
