"""Reproducible random number generation.

All sampling in the package goes through a counter-based Philox generator
keyed by a 64-bit seed plus an optional stream tuple. Identical
(seed, stream) pairs yield identical draws across runs and platforms,
which the experiment harness relies on for byte-for-byte replay. The
algorithm identifier is recorded in output metadata.

A loop that draws on a fresh stream at every step t uses StepStreams:
its at(t) is make_rng(seed, *prefix, t) bit for bit, but the Philox keys
of a block of steps come from one vectorised pass of SeedSequence's
mixing, and each step only loads its key into one Philox.

Stream layout: each consumer draws on its own entropy tuple.

    consumer                                  tuple
    ridge data (models.make_ridge_data)       (data_seed, 0x51)
    logistic data (make_logistic_data)        (data_seed, 0x10)
    spirals data (two_spirals)                (data_seed, 0x599)
    MLP initial weights (init_params)         (init_seed, 0x111)
    derivative-gate probe (harness)           (seed, 0xC)
    objective Monte Carlo fallback            (seed, 0xE)   fixed_normals;
                                              seed 0 for VON's summary
    Bayes-filter probe grid                   (probe_seed,) fixed_normals
    minibatch of step t (deep.train)          (seed, 0xBA7C, t)
    IVON's and VON's draws at step t          (seed, *SAMPLE_STREAM, t)
    sampled BLR estimate at step t            (seed, *ESTIMATE_STREAM, t)

SeedSequence pads entropy shorter than four words with zero words, so
(s, a) and (s, a, 0) are one stream: a tag must not be 0, and no tuple
may be another's zero-extension. IVON and VON drew step t on (seed, t)
before SAMPLE_STREAM; that tuple is (seed, 0xC) at t = 12, (seed, 0xE)
at t = 14 and the data and init tuples at t = 16, 81, 273 and 1433, so
their traces differ from older commits. So do sampled BLR's, which drew
step t on ((seed << 20) ^ t,) before ESTIMATE_STREAM: SeedSequence
splits that int into 32-bit words, so at seed s = tag << 12 and t = s
it was (s, tag), and at seed 0, t = 1009 the probe grid's (1009,).
The same splitting makes the layout collision-free only for seeds below
2**32: (s + (tag << 32), t) is the stream (s, tag, t). The harness
therefore rejects config seeds of 2**32 and above; make_rng and
StepStreams take any seed >= 0.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

RNG_ALGORITHM = "philox4x64"
#: distinct (shape, seed, stream) blocks fixed_normals keeps
_FIXED_DRAWS = 8
#: IVON's and VON's posterior draws at step t: make_rng(seed, *SAMPLE_STREAM, t)
SAMPLE_STREAM = (0x5A4,)
#: sampled BLR's estimate at step t: make_rng(seed, *ESTIMATE_STREAM, t)
ESTIMATE_STREAM = (0xE57,)
#: steps whose keys StepStreams derives at once; a power of two dividing
#: 2**32, so a step's low entropy word is its block's first plus its
#: offset, with no carry
_KEY_BLOCK = 1024

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the given seed and stream ids.

    Distinct stream tuples (e.g. per iteration, per worker) give
    independent streams; callers own parallelism by splitting here.
    """
    ss = np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


@lru_cache(maxsize=_FIXED_DRAWS)
def fixed_normals(shape, seed: int, *stream: int) -> np.ndarray:
    """make_rng(seed, *stream).standard_normal(shape), drawn once.

    For callers that reuse one fixed-seed block at every iterate (probe
    grids, the objective's Monte Carlo fallback). The block is read-only
    and memoised for the last _FIXED_DRAWS distinct arguments.
    """
    draws = make_rng(seed, *stream).standard_normal(shape)
    draws.setflags(write=False)
    return draws


def _words(*entropy: int) -> list[int]:
    """SeedSequence's uint32 entropy words for a tuple of ints >= 0."""
    out = []
    for value in entropy:
        value = operator.index(value)
        if value < 0:
            raise ValueError(f"entropy must be non-negative, got {value}")
        out.append(value & _MASK32)
        value >>= 32
        while value:
            out.append(value & _MASK32)
            value >>= 32
    return out


def seed_keys(words: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy).generate_state(2, np.uint64) for each row.

    words is an (n, L) uint32 matrix, one row per entropy tuple in
    SeedSequence's word form; the result is the (n, 2) uint64 Philox
    keys. NumPy's pool mixing, run over all rows at once: the hash
    constants evolve independently of the data, so every row shares them.
    """
    words = np.asarray(words, dtype=np.uint32)
    n, length = words.shape
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    # a short tuple is padded with zero words, as SeedSequence pads it
    pool = [hashmix(words[:, i] if i < length else np.zeros(n, np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    hash_const = _INIT_B
    state = []
    for value in pool:  # generate_state's four uint32 words
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # little-endian word pairs, as generate_state views them
    return np.stack([state[0] | (state[1] << np.uint64(32)),
                     state[2] | (state[3] << np.uint64(32))], axis=1)


class StepStreams:
    """Step t's generator make_rng(seed, *prefix, t), for t = 0, 1, 2, ...

    at(t) loads step t's key into the one Philox this object owns and
    rewinds it to counter 0 with an empty buffer: the state a fresh
    make_rng generator starts in. The keys of _KEY_BLOCK consecutive
    steps are derived together (seed_keys) when a step of that block is
    first asked for, and only the latest block is kept. The returned
    Generator is the object's own: it is valid until the next at() call.
    """

    def __init__(self, seed: int, *prefix: int):
        self._head = _words(seed, *prefix)
        self._bit_generator = np.random.Philox(key=0)
        self._generator = np.random.Generator(self._bit_generator)
        # a fresh Philox: counter 0, empty buffer, no spare uint32
        self._state = self._bit_generator.state
        self._block = -1
        self._keys = np.empty((0, 2), np.uint64)

    def _block_keys(self, block: int) -> np.ndarray:
        words = np.tile(np.array(self._head + _words(block * _KEY_BLOCK), dtype=np.uint32),
                        (_KEY_BLOCK, 1))
        words[:, len(self._head)] += np.arange(_KEY_BLOCK, dtype=np.uint32)
        return seed_keys(words)

    def at(self, t: int) -> np.random.Generator:
        t = operator.index(t)
        if t < 0:
            raise ValueError(f"a step stream needs t >= 0, got {t}")
        block, offset = divmod(t, _KEY_BLOCK)
        if block != self._block:
            self._keys = self._block_keys(block)
            self._block = block
        self._state["state"]["key"] = self._keys[offset]
        self._bit_generator.state = self._state
        return self._generator
