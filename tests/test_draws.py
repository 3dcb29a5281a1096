"""``simplexgeo._draws.Draws`` against ``numpy.random``, bit for bit.

The package draws from ``Draws`` so that no command loads ``numpy.random``;
here numpy's Generator is the reference.  Three levels:

- streams: ``Draws(entropy, spawn_key)`` against
  ``default_rng(SeedSequence(entropy, spawn_key=spawn_key))`` on interleaved
  calls of sizes 1 to 20,000;
- words: numpy's Generator driven through a ctypes ``bitgen_t`` capsule with
  chosen 64-bit words, and ``Draws`` fed the same words, at every ziggurat
  layer's fast-path boundary, in the tail and in every Gamma branch, one draw
  at a time and as blocks, including draws cut by a block's end (random words
  cannot hit these cases);
- callers: the package's seeded generators give the same bits from either source.

Each comparison also checks that both sides read the same number of words.
"""

import ctypes
import hashlib
import math
import threading

import numpy as np
import pytest

from simplexgeo import _draws
from simplexgeo._draws import Draws
from simplexgeo.checks import isometry_results
from simplexgeo.errors import InvalidParameter
from simplexgeo.hamiltonian import random_complex_point
from simplexgeo.sequence_core import random_simplex_point, random_tangent

SIZES = (1, 8, 16, 256, 20_000)
UNIT = 1.0 / 9007199254740992.0


def numpy_rng(entropy, spawn_key=()):
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=spawn_key))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def interleaved(rng) -> list:
    """Every call the package makes, at every size, in one stream."""
    out = []
    for n in SIZES:
        out.append(rng.standard_normal(n))
        out.append(rng.gamma(2.0, size=n))
        out.append(rng.uniform(0.5, 3.0, size=n))
        out.append(rng.uniform(-0.5, 0.5))
    return out


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("entropy", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, [7, 3]],
                         ids=["0", "1", "2^32-1", "2^32", "2^64+5", "seed-tag"])
def test_stream_matches_default_rng(entropy):
    for ours, theirs in zip(interleaved(Draws(entropy)), interleaved(numpy_rng(entropy))):
        assert same_bits(ours, theirs)


def test_spawned_children_match_seed_sequence_spawn():
    children = np.random.SeedSequence(2024).spawn(11)
    for i, child in enumerate(children):
        assert child.spawn_key == (i,)
        ours = Draws(2024, spawn_key=(i,))
        theirs = np.random.default_rng(child)
        for n in SIZES[:-1]:
            assert same_bits(ours.standard_normal(n), theirs.standard_normal(n))
            assert same_bits(ours.gamma(2.0, size=n), theirs.gamma(2.0, size=n))


def test_grandchild_and_long_entropy_match():
    grandchild = np.random.SeedSequence([1, 2, 3, 4, 5, 6]).spawn(3)[2].spawn(2)[1]
    ours = Draws([1, 2, 3, 4, 5, 6], spawn_key=(2, 1))
    theirs = np.random.default_rng(grandchild)
    assert same_bits(ours.standard_normal(300), theirs.standard_normal(300))


@pytest.mark.parametrize(
    "entropy, spawn_key",
    [(-1, ()), (1.5, ()), ("1", ()), (None, ()), ([3, -2], ()), (0, (-1,)), (0, (0.5,))],
    ids=["negative", "float", "string", "none", "negative-item", "negative-key", "float-key"],
)
def test_bad_seed_is_a_typed_error(entropy, spawn_key):
    with pytest.raises(InvalidParameter, match="seed must be a non-negative integer"):
        Draws(entropy, spawn_key=spawn_key)


def test_gamma_shape_at_most_one_is_a_typed_error():
    with pytest.raises(InvalidParameter, match="gamma shape must be > 1, got 1.0"):
        Draws(0).gamma(1.0, size=3)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


class _Bitgen(ctypes.Structure):
    """numpy's ``bitgen_t`` (numpy/random/bitgen.h)."""

    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)),
        ("next_uint32", ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)),
        ("next_double", ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)),
        ("next_raw", ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)),
    ]


_CAPSULE_NEW = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p)(
    ("PyCapsule_New", ctypes.pythonapi)
)


class FedBitGenerator:
    """A bit generator that serves chosen words to ``np.random.Generator``;
    ``next_double`` is the top 53 bits of the next word, as in PCG64."""

    def __init__(self, words):
        self.words, self.pos = [int(w) for w in words], 0

        def next_uint64(_):
            self.pos += 1
            return self.words[self.pos - 1]

        types = dict(_Bitgen._fields_)
        self._callbacks = (
            types["next_uint64"](next_uint64),
            types["next_uint32"](lambda _: next_uint64(_) >> 32),
            types["next_double"](lambda _: (next_uint64(_) >> 11) * UNIT),
            types["next_raw"](next_uint64),
        )
        self._bitgen = _Bitgen(None, *self._callbacks)
        self._name = ctypes.c_char_p(b"BitGenerator")
        self.capsule = _CAPSULE_NEW(ctypes.addressof(self._bitgen), self._name, None)
        self.lock = threading.Lock()


class FedDraws(Draws):
    """``Draws`` reading chosen words; its state is the index of the next word."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self._state = 0

    def _word(self) -> int:
        self._state += 1
        return int(self.words[self._state - 1])

    def _block(self, count):
        after = np.arange(self._state + 1, self._state + count + 1, dtype=np.uint64)
        return self.words[self._state:self._state + count], after, np.zeros(count, np.uint64)


def zig(idx: int, rabs: int, negative: bool = False) -> int:
    """The word whose ziggurat attempt has layer ``idx``, magnitude ``rabs`` and sign."""
    return rabs << 9 | int(negative) << 8 | idx


def unit(u: float) -> int:
    """The word whose uniform is ``u`` (rounded down to a multiple of 2^-53)."""
    return min(int(u * 2**53), 2**53 - 1) << 11


def fast(x: float) -> int:
    """A word whose normal is about ``x`` on the fast path of the widest layer that has it."""
    for idx in range(1, 256):
        rabs = int(abs(x) / _draws._WI[idx])
        if rabs < _draws._KI[idx]:
            return zig(idx, rabs, x < 0)
    raise ValueError(x)


# Words whose attempts always take one word: they end every case's stream.
FILLER = [fast(0.1 * k - 1.0) for k in range(21)] * 40


def tail(negative: bool, iterations: list) -> list:
    """A layer-0 attempt past its fast path, then the (u1, u2) words of tail iterations.
    The tail's sign is bit 8 of rabs."""
    rabs = ((int(_draws._KI[0]) >> 9) + 1) << 9 | int(negative) << 8
    return [zig(0, rabs)] + [unit(u) for pair in iterations for u in pair]


def compare(words, call, size) -> int:
    """Make ``call(rng, size)`` on both sides, fed ``words``; return the words read."""
    fed = FedBitGenerator(words)
    theirs = call(np.random.Generator(fed), size)
    ours_rng = FedDraws(words)
    ours = call(ours_rng, size)
    assert same_bits(ours, theirs)
    assert ours_rng._state == fed.pos
    return fed.pos


def normals(rng, size):
    return rng.standard_normal(size)


def gammas(rng, size):
    return rng.gamma(2.0, size=size)


def uniforms(rng, size):
    return rng.uniform(-1.0, 2.0, size=size)


def layer_cases() -> list:
    """Per layer and sign: rabs = ki - 1, the fast path (layer 1 has none: its ki is
    0), and rabs = ki, the wedge (at layer 0 the tail), with wedge uniforms near 0
    and near 1."""
    cases = []
    for idx in range(256):
        ki = int(_draws._KI[idx])
        for negative in (False, True):
            if ki:
                cases.append([zig(idx, ki - 1, negative)])
            for u in (1e-3, 0.999):
                cases.append([zig(idx, ki, negative), unit(u), unit(0.5)])
    return cases


def test_every_layer_boundary_one_draw_at_a_time():
    for case in layer_cases():
        assert (compare(case + FILLER, normals, 1) == 1) == (len(case) == 1)


def test_every_layer_boundary_in_one_block():
    cases = layer_cases()
    compare([w for case in cases for w in case] + FILLER, normals, len(cases))


def test_wedge_takes_and_rejects():
    # At a wedge's inner edge, u near 0 takes the attempt and u near 1 rejects it,
    # so the next word's attempt makes the draw.
    ki = int(_draws._KI[100])
    assert compare([zig(100, ki), unit(0.0)] + FILLER, normals, 1) == 2
    assert compare([zig(100, ki), unit(1.0)] + FILLER, normals, 1) == 3


TAILS = [
    tail(False, [(0.5, 0.9)]),
    tail(True, [(0.5, 0.9)]),
    tail(False, [(0.999, 0.01), (0.2, 0.8)]),  # the first iteration rejects
    tail(True, [(0.0, 0.0), (0.0, 0.5)]),  # u = 0: xx = 0 and yy = 0 reject, then take
    tail(True, [(0.75, 0.5)]),  # x = -4.03: Gamma(2)'s V = 1 + c x is negative
]


def test_tail_one_draw_at_a_time_and_in_a_block():
    for case in TAILS:
        assert compare(case + FILLER, normals, 1) == len(case)
    compare([w for case in TAILS for w in case] + FILLER, normals, len(TAILS))


def gamma_cases() -> list:
    """(normal word, uniform word) pairs through each branch of Marsaglia & Tsang, and
    tail normals whose V is not positive."""
    b, c = 2.0 - 1.0 / 3.0, 1.0 / math.sqrt(9.0 * (2.0 - 1.0 / 3.0))
    cases, branches = [], set()
    for x_target in (0.3, -0.7, 1.5, 2.0, -2.0, 2.5, 3.0, -3.2):
        for u in (0.0, 0.3, 0.6, 0.9, 0.99, 1.0):
            word = fast(x_target)
            x = (word >> 9) * float(_draws._WI[word & 0xFF]) * (-1.0 if word & 0x100 else 1.0)
            v = c * x + 1.0
            v = v * v * v
            u_bits = (unit(u) >> 11) * UNIT
            if u_bits < 1.0 - 0.0331 * x**4:
                branches.add("squeeze")
            else:
                log_u = math.log(u_bits) if u_bits else -math.inf
                taken = log_u < 0.5 * x * x + b * (1.0 - v + math.log(v))
                branches.add(("log", taken, u_bits == 0.0))
            cases.append([word, unit(u)])
    cases.append(TAILS[-1] + [fast(0.2), unit(0.5)])
    assert branches >= {"squeeze", ("log", True, False), ("log", False, False), ("log", True, True)}
    return cases


def test_gamma_branches_one_draw_at_a_time():
    for case in gamma_cases():
        compare(case + FILLER, gammas, 1)


def test_gamma_branches_in_one_block():
    cases = gamma_cases()
    compare([w for case in cases for w in case] + FILLER, gammas, len(cases))


def test_an_attempt_longer_than_its_block():
    # 49 normals: the first block has 63 words, the first 48 normals take one word
    # each and the 49th is a 21-word tail attempt, so the second block (9 words) is
    # shorter than that attempt and the draw is made one word at a time.
    long_tail = tail(False, [(0.999, 0.001)] * 9 + [(0.1, 0.9)])
    words = FILLER[:48] + long_tail + FILLER
    assert compare(words, normals, 49) == 48 + len(long_tail)


def adversarial_words(seed: int, count: int) -> list:
    """Random words, with layer boundaries, tails, extreme uniforms and large normals
    over-represented, so that many attempts read an irregular number of words."""
    rng = np.random.default_rng(seed)
    words = []
    for kind in rng.integers(0, 6, count):
        idx = int(rng.integers(0, 256))
        ki = int(_draws._KI[idx])
        if kind == 0:
            words.append(int(rng.integers(0, 2**63)) * 2 + int(rng.integers(0, 2)))
        elif kind == 1:
            words.append(zig(idx, max(ki + int(rng.integers(-2, 3)), 0), bool(rng.integers(0, 2))))
        elif kind == 2:
            words.append(zig(0, int(rng.integers(ki, 2**52)), bool(rng.integers(0, 2))))
        elif kind == 3:
            words.append(unit(float(rng.choice([0.0, 1e-3, 0.5, 0.999, 1.0]))))
        elif kind == 4:
            words.append(fast(float(rng.uniform(-3.4, 3.4))))
        else:
            words.append(unit(float(rng.random())))
    return words


@pytest.mark.parametrize("seed", range(6))
def test_adversarial_words_at_every_size(seed):
    words = adversarial_words(seed, 80_000)
    fed = FedBitGenerator(words)
    theirs_rng = np.random.Generator(fed)
    ours_rng = FedDraws(words)
    for size in (1, 2, 47, 48, 49, 50, 97, 300, 1000, 3000):
        for call in (normals, gammas, uniforms):
            assert same_bits(call(ours_rng, size), call(theirs_rng, size))
            assert ours_rng._state == fed.pos


def test_embedded_tables_keep_their_recorded_hash():
    # The tables are numpy's bytes (see _draws); the boundary tests above pin ki and wi.
    digest = hashlib.sha256(_draws._TABLES).hexdigest()
    assert digest == "e3811c133c6e61093d15d9a7c4dc37d055d79937a0084872fdde0905da48cd1c"


# ---------------------------------------------------------------------------
# callers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 8, 49, 300])
def test_seeded_generators_give_the_same_bits_from_either_source(dim):
    ours, theirs = Draws(11), np.random.default_rng(11)
    for _ in range(3):
        p, p_np = random_simplex_point(ours, dim), random_simplex_point(theirs, dim)
        assert same_bits(p.coords, p_np.coords)
        assert same_bits(random_tangent(ours, p, max_ratio=0.5).comps,
                         random_tangent(theirs, p_np, max_ratio=0.5).comps)
        z, z_np = random_complex_point(ours, dim), random_complex_point(theirs, dim)
        assert same_bits(z.coords.view(float), z_np.coords.view(float))
    ours = isometry_results(Draws(5), dim, (1.5, 2.0), 4)
    theirs = isometry_results(np.random.default_rng(5), dim, (1.5, 2.0), 4)
    assert same_bits([r.value for r in ours], [r.value for r in theirs])
