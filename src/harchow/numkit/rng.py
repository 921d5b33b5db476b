"""Seedable random streams with a fixed, documented generation chain.

A stream is identified by ``(seed, stream)``. The chain is pinned end to
end: raw 64-bit words come from a PCG64 bit generator keyed by
``SeedSequence(seed, spawn_key=(stream,))``; a word ``w`` is exactly
``2 x - 1 = ((w >> 11) - 2^52) 2^-52`` for the uniform ``x`` on [0, 1) of
its top 53 bits; and standard normals come from the polar (Marsaglia)
rejection method. A pass of ``h`` pairs draws ``2 h`` words, the ``u`` of
its pairs then their ``v``. Nothing in the chain depends on thread count,
platform or how a pass is cut into pieces, so a stream's output is
bit-reproducible anywhere.

Streams are single-owner: parallel users derive their own stream ids rather
than sharing one object. A pass runs in pieces of ``_PASS_PAIRS`` pairs, so
its temporaries stay in cache, and each piece gathers its accepted pairs
once. :func:`stream_normals` draws the normals of many streams of one seed
at once: their seeding runs on arrays, their first passes are transformed a
piece of rows at a time, a row that pass leaves short continues its own
stream, and each row is bitwise the stream's own ``normals``.
"""

from __future__ import annotations

import numbers

import numpy as np
from numpy.random import PCG64, SeedSequence

# numpy's SeedSequence hash and mix constants, its pool size, and PCG64's
# 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK_128 = (1 << 128) - 1
_PASS_PAIRS = 6144  # pairs per piece of a polar pass: 48 KB a double temporary


def _require_integers(**values) -> None:
    """``ValueError`` unless every value is a Python or numpy integer; a
    bool or a float, integral or not, is refused."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _stream_key(seed, stream) -> tuple[int, int]:
    """``(seed, stream)`` as ints; ``ValueError`` unless both are
    nonnegative integers."""
    _require_integers(seed=seed, stream=stream)
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be nonnegative integers")
    return int(seed), int(stream)


def _pass_words(n: int) -> int:
    """Uniforms per coordinate of a polar pass that needs ``n`` normals."""
    pairs = (n + 1) // 2
    # acceptance rate is pi/4; the cushion keeps the loop count low
    return int(pairs / 0.78) + 16


class RngStream:
    """One reproducible substream of the package-wide generator family."""

    __slots__ = ("seed", "stream", "_bitgen")

    def __init__(self, seed: int, stream: int = 0):
        self.seed, self.stream = _stream_key(seed, stream)
        self._bitgen = PCG64(SeedSequence(self.seed, spawn_key=(self.stream,)))

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normal draws by the polar rejection method.

        Pairs ``(u, v)`` on [-1, 1) are accepted when ``0 < u^2 + v^2 < 1``;
        each accepted pair yields two normals. Any spare draw beyond ``n`` is
        discarded, so the value sequence depends only on the stream state and
        the call sizes.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        return _polar_fill(self._bitgen, np.empty(n), 0)


def _polar_fill(bitgen: PCG64, out: np.ndarray, filled: int) -> np.ndarray:
    """Fill ``out[filled:]`` by polar passes on ``bitgen``; return ``out``.
    A pass of ``h`` pairs draws ``2 h`` words, ``u`` then ``v``, and runs in
    pieces of ``_PASS_PAIRS`` pairs until ``out`` is full."""
    n = len(out)
    while filled < n:
        h = _pass_words(n - filled)
        words = bitgen.random_raw(2 * h)
        for a in range(0, h, _PASS_PAIRS):
            b = min(a + _PASS_PAIRS, h)
            z, _ = _polar(words[a:b], words[h + a : h + b])
            z = z.ravel()[: n - filled]
            out[filled : filled + len(z)] = z
            filled += len(z)
            if filled == n:
                break
    return out


def _signed_uniforms(words: np.ndarray) -> np.ndarray:
    """Each word's ``2 x - 1`` for its uniform ``x`` on [0, 1), the top 53
    bits: ``((w >> 11) - 2^52) 2^-52``, exact in int64 and in the double."""
    x = (words >> np.uint64(11)).view(np.int64)
    x -= 1 << 52
    return x * 2.0**-52


def _polar(u_words: np.ndarray, v_words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normals of the accepted pairs ``(u, v)`` of two equal-shaped word
    arrays, as a ``(pairs, 2)`` array in row-major pair order, and the flat
    indices of those pairs. A pair is accepted when ``0 < s < 1`` for
    ``s = u^2 + v^2``, and gives ``(u, v) sqrt(-2 log(s) / s)``."""
    u, v = _signed_uniforms(u_words), _signed_uniforms(v_words)
    s = u * u
    s += v * v
    index = np.flatnonzero((s > 0.0) & (s < 1.0))
    s, u, v = s.take(index), u.take(index), v.take(index)
    factor = np.log(s)
    factor *= -2.0
    factor /= s
    np.sqrt(factor, out=factor)
    z = np.empty((len(index), 2))
    np.multiply(u, factor, out=z[:, 0])
    np.multiply(v, factor, out=z[:, 1])
    return z, index


def _words(value: int) -> list[int]:
    """``value`` as little-endian 32-bit words, as SeedSequence reads it."""
    words = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count + 1`` of SeedSequence's hash constants, as a
    ``(count + 1, 1)`` array: its ``i``-th hash xors constant ``i`` and
    multiplies by constant ``i + 1``, whatever the data."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & 0xFFFFFFFF)
    return np.array(constants, np.uint32)[:, None]


def _hashmix(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each row of ``value`` with its own constants,
    the ``len(value) + 1`` of ``constants``."""
    value = (value ^ constants[:-1]) * constants[1:]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> np.uint32(16))


def _pcg64_states(seed: int, streams: list[int]) -> list[dict]:
    """The ``state`` of ``PCG64(SeedSequence(seed, spawn_key=(s,)))`` for
    every stream ``s``: SeedSequence's mixing on uint32 arrays, a column a
    stream, then PCG64's two-step seeding on Python ints."""
    # the entropy is the seed's words, padded to the pool size, then the
    # stream's; a stream with fewer words than another skips the last mixes
    words = _words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    columns = [words + _words(stream) for stream in streams]
    lengths = [len(column) for column in columns]
    width = max(lengths, default=len(words))
    entropy = np.array(
        [column + [0] * (width - len(column)) for column in columns], np.uint32
    ).reshape(len(columns), width).T
    present = np.arange(width)[:, None] < np.array(lengths, dtype=int)
    constants = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * width)
    used = _POOL_SIZE
    pool = _hashmix(entropy[:_POOL_SIZE], constants[: used + 1])
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed = _hashmix(pool[src], constants[used : used + len(dst) + 1])
        pool[dst] = _mix(pool[dst], hashed)
        used += len(dst)
    for word, mixes in zip(entropy[_POOL_SIZE:], present[_POOL_SIZE:]):
        hashed = _hashmix(word, constants[used : used + _POOL_SIZE + 1])
        pool = np.where(mixes, _mix(pool, hashed), pool)
        used += _POOL_SIZE
    # generate_state(4, uint64): eight hashed pool words, read little-endian
    state = _hashmix(np.tile(pool, (2, 1)), _hash_constants(_INIT_B, _MULT_B, 8))
    halves = np.ascontiguousarray(state.T, dtype="<u4").view("<u8")
    states = []
    for high, low, inc_high, inc_low in halves.tolist():
        inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK_128
        value = ((high << 64 | low) + inc) * _PCG_MULT + inc
        states.append({"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                       "state": {"state": value & _MASK_128, "inc": inc}})
    return states


def stream_normals(seed: int, streams, n: int) -> np.ndarray:
    """``(len(streams), n)`` standard normals whose row ``i`` is bitwise
    ``RngStream(seed, streams[i]).normals(n)``.

    A ``range`` of stream ids is checked by its ends, any other iterable id
    by id. The streams are seeded together (:func:`_pcg64_states`). The
    first passes of ``max(1, _PASS_PAIRS // m)`` rows of ``m`` pairs are
    drawn into one reused buffer, on one reused PCG64, and transformed at
    once while they are in cache; a row keeps its first ``ceil(n / 2)``
    accepted pairs in order. A row that pass leaves short, about 7% at
    ``n = 1200``, continues its own stream: its state advances past the
    first pass, and the pass loop of ``normals`` fills the rest.
    """
    seed, _ = _stream_key(seed, 0)
    if not isinstance(streams, range):
        streams = [_stream_key(seed, stream)[1] for stream in streams]
    elif streams:  # a range's ids are ints between its ends
        _stream_key(seed, min(streams[0], streams[-1]))
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = _pass_words(n)
    states = _pcg64_states(seed, streams)
    out = np.empty((len(states), n))
    bitgen = PCG64(0)
    rows = max(1, _PASS_PAIRS // m)
    words = np.empty((min(rows, len(states)), 2 * m), dtype=np.uint64)
    for lo in range(0, len(states), rows):
        chunk = states[lo : lo + rows]
        for i, state in enumerate(chunk):
            bitgen.state = state
            words[i] = bitgen.random_raw(2 * m)
        z, index = _polar(words[: len(chunk), :m], words[: len(chunk), m:])
        z = z.ravel()
        # each row's accepted pairs end where the next row's indices begin
        ends = np.searchsorted(index, m * np.arange(1, len(chunk) + 1)).tolist()
        start = 0
        for row, end in enumerate(ends, lo):
            filled = min(2 * (end - start), n)
            out[row, :filled] = z[2 * start : 2 * start + filled]
            if filled < n:
                bitgen.state = states[row]
                bitgen.advance(2 * m)
                _polar_fill(bitgen, out[row], filled)
            start = end
    return out
