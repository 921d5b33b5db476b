"""Seedable random streams with a fixed, documented generation chain.

A stream is identified by ``(seed, stream)``. The chain is pinned end to
end: raw 64-bit words come from a PCG64 bit generator keyed by
``SeedSequence(seed, spawn_key=(stream,))``, uniforms take the top 53 bits
of each word, and standard normals come from the polar (Marsaglia)
rejection method applied to consecutive uniform pairs. Nothing in the chain depends on
thread count or platform, so a stream's output is bit-reproducible anywhere.

Streams are single-owner: parallel users derive their own stream ids rather
than sharing one object.
"""

from __future__ import annotations

import numbers

import numpy as np
from numpy.random import PCG64, SeedSequence


def _require_integers(**values) -> None:
    """``ValueError`` unless every value is a Python or numpy integer; a
    bool or a float, integral or not, is refused."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


class RngStream:
    """One reproducible substream of the package-wide generator family."""

    __slots__ = ("seed", "stream", "_bitgen")

    def __init__(self, seed: int, stream: int = 0):
        _require_integers(seed=seed, stream=stream)
        if seed < 0 or stream < 0:
            raise ValueError("seed and stream must be nonnegative integers")
        self.seed = int(seed)
        self.stream = int(stream)
        self._bitgen = PCG64(SeedSequence(self.seed, spawn_key=(self.stream,)))

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1): top 53 bits of each raw word."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        raw = self._bitgen.random_raw(n)
        return (raw >> np.uint64(11)) * (1.0 / (1 << 53))

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normal draws by the polar rejection method.

        Pairs ``(u, v)`` on [-1, 1) are accepted when ``0 < u^2 + v^2 < 1``;
        each accepted pair yields two normals. Any spare draw beyond ``n`` is
        discarded, so the value sequence depends only on the stream state and
        the call sizes.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        out = np.empty(n)
        filled = 0
        while filled < n:
            pairs = (n - filled + 1) // 2
            # acceptance rate is pi/4; the cushion keeps the loop count low
            m = int(pairs / 0.78) + 16
            u = 2.0 * self.uniforms(m) - 1.0
            v = 2.0 * self.uniforms(m) - 1.0
            s = u * u + v * v
            keep = (s > 0.0) & (s < 1.0)
            u, v, s = u[keep], v[keep], s[keep]
            factor = np.sqrt(-2.0 * np.log(s) / s)
            z = np.empty(2 * len(s))
            z[0::2] = u * factor
            z[1::2] = v * factor
            take = min(len(z), n - filled)
            out[filled : filled + take] = z[:take]
            filled += take
        return out
