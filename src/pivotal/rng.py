"""Reproducible counter-based random streams.

Every stochastic routine in this package takes an explicit :class:`RngStream`.
A stream is a value type ``(master_seed, stream_index)``; the generator it
yields is a NumPy ``Philox`` bit generator keyed bit-exactly by those two
64-bit words, so results are reproducible across platforms and independent of
how work is partitioned across workers, as in ``stable.sample_stable_many``.

Derivation contract (stable, part of the public interface):

* ``RngStream(m, i).generator()`` wraps ``numpy.random.Philox`` with
  ``key = [m mod 2**64, i mod 2**64]``.
* ``RngStream(m, i).substream(j)`` returns
  ``RngStream(mix64(m, i), j)`` where ``mix64(a, b)`` applies the SplitMix64
  finalizer to ``a XOR (b * 0x9E3779B97F4A7C15 mod 2**64)``.

``mix64(a, .)`` is a bijection of the 64-bit integers for fixed ``a``, so
substream derivation is injective in ``j`` and nested derivations do not
collide for distinct index paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(a: int, b: int) -> int:
    """Injectively (in ``b``) fold two 64-bit words into one."""
    x = (a ^ ((b * _GOLDEN) & _MASK64)) & _MASK64
    # SplitMix64 finalizer (a 64-bit bijection).
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (master_seed, stream_index)."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed & _MASK64, self.stream_index & _MASK64],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RngStream":
        """Derive a child stream; distinct indices give independent streams."""
        return RngStream(mix64(self.master_seed & _MASK64, self.stream_index & _MASK64), index)

