"""The traffic stream: numpy's seeded bounded integers, in Python ints.

`Pcg64(seed).integers(lo, hi, n)` equals `numpy.random.default_rng(seed)
.integers(lo, hi + 1, size=n, dtype=numpy.int64)`, and successive calls
continue one generator. Seeding is numpy's SeedSequence (a 4-word hashmix
pool, `generate_state(4, uint64)`), the generator PCG64 XSL-RR 128/64, and a
draw Lemire's bounded integer (ACM TOMACS 2019): on 32-bit halves, low half
first and the high half kept for the next draw, up to hi - lo = 2**32 - 1
(raw halves there); on whole 64-bit words above. The state walk, the output
rotation and the bounded draw all run on Python ints, so gridshare needs no
numpy, and owning the stream pins the draws, which NEP 19 lets numpy change
between releases.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import List, Optional, Tuple

M32, M64, M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
MULT = 0x2360ED051FC65DA44385DF649FCCF645


@lru_cache(maxsize=256)
def _initial(seed: int) -> Tuple[int, int]:
    """PCG64's (state, inc) from SeedSequence(seed).generate_state(4, uint64)."""
    entropy = [seed >> 32 * i & M32 for i in range(max(1, (seed.bit_length() + 31) // 32))]
    const = 0x43B0D7E5

    def hashmix(v: int, mult: int = 0x931E8875) -> int:
        nonlocal const
        v ^= const
        const = const * mult & M32
        v = v * const & M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        v = (0xCA01F9DD * x - 0x4973F715 * y) & M32
        return v ^ v >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    half = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    s0, s1, q0, q1 = (half[i] | half[i + 1] << 32 for i in range(0, 8, 2))
    inc = (q0 << 64 | q1) << 1 & M128 | 1
    return ((inc + (s0 << 64 | s1)) * MULT + inc) & M128, inc


class Pcg64:
    """A seeded PCG64 stream drawing numpy's `Generator.integers` values."""

    def __init__(self, seed: int):
        self.state, self.inc = _initial(seed)
        self.half: Optional[int] = None  # a word's high half, drawn next

    def words(self, n: int) -> List[int]:
        """The next n 64-bit outputs: each state's halves xor-ed, rotated right by its top 6 bits."""
        state, inc, out = self.state, self.inc, []
        append, mult, m64, m128 = out.append, MULT, M64, M128  # locals: the loop is hot
        for _ in range(n):
            state = (state * mult + inc) & m128
            hi = state >> 64
            x, r = hi ^ state & m64, hi >> 58
            append((x >> r | x << 64 - r) & m64)
        self.state = state
        return out

    def halves(self, n: int) -> List[int]:
        """The next n 32-bit outputs: each word's low half, then its high."""
        out = [] if self.half is None else [self.half]
        for word in self.words((n - len(out) + 1) // 2):
            out += (word & M32, word >> 32)
        self.half = out[n] if len(out) > n else None
        return out[:n]

    def integers(self, lo: int, hi: int, n: int) -> array:
        """n uniform values in [lo, hi], 0 <= lo <= hi < 2**63, as an int64 array."""
        span, out = hi - lo + 1, array("q")
        if span == 1 or n == 0:
            return array("q", [lo]) * n
        bits = 32 if span <= 2**32 else 64
        threshold, low = 2**bits % span, 2**bits - 1
        while len(out) < n:  # a rejected value is replaced by the next one
            draws = self.halves if bits == 32 else self.words
            out.extend([(m >> bits) + lo for v in draws(n - len(out))
                        if (m := v * span) & low >= threshold])
        return out
