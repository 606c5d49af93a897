"""Least-significant-bits transmission and nearest-codeword reconstruction.

A node with a b-bit budget sends the low b bits of its n-bit reading. The
receiver reconstructs by picking, among all n-bit values sharing those low
bits, the one closest to a reference reading (bins of size 2**b). Splicing
the reference's high bits onto the payload would fail on carry boundaries
(e.g. reference 15, true value 16), so nearest-codeword decoding is used;
it is exact whenever |true - reference| <= 2**(b-1) - 1.

`nearest` is the one statement of that rule, on plain ints: `decode` checks
its Reading and Codeword and calls it, and the simulator's gather loop calls
it once per node with no Reading or Codeword built.
"""

from __future__ import annotations

import operator

from ._frozen import Frozen


class Reading(Frozen):
    """Unsigned n-bit sensor value: int `value` of int `width` bits."""

    _fields = ("value", "width")

    def _check(self) -> None:
        if operator.index(self.width) < 1:
            raise ValueError("width must be >= 1")
        if not 0 <= operator.index(self.value) < (1 << self.width):
            raise ValueError(f"value {self.value} out of range for {self.width} bits")


class Codeword(Frozen):
    """The int `payload`: the low `bits` bits of a reading; bits may be 0 (nothing sent)."""

    _fields = ("payload", "bits")

    def _check(self) -> None:
        if operator.index(self.bits) < 0:
            raise ValueError("bits must be >= 0")
        if not 0 <= operator.index(self.payload) < (1 << self.bits):
            raise ValueError(f"payload {self.payload} out of range for {self.bits} bits")


def encode(reading: Reading, budget: int) -> Codeword:
    if budget > reading.width:
        raise ValueError(f"budget {budget} exceeds reading width {reading.width}")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    return Codeword(payload=reading.value & ((1 << budget) - 1), bits=budget)


def nearest(reference: int, payload: int, b: int, n: int) -> int:
    """The n-bit value nearest `reference` whose low b bits are `payload`
    (0 <= b <= n, 0 <= payload < 2**b); ties break toward the smaller one.
    With b = 0 nothing was sent, so the reference stands."""
    if not b:
        return reference
    step = 1 << b
    # candidates are payload + k * step; the distance is convex in k, so the
    # nearest k (rounded half down) clamped to [0, 2**(n-b) - 1] is the nearest candidate
    k = max(0, min((reference - payload + (step >> 1) - 1) // step, (1 << (n - b)) - 1))
    return payload + k * step


def decode(reference: Reading, codeword: Codeword) -> Reading:
    """Nearest value to the reference matching the codeword's low bits.

    Ties break toward the smaller candidate.
    """
    n = reference.width
    b = codeword.bits
    if b > n:
        raise ValueError(f"codeword bits {b} exceed reference width {n}")
    return Reading(value=nearest(reference.value, codeword.payload, b, n), width=n)


def correctness_radius(bits: int) -> int:
    """Largest |true - reference| for which decode is guaranteed exact."""
    if bits < 0:
        raise ValueError("bits must be >= 0")
    if bits == 0:
        return 0
    return (1 << (bits - 1)) - 1
