"""Workload ``numerals``: binary-numeral arithmetic and its meaning
formulas.

One operation is a ``bplus`` or ``btimes`` call followed by the
construction round trip of its result (``to_construction`` ->
``is_bnum`` -> ``from_construction``), or a ``bplus_rewrite`` of two
numeral terms below 2**12.  All the time goes to ``binum``.
"""

from __future__ import annotations

import random

from biforge import (
    BinNum, StuckRewrite, binnum, bplus, bplus_rewrite, btimes, from_construction,
    is_bnum, to_construction,
)

from common import Op
from reference import stuck_expected

# Operations of one block, by digit count.
PLUS = {8: 50, 64: 40, 256: 25, 512: 10}
TIMES = {8: 30, 64: 8}
REWRITES = 37
# Rewrites are the operations around the median, and their time grows
# with the operands' widths, 1-12 bits.  So that the median does not
# hang on the widths one seed happens to draw, every run of a given
# length takes the same widths, pairs of 1-12 in turn, and the seed
# orders them and draws the bits.
REWRITE_WIDTHS = 12
# Products stop at 256 digits, and a run holds only a few of them: one
# costs as much as ~30 sums of 512 digits, and one per block made them
# half of every round.  Cheaper rounds leave time for more of them.
PRODUCTS_256 = 2
# Digit counts whose round trip the traced run reports.
QUOTED = (64, 512)
# Timed rounds, and one pass over one block, and over the 256-digit
# products, on the reference host (README), in seconds.
ROUNDS = 10
BLOCK_SECONDS = 0.33
EXTRA_SECONDS = 0.5

STUCK = "stuck"


def _bits(rng: random.Random, k: int) -> str:
    """``k`` random bits, most-significant first and set."""
    return "1" + "".join(rng.choice("01") for _ in range(k - 1))


def _numeral(bits: str):
    return binnum(int(b) for b in reversed(bits))


def digits_value(n) -> int:
    """Value of a numeral from its digits, least-significant first."""
    return int("".join("1" if d else "0" for d in reversed(n.digits)), 2)


def _round_trip(n):
    c = to_construction(n)
    if not is_bnum(c):
        return None
    return from_construction(c)


def _checker(want: int):
    return lambda out: isinstance(out, BinNum) and digits_value(out) == want


def _arith_op(name: str, fn, k: int, a_bits: str, b_bits: str, want: int) -> Op:
    a, b = _numeral(a_bits), _numeral(b_bits)

    def call():
        return _round_trip(fn(a, b))

    def staged(tr):
        n = tr.stage(f"binum.{name}_ms.d{k}", fn, a, b)
        if k in QUOTED:
            return tr.stage(f"binum.quote_ms.d{k}", _round_trip, n)
        return _round_trip(n)

    return Op(f"{name}.d{k}", call, _checker(want), staged)


def _rewrite_op(a: int, b: int) -> Op:
    ta = to_construction(_numeral(bin(a)[2:]))
    tb = to_construction(_numeral(bin(b)[2:]))

    def rewrite():
        try:
            return from_construction(bplus_rewrite(ta, tb))
        except StuckRewrite:
            return STUCK

    def check(out):
        if stuck_expected(a, b):
            return out == STUCK
        return isinstance(out, BinNum) and digits_value(out) == a + b

    def staged(tr):
        return tr.stage("binum.rewrite_ms", rewrite)

    return Op("rewrite", rewrite, check, staged)


def build(seed: int, blocks: int) -> list[list[Op]]:
    rng = random.Random(f"numerals/{seed}")
    w = REWRITE_WIDTHS
    widths = [(1 + k % w, 1 + (k // w) % w) for k in range(REWRITES * blocks)]
    rng.shuffle(widths)
    out: list[list[Op]] = []
    for i in range(blocks):
        block = []
        for k, count in PLUS.items():
            for _ in range(count):
                a, b = _bits(rng, k), _bits(rng, k)
                block.append(_arith_op("bplus", bplus, k, a, b, int(a, 2) + int(b, 2)))
        for k, count in TIMES.items():
            for _ in range(count):
                a, b = _bits(rng, k), _bits(rng, k)
                block.append(_arith_op("btimes", btimes, k, a, b, int(a, 2) * int(b, 2)))
        for wa, wb in widths[i * REWRITES:(i + 1) * REWRITES]:
            block.append(_rewrite_op(int(_bits(rng, wa), 2), int(_bits(rng, wb), 2)))
        rng.shuffle(block)
        out.append(block)
    # The products go at the end of the first block, which the traced
    # runs of the other workloads borrow.
    for _ in range(PRODUCTS_256):
        a, b = _bits(rng, 256), _bits(rng, 256)
        out[0].append(_arith_op("btimes", btimes, 256, a, b, int(a, 2) * int(b, 2)))
    return out


def deep_check(ops, outputs) -> list[str]:
    return []
