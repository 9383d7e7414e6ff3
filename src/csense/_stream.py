"""csense's copy of numpy's Generator stream, and the one partial Fisher-Yates shuffle on it.

Every seeded index draw comes from here: matrices.sample_rows, the subsets
of experiments.sweep_partial_dft_subsets and the Monte Carlo trials. The
copy is numpy's SeedSequence hash, O'Neill's PCG64 (report HMC-CS-2014-0905)
advanced by Brown's jump ahead (1994) and Lemire's bounded integers (ACM
TOMACS 29(1), 2019), in uint32/uint64 arrays for many generators at once.
NEP 19 pins no Generator stream across numpy versions; the copy does not move with numpy.
"""
from __future__ import annotations

import functools

import numpy as np


def entropy_words(value: int) -> list[int]:
    """An int of a SeedSequence entropy tuple as the sequence reads it: 32-bit words, lowest first."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


# numpy's SeedSequence hash constants (bit_generator.pyx) and PCG64's 128-bit
# multiplier (O'Neill, HMC-CS-2014-0905). A Python int keeps the dtype of the
# uint32/uint64 array it meets, and array arithmetic wraps silently.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF


def _chain(const: int, mult: int, count: int) -> np.ndarray:
    """const and the count constants after it, each the last times mult mod 2^32, as a (count + 1, 1) column."""
    out = [const]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of values, row i with consts[i] and consts[i + 1]."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * 0xCA01F9DD - y * 0x4973F715
    return x ^ x >> 16


def _seed_state(words: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, uint64) for each row of (T, L) uint32 words, as a (4, T) array.

    Rows share the hash constants, so each hashmix and mix runs over the
    pool words it touches at once.
    """
    entropy = words.T
    consts = _chain(_INIT_A, _MULT_A, 16 + 4 * max(0, len(entropy) - 4))
    pool = np.zeros((4, words.shape[0]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:4]
    pool = _hashmix(pool, consts[:5])
    at = 4
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src : src + 1], consts[at : at + 4]))
        at += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word[None], consts[at : at + 5]))
        at += 4
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _chain(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    return out[0::2] | out[1::2] << 32  # little-endian word pairs


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """a * b mod 2^128 in 64-bit halves; the high half of a_lo * b_lo from 32-bit limb products."""
    a1, a0, b1, b0 = a_lo >> 32, a_lo & _M32, b_lo >> 32, b_lo & _M32
    mid = (a0 * b0 >> 32) + (a0 * b1 & _M32) + (a1 * b0 & _M32)
    carry = a1 * b1 + (a0 * b1 >> 32) + (a1 * b0 >> 32) + (mid >> 32)
    return carry + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


@functools.lru_cache(maxsize=64)
def _jumps(count: int) -> np.ndarray:
    """[[A^j hi, G_j hi], [A^j lo, G_j lo]] for j = 1..count, a read-only (2, 2, 1, count) array.

    j PCG64 steps take state s to A^j s + G_j inc mod 2^128, A the multiplier
    and G_j = 1 + A + ... + A^(j-1) (Brown, "Random number generation with
    arbitrary strides", 1994). The table doubles in arrays until it holds
    count steps: A^(c+j) = A^c A^j and G_(c+j) = G_c + A^c G_j.
    """
    hi = np.array([[_PCG_MULT >> 64], [0]], dtype=np.uint64)  # rows A^j and G_j, j = 1
    lo = np.array([[_PCG_MULT & 2**64 - 1], [1]], dtype=np.uint64)
    while (c := hi.shape[1]) < count:
        step_hi, step_lo = _mul128(hi[:1, -1:], lo[:1, -1:], hi[:, : count - c], lo[:, : count - c])
        step_hi[1], step_lo[1] = _add128(step_hi[1], step_lo[1], hi[1, -1:], lo[1, -1:])
        hi, lo = np.hstack([hi, step_hi]), np.hstack([lo, step_lo])
    table = np.stack([hi, lo])[:, :, None]
    table.flags.writeable = False
    return table


def _pcg64_outputs(hi, lo, inc_hi, inc_lo, count: int) -> np.ndarray:
    """(T, count): each row's XSL-RR outputs of the count PCG64 steps after state (hi, lo), all at once."""
    jump_hi, jump_lo = _jumps(count)
    hi, lo = _mul128(np.stack([hi, inc_hi])[:, :, None], np.stack([lo, inc_lo])[:, :, None], jump_hi, jump_lo)
    hi, lo = _add128(hi[0], lo[0], hi[1], lo[1])
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (64 - rot & 63)


def generator_draws(groups: list[np.ndarray], bounds, count: int) -> tuple[np.ndarray, np.ndarray]:
    """What Generator(PCG64(SeedSequence(words))) draws for each row of words, in arrays.

    groups holds (T_g, L_g) uint32 entropy words, a row per generator; rows
    of one group share a length. Each row draws [rng.integers(b) for b in
    bounds], then rng.random(count); bounds is (k,) or (T, k), in [1, 2^32].
    Returns the (T, k) int64 and (T, count) float64 draws.

    The chain is numpy's, step for step: SeedSequence hashes the entropy
    into a 4-word pool and out to generate_state(4, uint64); PCG64 seeds its
    128-bit LCG from that and emits XSL-RR outputs, all a draw takes at
    once; integers is Lemire's nearly divisionless method (ACM TOMACS 29(1),
    2019) on the outputs' 32-bit halves, low first; random is
    (next64 >> 11) 2^-53 on the outputs after them, skipping a half left
    over. A bound of 1 draws nothing. Above 2^32 numpy switches to 64-bit
    Lemire, which this copy does not hold: a ValueError.
    """
    bounds = np.broadcast_to(bounds, (sum(map(len, groups)), np.shape(bounds)[-1]))
    if bounds.min() < 1 or bounds.max() > 2**32:
        raise ValueError(f"bounds must lie in [1, 2**32], got {bounds.min()} to {bounds.max()}")
    bounds = bounds.astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = np.concatenate([_seed_state(words) for words in groups], axis=1)
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    # numpy's seeding: state 0, a step (which leaves inc), add the seed state,
    # a step. Tape column 0 is that last step, whose output nobody draws.
    hi, lo = _add128(inc_hi, inc_lo, s_hi, s_lo)
    tape = np.empty((len(bounds), 0), dtype=np.uint64)
    active, threshold = bounds > 1, 2**32 % bounds  # a leftover below 2^32 mod b is biased: draw again
    rejects = np.zeros(bounds.shape, dtype=np.intp)  # a rejection moves every later draw by a half
    while True:
        taken = active * (1 + rejects)  # halves each draw takes
        pos = np.cumsum(taken, axis=1) - taken + rejects  # the half each draw keeps
        used = (taken.sum(axis=1) + 1) // 2  # outputs the integers take
        width = 1 + max(pos.max() // 2 + 1, used.max() + count)
        if tape.shape[1] < width:
            tape = _pcg64_outputs(hi, lo, inc_hi, inc_lo, width)
        x = np.take_along_axis(tape, 1 + (pos >> 1), axis=1)
        m = np.where(pos & 1, x >> 32, x & _M32) * bounds
        biased = (m & _M32) < threshold
        if not biased.any():
            break
        hit = np.flatnonzero(biased.any(axis=1))
        rejects[hit, biased[hit].argmax(axis=1)] += 1
    doubles = np.take_along_axis(tape, 1 + used[:, None] + np.arange(count), axis=1)
    return (m >> 32).astype(np.int64), (doubles >> 11) * 2.0**-53


def sorted_subsets(n: int, picks: np.ndarray) -> np.ndarray:
    """The sorted (T, k) subsets of range(n) that matrices.draw_without_replacement's shuffle takes on picks.

    Step i of row t swaps entries i and i + picks[t, i] of that row's own
    range(n). The T pools lie end to end in one flat array, so a step is
    two gathers and two scatters at precomputed positions.
    """
    t, k = picks.shape
    pool = np.tile(np.arange(n), t)
    slots = np.arange(k)[:, None] + n * np.arange(t)  # (k, T): entry i of each pool
    for at, to in zip(slots, slots + picks.T):
        pool[at], pool[to] = pool[to], pool[at]
    return np.sort(pool.reshape(t, n)[:, :k], axis=1)


def seeded_subsets(n: int, m: int, seed: int, count: int) -> np.ndarray:
    """(count, m): row r is the r-th draw_without_replacement(rng, n, m) of one rng = default_rng(seed); n <= 2**32."""
    if n > 2**32:
        raise ValueError(f"a seeded draw of indices needs n <= 2**32, got n = {n}")
    words = np.array([entropy_words(seed)], dtype=np.uint32)
    picks, _ = generator_draws([words], np.tile(np.arange(n, n - m, -1), count), 0)
    return sorted_subsets(n, picks.reshape(count, m))
