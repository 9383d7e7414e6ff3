"""Monte Carlo harness for recovery rates versus sparsity.

Quantifies how conservative the coherence certificate is in practice:
inside the certified regime every single trial must recover exactly, while
beyond it the observed rates show how much slack typical (non worst-case)
signals enjoy. Each trial draws from numpy's
default_rng(SeedSequence((seed, k, trial))) stream, so reports are pure
functions of the config regardless of execution order.

csense computes that stream itself, bit for bit, for a whole batch of
trials at once in uint32/uint64 arrays: numpy's SeedSequence hash,
O'Neill's PCG64 (report HMC-CS-2014-0905) advanced by Brown's jump ahead
(1994), and Lemire's bounded integers (ACM TOMACS 29(1), 2019). The
seeding, the draws, the swaps, the amplitude transforms, the measurements
and the tally all run once per batch, over arrays.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import coherence, matrices, numerics, recovery
from .serialization import decoding

AMPLITUDE_UNIT_EQUAL = "unit_equal"
AMPLITUDE_RANDOM = "random_magnitude_phase"
AMPLITUDE_MODELS = (AMPLITUDE_UNIT_EQUAL, AMPLITUDE_RANDOM)

VALUE_MATCH_RTOL = 1e-6
# Bytes of state one pursuit step may add to a batch of trials, 2m + n complex
# values per trial (recovery.pursue_batch); it caps the trials of one batch.
BATCH_BYTES = 128 * 1024


@dataclass
class ExperimentConfig:
    """Declarative description of one recovery-rate sweep.

    matrix holds the keyword arguments of matrices.from_spec: a family and
    exactly the keys that family reads. k_range is an
    inclusive (low, high) pair. epsilon is the pursuit stopping threshold,
    relative to ||y|| so trials with different amplitudes are comparable.
    Random amplitudes are log-uniform magnitudes in [a_min, a_max] (0.5 and
    2.0 when not given) with uniform phases; a_min and a_max go with that
    model only, and stay None under unit_equal.
    """

    matrix: dict
    k_range: tuple[int, int]
    trials: int
    amplitude_model: str = AMPLITUDE_UNIT_EQUAL
    seed: int = 0
    epsilon: float = recovery.DEFAULT_RELATIVE_EPSILON
    a_min: float | None = None
    a_max: float | None = None

    def __post_init__(self):
        if not isinstance(self.matrix, dict):
            raise ValueError(f"matrix must be a JSON object, got {type(self.matrix).__name__}")
        self.matrix = dict(self.matrix)
        matrices.bind_spec(**self.matrix)  # TypeError on a missing key or one the family does not read
        lo, hi = self.k_range
        lo = matrices.check_int(lo, "k_range low", 1)
        self.k_range = (lo, matrices.check_int(hi, "k_range high", lo))
        self.trials = matrices.check_int(self.trials, "trials", 1)
        if self.amplitude_model not in AMPLITUDE_MODELS:
            raise ValueError(f"unknown amplitude model {self.amplitude_model!r}")
        self.seed = matrices.check_int(self.seed, "seed", 0)
        self.epsilon = matrices.check_positive(self.epsilon, "epsilon")
        if self.amplitude_model != AMPLITUDE_RANDOM:
            for key in ("a_min", "a_max"):
                if getattr(self, key) is not None:
                    raise ValueError(f"{key} goes only with amplitude_model {AMPLITUDE_RANDOM!r}")
            return
        self.a_min = matrices.check_positive(0.5 if self.a_min is None else self.a_min, "a_min")
        if self.a_min <= numerics.ZERO_TOL:  # a signal's nonzeros must be above it
            raise ValueError(f"a_min must be above {numerics.ZERO_TOL:g}, got {self.a_min}")
        self.a_max = matrices.check_positive(2.0 if self.a_max is None else self.a_max, "a_max")
        if self.a_min > self.a_max:
            raise ValueError(f"need a_min <= a_max, got {self.a_min} > {self.a_max}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """A missing required key or an unknown one is a ValueError, like any malformed value."""
        with decoding("experiment config"):
            return cls(**d)


@dataclass
class ExperimentRow:
    """Aggregate recovery statistics at one sparsity level."""

    k: int
    trials: int
    first_pick_correct_rate: float
    exact_recovery_rate: float
    mean_iterations: float


@dataclass
class ExperimentReport:
    CSV_HEADER = "k,trials,first_pick_rate,exact_rate,mean_iters"

    matrix_mu: float = 0.0
    k_max_theory: int | None = None
    rows: list[ExperimentRow] = field(default_factory=list)

    def csv_lines(self) -> list[str]:
        lines = [self.CSV_HEADER]
        for row in self.rows:
            lines.append(
                f"{row.k},{row.trials},{row.first_pick_correct_rate!r},"
                f"{row.exact_recovery_rate!r},{row.mean_iterations!r}"
            )
        return lines


def _entropy_words(value: int) -> list[int]:
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
    arbitrary strides", 1994).
    """
    a, g, out = 1, 0, []
    for _ in range(count):
        a, g = a * _PCG_MULT % 2**128, (g * _PCG_MULT + 1) % 2**128
        out.append([divmod(a, 2**64), divmod(g, 2**64)])
    table = np.array(out, dtype=np.uint64).transpose(2, 1, 0)[:, :, None]
    table.flags.writeable = False
    return table


def _pcg64_outputs(hi, lo, inc_hi, inc_lo, count: int) -> np.ndarray:
    """(T, count): each row's XSL-RR outputs of the count PCG64 steps after state (hi, lo), all at once."""
    jump_hi, jump_lo = _jumps(count)
    hi, lo = _mul128(np.stack([hi, inc_hi])[:, :, None], np.stack([lo, inc_lo])[:, :, None], jump_hi, jump_lo)
    hi, lo = _add128(hi[0], lo[0], hi[1], lo[1])
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (64 - rot & 63)


def _generator_draws(groups: list[np.ndarray], bounds, count: int) -> tuple[np.ndarray, np.ndarray]:
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


def draw_trials(cfg: ExperimentConfig, n: int, k: int, trials: range) -> tuple[np.ndarray, np.ndarray]:
    """Sorted supports (T, k) and their values (T, k) for the given trials.

    Trial t draws from numpy's default_rng(SeedSequence((seed, k, t)))
    stream, which _generator_draws computes for the whole batch at once:
    in this order, the k indices of matrices.draw_without_replacement's
    partial Fisher-Yates shuffle of range(n) and, for random amplitudes, the
    2k doubles of two rng.uniform calls (log-magnitudes, then phases). The
    swaps, the sort and the amplitude transforms then run over the whole
    batch, element by element, so each trial gets the bits it gets alone.
    """
    key = np.array(_entropy_words(cfg.seed) + _entropy_words(k), dtype=np.uint32)
    t = np.arange(trials.start, trials.stop, dtype=np.uint64)
    words = np.column_stack([np.tile(key, (len(t), 1)), t & _M32, t >> 32]).astype(np.uint32)
    short = t < 2**32  # one trial word, and the others two: seeded as two groups
    groups = [group for group in (words[short, :-1], words[~short]) if len(group)]
    random_amplitudes = cfg.amplitude_model == AMPLITUDE_RANDOM
    picks, uniform = _generator_draws(groups, np.arange(n, n - k, -1), 2 * k * random_amplitudes)
    pool = np.tile(np.arange(n), (len(trials), 1))
    rows = np.arange(len(trials))
    for i in range(k):
        j = picks[:, i] + i
        pool[rows, i], pool[rows, j] = pool[rows, j], pool[rows, i]
    supports = np.sort(pool[:, :k], axis=1)
    if not random_amplitudes:
        return supports, np.ones((len(trials), k), dtype=np.complex128)
    low = math.log(cfg.a_min)
    mags = np.exp(low + (math.log(cfg.a_max) - low) * uniform[:, :k])
    phases = 2.0 * math.pi * uniform[:, k:]  # uniform(0, 2 pi): 0 + 2 pi u
    return supports, mags * np.exp(1j * phases)


def measure_trials(a: matrices.MeasurementMatrix, supports: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The (T, m) stack of y = A x, one row per trial of draw_trials.

    The stacked product takes a.data @ x for each row on its own, the
    matrix-vector product recovery.measure takes, so every row has the
    bits of that trial's measure; one matrix product for the whole stack
    would round differently.
    """
    dense = np.zeros((len(supports), a.n), dtype=np.complex128)
    np.put_along_axis(dense, supports, values, axis=1)
    return (a.data @ dense[:, :, None])[:, :, 0]


def trial_outcomes(cfg: ExperimentConfig, mat: matrices.MeasurementMatrix, k: int):
    """(supports, values, pursuit) of each batch of trials at sparsity k, in trial order.

    supports and values are draw_trials' and pursuit is recovery.pursue_batch's
    BatchPursuit for their measurements. A batch holds at most
    BATCH_BYTES / (16 (2m + n)) trials. The draw, the measurements and the
    engine give every trial the numbers it gets alone, so the batch size
    never shows in a report.
    """
    per_batch = max(1, BATCH_BYTES // ((2 * mat.m + mat.n) * mat.data.itemsize))
    for start in range(0, cfg.trials, per_batch):
        supports, values = draw_trials(cfg, mat.n, k, range(start, min(start + per_batch, cfg.trials)))
        ys = measure_trials(mat, supports, values)
        yield supports, values, recovery.pursue_batch(mat, ys, epsilon=cfg.epsilon)


def _tally(m: int, supports, values, pursuit: recovery.BatchPursuit) -> tuple[int, int, int]:
    """(first-pick hits, exact recoveries, iteration sum) of one batch; see run_experiment."""
    first_hits = int((supports == pursuit.first_picks[:, None]).any(axis=1).sum())
    failed = np.isin(np.arange(len(supports)), list(pursuit.errors))
    iterations = np.where(failed, m, pursuit.iterations)
    k = supports.shape[1]
    full = np.flatnonzero((iterations == k) & ~failed)
    if not len(full):  # then picks may hold fewer than k columns
        return first_hits, 0, int(iterations.sum())
    got = pursuit.picks[full, :k]
    order = np.argsort(got, axis=1)
    same = (np.take_along_axis(got, order, axis=1) == supports[full]).all(axis=1)
    got_values = np.take_along_axis(pursuit.values[full, :k], order, axis=1)
    err = np.linalg.norm(got_values - values[full], axis=1)
    exact = same & (err <= VALUE_MATCH_RTOL * np.linalg.norm(values[full], axis=1))
    return first_hits, int(exact.sum()), int(iterations.sum())


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Per-k recovery rates over independent random trials.

    A trial counts as an exact recovery when the pursuit returns the true
    support as a set and the value error is at most 1e-6 * ||values||.
    The first pick is the pursuit's first selection: recovery.select_column
    on the back-projection A^H y. A mid-run rank-deficiency counts as a
    failed trial at the iteration cap. The counts are taken a batch at a
    time, over arrays.
    """
    mat = matrices.from_spec(**cfg.matrix)
    lo, hi = cfg.k_range
    if hi > mat.m:
        raise ValueError(f"k_range high {hi} exceeds measurement count {mat.m}")
    base = coherence.coherence_index(mat)
    rows = []
    for k in range(lo, hi + 1):
        tallies = [_tally(mat.m, *batch) for batch in trial_outcomes(cfg, mat, k)]
        first_hits, exact_hits, iteration_sum = map(sum, zip(*tallies))
        rows.append(
            ExperimentRow(
                k=k,
                trials=cfg.trials,
                first_pick_correct_rate=first_hits / cfg.trials,
                exact_recovery_rate=exact_hits / cfg.trials,
                mean_iterations=iteration_sum / cfg.trials,
            )
        )
    return ExperimentReport(rows=rows, matrix_mu=base.mu, k_max_theory=base.k_max)


@dataclass
class SubsetScore:
    """Coherence of one candidate partial-DFT row subset."""

    rows: tuple[int, ...]
    mu: float
    k_max: int | None


def sweep_partial_dft_subsets(n: int, m: int, subsets: int, seed: int) -> list[SubsetScore]:
    """Draw row subsets, score each by coherence, return them sorted by mu.

    Duplicate draws are collapsed, so for m == n the single possible subset
    appears once. Used to hunt for row sets whose coherence certifies a
    target sparsity.
    """
    m, n = matrices.check_shape(m, n)
    subsets = matrices.check_int(subsets, "subsets", 1)
    rng = np.random.default_rng(matrices.check_int(seed, "seed", 0))
    seen: dict[tuple[int, ...], SubsetScore] = {}
    for _ in range(subsets):
        rows = matrices.draw_without_replacement(rng, n, m)
        if rows in seen:
            continue
        mat = matrices.build_partial_dft(n, rows)
        rep = coherence.coherence_index(mat)
        seen[rows] = SubsetScore(rows=rows, mu=rep.mu, k_max=rep.k_max)
    return sorted(seen.values(), key=lambda score: score.mu)
