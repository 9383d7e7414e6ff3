"""Monte Carlo harness for recovery rates versus sparsity.

Quantifies how conservative the coherence certificate is in practice:
inside the certified regime every single trial must recover exactly, while
beyond it the observed rates show how much slack typical (non worst-case)
signals enjoy. Each trial draws from numpy's
default_rng(SeedSequence((seed, k, trial))) stream, so reports are pure
functions of the config regardless of execution order.

The draws come from csense's own copy of that stream (_stream), computed
for a whole batch of trials at once. The seeding, the draws, the swaps, the
amplitude transforms, the measurements and the tally all run once per
batch, over arrays. The partial-DFT row-subset sweep draws from the same
copy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _stream, coherence, matrices, numerics, recovery
from .serialization import decoding

AMPLITUDE_UNIT_EQUAL = "unit_equal"
AMPLITUDE_RANDOM = "random_magnitude_phase"
AMPLITUDE_MODELS = (AMPLITUDE_UNIT_EQUAL, AMPLITUDE_RANDOM)

VALUE_MATCH_RTOL = 1e-6
# Bytes per trial of a batch, 2m + n complex values (recovery.pursue_batch):
# the m terms are the basis vector and the column of R one pursuit step adds,
# and the n term covers the trial's row of the (T, n) correlations A^H r and,
# on a partial DFT, its row of the FFT buffer. It caps the trials of one batch.
# Each batch pays a fixed cost (a seeded draw, about 40 numpy calls per pursuit
# step, one refit stack), so a larger budget runs faster and peaks higher;
# README's Monte Carlo paragraph gives the measured trade.
BATCH_BYTES = 256 * 1024


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one recovery-rate sweep, frozen once its fields are checked.

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
        put = partial(object.__setattr__, self)  # the record is frozen: only its checks write it
        if not isinstance(self.matrix, dict):
            raise ValueError(f"matrix must be a JSON object, got {type(self.matrix).__name__}")
        put("matrix", dict(self.matrix))
        matrices.bind_spec(**self.matrix)  # TypeError on a missing key or one the family does not read
        lo, hi = self.k_range
        lo = matrices.check_int(lo, "k_range low", 1)
        put("k_range", (lo, matrices.check_int(hi, "k_range high", lo)))
        put("trials", matrices.check_int(self.trials, "trials", 1))
        if self.amplitude_model not in AMPLITUDE_MODELS:
            raise ValueError(f"unknown amplitude model {self.amplitude_model!r}")
        put("seed", matrices.check_int(self.seed, "seed", 0))
        put("epsilon", matrices.check_positive(self.epsilon, "epsilon"))
        if self.amplitude_model != AMPLITUDE_RANDOM:
            for key in ("a_min", "a_max"):
                if getattr(self, key) is not None:
                    raise ValueError(f"{key} goes only with amplitude_model {AMPLITUDE_RANDOM!r}")
            return
        put("a_min", matrices.check_positive(0.5 if self.a_min is None else self.a_min, "a_min"))
        if self.a_min <= numerics.ZERO_TOL:  # a signal's nonzeros must be above it
            raise ValueError(f"a_min must be above {numerics.ZERO_TOL:g}, got {self.a_min}")
        put("a_max", matrices.check_positive(2.0 if self.a_max is None else self.a_max, "a_max"))
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

    matrix_mu: float
    k_max_theory: int | None
    rows: list[ExperimentRow]

    def csv_lines(self) -> list[str]:
        lines = [self.CSV_HEADER]
        for row in self.rows:
            lines.append(
                f"{row.k},{row.trials},{row.first_pick_correct_rate!r},"
                f"{row.exact_recovery_rate!r},{row.mean_iterations!r}"
            )
        return lines


def draw_trials(cfg: ExperimentConfig, n: int, k: int, trials: range) -> tuple[np.ndarray, np.ndarray]:
    """Sorted supports (T, k) and their values (T, k) for the given trials.

    Trial t draws from numpy's default_rng(SeedSequence((seed, k, t)))
    stream, which _stream.generator_draws computes for the whole batch at
    once: in this order, the k indices of a partial Fisher-Yates shuffle of
    range(n) and, for random amplitudes, the 2k doubles of two rng.uniform
    calls (log-magnitudes, then phases). _stream.sorted_subsets then makes
    the swaps and the sort, and the amplitude transforms run over the whole
    batch, element by element, so each trial gets the bits it gets alone.
    """
    key = np.array(_stream.entropy_words(cfg.seed) + _stream.entropy_words(k), dtype=np.uint32)
    t = np.arange(trials.start, trials.stop, dtype=np.uint64)
    words = np.column_stack([np.tile(key, (len(t), 1)), t & 0xFFFFFFFF, t >> 32]).astype(np.uint32)
    short = t < 2**32  # one trial word, and the others two: seeded as two groups
    groups = [group for group in (words[short, :-1], words[~short]) if len(group)]
    random_amplitudes = cfg.amplitude_model == AMPLITUDE_RANDOM
    picks, uniform = _stream.generator_draws(groups, np.arange(n, n - k, -1), 2 * k * random_amplitudes)
    supports = _stream.sorted_subsets(n, picks)
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
    BATCH_BYTES / (16 (2m + n)) trials: 273 on the 15x30 ETF, 585 on the
    7x14 and 10 on a 256x1024 partial DFT. The draw, the measurements and
    the engine give every trial the numbers it gets alone, so the batch size
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

    The subsets are what repeated matrices.draw_without_replacement calls on
    one default_rng(seed) draw, from csense's copy of that stream. Duplicate
    draws are collapsed, so for m == n the single possible subset appears
    once. Used to hunt for row sets whose coherence certifies a target
    sparsity.
    """
    m, n = matrices.check_shape(m, n)
    subsets = matrices.check_int(subsets, "subsets", 1)
    seen: dict[tuple[int, ...], SubsetScore] = {}
    for rows in map(tuple, _stream.seeded_subsets(n, m, matrices.check_int(seed, "seed", 0), subsets).tolist()):
        if rows in seen:
            continue
        mat = matrices.build_partial_dft(n, rows)
        rep = coherence.coherence_index(mat)
        seen[rows] = SubsetScore(rows=rows, mu=rep.mu, k_max=rep.k_max)
    return sorted(seen.values(), key=lambda score: score.mu)
