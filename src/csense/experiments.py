"""Monte Carlo harness for recovery rates versus sparsity.

Quantifies how conservative the coherence certificate is in practice:
inside the certified regime every single trial must recover exactly, while
beyond it the observed rates show how much slack typical (non worst-case)
signals enjoy. Each trial draws its generator from (seed, k, trial), so
reports are pure functions of the config regardless of execution order.

Only what that rule forces runs per trial: seeding the generator and its
draws, k Fisher-Yates indices and, for random amplitudes, 2k uniform
doubles. The swaps, the amplitude transforms, the measurements and the
tally run once per batch of trials, over arrays.
"""
from __future__ import annotations

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
    Random amplitudes are log-uniform magnitudes in [a_min, a_max] with
    uniform phases.
    """

    matrix: dict
    k_range: tuple[int, int]
    trials: int
    amplitude_model: str = AMPLITUDE_UNIT_EQUAL
    seed: int = 0
    epsilon: float = recovery.DEFAULT_RELATIVE_EPSILON
    a_min: float = 0.5
    a_max: float = 2.0

    def __post_init__(self):
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
        self.a_min = matrices.check_positive(self.a_min, "a_min")
        if self.a_min <= numerics.ZERO_TOL:  # a signal's nonzeros must be above it
            raise ValueError(f"a_min must be above {numerics.ZERO_TOL:g}, got {self.a_min}")
        self.a_max = matrices.check_positive(self.a_max, "a_max")
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


def draw_trials(cfg: ExperimentConfig, n: int, k: int, trials: range) -> tuple[np.ndarray, np.ndarray]:
    """Sorted supports (T, k) and their values (T, k) for the given trials.

    Trial t seeds its own generator from (seed, k, t) and draws, in this
    order, the k indices of matrices.draw_without_replacement's partial
    Fisher-Yates shuffle of range(n) and, for random amplitudes, the 2k
    doubles of two rng.uniform calls (log-magnitudes, then phases). The
    swaps, the sort and the amplitude transforms then run over the whole
    batch, element by element, so each trial gets the bits it gets alone.
    """
    picks = np.empty((len(trials), k), dtype=np.intp)
    uniform = np.empty((len(trials), 2 * k)) if cfg.amplitude_model == AMPLITUDE_RANDOM else None
    bounds = range(n, n - k, -1)
    key = _entropy_words(cfg.seed) + _entropy_words(k)
    for row, trial in enumerate(trials):
        # default_rng(SeedSequence((seed, k, trial))), handed the words it would assemble
        entropy = np.array(key + _entropy_words(trial), dtype=np.uint32)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        picks[row] = [rng.integers(bound) for bound in bounds]
        if uniform is not None:
            rng.random(out=uniform[row])
    pool = np.tile(np.arange(n), (len(trials), 1))
    rows = np.arange(len(trials))
    for i in range(k):
        j = picks[:, i] + i
        pool[rows, i], pool[rows, j] = pool[rows, j], pool[rows, i]
    supports = np.sort(pool[:, :k], axis=1)
    if uniform is None:
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
