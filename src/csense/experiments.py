"""Monte Carlo harness for recovery rates versus sparsity.

Quantifies how conservative the coherence certificate is in practice:
inside the certified regime every single trial must recover exactly, while
beyond it the observed rates show how much slack typical (non worst-case)
signals enjoy. Each trial draws its generator from (seed, k, trial), so
reports are pure functions of the config regardless of execution order.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import coherence, matrices, recovery
from .errors import RankDeficientError
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

    matrix holds keyword arguments for matrices.from_spec. k_range is an
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
        inspect.signature(matrices.from_spec).bind(**self.matrix)  # TypeError on a key from_spec lacks
        lo, hi = self.k_range
        lo = matrices.check_int(lo, "k_range low", 1)
        self.k_range = (lo, matrices.check_int(hi, "k_range high", lo))
        self.trials = matrices.check_int(self.trials, "trials", 1)
        if self.amplitude_model not in AMPLITUDE_MODELS:
            raise ValueError(f"unknown amplitude model {self.amplitude_model!r}")
        self.seed = matrices.check_int(self.seed, "seed", 0)
        self.epsilon = matrices.check_positive(self.epsilon, "epsilon")
        self.a_min = matrices.check_positive(self.a_min, "a_min")
        self.a_max = matrices.check_positive(self.a_max, "a_max")
        if self.a_min > self.a_max:
            raise ValueError(f"need a_min <= a_max, got {self.a_min} > {self.a_max}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Missing required keys raise KeyError, unknown keys are ignored."""
        with decoding("experiment config"):
            return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d or f.default is MISSING})


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


def _draw_values(rng: np.random.Generator, k: int, cfg: ExperimentConfig) -> np.ndarray:
    if cfg.amplitude_model == AMPLITUDE_UNIT_EQUAL:
        return np.ones(k, dtype=np.complex128)
    mags = np.exp(rng.uniform(math.log(cfg.a_min), math.log(cfg.a_max), size=k))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=k)
    return mags * np.exp(1j * phases)


def trial_signal(cfg: ExperimentConfig, mat: matrices.MeasurementMatrix, k: int, trial: int) -> recovery.SparseSignal:
    """The k-sparse signal of one trial, drawn from its own generator keyed by (seed, k, trial)."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, k, trial)))
    support = matrices.draw_without_replacement(rng, mat.n, k)
    return recovery.SparseSignal(mat.n, support, _draw_values(rng, k, cfg))


def trial_outcomes(cfg: ExperimentConfig, mat: matrices.MeasurementMatrix, k: int):
    """(signal, first pick, pursuit outcome) of every trial at sparsity k, in trial order.

    The trials run through recovery.pursue_batch in batches of at most
    BATCH_BYTES / (16 (2m + n)) trials. The engine gives every trial the
    numbers it gets alone, so the batch size never shows in a report.
    """
    per_batch = max(1, BATCH_BYTES // ((2 * mat.m + mat.n) * mat.data.itemsize))
    for start in range(0, cfg.trials, per_batch):
        signals = [trial_signal(cfg, mat, k, t) for t in range(start, min(start + per_batch, cfg.trials))]
        ys = [recovery.measure(mat, x) for x in signals]
        batch = recovery.pursue_batch(mat, ys, epsilon=cfg.epsilon, relative=True)
        yield from zip(signals, batch.first_picks.tolist(), batch.outcomes)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Per-k recovery rates over independent random trials.

    A trial counts as an exact recovery when the pursuit returns the true
    support as a set and the value error is at most 1e-6 * ||values||.
    The first pick is the pursuit's first selection: recovery.select_column
    on the back-projection A^H y. A mid-run rank-deficiency counts as a
    failed trial at the iteration cap.
    """
    mat = matrices.from_spec(**cfg.matrix)
    lo, hi = cfg.k_range
    if hi > mat.m:
        raise ValueError(f"k_range high {hi} exceeds measurement count {mat.m}")
    base = coherence.coherence_index(mat)
    rows = []
    for k in range(lo, hi + 1):
        first_hits = 0
        exact_hits = 0
        iteration_sum = 0
        for x, first, result in trial_outcomes(cfg, mat, k):
            first_hits += first in x.support
            if isinstance(result, RankDeficientError):
                iteration_sum += mat.m
                continue
            iteration_sum += result.iterations
            if tuple(sorted(result.support)) == x.support:
                order = np.argsort(result.support)
                err = float(np.linalg.norm(result.values[order] - x.values))
                if err <= VALUE_MATCH_RTOL * float(np.linalg.norm(x.values)):
                    exact_hits += 1
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
