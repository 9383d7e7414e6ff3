"""Sparse recovery chain.

Forward measurement, back-projection of measurements onto the matrix
columns (the position-detection estimate), least-squares refit on a known
support, greedy matching pursuit, the exhaustive minimal-support search
used as desk-scale ground truth, and the worst-case detection-margin
arithmetic that links coherence to a usable sparsity level.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import coherence, matrices, numerics
from .errors import DimensionMismatchError, RankDeficientError
from .serialization import complex_to_pairs, decoding, load_json, pairs_to_complex, save_json, to_dict

DEFAULT_RELATIVE_EPSILON = 1e-10
# Correlation magnitudes within TIE_TOL * ||y|| of the largest count as tied.
TIE_TOL = 1e-12


@dataclass(eq=False)
class SparseSignal:
    """Length-n vector with k >= 1 nonzero entries at an explicit support."""

    n: int
    support: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        self.n = matrices.check_int(self.n, "signal length", 1)
        support = matrices.check_indices(self.support, self.n, "support")
        if not support:
            raise ValueError("support must contain at least one index")
        vals = numerics.as_vector(self.values)
        if vals.shape[0] != len(support):
            raise ValueError("need exactly one value per support index")
        if float(np.min(np.abs(vals))) <= numerics.ZERO_TOL:
            raise ValueError(f"nonzero entries must have magnitude above {numerics.ZERO_TOL:g}")
        self.support = support
        self.values = vals

    @property
    def k(self) -> int:
        return len(self.support)

    def dense(self) -> np.ndarray:
        """Expand to a full length-n vector."""
        out = np.zeros(self.n, dtype=np.complex128)
        out[list(self.support)] = self.values
        return out


@dataclass(eq=False)
class InitialEstimate:
    """Back-projected estimate plus one additive component per source element.

    Column i of components is the contribution of the i-th nonzero element
    (a Gram column scaled by that element's value); the columns sum to x0.
    """

    x0: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        x0 = numerics.as_vector(self.x0)
        comps = numerics.as_matrix(self.components)
        if comps.shape[0] != x0.shape[0]:
            raise ValueError("components need one row per signal index")
        if float(np.max(np.abs(comps.sum(axis=1) - x0))) > 1e-12:
            raise ValueError("component columns must sum to the estimate")
        self.x0 = x0
        self.components = comps


@dataclass(eq=False)
class RecoveryResult:
    """Outcome of a matching-pursuit run.

    support is kept in selection order; residual_trace holds the residual
    norm after each least-squares refit and is strictly decreasing.
    """

    support: tuple[int, ...]
    values: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    residual_trace: tuple[float, ...]


@dataclass
class MarginReport:
    """Worst-case detection margins at sparsity k for coherence mu.

    signal_floor = 1 - (k-1)*mu is a nonzero element's magnitude after the
    other k-1 elements erode it as much as possible; disturbance_ceiling =
    k*mu is the largest pile-up all k elements can produce at an empty
    position. Detection is guaranteed when the floor clears the ceiling.
    """

    k: int
    mu: float
    signal_floor: float
    disturbance_ceiling: float
    detectable: bool


@dataclass(eq=False)
class L0Solution:
    """One consistent sparse explanation found by the exhaustive search."""

    support: tuple[int, ...]
    values: np.ndarray
    residual: float


@dataclass
class L0Report:
    """Result of the exhaustive search; complete is False when the budget cut it short."""

    solutions: list[L0Solution]
    scanned: int
    total: int
    complete: bool


def _measurements(a: matrices.MeasurementMatrix, y) -> np.ndarray:
    """y as a complex vector of length a.m."""
    vec = numerics.as_vector(y)
    if vec.shape[0] != a.m:
        raise DimensionMismatchError(f"measurement length {vec.shape[0]} != row count {a.m}")
    return vec


def _check_signal_length(a: matrices.MeasurementMatrix, x: SparseSignal) -> None:
    if x.n != a.n:
        raise DimensionMismatchError(f"signal length {x.n} != matrix column count {a.n}")


def measure(a: matrices.MeasurementMatrix, x: SparseSignal) -> np.ndarray:
    """y = A X for the dense expansion of the sparse signal."""
    _check_signal_length(a, x)
    return a.data @ x.dense()


def back_project(a: matrices.MeasurementMatrix, y) -> np.ndarray:
    """Initial position estimate A^H y (length n), the pursuit's first correlations."""
    return _correlate(a, _measurements(a, y)[None])[0]


def _correlate(a: matrices.MeasurementMatrix, rows: np.ndarray) -> np.ndarray:
    """A^H r for every row r of a stack, each row on its own.

    (r^H A)^H reads A in place; A^H r would first copy the conjugate of A.
    """
    return _rows_times(rows.conj(), a.data).conj()


def decompose_initial_estimate(a: matrices.MeasurementMatrix, x: SparseSignal) -> InitialEstimate:
    """Back-projected estimate split into per-source additive components.

    Component i equals the Gram column at support index i scaled by the
    i-th value, so the stacked components reproduce A^H A x exactly. This
    is the data behind stacked component bar plots of the estimate.
    """
    _check_signal_length(a, x)
    components = a.gram[:, list(x.support)] * x.values[None, :]
    return InitialEstimate(components.sum(axis=1), components)


def ls_recover_known_support(a: matrices.MeasurementMatrix, support, y) -> SparseSignal:
    """Least-squares fit restricted to the given support columns.

    Fitted entries with magnitude at or below 1e-14 are dropped from the
    returned support, so a consistent system with extra candidate indices
    comes back with exact zeros pruned.

    Raises
    ------
    RankDeficientError
        If the selected columns are linearly dependent; for this support
        the measurements cannot pin down a unique coefficient vector.
    """
    sub = matrices.restrict_columns(a, support)
    if sub.shape[1] > a.m:
        raise ValueError(f"support size {sub.shape[1]} exceeds measurement count {a.m}")
    vals = numerics.solve_least_squares(sub, _measurements(a, y))
    keep = np.abs(vals) > numerics.ZERO_TOL
    if not bool(np.any(keep)):
        raise ValueError("every fitted value is numerically zero; nothing to return")
    kept = tuple(itertools.compress(support, keep))
    return SparseSignal(a.n, kept, vals[keep])


def select_column(correlations, scale):
    """Lowest index whose magnitude lies within TIE_TOL * scale of the largest.

    Works along the last axis, so a stack of correlation rows with one scale
    per row gives one index per row. The pursuit passes scale = ||y||: its
    correlations carry an absolute rounding error of order k * eps * ||y||,
    so without the tolerance the evaluation order, not the index, would
    decide near-ties.
    """
    mags = np.abs(correlations)
    edge = mags.max(axis=-1) - TIE_TOL * np.asarray(scale)
    return np.argmax(mags >= edge[..., None], axis=-1)


def matching_pursuit(
    a: matrices.MeasurementMatrix,
    y,
    epsilon: float | None = None,
    max_iter: int | None = None,
    relative: bool = False,
) -> RecoveryResult:
    """Greedy sparse reconstruction (orthogonal matching pursuit).

    Repeats until the residual norm drops to epsilon: pick the column with
    the largest back-projected residual magnitude (select_column: lowest
    index among magnitudes within 1e-12 * ||y|| of the largest), add it to
    the selected set, least-squares refit on all selected columns, and
    recompute the residual.

    This is pursue_batch on a stack of one measurement vector; see there
    for how the refit and the correlations are updated.

    Parameters
    ----------
    a : MeasurementMatrix
    y : array-like
        Measurement vector of length a.m.
    epsilon : float, optional
        Stopping threshold on the residual l2 norm, absolute by default.
        With relative=True it is scaled by ||y||. When omitted, the
        threshold defaults to 1e-10 * ||y||.
    max_iter : int, optional
        Iteration cap; defaults to a.m (further columns cannot be
        independent).
    relative : bool
        Interpret epsilon relative to ||y||.

    Returns
    -------
    RecoveryResult
        converged=False means the cap was hit first, or the pick repeated
        a selected column (no progress possible); the best-effort result is
        still returned.

    Raises
    ------
    RankDeficientError
        If the selected columns become linearly dependent mid-run, under
        the shared rank tolerance max(m, k) * sigma_max * eps. The run
        aborts rather than skipping the offending index.
    ValueError
        On invalid arguments, or when a run that has not stopped at m
        columns picks one more (the refit would be underdetermined).
    """
    (outcome,) = pursue_batch(a, _measurements(a, y)[None], epsilon, max_iter, relative).outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class BatchPursuit(NamedTuple):
    """Result of pursue_batch, one entry per row of the measurement stack.

    first_picks holds each trial's first selection, also for trials that
    stopped before their first iteration or raised. outcomes holds a
    RecoveryResult, or the RankDeficientError or ValueError that
    matching_pursuit raises for that row.
    """

    first_picks: np.ndarray
    outcomes: list


def pursue_batch(
    a: matrices.MeasurementMatrix,
    ys,
    epsilon: float | None = None,
    max_iter: int | None = None,
    relative: bool = False,
) -> BatchPursuit:
    """matching_pursuit on every row of a (T, m) stack of measurement vectors.

    The arguments mean what they mean for matching_pursuit, with epsilon
    relative to each row's own norm when relative=True. The trials run as
    one batch (Batch-OMP): every trial still running at step j has exactly
    j picks, so each iteration is a few array operations over all of them.

    The refit is incremental: each new column is orthogonalized against the
    earlier ones (Gram-Schmidt, applied twice), which extends a QR
    factorization A_S = Q R; the values come from one solve with the
    triangular R at the end. When the matrix already holds its Gram (as
    after coherence_index), the correlations A^H r are updated from Gram
    rows and an iteration costs O(T (m k + n k)) after the first. Otherwise
    they are recomputed from A at O(T m n) per iteration: building the Gram
    for a few runs would cost O(m n^2) time and n^2 memory.

    Every product is taken row by row, so a trial computes the same numbers
    in any batch as alone. Each step taken adds a basis vector and a column
    of R (m values each) and, with a Gram, a row A^H q (n values) per trial;
    the room for steps doubles when it runs out, and ended trials leave the
    batch.
    """
    stack = numerics.as_matrix(ys)
    if stack.shape[1] != a.m:
        raise DimensionMismatchError(f"measurement length {stack.shape[1]} != row count {a.m}")
    y_norms = np.linalg.norm(stack, axis=1)
    if epsilon is None:
        thresholds = DEFAULT_RELATIVE_EPSILON * y_norms
    else:
        epsilon = matrices.check_positive(epsilon, "epsilon")
        thresholds = epsilon * y_norms if relative else np.full(len(stack), epsilon)
    max_iter = a.m if max_iter is None else matrices.check_int(max_iter, "max_iter", 1)
    return _pursue(a, _Live(a, stack, y_norms, thresholds), max_iter)


class _Live:
    """State of the trials of a batch that are still running.

    The per-trial arrays hold one row per trial. The step arrays hold one
    row per step, each with one entry per trial: q[i, t] is the i-th
    orthonormal basis vector of trial t's selected span, b[i, t] = A^H q[i, t]
    (kept only with a Gram), r[j, t] holds column j of trial t's R (A_S = Q R)
    and z[i, t] = q[i, t]^H y. Their room for steps doubles when it runs out.
    """

    STEP_ARRAYS = ("picks", "q", "b", "r", "z", "trace")

    def __init__(self, a: matrices.MeasurementMatrix, ys, y_norms, thresholds):
        t = len(ys)
        self.index = np.arange(t)  # position in the stack
        self.y_norm, self.threshold = y_norms, thresholds
        self.residual = ys.copy()
        self.norm = y_norms.copy()
        self.dependent = np.zeros(t, dtype=bool)  # the last pick failed the pivot test
        self.picks = np.empty((1, t), dtype=np.intp)
        self.q = np.empty((1, t, a.m), dtype=np.complex128)
        self.b = np.empty((1, t, a.n), dtype=np.complex128) if a.cached_gram is not None else None
        self.r = np.empty((1, t, a.m), dtype=np.complex128)
        self.z = np.empty((1, t), dtype=np.complex128)
        self.trace = np.empty((1, t))

    def resize(self, room: int, taken: int, rows: np.ndarray | None = None) -> None:
        """Give the step arrays room for room steps, keeping the taken ones.

        With a boolean mask rows, keep only the trials it marks.
        """
        for name, value in vars(self).items():
            if name in self.STEP_ARRAYS:
                if value is None:
                    continue
                count = value.shape[1] if rows is None else np.count_nonzero(rows)
                new = np.empty((room, count) + value.shape[2:], dtype=value.dtype)
                if rows is None:
                    new[:taken] = value[:taken]
                else:
                    np.compress(rows, value[:taken], axis=1, out=new[:taken])
                setattr(self, name, new)
            elif rows is not None and isinstance(value, np.ndarray):
                setattr(self, name, value[rows])


def _pursue(a: matrices.MeasurementMatrix, live: _Live, max_iter: int) -> BatchPursuit:
    """Run every trial of live to its end."""
    outcomes: list = [None] * len(live.index)
    gram = a.cached_gram
    cap = min(max_iter, a.m)
    # Unit columns give sigma_max(A_S) >= 1 and sigma_min(A_S) <= r_jj, so a
    # pivot r_jj at or below this already fails the shared rank test.
    step_tol = numerics.rank_tolerance((a.m, cap), 1.0)
    correlations = _correlate(a, live.residual)
    for j in itertools.count():
        pick = select_column(correlations, live.y_norm)
        if j == 0:
            first_picks = pick
        stopped = (live.norm <= live.threshold) | (j >= max_iter)
        stalled = (live.picks[:j] == pick).any(axis=0)  # no progress possible
        ended = live.dependent | stopped | stalled | (j == a.m)
        if ended.any():
            _finish(a, live, j, ended, stopped | stalled, outcomes)
            live.resize(len(live.q), j, ~ended)
            if not len(live.index):
                return BatchPursuit(first_picks, outcomes)
            pick, correlations = pick[~ended], correlations[~ended]
        if j == len(live.q):
            live.resize(min(2 * j, cap), j)
        v = a.data.T[pick]  # the picked columns, one row per trial
        q = live.q[:j].swapaxes(0, 1)  # trial t's basis vectors are the rows of q[t]
        c = _project(q, v)
        v -= _rows_times(c, q)
        c2 = _project(q, v)
        v -= _rows_times(c2, q)
        c += c2
        r_jj = np.linalg.norm(v, axis=1)
        live.dependent = r_jj <= step_tol
        r_jj[live.dependent] = 1.0  # those trials end at the next step; this keeps their rows finite
        live.r[j, :, :j] = c
        live.r[j, :, j] = r_jj
        live.r[j, :, j + 1 :] = 0.0
        live.picks[j] = pick
        np.divide(v, r_jj[:, None], out=live.q[j])
        live.z[j] = z_j = (live.q[j].conj() * live.residual).sum(axis=1)
        live.residual -= z_j[:, None] * live.q[j]
        if gram is None:
            correlations = _correlate(a, live.residual)
        else:
            b_j = gram[pick]
            np.conjugate(b_j, out=b_j)  # column pick of the Hermitian Gram, A^H a_pick
            b_j -= _rows_times(c, live.b[:j].swapaxes(0, 1))
            np.divide(b_j, r_jj[:, None], out=live.b[j])
            correlations -= z_j[:, None] * live.b[j]
        live.norm = np.linalg.norm(live.residual, axis=1)
        live.trace[j] = live.norm


def _finish(a, live: _Live, k: int, ended, halted, outcomes) -> None:
    """Record the outcomes of the trials that end with k picks.

    halted marks the trials that stopped or stalled; the others that are
    neither dependent nor halted have reached m picks and need one more.
    """
    picks = live.picks[:k].T
    for i in np.flatnonzero(ended & live.dependent):
        outcomes[live.index[i]] = RankDeficientError(f"selected columns {picks[i].tolist()} are linearly dependent")
    rows = np.flatnonzero(ended & ~live.dependent)
    if not len(rows):
        return
    sound = np.ones(len(rows), dtype=bool)
    values = np.empty((len(rows), k), dtype=np.complex128)
    if k:
        r = live.r[:k, rows, :k].transpose(1, 2, 0)  # r[t][i, j] = R_ij of trial t
        # sigma(R) = sigma(A_S), and adding columns never raises sigma_min, so
        # this one test fails in the same runs as a rank test after every refit
        s = np.linalg.svd(r, compute_uv=False)
        sound = s[:, -1] > numerics.rank_tolerance((a.m, k), s[:, 0])
        fits = sound & halted[rows]
        if fits.any():
            values[fits] = np.linalg.solve(r[fits], live.z[:k, rows[fits]].T[:, :, None])[:, :, 0]
    for i, row in enumerate(rows):
        support = picks[row].tolist()
        if not sound[i]:
            outcome = RankDeficientError(f"selected columns {support} have numerical rank below {k}")
        elif not halted[row]:
            outcome = ValueError(f"pursuit needs more than m = {a.m} columns; the refit would be underdetermined")
        else:
            norm = float(live.norm[row])
            outcome = RecoveryResult(
                support=tuple(support),
                values=values[i],
                residual_norm=norm,
                iterations=k,
                converged=norm <= float(live.threshold[row]),
                residual_trace=tuple(live.trace[:k, row].tolist()),
            )
        outcomes[live.index[row]] = outcome


def _rows_times(x, y):
    """x[t] @ y[t] for every trial t, as a stack of vector-matrix products."""
    return (x[:, None, :] @ y)[:, 0]


def _project(q, v):
    """Q^H v for every trial, with Q's basis vectors as the rows of q[t]; no conjugate copy of Q."""
    return (q @ v.conj()[:, :, None])[:, :, 0].conj()


def exhaustive_l0_search(
    a: matrices.MeasurementMatrix,
    y,
    k_max: int,
    epsilon: float,
    max_subsets: int = coherence.DEFAULT_MAX_SUBSETS,
    strict: bool = False,
) -> L0Report:
    """Enumerate every support of size 1..k_max and keep the consistent ones.

    A support qualifies when its full-rank least-squares fit leaves a
    residual of at most epsilon * ||y|| and every fitted value is nonzero
    (supports that fit only by zeroing entries belong to a smaller k).
    Solutions are ordered by (size, lexicographic), so the minimal-size
    explanations come first and non-uniqueness shows up as several entries
    of the same size. Computationally infeasible beyond desk scale, which
    is exactly what the budget guard documents: only the first max_subsets
    supports are fitted (strict=True raises InfeasibleScanError instead).
    """
    vec = _measurements(a, y)
    k_max = matrices.check_int(k_max, "k_max", 1, a.m)
    epsilon = matrices.check_positive(epsilon, "epsilon")
    scan = coherence.SubsetScan(a.n, range(1, k_max + 1), max_subsets, strict)
    threshold = epsilon * float(np.linalg.norm(vec))
    solutions: list[L0Solution] = []
    for idx in scan.chunks(a.m * a.data.itemsize):
        sub = a.data[:, idx].transpose(1, 0, 2)  # (c, m, size) stack
        # one thin SVD per support gives both the rank test and x = V diag(1/s) U^H y
        u, s, vh = np.linalg.svd(sub, full_matrices=False)
        full = s[:, -1] > numerics.rank_tolerance(sub.shape[1:], s[:, 0])
        idx, sub, u, s, vh = idx[full], sub[full], u[full], s[full], vh[full]
        coef = (u.conj().transpose(0, 2, 1) @ vec) / s
        vals = (vh.conj().transpose(0, 2, 1) @ coef[..., None])[..., 0]
        residual = np.linalg.norm(vec - (sub @ vals[..., None])[..., 0], axis=1)
        consistent = (residual <= threshold) & (np.min(np.abs(vals), axis=1) > numerics.ZERO_TOL)
        for i in np.flatnonzero(consistent):
            solutions.append(L0Solution(tuple(idx[i].tolist()), vals[i].copy(), float(residual[i])))
    return L0Report(solutions, scan.scanned, scan.total, scan.complete)


def worst_case_margin(mu: float, k: int) -> MarginReport:
    """Margin arithmetic behind the sparsity bound; see MarginReport.

    detectable comes from coherence.max_sparsity, which decides the
    certificate exactly; the two margins are the floats it compares.
    """
    k = matrices.check_int(k, "sparsity k", 1)
    k_max = coherence.max_sparsity(mu)
    mu = float(mu)
    return MarginReport(
        k=k,
        mu=mu,
        signal_floor=1.0 - (k - 1) * mu,
        disturbance_ceiling=k * mu,
        detectable=k_max is None or k <= k_max,
    )


def signal_from_dict(d: dict) -> SparseSignal:
    with decoding("signal"):
        n, support, values = matrices.check_int(d["n"], "n", 1), tuple(d["support"]), pairs_to_complex(d["values"])
    return SparseSignal(n, support, values)


def measurement_to_dict(y) -> dict:
    vec = numerics.as_vector(y)
    return {"m": vec.shape[0], "data": complex_to_pairs(vec)}


def measurement_from_dict(d: dict) -> np.ndarray:
    with decoding("measurement"):
        vec, m = pairs_to_complex(d["data"]), matrices.check_int(d["m"], "m", 1)
    if vec.shape[0] != m:
        raise ValueError(f"data holds {vec.shape[0]} entries, expected m = {m}")
    return vec


def save_signal(x: SparseSignal, path) -> None:
    save_json(to_dict(x), path)


def load_signal(path) -> SparseSignal:
    return signal_from_dict(load_json(path))


def save_measurement(y, path) -> None:
    save_json(measurement_to_dict(y), path)


def load_measurement(path) -> np.ndarray:
    return measurement_from_dict(load_json(path))
