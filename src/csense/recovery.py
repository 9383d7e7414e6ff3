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

    The fit is exhaustive_l0_search's, so both give the same values for
    one support. Fitted entries with magnitude at or below ZERO_TOL * ||y||
    are dropped from the returned support, so a consistent system with
    extra candidate indices comes back with exact zeros pruned, at any scale
    of y.

    Raises
    ------
    RankDeficientError
        If the selected columns are linearly dependent; for this support
        the measurements cannot pin down a unique coefficient vector.
    ValueError
        If the support is not a strictly increasing set of 1 to m column
        indices, or if every fitted value is numerically zero.
    """
    idx = matrices.check_indices(support, a.n, "support")
    matrices.check_int(len(idx), "support size", 1, a.m)
    vec = _measurements(a, y)
    full, vals, _ = _fit(a.data[:, idx][None], vec)
    if not full[0]:
        raise RankDeficientError(f"selected columns {list(idx)} are linearly dependent")
    keep = np.abs(vals[0]) > numerics.ZERO_TOL * np.linalg.norm(vec)
    if not bool(np.any(keep)):
        raise ValueError("every fitted value is numerically zero; nothing to return")
    return SparseSignal(a.n, tuple(itertools.compress(idx, keep)), vals[0][keep])


def _fit(sub, vec):
    """Least-squares fit of vec on every (m, size) matrix of a stack, by one thin SVD each.

    Returns the mask of the matrices that pass the shared rank test and, for
    those only, the values x = V diag(1/s) U^H vec and the residual norms.
    """
    u, s, vh = np.linalg.svd(sub, full_matrices=False)
    full = s[:, -1] > numerics.rank_tolerance(sub.shape[1:], s[:, 0])
    sub, u, s, vh = sub[full], u[full], s[full], vh[full]
    coef = (u.conj().transpose(0, 2, 1) @ vec) / s
    vals = (vh.conj().transpose(0, 2, 1) @ coef[..., None])[..., 0]
    residual = np.linalg.norm(vec - (sub @ vals[..., None])[..., 0], axis=1)
    return full, vals, residual


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
    epsilon: float = DEFAULT_RELATIVE_EPSILON,
    max_iter: int | None = None,
) -> RecoveryResult:
    """Greedy sparse reconstruction (orthogonal matching pursuit).

    Repeats until the residual norm drops to epsilon * ||y||: pick the
    column with the largest back-projected residual magnitude (select_column:
    lowest index among magnitudes within 1e-12 * ||y|| of the largest), add
    it to the selected set, least-squares refit on all selected columns, and
    recompute the residual.

    This is pursue_batch on a stack of one measurement vector; see there
    for how the refit and the correlations are updated.

    Parameters
    ----------
    a : MeasurementMatrix
    y : array-like
        Measurement vector of length a.m.
    epsilon : float
        Stopping threshold on the residual l2 norm, relative to ||y||, so
        x and c * x give the same run.
    max_iter : int, optional
        Iteration cap, 1 to a.m; defaults to a.m (further columns cannot
        be independent).

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
        On invalid arguments, max_iter outside [1, a.m] included.
    """
    (outcome,) = pursue_batch(a, _measurements(a, y)[None], epsilon, max_iter).outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class BatchPursuit(NamedTuple):
    """Result of pursue_batch, one entry per row of the measurement stack.

    first_picks holds each trial's first selection, also for trials that
    stopped before their first iteration or raised. outcomes holds a
    RecoveryResult, or the RankDeficientError that matching_pursuit
    raises for that row.
    """

    first_picks: np.ndarray
    outcomes: list


def pursue_batch(
    a: matrices.MeasurementMatrix,
    ys,
    epsilon: float = DEFAULT_RELATIVE_EPSILON,
    max_iter: int | None = None,
) -> BatchPursuit:
    """matching_pursuit on every row of a (T, m) stack of measurement vectors.

    The arguments mean what they mean for matching_pursuit, with epsilon
    relative to each row's own norm. The trials run as one batch (Batch-OMP):
    every trial still running at step j has exactly j picks, so each
    iteration is a few array operations over all of them.

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
    the room for steps doubles when it runs out. A trial that ends is
    recorded at that step and keeps its row, unread, until the whole batch
    ends.
    """
    stack = numerics.as_matrix(ys)
    if stack.shape[1] != a.m:
        raise DimensionMismatchError(f"measurement length {stack.shape[1]} != row count {a.m}")
    y_norms = np.linalg.norm(stack, axis=1)
    thresholds = matrices.check_positive(epsilon, "epsilon") * y_norms
    max_iter = a.m if max_iter is None else matrices.check_int(max_iter, "max_iter", 1, a.m)
    return _pursue(a, _Live(a, stack, y_norms, thresholds), max_iter)


class _Live:
    """State of the trials of a batch.

    The per-trial arrays hold one row per trial. The step arrays hold one
    row per step, each with one entry per trial: q[i, t] is the i-th
    orthonormal basis vector of trial t's selected span, b[i, t] = A^H q[i, t]
    (kept only with a Gram), r[j, t] holds column j of trial t's R (A_S = Q R)
    and z[i, t] = q[i, t]^H y. Their room for steps doubles when it runs out.
    """

    def __init__(self, a: matrices.MeasurementMatrix, ys, y_norms, thresholds):
        t = len(ys)
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

    def resize(self, room: int, taken: int) -> None:
        """Give the step arrays room for room steps, keeping the taken ones."""
        for name in ("picks", "q", "b", "r", "z", "trace"):
            value = getattr(self, name)
            if value is not None:
                new = np.empty((room,) + value.shape[1:], dtype=value.dtype)
                new[:taken] = value[:taken]
                setattr(self, name, new)


def _pursue(a: matrices.MeasurementMatrix, live: _Live, max_iter: int) -> BatchPursuit:
    """Run every trial of live to its end."""
    outcomes: list = [None] * len(live.norm)
    done = np.zeros(len(outcomes), dtype=bool)
    gram = a.cached_gram
    # Unit columns give sigma_max(A_S) >= 1 and sigma_min(A_S) <= r_jj, so a
    # pivot r_jj at or below this already fails the shared rank test.
    step_tol = numerics.rank_tolerance((a.m, max_iter), 1.0)
    correlations = _correlate(a, live.residual)
    for j in itertools.count():
        pick = select_column(correlations, live.y_norm)
        if j == 0:
            first_picks = pick
        stopped = (live.norm <= live.threshold) | (j >= max_iter)
        stalled = (live.picks[:j] == pick).any(axis=0)  # no progress possible
        ended = ~done & (live.dependent | stopped | stalled)
        if ended.any():
            _finish(a, live, j, ended, outcomes)
            done |= ended
            if done.all():
                return BatchPursuit(first_picks, outcomes)
        if j == len(live.q):
            live.resize(min(2 * j, max_iter), j)
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


def _finish(a, live: _Live, k: int, ended, outcomes) -> None:
    """Record the outcomes of the trials that end with k picks."""
    picks = live.picks[:k].T
    for i in np.flatnonzero(ended & live.dependent):
        outcomes[i] = RankDeficientError(f"selected columns {picks[i].tolist()} are linearly dependent")
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
        if sound.any():
            values[sound] = np.linalg.solve(r[sound], live.z[:k, rows[sound]].T[:, :, None])[:, :, 0]
    for i, row in enumerate(rows):
        support = picks[row].tolist()
        if not sound[i]:
            outcome = RankDeficientError(f"selected columns {support} have numerical rank below {k}")
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
        outcomes[row] = outcome


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
    epsilon: float = DEFAULT_RELATIVE_EPSILON,
    max_subsets: int = coherence.DEFAULT_MAX_SUBSETS,
) -> L0Report:
    """Enumerate every support of size 0..k_max and keep the consistent ones.

    The empty support qualifies when ||y|| <= epsilon * ||y|| (y = 0, or
    epsilon >= 1), the rule by which the pursuit stops before its first pick;
    it needs no fit and is not counted in scanned or total. Any other
    support qualifies when its full-rank least-squares fit leaves a residual
    of at most epsilon * ||y|| and every fitted value is above ZERO_TOL *
    ||y|| in magnitude (supports that fit only by zeroing entries belong to
    a smaller k). Both tests scale with y, as the pursuit's do.
    Solutions are ordered by (size, lexicographic), so the minimal-size
    explanations come first and non-uniqueness shows up as several entries
    of the same size. Computationally infeasible beyond desk scale, which
    is exactly what the budget guard documents: only the first max_subsets
    supports are fitted, and complete says whether that was all of them.
    """
    vec = _measurements(a, y)
    k_max = matrices.check_int(k_max, "k_max", 1, a.m)
    epsilon = matrices.check_positive(epsilon, "epsilon")
    scan = coherence.SubsetScan(a.n, range(1, k_max + 1), max_subsets)
    y_norm = float(np.linalg.norm(vec))
    solutions = [L0Solution((), np.zeros(0, dtype=np.complex128), y_norm)] if y_norm <= epsilon * y_norm else []
    for idx in scan.chunks(a.m * a.data.itemsize):
        full, vals, residual = _fit(a.data[:, idx].transpose(1, 0, 2), vec)  # a (c, m, size) stack
        idx = idx[full]
        consistent = (residual <= epsilon * y_norm) & (np.min(np.abs(vals), axis=1) > numerics.ZERO_TOL * y_norm)
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
