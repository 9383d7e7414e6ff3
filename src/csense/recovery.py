"""Sparse recovery chain.

Forward measurement, back-projection of measurements onto the matrix
columns (the position-detection estimate), least-squares refit on a known
support, greedy matching pursuit, the exhaustive minimal-support search
used as desk-scale ground truth, and the worst-case detection-margin
arithmetic that links coherence to a usable sparsity level.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import coherence, matrices, numerics
from .errors import DimensionMismatchError, RankDeficientError
from .serialization import complex_to_pairs, decoding, load_json, pairs_to_complex, save_json, to_dict

DEFAULT_RELATIVE_EPSILON = 1e-10
# Correlation magnitudes within TIE_TOL * ||y|| of the largest count as tied.
TIE_TOL = 1e-12


@dataclass(eq=False, frozen=True)
class SparseSignal:
    """Length-n vector with k >= 1 nonzero entries at an explicit support.

    The record is frozen and values is read-only and shares no memory a caller can write, as a MeasurementMatrix's data does.
    """

    n: int
    support: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        n = matrices.check_int(self.n, "signal length", 1)
        support = matrices.check_indices(self.support, n, "support")
        if not support:
            raise ValueError("support must contain at least one index")
        vals = numerics.as_vector(self.values)
        if vals.shape[0] != len(support):
            raise ValueError("need exactly one value per support index")
        if float(np.min(np.abs(vals))) <= numerics.ZERO_TOL:
            raise ValueError(f"nonzero entries must have magnitude above {numerics.ZERO_TOL:g}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", numerics.read_only_copy(vals, self.values))

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
    norm after each least-squares refit. In exact arithmetic a refit cannot
    raise it, but a pick of zero correlation (the lowest index wins an
    all-zero tie) leaves it unchanged, so the trace need not strictly fall.
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
    """y = A x: measure_batch on a stack of one signal."""
    _check_signal_length(a, x)
    return measure_batch(a, np.array([x.support]), x.values[None])[0]


def measure_batch(a: matrices.MeasurementMatrix, supports: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The (T, m) stack of y = A x, row t for the signal with values[t] at the columns supports[t].

    Each row is a.data @ x for that signal's dense x, a matrix-vector product
    of its own, so a signal measured in any stack gets the bits it gets
    alone; one matrix product for the whole stack would round differently.
    """
    dense = np.zeros((len(supports), a.n), dtype=np.complex128)
    np.put_along_axis(dense, supports, values, axis=1)
    return (a.data @ dense[:, :, None])[:, :, 0]


def back_project(a: matrices.MeasurementMatrix, y) -> np.ndarray:
    """Initial position estimate A^H y (length n), the pursuit's first correlations."""
    return _correlate(a, _measurements(a, y)[None])[0]


def _correlate(a: matrices.MeasurementMatrix, rows: np.ndarray) -> np.ndarray:
    """A^H r for every row r of a stack, each row on its own.

    (r^H A)^H reads A in place; A^H r would first copy the conjugate of A.
    """
    return _rows_times(rows.conj(), a.data).conj()


def _dft_correlate(spread: np.ndarray, rows: np.ndarray, residuals: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A^H r for every row r of a stack, on the partial DFT with these rows: the FFT of r / sqrt(m) at its rows, written to out.

    Entry k of the n-point FFT of x is sum_j x_j exp(-2j pi j k / n), and
    column k of A holds exp(2j pi r k / n) / sqrt(m) at row r. spread is a
    zeroed (T, n) buffer; only the columns rows are written, so it stays
    zero elsewhere from call to call.
    """
    spread[:, rows] = residuals / math.sqrt(residuals.shape[1])
    return np.fft.fft(spread, axis=1, out=out)


def decompose_initial_estimate(a: matrices.MeasurementMatrix, x: SparseSignal) -> InitialEstimate:
    """Back-projected estimate split into per-source additive components.

    Component i is the Gram column A^H a_i at support index i, computed alone
    (no Gram is built), scaled by the i-th value; they sum to A^H A x. This
    is the data behind stacked component bar plots of the estimate.
    """
    _check_signal_length(a, x)
    components = _correlate(a, a.data[:, list(x.support)].T).T * x.values[None, :]
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
    return pursue_batch(a, _measurements(a, y)[None], epsilon, max_iter).result(0)


class BatchPursuit(NamedTuple):
    """Result of pursue_batch, one entry or row per row t of the measurement stack.

    first_picks[t] is trial t's first selection, also if it stopped before
    its first iteration or raised. picks, values and traces (support in
    selection order, fitted values, residual norm after each step) are read
    up to iterations[t]. errors maps each trial that raised to its
    RankDeficientError; the other arrays are unread for it.
    """

    first_picks: np.ndarray
    iterations: np.ndarray
    residual_norms: np.ndarray
    converged: np.ndarray
    picks: np.ndarray
    values: np.ndarray
    traces: np.ndarray
    errors: dict

    def result(self, t: int) -> RecoveryResult:
        """Trial t as matching_pursuit returns it; raises the trial's error instead if it has one."""
        t = range(len(self.iterations))[t]  # errors is keyed by row, so -1 must become the last row
        if t in self.errors:
            raise self.errors[t]
        k = int(self.iterations[t])
        support, trace = tuple(self.picks[t, :k].tolist()), tuple(self.traces[t, :k].tolist())
        norm, converged = float(self.residual_norms[t]), bool(self.converged[t])
        return RecoveryResult(support, self.values[t, :k], norm, k, converged, trace)

    def rows(self, start: int, stop: int) -> "BatchPursuit":
        """Trials start to stop as a BatchPursuit of their own: views of these rows, errors keyed from 0."""
        errors = {t - start: error for t, error in self.errors.items() if start <= t < stop}
        return BatchPursuit(*(array[start:stop] for array in self[:-1]), errors)


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
    triangular R at the end. The shared rank test on R's singular values
    runs then too: a floor read off R's entries, |det R| = prod r_jj
    bounded by the AM-GM inequality, clears almost every R, and only the
    others go to an SVD, which decides exactly as it would for every R.

    The correlations A^H r only choose the picks: the refit, the residuals,
    the rank tests and the values all come from the stored columns, so two
    sources that give the same picks give the same run bit for bit. They
    come from one of two sources:
    - a partial DFT (a.dft_rows): each residual, divided by sqrt(m), is
      scattered to its rows of a zeroed length-n vector, whose FFT is A^H r,
      at O(T n log n) per iteration. pocketfft's error, of order
      u log2(n) sqrt(n / m) ||r|| (below 1e-13 ||r|| for n <= 4096), lies
      far below TIE_TOL ||y||, and it runs no BLAS and no threads, so the
      FFT adds no rounding that depends on the BLAS thread count to the
      picks;
    - any other matrix: they are recomputed from A at O(T m n) per
      iteration, and no Gram is built.

    Every product is taken row by row, so a trial computes the same numbers
    in any batch as alone. A step holds at most step_bytes(a) per trial.
    """
    stack = numerics.as_matrix(ys)
    if stack.shape[1] != a.m:
        raise DimensionMismatchError(f"measurement length {stack.shape[1]} != row count {a.m}")
    y_norms = np.linalg.norm(stack, axis=1)
    thresholds = matrices.check_positive(epsilon, "epsilon") * y_norms
    max_iter = a.m if max_iter is None else matrices.check_int(max_iter, "max_iter", 1, a.m)
    return _pursue(a, stack, y_norms, thresholds, max_iter)


def step_bytes(a: matrices.MeasurementMatrix) -> int:
    """The most one pursue_batch step holds per trial: 2m + n complex values.

    m for the basis vector the step adds and m for its column of R, which is
    only as wide as the room for steps (doubled when it runs out, up to
    max_iter), so the rule over-counts R before m / 2 steps; n for the
    trial's row of the correlations A^H r and, on a partial DFT, of the FFT
    buffer. A trial that ends keeps its row, unread, until the batch ends.
    """
    return (2 * a.m + a.n) * a.data.itemsize


class _Live:
    """State of the trials of a batch.

    The per-trial arrays hold one entry per trial. The step arrays hold one
    row per step, each with one entry per trial: q[i, t] is the i-th
    orthonormal basis vector of trial t's selected span, r[j, t] holds column
    j of trial t's R (A_S = Q R), z[i, t] = q[i, t]^H y and x[i, t] the i-th
    fitted value, written when the trial ends. Their room for steps doubles
    when it runs out. R's columns are as wide as that room: column j has
    j + 1 entries, and the zeros below them are those r is made with.
    """

    def __init__(self, a: matrices.MeasurementMatrix, ys, y_norms, thresholds):
        t = len(ys)
        self.y_norm, self.threshold = y_norms, thresholds
        self.residual = ys.copy()
        self.norm = y_norms.copy()
        self.dependent = np.zeros(t, dtype=bool)  # the last pick failed the pivot test
        self.done = np.zeros(t, dtype=bool)
        self.iterations = np.zeros(t, dtype=np.intp)
        self.final_norm = np.empty(t)  # norm when the trial ended; ended rows keep running, unread
        self.errors: dict[int, RankDeficientError] = {}
        self.picks = np.empty((1, t), dtype=np.intp)
        self.q = np.empty((1, t, a.m), dtype=np.complex128)
        self.r = np.zeros((1, t, 1), dtype=np.complex128)
        self.z = np.empty((1, t), dtype=np.complex128)
        self.x = np.empty((1, t), dtype=np.complex128)
        self.trace = np.empty((1, t))

    def resize(self, room: int, taken: int) -> None:
        """Give the step arrays room for room steps, keeping the taken ones; R also grows room wide."""
        for name in ("picks", "q", "z", "x", "trace"):
            value = getattr(self, name)
            new = np.empty((room,) + value.shape[1:], dtype=value.dtype)
            new[:taken] = value[:taken]
            setattr(self, name, new)
        r = np.zeros((room, self.r.shape[1], room), dtype=np.complex128)
        r[:taken, :, :taken] = self.r[:taken, :, :taken]
        self.r = r


def _pursue(a: matrices.MeasurementMatrix, ys, y_norms, thresholds, max_iter: int) -> BatchPursuit:
    """Run every trial to its end, with the correlations from one source picked before the first step:
    one FFT per step on a partial DFT, into one buffer every step overwrites, else A."""
    rows = a.dft_rows
    live = _Live(a, ys, y_norms, thresholds)
    # Unit columns give sigma_max(A_S) >= 1 and sigma_min(A_S) <= r_jj, so a
    # pivot r_jj at or below this already fails the shared rank test.
    step_tol = numerics.rank_tolerance((a.m,), 1.0)
    if rows is None:
        correlate = functools.partial(_correlate, a)
    else:
        spread = np.zeros((len(ys), a.n), dtype=np.complex128)
        correlate = functools.partial(_dft_correlate, spread, np.array(rows), out=np.empty_like(spread))
    correlations = correlate(live.residual)
    for j in itertools.count():
        pick = select_column(correlations, live.y_norm)
        if j == 0:
            first_picks = pick
        stopped = (live.norm <= live.threshold) | (j >= max_iter)
        stalled = (live.picks[:j] == pick).any(axis=0)  # no progress possible
        ended = ~live.done & (live.dependent | stopped | stalled)
        if ended.any():
            _finish(a, live, j, ended)
            if live.done.all():
                steps = (np.ascontiguousarray(s[:j].T) for s in (live.picks, live.x, live.trace))
                converged = live.final_norm <= live.threshold
                return BatchPursuit(first_picks, live.iterations, live.final_norm, converged, *steps, live.errors)
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
        live.picks[j] = pick
        np.divide(v, r_jj[:, None], out=live.q[j])
        live.z[j] = z_j = (live.q[j].conj() * live.residual).sum(axis=1)
        live.residual -= z_j[:, None] * live.q[j]
        correlations = correlate(live.residual)
        live.norm = np.linalg.norm(live.residual, axis=1)
        live.trace[j] = live.norm


def _finish(a, live: _Live, k: int, ended) -> None:
    """Record the trials that end with k picks.

    The rank test of a trial's k x k factor R is the shared one on its SVD.
    _surely_full_rank first clears every R whose floor under sigma_min
    passes that test for any SVD within the allowance, so the SVD runs only
    on the others, and every decision, error and value is what the SVD of
    every R gives.
    """
    live.done |= ended
    live.iterations[ended] = k
    live.final_norm[ended] = live.norm[ended]
    picks = live.picks[:k]
    for t in np.flatnonzero(ended & live.dependent).tolist():
        live.errors[t] = RankDeficientError(f"selected columns {picks[:, t].tolist()} are linearly dependent")
    rows = np.flatnonzero(ended & ~live.dependent)
    if not k or not len(rows):
        return
    r = live.r[:k, rows, :k].transpose(1, 2, 0)  # r[t][i, j] = R_ij of trial t
    # sigma(R) = sigma(A_S), and adding columns never raises sigma_min, so
    # this one test fails in the same runs as a rank test after every refit
    sound = _surely_full_rank(r, a.m)
    unsure = ~sound
    if unsure.any():
        s = np.linalg.svd(r[unsure], compute_uv=False)
        sound[unsure] = s[:, -1] > numerics.rank_tolerance((a.m, k), s[:, 0])
    for t in rows[~sound].tolist():
        live.errors[t] = RankDeficientError(f"selected columns {picks[:, t].tolist()} have numerical rank below {k}")
    if sound.any():
        live.x[:k, rows[sound]] = np.linalg.solve(r[sound], live.z[:k, rows[sound]].T[:, :, None])[:, :, 0].T


def _rank_bounds(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(floor, ceiling, delta): for each k x k upper-triangular R of a stack, with a real positive
    diagonal, sigma_min(R) >= floor (1 - delta) and sigma_max(R) <= ||R||_F <= ceiling (1 + delta).

    R is triangular, so the product of its singular values is |det R| =
    prod_j r_jj. The other k - 1 squared singular values sum to at most
    ||R||_F^2, so by the AM-GM inequality their product is at most
    (||R||_F^2 / (k - 1))^(k - 1), and
    sigma_min >= prod_j r_jj ((k - 1) / ||R||_F^2)^((k - 1) / 2)
    = F prod_j (r_jj / F) (k - 1)^((k - 1) / 2), F = ||R||_F,
    which for k = 1 is r_11 itself. floor is that value as computed, with the
    ceiling F^ = sqrt(f^) for F. With u = 2^-53:
    - f^ sums the k^2 values re^2 + im^2: each square within u, relative,
      or, where it is subnormal, within u tiny (tiny = 2^-1022), absolute,
      and the sum within (k^2 - 1)u. So where f^ >= tiny it lies within
      (3k^2 + 2)u of ||R||_F^2, relative, and F^ within (2k^2 + 2)u of F;
    - each ratio r_jj / F^ is at most 1 + delta, so a partial product of the
      ratios below tiny, in any order, would leave their product p^ below
      2 tiny. Where p^ >= 2 tiny none underflowed, and every rounding below
      is within u, relative;
    - (k - 1)^((k - 1) / 2) is the product of k - 1 copies of sqrt(k - 1),
      with k - 1 roundings;
    - F^ enters the floor to the power 1 - k, and the divisions, the products
      and the two last multiplications make 3k roundings, so floor lies
      within 2(k - 1)(2k^2 + 2)u + 4ku <= delta = 4(k + 1)^3 u of the exact
      bound, relative.
    The squares of the ratios sum to at most (1 + delta)^2, so the AM-GM
    inequality again gives p^ <= k^(-k/2)(1 + delta)^(2k), below 2 tiny for
    every k > 255, where the power of sqrt(k - 1) may overflow: there, and
    wherever f^ < tiny or p^ < 2 tiny, floor is 0. delta stays under 1e-8
    wherever floor is not 0.
    """
    k = r.shape[-1]
    frob_sq = (r.real**2 + r.imag**2).sum(axis=(1, 2))
    ceiling = np.sqrt(frob_sq)
    p = (np.diagonal(r, axis1=1, axis2=2).real / ceiling[:, None]).prod(axis=1)
    tiny = np.finfo(np.float64).tiny
    normal = (p >= 2.0 * tiny) & (frob_sq >= tiny)
    spread = math.prod([math.sqrt(k - 1)] * (k - 1))
    floor = np.zeros_like(p)
    np.multiply(ceiling * p, spread, out=floor, where=normal)
    return floor, ceiling, 4.0 * (k + 1) ** 3 * numerics.UNIT_ROUNDOFF


def _surely_full_rank(r: np.ndarray, m: int) -> np.ndarray:
    """Mask of the k x k factors R of a stack (real positive diagonals) whose SVD surely passes the shared rank test.

    The test passes when s_min > rank_tolerance((m, k), s_max) for the
    computed singular values s. The SVD returns each singular value within
    a ||R||_2 <= a F of the exact one, a = coherence.factor_allowance(k, k)
    (F = ||R||_F), so s_max <= (1 + a) F and s_min >= sigma_min - a F, and
    the tolerance, M eps s_max with M = max(m, k) and one rounding, is at
    most M eps (1 + a)(1 + u) F. By _rank_bounds the test then passes when
    floor (1 - delta) > (1 + delta) ceiling (a + M eps (1 + a)(1 + u)). As
    a <= delta / 2 and u <= delta / 16, that holds when
    floor > ceiling (a + M eps)(1 + 4 delta), with room for the roundings
    of this product.
    """
    k = r.shape[-1]
    floor, ceiling, delta = _rank_bounds(r)
    edge = (coherence.factor_allowance(k, k) + numerics.rank_tolerance((m, k), 1.0)) * (1.0 + 4.0 * delta)
    return floor > ceiling * edge


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
    it needs no fit and is not counted in scanned or total. Where ||y||
    computes to 0 (y = 0, or ||y||^2 underflows) it is the only solution, as
    the pursuit then picks nothing, and no support is fitted. Any other
    support qualifies when its full-rank least-squares fit leaves a residual
    of at most epsilon * ||y|| and every fitted value is above ZERO_TOL *
    ||y|| in magnitude (supports that fit only by zeroing entries belong to
    a smaller k). Both tests scale with y, as the pursuit's do.
    Solutions are ordered by (size, lexicographic), so the minimal-size
    explanations come first and non-uniqueness shows up as several entries
    of the same size. Computationally infeasible beyond desk scale, which
    is exactly what the budget guard documents: only the first max_subsets
    supports are fitted, and complete says whether that was all of them.

    Every solution comes from _fit, on a stack of the supports that need it.
    The Gram block of each support's columns and the squared magnitudes of
    A^H v, v = y / ||y||, from one product per search, first clear the
    supports that _fit would surely reject (_fits_out): Gershgorin's bound
    on the block and a Schur complement bound, with no eigensolver. Those
    supports are not fitted. A chunk's sub-matrices and the U factors _fit
    makes of them fit SCAN_CHUNK_BYTES together, so they get half of it, as
    its Gram blocks do (coherence._chunk_length, every scan's chunk rule).
    """
    vec = _measurements(a, y)
    k_max = matrices.check_int(k_max, "k_max", 1, a.m)
    epsilon = matrices.check_positive(epsilon, "epsilon")
    scan = coherence.SubsetScan(a.n, range(1, k_max + 1), max_subsets)
    y_norm = float(np.linalg.norm(vec))
    empty = L0Solution((), np.zeros(0, dtype=np.complex128), y_norm)
    if not y_norm:
        return L0Report([empty], scan.scanned, scan.total, scan.complete)
    solutions = [empty] if y_norm <= epsilon * y_norm else []
    v = vec / y_norm
    b = _correlate(a, v[None])[0]
    border = (b.real**2 + b.imag**2, float(np.vdot(v, v).real))  # one product per search
    for idx in scan.chunks(2 * a.m * a.data.itemsize):
        idx, vals, residual = _fit_chunk(a, idx, vec, border, epsilon)
        consistent = (residual <= epsilon * y_norm) & (np.min(np.abs(vals), axis=1) > numerics.ZERO_TOL * y_norm)
        for i in np.flatnonzero(consistent):
            solutions.append(L0Solution(tuple(idx[i].tolist()), vals[i].copy(), float(residual[i])))
    return L0Report(solutions, scan.scanned, scan.total, scan.complete)


def _fit_chunk(a: matrices.MeasurementMatrix, idx: np.ndarray, vec, border, epsilon: float):
    """One chunk of the l0 search: the full-rank supports _fit took, with their values and residuals.

    border is (|A^H v|^2 entrywise, v^H v) for v = y / ||y||, ||y|| > 0, and
    _fits_out first clears the supports _fit would surely reject. The
    chunk's arrays go when it returns.
    """
    rows = a.data.T[idx]  # rows[i] holds the columns of support i as its rows
    keep = ~_fits_out(rows, border[0][idx].sum(axis=1), border[1], a.m, epsilon)
    if not keep.all():
        idx, rows = idx[keep], rows[keep]
    full, vals, residual = _fit(rows.transpose(0, 2, 1), vec)  # a (c, m, size) stack
    return idx[full], vals, residual


def _fits_out(rows, b_sq, corner: float, m: int, epsilon: float) -> np.ndarray:
    """Mask of the supports S whose _fit surely fails the residual test, from the Gram block of A_S and ||A_S^H v||^2.

    v is y / ||y|| as computed, b_sq holds ||b^||^2 for the computed b^ =
    A_S^H v, summed from its squared magnitudes, and corner is v^H v as
    computed. v's norm is within (m + 4)u of 1, below COLUMN_NORM_TOL for
    any m under 10^5, so it is at most rho = 1 + COLUMN_NORM_TOL like a
    column's, and each entry of b^ and the corner lie within gamma rho^2 of
    the exact b = A_S^H v and c = v^H v (coherence.gamma).
    sigma^2 = min(lam, dist^2), sigma >= 0, bounds sigma_min(A_S)^2 and the
    squared distance of v from the span of A_S from below:
    - lam = coherence.gershgorin_floor of the Gram block G_S is at most
      lambda_min(G_S) = sigma_min(A_S)^2;
    - when lam > 0 that distance squared is the Schur complement
      c - b^H G_S^-1 b >= c - ||b||^2 / lam. With ||b|| <= ||b^|| + sqrt(s)
      gamma rho^2 and ||b^|| <= sqrt(s) (1 + gamma) rho^2 it is at least
      dist^2 = corner - (b_sq + 3 s gamma rho^4) / lam - gamma rho^2
      - 2 (s + 10) u rho^2. The last term covers the roundings of b_sq
      (each square within 3u, relative, their sum within (s - 1)u more), of
      the quotient and of the differences, which the quotient, below
      corner < 2 rho^2 wherever dist^2 > 0, keeps under 2 (s + 8) u rho^2,
      and of the square root of sigma^2.
    Then:
    - v is y / ||y|| within u ||v||, so the exact residual r of y is at
      least ||y|| (sigma - 2u);
    - the SVD in _fit returns sigma_min(A_S) within d
      (coherence.singular_value_allowance), so for sigma >= 2d the fitted x
      has ||x|| <= 5 ||y|| / sigma, and the computed residual of y - A_S x
      lies within 2 gamma sqrt(t) ||x|| + 2u ||y|| of its exact value, which
      is at least r (t = coherence.frobenius_sq(s) >= ||A_S||_F^2);
    - _fit's residual then exceeds epsilon ||y|| whenever
      sigma (sigma - 2 epsilon - 8u) > 10 gamma sqrt(t); the factor 2 on
      epsilon and the spare 4u cover the roundings of the test. Whatever
      the rank test then says, the support is rejected.
    """
    s = rows.shape[1]
    lam = coherence.gershgorin_floor(numerics.gram_blocks(rows), m)
    g_num, g_den = coherence.gamma(m)
    gam, rho_sq, u = g_num / g_den, coherence.frobenius_sq(1), numerics.UNIT_ROUNDOFF
    with np.errstate(divide="ignore"):  # lam = 0 gives dist^2 = -inf; lam < 0 leaves sigma = 0 anyway
        dist_sq = corner - (b_sq + 3.0 * s * gam * rho_sq**2) / lam - rho_sq * (gam + 2.0 * (s + 10) * u)
    sigma = np.sqrt(np.maximum(np.minimum(lam, dist_sq), 0.0))
    slack = 10.0 * gam * math.sqrt(coherence.frobenius_sq(s))
    return (sigma >= 2.0 * coherence.singular_value_allowance(m, s)) & (sigma * (sigma - 2.0 * epsilon - 8.0 * u) > slack)


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
