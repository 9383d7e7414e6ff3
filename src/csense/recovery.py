"""Sparse recovery chain.

Forward measurement, back-projection of measurements onto the matrix
columns (the position-detection estimate), least-squares refit on a known
support, greedy matching pursuit, the exhaustive minimal-support search
used as desk-scale ground truth, and the worst-case detection-margin
arithmetic that links coherence to a usable sparsity level.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import coherence, matrices, numerics
from .errors import DimensionMismatchError, RankDeficientError
from .serialization import complex_to_pairs, pairs_to_complex

ZERO_VALUE_TOL = 1e-14
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
        self.n = int(self.n)
        if self.n < 1:
            raise ValueError("signal length must be positive")
        support = tuple(int(i) for i in self.support)
        if len(support) < 1:
            raise ValueError("support must contain at least one index")
        if len(support) > self.n:
            raise ValueError("support larger than the signal length")
        if any(b <= a for a, b in zip(support, support[1:])):
            raise ValueError("support indices must be strictly increasing")
        if support[0] < 0 or support[-1] >= self.n:
            raise ValueError(f"support indices must lie in [0, {self.n})")
        vals = numerics.as_vector(self.values)
        if vals.shape[0] != len(support):
            raise ValueError("need exactly one value per support index")
        if float(np.min(np.abs(vals))) <= ZERO_VALUE_TOL:
            raise ValueError("nonzero entries must have magnitude above 1e-14")
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

    def to_dict(self) -> dict:
        return {
            "support": list(self.support),
            "values": complex_to_pairs(self.values),
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "residual_trace": list(self.residual_trace),
        }


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

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "mu": self.mu,
            "signal_floor": self.signal_floor,
            "disturbance_ceiling": self.disturbance_ceiling,
            "detectable": self.detectable,
        }


class L0Solution(NamedTuple):
    """One consistent sparse explanation found by the exhaustive search."""

    support: tuple[int, ...]
    values: np.ndarray
    residual: float


class L0Report(NamedTuple):
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
    return _correlate(a, _measurements(a, y))


def _correlate(a: matrices.MeasurementMatrix, vec: np.ndarray) -> np.ndarray:
    # (y^H A)^H reads A in place; A^H y would first copy the conjugate of A
    return (vec.conj() @ a.data).conj()


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
    keep = np.abs(vals) > ZERO_VALUE_TOL
    if not bool(np.any(keep)):
        raise ValueError("every fitted value is numerically zero; nothing to return")
    kept = tuple(idx for idx, flag in zip((int(i) for i in support), keep) if flag)
    return SparseSignal(a.n, kept, vals[keep])


def select_column(correlations, scale: float) -> int:
    """Lowest index whose magnitude lies within TIE_TOL * scale of the largest.

    The pursuit passes scale = ||y||: its correlations carry an absolute
    rounding error of order k * eps * ||y||, so without the tolerance the
    evaluation order, not the index, would decide near-ties.
    """
    mags = np.abs(correlations)
    return int(np.argmax(mags >= mags.max() - TIE_TOL * scale))


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

    The refit is incremental: each new column is orthogonalized against the
    earlier ones (Gram-Schmidt, applied twice), which extends a QR
    factorization A_S = Q R; the values come from one solve with the
    triangular R at the end. When the matrix already holds its Gram (as
    after coherence_index), the correlations A^H r are updated from Gram
    rows and an iteration costs O(m k + n k) after the first. Otherwise
    they are recomputed from A at O(m n) per iteration: building the Gram
    for one run would cost O(m n^2) time and n^2 memory.

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
    vec = _measurements(a, y)
    y_norm = float(np.linalg.norm(vec))  # the tie scale; run_experiment computes it the same way
    if epsilon is None:
        threshold = DEFAULT_RELATIVE_EPSILON * y_norm
    else:
        epsilon = float(epsilon)
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        threshold = epsilon * y_norm if relative else epsilon
    if max_iter is None:
        max_iter = a.m
    max_iter = int(max_iter)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    cap = min(max_iter, a.m)
    gram = a.cached_gram
    # Row j of q is the j-th orthonormal basis vector q_j of the selected span
    # and row j of b holds A^H q_j (kept only with a Gram); A_S = Q R and z = Q^H y.
    q = np.empty((cap, a.m), dtype=np.complex128)
    b = np.empty((cap, a.n), dtype=np.complex128)
    r = np.zeros((cap, cap), dtype=np.complex128)
    z = np.empty(cap, dtype=np.complex128)
    # Unit columns give sigma_max(A_S) >= 1 and sigma_min(A_S) <= r_jj, so a
    # pivot r_jj at or below this already fails the shared rank test.
    step_tol = numerics.rank_tolerance((a.m, cap), 1.0)
    selected: list[int] = []
    residual = vec.copy()
    correlations = _correlate(a, vec)
    residual_norm = y_norm
    trace: list[float] = []
    overflow = False
    while residual_norm > threshold and len(selected) < max_iter:
        pick = select_column(correlations, y_norm)
        if pick in selected:
            break  # residual is orthogonal to every useful column; no progress possible
        j = len(selected)
        if j == a.m:
            overflow = True
            break
        selected.append(pick)
        v = a.data[:, pick].copy()
        if j:
            c = (q[:j] @ v.conj()).conj()  # Q^H v without a conjugate copy of Q
            v -= c @ q[:j]
            c2 = (q[:j] @ v.conj()).conj()
            v -= c2 @ q[:j]
            c += c2
            r[:j, j] = c
        r_jj = float(np.linalg.norm(v))
        if r_jj <= step_tol:
            raise RankDeficientError(f"selected columns {selected} are linearly dependent")
        r[j, j] = r_jj
        np.divide(v, r_jj, out=q[j])
        z[j] = zj = np.vdot(q[j], residual)
        residual -= zj * q[j]
        if gram is None:
            correlations = _correlate(a, residual)
        else:
            b_j = gram[pick].conj()  # column pick of the Hermitian Gram, A^H a_pick
            if j:
                b_j -= c @ b[:j]
            np.divide(b_j, r_jj, out=b[j])
            correlations -= zj * b[j]
        residual_norm = float(np.linalg.norm(residual))
        trace.append(residual_norm)
    k = len(selected)
    values = np.zeros(0, dtype=np.complex128)
    if k:
        # sigma(R) = sigma(A_S), and adding columns never raises sigma_min, so
        # this one test fails in the same runs as a rank test after every refit
        s = np.linalg.svd(r[:k, :k], compute_uv=False)
        if s[-1] <= numerics.rank_tolerance((a.m, k), s[0]):
            raise RankDeficientError(f"selected columns {selected} have numerical rank below {k}")
        values = np.linalg.solve(r[:k, :k], z[:k])
    if overflow:
        raise ValueError(f"pursuit needs more than m = {a.m} columns; the refit would be underdetermined")
    return RecoveryResult(
        support=tuple(selected),
        values=values,
        residual_norm=residual_norm,
        iterations=k,
        converged=residual_norm <= threshold,
        residual_trace=tuple(trace),
    )


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
    k_max = int(k_max)
    if not 1 <= k_max <= a.m:
        raise ValueError(f"need 1 <= k_max <= m, got k_max={k_max}, m={a.m}")
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
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
        consistent = (residual <= threshold) & (np.min(np.abs(vals), axis=1) > ZERO_VALUE_TOL)
        for i in np.flatnonzero(consistent):
            solutions.append(L0Solution(tuple(idx[i].tolist()), vals[i].copy(), float(residual[i])))
    return L0Report(solutions, scan.scanned, scan.total, scan.complete)


def worst_case_margin(mu: float, k: int) -> MarginReport:
    """Margin arithmetic behind the sparsity bound; see MarginReport."""
    mu = float(mu)
    k = int(k)
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"coherence must lie in [0, 1], got {mu}")
    if k < 1:
        raise ValueError("sparsity k must be >= 1")
    floor = 1.0 - (k - 1) * mu
    ceiling = k * mu
    return MarginReport(
        k=k,
        mu=mu,
        signal_floor=floor,
        disturbance_ceiling=ceiling,
        detectable=floor > ceiling,
    )


def signal_to_dict(x: SparseSignal) -> dict:
    return {"n": x.n, "support": list(x.support), "values": complex_to_pairs(x.values)}


def signal_from_dict(d: dict) -> SparseSignal:
    return SparseSignal(int(d["n"]), tuple(int(i) for i in d["support"]), pairs_to_complex(d["values"]))


def measurement_to_dict(y) -> dict:
    vec = numerics.as_vector(y)
    return {"m": int(vec.shape[0]), "data": complex_to_pairs(vec)}


def measurement_from_dict(d: dict) -> np.ndarray:
    vec = pairs_to_complex(d["data"])
    if vec.shape[0] != int(d["m"]):
        raise ValueError(f'data holds {vec.shape[0]} entries, expected m = {int(d["m"])}')
    return vec


def save_signal(x: SparseSignal, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(signal_to_dict(x), fh)
        fh.write("\n")


def load_signal(path) -> SparseSignal:
    with open(path, encoding="utf-8") as fh:
        return signal_from_dict(json.load(fh))


def save_measurement(y, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(measurement_to_dict(y), fh)
        fh.write("\n")


def load_measurement(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return measurement_from_dict(json.load(fh))
