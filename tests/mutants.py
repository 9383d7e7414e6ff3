"""Hand-made mutants of csense's rounding allowances and screens, with the outcomes recorded for them.

Each entry names a file of the csense package, a text that occurs exactly
once in it, the text that replaces it, the tests run against the mutated
copy (at each of the hypothesis seeds, if any), and what they did: killed
(some test failed) or survived (every test passed). A survivor is an
allowance or a condition that no test yet shows to be needed; ROADMAP item
14 asks either for a test that kills it or for the reason it cannot be
killed. test_mutant_table.py checks that every old text still occurs once,
so an edit of the code cannot leave an entry pointing at nothing.

Stdlib only; nothing here applies a mutant.
"""
from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the csense package
    old: str
    new: str
    tests: tuple[str, ...]
    seeds: tuple[int, ...]  # hypothesis seeds; () for the default one
    outcome: str  # "killed" or "survived"
    note: str


# the test files the allowance mutants of the scans and the oracle run against (297 tests)
SCAN_TESTS = (
    "tests/test_scan_engine.py",
    "tests/test_coherence.py",
    "tests/test_golden.py",
    "tests/test_cli.py",
    "tests/test_recovery.py",
    "tests/test_acceptance.py",
)
SCREEN_PROPERTY = ("tests/test_scan_engine.py::test_the_oracle_screen_clears_only_supports_the_fit_rejects",)
SQUARE_SUPPORT = "tests/test_scan_engine.py::test_the_oracle_screen_keeps_a_square_support_that_spans_y"
STRIP_SCREEN_TESTS = (
    "tests/test_numerics.py::test_the_strip_screen_keeps_extremes_within_its_allowance",
    "tests/test_numerics.py::test_a_real_walk_summed_in_another_order_still_keeps_the_complex_extreme",
    "tests/test_numerics.py::test_a_screened_real_frame_reports_as_the_unscreened_walk",
)
RANK_PROPERTY = ("tests/test_pursuit_engine.py::test_the_rank_screen_clears_only_factors_the_svd_passes",)
SCHUR_BOUND = "corner - (b_sq + 3.0 * s * gam * rho_sq**2) / lam - rho_sq * (gam + 2.0 * (s + 10) * u)"
QUOTIENT = "(b_sq + 3.0 * s * gam * rho_sq**2) / lam"
FLOOR = "np.multiply(ceiling * p, spread, out=floor, where=normal)"

MUTANTS = (
    Mutant(
        "gamma-zero",
        "coherence.py",
        "return m + 4, 2**53 - (m + 4)",
        "return 0, 2**53 - (m + 4)",
        ("tests/test_coherence.py::test_upper_bound_covers_the_rounding_allowance",),
        (),
        "killed",
        "coherence_upper_bound without its allowance falls below the exact coherence",
    ),
    Mutant(
        "block-spectra-e-zero",
        "coherence.py",
        "e = 2.0 * frobenius_sq(s) * (gam + factor_allowance(s, s) * (1.0 + gam))",
        "e = 0.0",
        SCAN_TESTS,
        (),
        "killed",
        "9 scan tests fail",
    ),
    Mutant(
        "fits-out-no-quotient-by-lam",
        "recovery.py",
        QUOTIENT,
        "(b_sq + 3.0 * s * gam * rho_sq**2)",
        SCREEN_PROPERTY + (SQUARE_SUPPORT,),
        (0, 1, 2, 3, 4, 5),
        "killed",
        "the screen clears supports whose fit passes; the property alone kills it at seeds 1, 3, 4 and 5, "
        "and its seed-1 case, pinned as a plain test, at every seed",
    ),
    Mutant(
        "fits-out-quotient-times-0.9",
        "recovery.py",
        QUOTIENT,
        "0.9 * (b_sq + 3.0 * s * gam * rho_sq**2) / lam",
        SCREEN_PROPERTY,
        (0, 1, 2, 3, 4, 5),
        "killed",
        "the screen clears supports whose fit passes",
    ),
    Mutant(
        "fits-out-no-minimum-with-lam",
        "recovery.py",
        "np.minimum(lam, dist_sq)",
        "dist_sq",
        SCREEN_PROPERTY,
        (0, 1, 2, 3, 4, 5),
        "killed",
        "the screen clears supports whose fit passes",
    ),
    Mutant(
        "surely-full-rank-always",
        "recovery.py",
        "return floor > ceiling * edge",
        "return np.ones(floor.shape, dtype=bool)",
        RANK_PROPERTY,
        (0, 1, 2, 3, 4, 5),
        "killed",
        "also fails test_pursuit_rank_test_window[1.5-...]",
    ),
    Mutant(
        "rank-floor-without-am-gm",
        "recovery.py",
        FLOOR,
        "np.multiply(ceiling**k, p, out=floor, where=normal)",
        RANK_PROPERTY,
        (0, 1, 2, 3, 4, 5),
        "killed",
        "floor = prod r_jj exceeds sigma_min",
    ),
    Mutant(
        "rank-floor-frobenius-as-k",
        "recovery.py",
        FLOOR,
        "np.multiply(ceiling**k * p, spread / math.sqrt(k) ** (k - 1), out=floor, where=normal)",
        RANK_PROPERTY,
        (0, 1, 2, 3, 4, 5),
        "killed",
        "shows only on scaled factors: a pursuit's R has ||R||_F^2 within about 1e-10 of k",
    ),
    Mutant(
        "strip-screen-allowance-zero",
        "coherence.py",
        "t = 5.0 * g_num / g_den * frobenius_sq(1)",
        "t = 0.0",
        STRIP_SCREEN_TESTS,
        (0, 1, 2, 3, 4, 5),
        "killed",
        "killed by the two constructed tests (a real walk summed in reversed order skips the strip holding mu); "
        "the property alone passes where the BLAS rounds the real and the complex strip products alike, as OpenBLAS on x86-64 did",
    ),
    Mutant(
        "needs-svd-d-zero",
        "coherence.py",
        "d = 2.0 * singular_value_allowance(m, s)",
        "d = 0.0",
        SCAN_TESTS[:-1],
        (),
        "survived",
        "d is about (m + s)^2 u, far above the few ulps LAPACK's singular values move",
    ),
    Mutant(
        "needs-svd-sure-above-zero",
        "coherence.py",
        "sure = small_lo > 2.0 * numerics.rank_tolerance((m, s), big_hi)",
        "sure = small_lo > 0",
        SCAN_TESTS,
        (),
        "survived",
        "needs a deficient subset scanned after a full-rank one of huge condition number",
    ),
    Mutant(
        "orbit-extra-without-gamma",
        "coherence.py",
        "extra = 2.0 * s * (eta + 2.0 * g_num / g_den * frobenius_sq(1)) * (1.0 + numerics.UNIT_ROUNDOFF)",
        "extra = 2.0 * s * eta * (1.0 + numerics.UNIT_ROUNDOFF)",
        SCAN_TESTS,
        (),
        "survived",
        "needs an edited partial DFT with eta below gamma rho^2",
    ),
    Mutant(
        "fits-out-slack-zero",
        "recovery.py",
        "slack = 10.0 * gam * math.sqrt(coherence.frobenius_sq(s))",
        "slack = 0.0",
        SCAN_TESTS,
        (),
        "survived",
        "needs a y just outside epsilon of a support's span",
    ),
    Mutant(
        "fits-out-without-sigma-above-2d",
        "recovery.py",
        "(sigma >= 2.0 * coherence.singular_value_allowance(m, s)) & ",
        "",
        SCAN_TESTS,
        (),
        "survived",
        "needs a y just outside epsilon of a nearly deficient support's span",
    ),
    Mutant(
        "gershgorin-floor-a-zero",
        "coherence.py",
        "a = 2.0 * s * rho_sq * (g_num / g_den + 2.0 * (s + 3) * numerics.UNIT_ROUNDOFF)",
        "a = 0.0",
        SCREEN_PROPERTY,
        (0, 1, 2, 3, 4, 5),
        "survived",
        "the allowance is a few ulps of rho^2 per row; no drawn block sits that close to its floor",
    ),
    Mutant(
        "fits-out-schur-bound-without-allowances",
        "recovery.py",
        SCHUR_BOUND,
        "corner - b_sq / lam",
        SCREEN_PROPERTY,
        (0, 1, 2, 3, 4, 5),
        "survived",
        "the allowances are a few ulps of rho^2; no drawn y sits that close to the screen's edge",
    ),
)
