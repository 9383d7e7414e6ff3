"""Command-line interface.

Subcommands: gen-matrix (construct and save a measurement matrix),
coherence (analyze a saved matrix), recover (run matching pursuit on saved
measurements, optionally cross-checked against the exhaustive search),
figure (emit the CSV data behind the bundled demo scenarios), and
experiment (drive a Monte Carlo config).

Exit codes: 0 ok, 2 usage or input error, 3 construction failure,
4 a coherence scan cut short by its subset budget (its report is still
printed), 5 pursuit did not converge.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import coherence, experiments, matrices, recovery, serialization
from .errors import RankDeficientError, UnsupportedSizeError, ZeroColumnError

# name: (matrices.from_spec keywords, support); every nonzero is 1.
# fig3's rows come from sweep_partial_dft_subsets(16, 12, 500, seed=20260810): they have its least mu,
# which 14 of its subsets share to within 1e-12, so rounding, not the rows, decides which sorts first.
_SCENARIOS = {
    "fig2": ({"family": "etf", "m": 7, "n": 14}, (2, 7)),
    "fig3": ({"family": "partial-dft", "n": 16, "rows": (0, 1, 2, 3, 4, 5, 7, 10, 11, 12, 14, 15)}, (2, 7)),
    "fig4": ({"family": "etf", "m": 15, "n": 30}, (2, 5, 19)),
}


def figure_scenario(name: str):
    """Bundled demo scenario: (matrix, support) from the _SCENARIOS table, unit-valued nonzeros."""
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}")
    spec, support = _SCENARIOS[name]
    return matrices.from_spec(**spec), support


def _fmt_k_max(k_max) -> str:
    return "unbounded" if k_max is None else str(k_max)


def _print_matrix_summary(mat: matrices.MeasurementMatrix) -> None:
    rep = coherence.coherence_index(mat)
    if "rows" in mat.meta:
        print("rows = " + ",".join(str(i) for i in mat.meta["rows"]))
    print(f"mu = {rep.mu!r}")
    print(f"welch = {rep.welch!r}")
    print(f"k_max = {_fmt_k_max(rep.k_max)}")


def _cmd_gen_matrix(args) -> int:
    spec = {key: getattr(args, key) for key in ("m", "n", "seed", "rows", "p") if getattr(args, key) is not None}
    if "rows" in spec:
        with serialization.decoding("--rows, expected comma-separated integers"):
            spec["rows"] = tuple(map(int, spec["rows"].split(",")))
    mat = matrices.from_spec(args.family, **spec)
    matrices.save_matrix(mat, args.out)
    _print_matrix_summary(mat)
    return 0


def _cmd_coherence(args) -> int:
    budget = matrices.check_int(args.max_subsets, "the subset budget", 0)
    mat = matrices.load_matrix(args.matrix)
    # the scans run first, so a k they reject fails before the coherence walks the Gram strips
    uniqueness = None if args.uniqueness_k is None else coherence.uniqueness_rank_scan(mat, args.uniqueness_k, budget)
    rip = None if args.rip_k is None else coherence.rip_constant(mat, args.rip_k, budget)
    payload = {"coherence": serialization.to_dict(coherence.coherence_index(mat))}
    scans = []  # (what, scanned, total) of each scan run
    if uniqueness is not None:
        payload["uniqueness"] = serialization.to_dict(uniqueness)
        scans.append(("uniqueness scan", uniqueness.scanned, uniqueness.total_subsets))
    if rip is not None:
        payload["rip"] = serialization.to_dict(rip)
        scans.append(("isometry scan", rip.subsets_scanned, rip.total_subsets))
    print(json.dumps(payload, indent=2))
    cut_short = [scan for scan in scans if scan[1] < scan[2]]
    for what, scanned, total in cut_short:
        print(f"warning: {what} covered only {scanned} of {total} subsets", file=sys.stderr)
    return 4 if cut_short else 0


def _cmd_recover(args) -> int:
    mat = matrices.load_matrix(args.matrix)
    y = recovery.load_measurement(args.measurements)
    result = recovery.matching_pursuit(mat, y, epsilon=args.epsilon, max_iter=args.max_iter)
    payload = {"recovery": serialization.to_dict(result)}
    if args.oracle:
        search = recovery.exhaustive_l0_search(mat, y, max(1, len(result.support)), args.epsilon)
        solutions = search.solutions
        minimal_size = len(solutions[0].support) if solutions else 0
        minimal = [s for s in solutions if len(s.support) == minimal_size]
        ambiguous = agrees = None  # unknown when the budget cut the search short
        if search.complete:
            ambiguous = len(minimal) > 1
            agrees = tuple(sorted(result.support)) in {s.support for s in minimal}
        else:
            print(f"warning: oracle searched only {search.scanned} of {search.total} supports", file=sys.stderr)
        payload["oracle"] = {**serialization.to_dict(search), "ambiguous": ambiguous, "agrees_with_pursuit": agrees}
    print(json.dumps(payload, indent=2))
    return 0 if result.converged else 5


def _write_csv(path, lines) -> None:
    """Write CSV text lines, each ending in LF, as every JSON file csense writes does."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_figure(args) -> int:
    mat, support = figure_scenario(args.name)
    os.makedirs(args.outdir, exist_ok=True)
    x = recovery.SparseSignal(mat.n, support, np.ones(len(support), dtype=np.complex128))
    estimate = recovery.decompose_initial_estimate(mat, x)
    rep = coherence.coherence_index(mat)
    margin = recovery.worst_case_margin(rep.mu, len(support))

    comp_header = ["index"]
    for i in range(len(support)):
        comp_header += [f"component_{i + 1}_re", f"component_{i + 1}_im"]
    comp_rows = [
        [idx] + [v for pair in serialization.complex_to_pairs(row) for v in pair]
        for idx, row in enumerate(estimate.components)
    ]
    tables = {
        "components.csv": [comp_header, *comp_rows],
        "estimate.csv": [["index", "abs_x0"]] + [[idx, float(abs(estimate.x0[idx]))] for idx in range(mat.n)],
        "margins.csv": [
            ["signal_floor", "disturbance_ceiling"],
            [float(margin.signal_floor), float(margin.disturbance_ceiling)],
        ],
    }
    for filename, rows in tables.items():
        _write_csv(os.path.join(args.outdir, filename), (",".join(map(str, row)) for row in rows))
    return 0


def _cmd_experiment(args) -> int:
    csv_path = os.path.splitext(args.out)[0] + ".csv"
    if csv_path == args.out:
        raise ValueError(f"--out {args.out} is also the CSV path; give the report another extension, such as .json")
    cfg = experiments.ExperimentConfig.from_dict(serialization.load_json(args.config))
    report = experiments.run_experiment(cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(serialization.to_dict(report), fh, indent=2)
        fh.write("\n")
    _write_csv(csv_path, report.csv_lines())
    print(f"wrote {args.out} and {csv_path}")
    return 0


@functools.cache  # parse_args leaves the parser as it was, so one serves every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csense", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-matrix", help="construct a measurement matrix and save it as JSON")
    p.add_argument("--family", required=True, choices=list(matrices.SPEC_BUILDERS))
    p.add_argument("--m", type=int, default=None, help="measurement count")
    p.add_argument("--n", type=int, required=True, help="signal length")
    p.add_argument("--seed", type=int, default=None, help="seed for random families (default 0)")
    p.add_argument("--rows", default=None, help="explicit partial-DFT rows, e.g. 0,2,4,6")
    p.add_argument("--p", type=int, default=None, help="subsampling period")
    p.add_argument("--out", required=True, help="output matrix JSON path")
    p.set_defaults(func=_cmd_gen_matrix)

    p = sub.add_parser("coherence", help="coherence report plus optional rank/RIP scans")
    p.add_argument("--matrix", required=True, help="matrix JSON path")
    p.add_argument("--uniqueness-k", type=int, default=None, help="scan all 2k-column subsets for full rank")
    p.add_argument("--rip-k", type=int, default=None, help="brute-force isometry constant at sparsity k")
    p.add_argument("--max-subsets", type=int, default=coherence.DEFAULT_MAX_SUBSETS, help="subsets each scan may visit")
    p.set_defaults(func=_cmd_coherence)

    p = sub.add_parser("recover", help="matching pursuit on saved measurements")
    p.add_argument("--matrix", required=True)
    p.add_argument("--measurements", required=True)
    p.add_argument(
        "--epsilon", type=float, default=recovery.DEFAULT_RELATIVE_EPSILON, help="residual stop threshold, relative to ||y||"
    )
    p.add_argument("--max-iter", type=int, default=None, help="iteration cap, 1 to m (default m)")
    p.add_argument("--oracle", action="store_true", help="cross-check against the exhaustive search")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("figure", help="write the CSV data behind a bundled demo scenario")
    p.add_argument("--name", required=True, choices=list(_SCENARIOS))
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("experiment", help="run a Monte Carlo recovery-rate config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="report JSON path (CSV lands next to it)")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnsupportedSizeError, ZeroColumnError, RankDeficientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
