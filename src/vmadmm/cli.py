"""Command-line interface: ``solve``, ``oracle``, and ``check``.

Exit codes: 0 success, 1 a requested check failed, 2 bad configuration or
usage, 3 assumption validation rejected the schedules (use ``--force``).
The output directory can be overridden with ``--out`` or the ``VMADMM_OUT``
environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import diagnostics
from .errors import ConfigError, InputError, OracleError, VmAdmmError
from .experiments import (
    CHECK_TOLERANCES,
    load_config,
    output_dir,
    problem_from_config,
    run_experiment,
)
from .problems import oracle


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vmadmm",
        description="Variable-metric proximal splitting runner with certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an experiment from a config file")
    solve.add_argument("--config", required=True, help="path to a JSON run config")
    solve.add_argument("--iters", type=int, default=None, help="override iteration count")
    solve.add_argument("--force", action="store_true",
                       help="run even when no convergence assumption holds")
    solve.add_argument("--out", default=None, help="output directory override")

    orc = sub.add_parser("oracle", help="compute a certified saddle point")
    orc.add_argument("--config", required=True)
    orc.add_argument("--budget", type=int, default=None, help="iteration budget")
    orc.add_argument("--out", default=None)

    chk = sub.add_parser("check", help="validate a run log against an oracle file")
    chk.add_argument("--log", required=True, help="path to log.csv")
    chk.add_argument("--against", required=True, help="path to oracle.json")
    return parser


def _cmd_solve(args):
    cfg = load_config(args.config)
    if args.iters is not None:
        if args.iters < 0:
            raise ConfigError("--iters must be >= 0")
        cfg.iters = args.iters
    result = run_experiment(cfg, force=args.force, out_dir=args.out)
    if result.csv_path:
        print(f"log: {result.csv_path}")
        print(f"summary: {result.summary_path}")
    return result.exit_code


def _cmd_oracle(args):
    cfg = load_config(args.config)
    problem, _ = problem_from_config(cfg)
    budget = args.budget if args.budget is not None else cfg.oracle_budget
    result = oracle(problem, budget=budget)
    path = os.path.join(output_dir(cfg, args.out), "oracle.json")
    payload = {
        "problem": cfg.problem,
        "c": cfg.c,
        "x": list(result.x),
        "z": list(result.z),
        "y": list(result.y),
        "kkt": result.kkt,
        "iterations": result.iterations,
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"oracle: {path} (kkt={result.kkt:.3e}, iterations={result.iterations})")
    return 0


def _open_input(path):
    """``path`` opened for reading; a file that cannot be opened is an InputError."""
    try:
        return open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from exc


def _require(path, entries, names, kind):
    """Raise an InputError naming the first of ``names`` not in ``entries``."""
    for name in names:
        if name not in entries:
            raise InputError(f"{path}: no {kind} {name!r}")


def _column(path, rows, name, convert=float):
    """``convert`` of the cell ``name`` in every row; a cell that is not a
    number is an InputError naming the file, the column and the row."""
    values = []
    for i, row in enumerate(rows, 1):
        try:
            values.append(convert(row[name]))
        except (TypeError, ValueError):
            raise InputError(
                f"{path}: row {i}, column {name!r}: {row[name]!r} is not a number"
            ) from None
    return values


def _cmd_check(args):
    with _open_input(args.against) as fh:
        try:
            against = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.against}: line {exc.lineno}: {exc.msg}") from None
    with _open_input(args.log) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        print("log is empty; nothing to check")
        return 0
    y_cols = [c for c in reader.fieldnames if c.startswith("y_")]
    for name in y_cols:
        if not name[2:].isdecimal():
            raise InputError(f"{args.log}: column {name!r} is not y_<index>")
    y_cols.sort(key=lambda name: int(name[2:]))
    columns, keys = ["k", "kkt"], ["kkt"]
    if y_cols:  # the dual identity also reads these
        columns.append("residual_primal")
        keys.append("c")
    _require(args.log, rows[0], columns, "column")
    _require(args.against, against, keys, "key")

    failures = []
    last_k = 0
    for k in _column(args.log, rows, "k", int):
        if k <= last_k:
            failures.append(f"row order: k={k} after k={last_k}")
            break
        last_k = k

    final_kkt = _column(args.log, rows, "kkt")[-1]
    if not (final_kkt < CHECK_TOLERANCES["kkt"]):
        failures.append(f"final kkt {final_kkt:.3e} >= {CHECK_TOLERANCES['kkt']:g}")

    # When dual vectors were logged, the primal residual must equal the
    # rescaled dual step, to the runner's dual_identity tolerance.
    if y_cols:
        # The k=0 dual iterate is not in the log, so the identity is checked
        # from the second logged row onward.
        ys = np.column_stack([_column(args.log, rows, c) for c in y_cols])
        worst = diagnostics.dual_identity_deviation(
            [float(np.linalg.norm(b - a)) for a, b in zip(ys, ys[1:])],
            _column(args.log, rows, "residual_primal")[1:],
            float(against["c"]),
        )
        if not worst <= CHECK_TOLERANCES["dual_identity"]:
            failures.append(f"residual/dual-step identity violated by {worst:.3e}")
        else:
            print(f"dual identity: max deviation {worst:.3e}")

    oracle_kkt = float(against["kkt"])
    print(f"oracle kkt: {oracle_kkt:.3e}; final logged kkt: {final_kkt:.3e}")
    for msg in failures:
        print(f"FAIL: {msg}")
    if not failures:
        print("check passed")
    return 0 if not failures else 1


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "check":
            return _cmd_check(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 2
    except VmAdmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
