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
import math
import os
import sys

import numpy as np

from . import diagnostics
from .errors import ConfigError, InputError, OracleError, VmAdmmError
from .experiments import (
    CHECK_TOLERANCES,
    load_config,
    output_dir,
    prepare,
    run_experiment,
    saddle_point,
    write_summary,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vmadmm",
        description="Variable-metric proximal splitting runner with certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an experiment from a config file")
    solve.add_argument("--config", required=True, help="path to a JSON run config")
    solve.add_argument("--force", action="store_true",
                       help="run even when no convergence assumption holds")
    solve.add_argument("--out", default=None, help="output directory override")

    orc = sub.add_parser("oracle", help="compute a certified saddle point")
    orc.add_argument("--config", required=True)
    orc.add_argument("--out", default=None)

    chk = sub.add_parser("check", help="validate a run log against an oracle file")
    chk.add_argument("--log", required=True, help="path to log.csv")
    chk.add_argument("--against", required=True, help="path to oracle.json")
    return parser


def _cmd_solve(args):
    cfg = load_config(args.config)
    result = run_experiment(cfg, force=args.force, out_dir=args.out)
    if result.csv_path:
        print(f"log: {result.csv_path}")
        print(f"summary: {result.summary_path}")
    return result.exit_code


def _cmd_oracle(args):
    cfg = load_config(args.config)
    problem = prepare(cfg)[0]  # refuses what vmadmm solve refuses, unvalidated
    result = saddle_point(cfg, problem)
    path = os.path.join(output_dir(cfg, args.out), "oracle.json")
    write_summary(path, {
        "problem": cfg.problem,
        "c": cfg.c,
        "x": list(result.x),
        "z": list(result.z),
        "y": list(result.y),
        "kkt": result.kkt,
        "iterations": result.iterations,
    })
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


def _number(path, entries, key):
    """``float(entries[key])``; a value that is not a number is an InputError
    naming the file and the key."""
    try:
        return float(entries[key])
    except (TypeError, ValueError):
        raise InputError(
            f"{path}: key {key!r}: {entries[key]!r} is not a number"
        ) from None


def _csv_rows(path, fh):
    """The rows of the CSV file ``fh``; a byte that is not UTF-8 or a field
    past the csv module's limit is an InputError naming the file."""
    try:
        yield from csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: {exc}") from None


def _cells(path, i, row, col, names):
    """The cells ``names`` of row ``i`` as numbers (``k`` an int), a short
    row's missing cell read as None; a cell that is not a number is an
    InputError naming the file, the row and the column."""
    values = []
    for name in names:
        cell = row[col[name]] if col[name] < len(row) else None
        try:
            values.append((int if name == "k" else float)(cell))
        except (TypeError, ValueError):
            raise InputError(
                f"{path}: row {i}, column {name!r}: {cell!r} is not a number"
            ) from None
    return values


def _cmd_check(args):
    with _open_input(args.against) as fh:
        try:
            against = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.against}: line {exc.lineno}: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{args.against}: {exc}") from None
    if not isinstance(against, dict):
        raise InputError(f"{args.against}: top level must be an object")
    with _open_input(args.log) as fh:
        rows = _csv_rows(args.log, fh)
        header = next(rows, [])
        col = {name: j for j, name in enumerate(header)}
        if len(col) < len(header):  # name the first column whose name repeats
            name = next(name for j, name in enumerate(header) if col[name] != j)
            raise InputError(f"{args.log}: column {name!r} repeats in the header")
        y_cols = [c for c in header if c.startswith("y_")]
        for name in y_cols:
            if not name[2:].isdecimal():
                raise InputError(f"{args.log}: column {name!r} is not y_<index>")
        y_cols.sort(key=lambda name: int(name[2:]))
        columns, keys = ["k", "kkt"], ["kkt"]
        if y_cols:  # the dual identity also reads these
            columns.append("residual_primal")
            keys.append("c")
        _require(args.log, col, columns, "column")
        _require(args.against, against, keys, "key")
        oracle_kkt = _number(args.against, against, "kkt")
        if y_cols:
            c = _number(args.against, against, "c")
            if not 0 < c <= sys.float_info.max:
                raise InputError(
                    f"{args.against}: key 'c': {c!r} is not a finite number > 0"
                )
        # a log without rows fails, as the runner's kkt check of 0 iterations does
        failures, last_k, final_kkt, worst = [], 0, math.inf, 0.0
        for i, row in enumerate(filter(None, rows), 1):  # blank lines skipped
            k, final_kkt, *values = _cells(args.log, i, row, col, columns + y_cols)
            if k <= last_k and not failures:
                failures.append(f"row order: k={k} after k={last_k}")
            last_k = k
            # When dual vectors were logged (``values`` is the residual, then
            # y), the residual must equal the rescaled dual step, to the
            # runner's dual_identity tolerance. The k=0 dual iterate is not in
            # the log, so the identity is checked from the second row onward.
            if y_cols and i > 1:
                dev = diagnostics.dual_identity_deviation(y_prev, values[1:],
                                                          values[:1], c)
                worst = np.maximum(worst, dev)  # a NaN stays NaN
            y_prev = values[1:]

    if not (final_kkt < CHECK_TOLERANCES["kkt"]):
        failures.append(f"final kkt {final_kkt:.3e} >= {CHECK_TOLERANCES['kkt']:g}")
    if y_cols:
        if not worst <= CHECK_TOLERANCES["dual_identity"]:
            failures.append(f"residual/dual-step identity violated by {worst:.3e}")
        else:
            print(f"dual identity: max deviation {worst:.3e}")

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


if __name__ == "__main__":
    sys.exit(main())
