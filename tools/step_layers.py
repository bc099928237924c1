"""Per-piece timer of one bound iteration of ``solver.run``.

    PYTHONPATH=src python3 tools/step_layers.py WORKLOAD [--c C] [--repeat R]
                                                [--number K]

WORKLOAD names a config of ``perfbench/workloads.py``, which is only read.
The script builds that config's problem and schedules at data seed 1 with
penalty C (default the config's own, 1.0; a shifted Gram M1's tau is divided
by C, so that the metric stays positive semidefinite), runs K plain
iterations from zeros to reach a state away from the start, and binds the
iteration there as ``solver.run`` does (``_bind_x_update``,
``_bind_z_update``, lasting when the M2 schedule returns the same object at
the next k, and ``_bind_step``). In this process, with BLAS on one thread
unless the environment says otherwise, it then times with ``timeit`` each
piece of that iteration on that state: the x update, ``A x+``, the z update,
``r = A x+ - z+``, ``y_update``, ``yc`` (``y+`` itself where the package's
state holds ``y`` as ``yc``, else ``y+ / c``), the ``ddot`` finiteness
guard, the residual norm and ``RunTrace.record``; then the whole bound step
and a plain ``solver.run`` of K iterations. Each line is the least of R
repeats (default 5) of K calls (default 2000), in microseconds per call;
``run / iter`` is the least of R runs divided by K. vmadmm is imported from
``PYTHONPATH``, so one script times the ``src/`` of any checkout.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import timeit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load():
    """``(solver, experiments, problems, WORKLOADS)``, the workloads read
    from ``perfbench/`` without writing bytecode."""
    for var in BLAS_VARS:  # read when numpy is first imported
        os.environ.setdefault(var, "1")
    from vmadmm import experiments, problems, solver

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        from workloads import WORKLOADS
    finally:
        sys.dont_write_bytecode = dont_write
    return solver, experiments, problems, WORKLOADS


def pieces(solver, problem, sched1, sched2, state):
    """``([(name, callable)], bound_step)``: each piece of the iteration
    bound on ``state``, with the arrays it reads formed once beforehand, and
    the whole bound step."""
    from scipy.linalg.blas import ddot

    c, k = problem.c, state.k
    m2 = sched2.metric(k)
    x_next_of = solver._bind_x_update(problem, sched1.metric(k))
    z_next_of = solver._bind_z_update(problem, m2, sched2.metric(k + 1) is m2)
    bound_step = solver._bind_step(problem, x_next_of, z_next_of)
    apply = problem.A._apply
    x = x_next_of(state)
    Ax = apply(x)
    z = z_next_of(state, Ax)
    r = Ax - z
    y = solver.y_update(state, r, c)
    same = state.yc is state.y  # the package's yc at this c
    nxt = solver.SolverState(x, z, y, k + 1, Ax, y if same else y / c, r)
    trace = solver.RunTrace()
    return [
        ("x update", lambda: x_next_of(state)),
        ("A x+", lambda: apply(x)),
        ("z update", lambda: z_next_of(state, Ax)),
        ("r", lambda: Ax - z),
        ("y_update", lambda: solver.y_update(state, r, c)),
        ("yc", (lambda: y) if same else (lambda: y / c)),
        ("ddot guard", lambda: math.isfinite(ddot(x, x) + ddot(z, z) + ddot(y, y))),
        ("residual norm", lambda: math.sqrt(float(r.dot(r)))),
        ("record", lambda: trace.record(nxt, 0.0)),
    ], bound_step


def main(argv=None):
    parser = argparse.ArgumentParser(prog="tools/step_layers.py")
    parser.add_argument("workload")
    parser.add_argument("--c", type=float, default=None)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--number", type=int, default=2000)
    args = parser.parse_args(argv)
    solver, experiments, problems, workloads = load()

    cfg = workloads[args.workload].config(1)
    if args.c is not None:
        cfg["c"] = args.c
        if cfg["metric1"]["kind"] == "shifted_gram":
            cfg["metric1"] = dict(cfg["metric1"], tau=cfg["metric1"]["tau"] / args.c)
    params = {k: v for k, v in cfg["problem"].items() if k != "name"}
    problem, _ = problems.build_problem(cfg["problem"]["name"], **params, c=cfg["c"])
    sched1 = experiments.schedule_from_spec(cfg["metric1"], problem.n, problem)
    sched2 = experiments.schedule_from_spec(cfg["metric2"], problem.m, problem)
    stop = solver.StoppingRule(max_iters=args.number)
    state, _ = solver.run(problem, solver.initial_state(problem), sched1, sched2,
                          stop, force=True)
    timed, bound_step = pieces(solver, problem, sched1, sched2, state)

    def best_us(fn, number=args.number):
        """Least of the repeats of ``number`` calls, in us per ``args.number``."""
        return min(timeit.repeat(fn, repeat=args.repeat, number=number)) / args.number * 1e6

    def plain_run():
        solver.run(problem, solver.initial_state(problem), sched1, sched2, stop,
                   force=True)

    print(f"step_layers {args.workload} seed 1 c {cfg['c']:g} at k "
          f"{state.k}: us per call, least of {args.repeat} repeats of {args.number}")
    rows = [(name, best_us(fn)) for name, fn in timed]
    rows += [("sum of pieces", sum(us for _, us in rows)),
             ("bound step", best_us(lambda: bound_step(state))),
             ("run / iter", best_us(plain_run, number=1))]
    for name, us in rows:
        print(f"  {name:<14}{us:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
