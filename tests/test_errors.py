import inspect
import pickle

import pytest

from vmadmm import errors, problems, solver
from vmadmm.linops import MetricOperator

# the arguments each class with its own __init__ is made from
_BUILT = {
    errors.DimensionMismatch: ("x0", 3, 4),
    errors.NonFiniteIterate: (35,),
    errors.OracleError: ("the oracle missed KKT residual 1e-10", 2.5e-7),
}


def _report():
    problem, _ = problems.build_problem("toy1d")
    decreasing = solver.ShiftedGramSchedule([0.5, 0.25], problem.c, problem.A)
    zero = solver.ConstantSchedule(MetricOperator.zero(problem.m))
    report = solver.validate_assumptions(problem, decreasing, zero)
    assert not report.permits_run and report.notes
    return report


def _error_classes():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, errors.VmAdmmError)]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(cls):
    # a run's solver process hands its exception over pickled: the caller
    # sees the same type, message and attributes
    if cls is errors.AssumptionError:
        args = (_report(),)
    elif "__init__" in vars(cls):
        args = _BUILT[cls]
    else:
        args = ("what went wrong",)
    err = cls(*args)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert vars(back) == vars(err)
