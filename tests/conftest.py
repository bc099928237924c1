import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from vmadmm.problems import build_problem, oracle

# Property tests draw the same examples on every run and never time out on a
# slow host; the example budget keeps the tier-1 suite fast.
settings.register_profile(
    "vmadmm", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("vmadmm")


@pytest.fixture(scope="session")
def tv1d():
    return build_problem("tv1d", n=50)


@pytest.fixture(scope="session")
def tv1d_oracle(tv1d):
    problem, _ = tv1d
    return oracle(problem)


@pytest.fixture(scope="session")
def toy1d():
    return build_problem("toy1d")


@pytest.fixture(scope="session")
def toy1d_oracle(toy1d):
    problem, _ = toy1d
    return oracle(problem)


@pytest.fixture(scope="session")
def lasso_g():
    # the split with the quadratic data term on the g side (no smooth term)
    return build_problem("lasso-split", quadratic_in="g")


@pytest.fixture(scope="session")
def lasso_g_oracle(lasso_g):
    problem, _ = lasso_g
    return oracle(problem)


@pytest.fixture(scope="session")
def box_qp():
    return build_problem("box-qp")


@pytest.fixture(scope="session")
def box_qp_oracle(box_qp):
    problem, _ = box_qp
    return oracle(problem)
