"""Thread pinning, the package under test, and the environment record.

:func:`pin_blas_threads` must run before numpy is first imported, because
OpenBLAS reads its thread count when it loads. The solves are small and
single-threaded in Python, so extra BLAS threads only compete with it.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def load_package():
    """Import vmadmm from this checkout's ``src/``; exit 2 if it is not there."""
    if not (SRC / "vmadmm" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no vmadmm sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import vmadmm

    if Path(vmadmm.__file__).resolve().parent != SRC / "vmadmm":
        sys.stderr.write(f"perfbench: imported vmadmm from {vmadmm.__file__}, "
                         f"not from {SRC}\n")
        sys.exit(2)
    return vmadmm


def _openblas(package, get_threads, get_config):
    """Thread count and build string of the OpenBLAS a wheel bundles."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(path)
            threads = getattr(lib, get_threads)
            threads.restype = ctypes.c_int
            config = getattr(lib, get_config)
            config.restype = ctypes.c_char_p
        except (OSError, AttributeError):
            continue
        return {"threads": threads(), "build": config().decode("ascii", "replace")}
    return {"threads": None, "build": "unknown"}


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def record():
    """Machine, library versions, BLAS threads and source commit of this run."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_pinned": BLAS_THREADS,
        "numpy_openblas": _openblas(numpy, "scipy_openblas_get_num_threads64_",
                                    "scipy_openblas_get_config64_"),
        "scipy_openblas": _openblas(scipy, "scipy_openblas_get_num_threads",
                                    "scipy_openblas_get_config"),
        "git_commit": _git_commit(),
    }
