"""Test-session header naming the numerical platform.

Some golden files pin last bits that depend on the BLAS kernel and on
numpy's SIMD dispatch, so a run reports both next to the numpy version.
"""

import ctypes
from pathlib import Path

import numpy as np


def _openblas_core() -> str:
    """The core type of numpy's bundled OpenBLAS, or ``unknown``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__

    return (
        f"numpy {np.__version__}, OpenBLAS core {_openblas_core()}, "
        f"AVX512_SKX dispatch {__cpu_features__.get('AVX512_SKX', False)}"
    )
