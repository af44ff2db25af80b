"""The kernel family that numpy's bundled OpenBLAS runs in this process.

OpenBLAS's ``DYNAMIC_ARCH`` builds pick it from the CPU, and the
``OPENBLAS_CORETYPE`` environment variable forces one.  Run as a script,
this module prints the name.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np


def corename() -> str | None:
    """``SkylakeX``, ``Haswell`` and so on; None without the bundled library."""
    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_-*.so"):
        try:
            name = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        name.restype = ctypes.c_char_p
        return name().decode()
    return None


if __name__ == "__main__":
    print(corename())
