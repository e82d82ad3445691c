"""scipy's f2py BLAS and LAPACK modules as ``blas`` and ``lapack``, loaded without
importing the ``scipy.linalg`` package (see the ``kernels`` module notes)."""

import importlib.machinery
import importlib.util
import os
import sys


def _extension(name: str):
    """The extension module ``name`` of ``scipy.linalg``, loaded once; None if not found."""
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # locates the package without importing it
    linalg = [os.path.join(p, "linalg") for p in scipy.submodule_search_locations] if scipy else []
    spec = importlib.machinery.PathFinder.find_spec(name, linalg)
    if spec is None:
        return None
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # scipy.linalg reuses it
    spec.loader.exec_module(module)
    return module


blas, lapack = _extension("scipy.linalg._fblas"), _extension("scipy.linalg._flapack")
if blas is None or lapack is None:
    import scipy.linalg.blas as blas
    import scipy.linalg.lapack as lapack
