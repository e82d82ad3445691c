"""scipy's f2py BLAS and LAPACK modules as ``blas`` and ``lapack``, loaded without
importing the ``scipy.linalg`` package (see the ``kernels`` module notes), and
:func:`one_blas_thread`, which runs a block on one thread of their pool.

``set_threads_local`` is OpenBLAS's ``openblas_set_num_threads_local``, resolved
through the LAPACK module itself, so it reaches the OpenBLAS that scipy links
and never numpy's.  It sets the count for the calling thread and returns the
count it replaces; OpenBLAS pthreads builds up to at least 0.3.30 apply it to
the whole pool.  It is None where scipy's LAPACK is not OpenBLAS 0.3.27 or
later, and then :func:`one_blas_thread` changes nothing.
"""

import contextlib
import ctypes
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

try:
    set_threads_local = ctypes.CDLL(lapack.__file__).openblas_set_num_threads_local
    set_threads_local.argtypes, set_threads_local.restype = [ctypes.c_int], ctypes.c_int
except (AttributeError, OSError):  # not OpenBLAS >= 0.3.27, or not an extension file
    set_threads_local = None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one thread of scipy's BLAS pool, then restore the count it had."""
    setter = set_threads_local
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)
