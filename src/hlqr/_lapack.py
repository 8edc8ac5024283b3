"""The LAPACK routines hlqr calls, from scipy's compiled wrappers: dgetrf,
dgetri and its workspace query dgetri_lwork (matops), the blocked
compact-WY Householder QR dgeqrt with its reflector application dgemqrt,
dtrcon and dtrtrs (adp), and dpstrf (_kernels).

Importing scipy.linalg costs about 0.25 s, most of it in scipy's array-API
layer, which imports numpy.f2py and numpy.testing.  The routines themselves
live in the f2py extension ``scipy/linalg/_flapack``, which loads in a few
milliseconds.  It is loaded here from scipy's package directory without
importing scipy or scipy.linalg, and is not entered in sys.modules.  The
functions are the ones scipy.linalg.lapack exports, so every call gives the
same bits.
"""

import importlib.machinery
import importlib.util
import os
import sys

_scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
_spec = importlib.machinery.PathFinder.find_spec(
    "scipy.linalg._flapack", [os.path.join(_scipy_dir, "linalg")])
_imported = _spec.name in sys.modules  # scipy.linalg came first
_flapack = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_flapack)
if not _imported:  # CPython enters the extension in sys.modules as it loads
    del sys.modules[_spec.name]

dgetrf = _flapack.dgetrf
dgetri = _flapack.dgetri
dgetri_lwork = _flapack.dgetri_lwork
dgeqrt = _flapack.dgeqrt
dgemqrt = _flapack.dgemqrt
dtrcon = _flapack.dtrcon
dtrtrs = _flapack.dtrtrs
dpstrf = _flapack.dpstrf
