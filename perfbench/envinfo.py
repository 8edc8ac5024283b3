"""Environment block written into every benchmark record."""

import ctypes
import hashlib
import os
import platform
from pathlib import Path

#: variables that pin BLAS and OpenMP pools to one thread before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def pinned_env(src_dir):
    """os.environ for a run process: one BLAS/OpenMP thread, one hlqr worker,
    and the checkout's sources first on the import path."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["HLQR_WORKERS"] = "1"
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src_dir) + (os.pathsep + path if path else "")
    return env


def _openblas_threads():
    """{library file: thread count} for every OpenBLAS loaded in-process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in _THREAD_SYMBOLS:
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def git_sha(root):
    """Commit of a git checkout, read from .git without running git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src_dir):
    """Digest of the package sources, which names the code in any checkout."""
    h = hashlib.sha256()
    for path in sorted(Path(src_dir).rglob("*.py")):
        h.update(path.relative_to(src_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root):
    """BLAS, versions, kernel backend, thread settings, cores and code ids.

    Call after numpy, scipy and hlqr are imported in the measured process.
    """
    import numpy
    import scipy
    from hlqr import _kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _openblas_threads(),
        },
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "hlqr_using_numba": bool(_kernels.USING_NUMBA),
        "HLQR_PURE_NUMPY": os.environ.get("HLQR_PURE_NUMPY"),
        "HLQR_WORKERS": os.environ.get("HLQR_WORKERS"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "src_sha256": source_sha256(Path(root) / "src" / "hlqr"),
    }
