"""numpy's own OpenBLAS through ``ctypes``: the one module of kfrflow that
binds a native symbol or picks a fallback for one.  A handle is None where
numpy's linalg exports no such symbol; its wrapper then falls back to
``np.matmul`` (the same arithmetic up to rounding), to ``scipy.linalg.lapack``,
imported at first need, or, for the thread count, to nothing."""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np
from numpy.linalg import _umath_linalg

_LIB = ctypes.CDLL(_umath_linalg.__file__)


def _symbol(name: str, argtypes: list, restype=None):
    # numpy's wheels prefix the symbols of their OpenBLAS with scipy_
    f = getattr(_LIB, "scipy_" + name, None) or getattr(_LIB, name, None)
    if f is not None:
        f.argtypes, f.restype = argtypes, restype
    return f


_INT, _I64, _DBL, _PTR = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_I64_P, _CHAR, _LEN = ctypes.POINTER(_I64), ctypes.c_char_p, ctypes.c_size_t
# row-major CBLAS: C-int enums, ILP64 sizes, and (beta, c, ldc) last
_ROW_MAJOR, _LOWER, _TRANS = 101, 122, 112
_NK, _C = [_INT] * 3 + [_I64, _I64, _DBL], [_DBL, _PTR, _I64]
_DSYRK = _symbol("cblas_dsyrk64_", _NK + [_PTR, _I64] + _C)
_DSYR2K = _symbol("cblas_dsyr2k64_", _NK + [_PTR, _I64] * 2 + _C)
# LAPACK (Fortran: uplo, transr and n by pointer, trailing character
# lengths): the median's RFP copy, and the Cholesky factor and solve, both or
# neither so that no factor mixes two OpenBLAS builds
_CH, _LENS = [_CHAR, _I64_P], [_LEN, _LEN]
_DTRTTF = _symbol("dtrttf_64_", [_CHAR] + _CH + [_PTR, _I64_P, _PTR, _I64_P] + _LENS)
_DPOTRF = _symbol("dpotrf_64_", _CH + [_PTR, _I64_P, _I64_P, _LEN])
_DPOTRS = _symbol("dpotrs_64_", _CH + [_I64_P, _PTR, _I64_P, _PTR, _I64_P, _I64_P, _LEN])
if None in (_DPOTRF, _DPOTRS):
    _DPOTRF = _DPOTRS = None
_GET_THREADS = _symbol("openblas_get_num_threads64_", [], _INT)
_SET_THREADS = _symbol("openblas_set_num_threads64_", [_INT])


def _check(what: str, *arrays) -> None:
    """ValueError unless each given array is C-contiguous float64 of its shape."""
    for arr, shape in arrays:
        if arr is not None and not (arr.shape == shape and arr.dtype == np.float64
                                    and arr.flags.c_contiguous):
            raise ValueError(f"{what} needs C-contiguous float64 {shape}, got {arr.shape}")


def rank_k_update(c: np.ndarray, beta: float, a: np.ndarray, b=None, alpha: float = 1.0) -> None:
    """The lower triangle of c <- alpha a^T a + beta c (``b`` None: dsyrk) or
    c <- alpha (a^T b + b^T a) + beta c (dsyr2k), for (k, n) arrays a and b
    and an (n, n) array c; c is not read when beta is 0, and its strict
    upper triangle is left undefined."""
    k, n = a.shape
    _check("rank-k update", (a, (k, n)), (b, (k, n)), (c, (n, n)))
    f = _DSYRK if b is None else _DSYR2K
    if f is not None:
        ops = (a.ctypes.data, n) if b is None else (a.ctypes.data, n, b.ctypes.data, n)
        f(_ROW_MAJOR, _LOWER, _TRANS, n, k, alpha, *ops, beta, c.ctypes.data, n)
        return
    p = np.matmul(a.T, a if b is None else b)
    if alpha != 1.0:
        p *= alpha
    c[:] = p if beta == 0 else beta * c + p
    if b is not None:
        c += p.T


def _lapack():
    try:
        from scipy.linalg import lapack
    except ImportError as err:
        msg = "kfrflow needs scipy where numpy exports no dtrttf, dpotrf or dpotrs"
        raise ImportError(msg) from err
    return lapack


def rfp_copy(a: np.ndarray, arf: np.ndarray) -> None:
    """``dtrttf``: the lower triangle of the column-major view of the (n, n)
    array a (a itself where a is symmetric) to arf's n(n+1)/2 elements."""
    n = a.shape[0]
    _check("RFP copy", (a, (n, n)), (arf, (n * (n + 1) // 2,)))
    if _DTRTTF is None:
        arf[:] = _lapack().dtrttf(a.T, transr="N", uplo="L")[0]
    else:
        _DTRTTF(b"N", b"L", _I64(n), a.ctypes.data, _I64(n), arf.ctypes.data, _I64(0), 1, 1)


def cholesky(a: np.ndarray) -> bool:
    """``dpotrf``: overwrite the upper triangle and the diagonal of the
    (n, n) array a, the lower triangle of its column-major view, with the
    Cholesky factor of the symmetric matrix they hold; the strict lower
    triangle is not touched.  False when the matrix is not positive definite."""
    n = a.shape[0]
    _check("Cholesky factor", (a, (n, n)))
    info = _I64(0)
    if _DPOTRF is None:  # a.T is Fortran-contiguous, so scipy factors it in place
        info.value = _lapack().dpotrf(a.T, lower=1, clean=0, overwrite_a=1)[1]
    else:
        _DPOTRF(b"L", _I64(n), a.ctypes.data, _I64(n), info, 1)
    if info.value < 0:
        raise ValueError(f"dpotrf rejected argument {-info.value}")
    return info.value == 0


def cholesky_solve(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``dpotrs``: overwrite the (n,) vector x with A^-1 x, for the factor of
    A that :func:`cholesky` left in a, and return it."""
    n = x.shape[0]
    _check("Cholesky solve", (a, (n, n)), (x, (n,)))
    if _DPOTRS is None:
        x[:] = _lapack().dpotrs(a.T, x, lower=1)[0]
    else:
        n, one = _I64(n), _I64(1)
        _DPOTRS(b"L", n, one, a.ctypes.data, n, x.ctypes.data, n, _I64(0), 1)
    return x


@contextlib.contextmanager
def one_thread():
    """Run the block on one thread of numpy's OpenBLAS, then restore the
    count of the whole process, not of the calling thread, also on a raise."""
    if _GET_THREADS is None or _SET_THREADS is None:
        yield
        return
    saved = _GET_THREADS()
    _SET_THREADS(1)
    try:
        yield
    finally:
        _SET_THREADS(saved)
