"""Dense complex-matrix helpers shared by the whole package.

All matrices are plain 2-D ``numpy`` arrays of ``complex128``.  The functions
here validate shapes, return the singular value decomposition as numpy's
``(u, s, vh)`` triple, read as ``T = U @ diag(s) @ W`` (``W`` is the right
factor applied first), encode and decode matrix JSON, and measure how far a
scattering matrix ``S = [[A, B], [B*, A*]]``, carried as its top half ``[A, B]``,
is from quasiunitarity, i.e. from ``S G S^dag = G`` with ``G = diag(+1...+1, -1...-1)``.
"""

from __future__ import annotations

import contextlib
import math
import operator

import numpy as np

# Default bound on every verification deviation, and the ancilla threshold.
TOL = 1e-10


class SynthesisError(RuntimeError):
    """A check of qsynth's own work failed: an SVD, a unitary it computed, or the assembled network."""


def check_tol(tol: float) -> None:
    """The one rule for a ``tol`` argument: positive and below 1; NaN fails it too."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must be positive and below 1, got {tol}")


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce ``values`` to a 2-D complex array, rejecting NaN/Inf entries."""
    m = np.asarray(values, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def max_abs(m) -> float:
    """Largest entry magnitude; 0 for an empty array."""
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


def partner_rows(top: np.ndarray) -> np.ndarray:
    """Rows ``p + N`` of ``S = [[A, B], [B*, A*]]`` from its rows ``p`` (of ``[A, B]``, any number of them, in
    order): each row conjugated, with its two halves swapped."""
    n = top.shape[1] // 2
    return np.concatenate((top[:, n:], top[:, :n]), axis=1).conj()


def quasiunitarity_deviation(top) -> float:
    """Max entry magnitude of ``S G S^dag - G`` (zero iff ``S`` is quasiunitary) from ``S``'s top half ``[A, B]``:
    the bottom rows of ``S G S^dag - G`` are the top rows conjugated, up to sign and the order of their halves."""
    top = as_matrix(top, "top")
    n, cols = top.shape
    if cols != 2 * n:
        raise ValueError(f"top must be N x 2N, got {n}x{cols}")
    s = np.concatenate((top, partner_rows(top)))
    residual = (top * np.repeat([1.0, -1.0], n)) @ np.conjugate(s, out=s).T  # top rows of S G S^dag
    residual.reshape(-1)[:: 2 * n + 1] -= 1.0  # minus G's top rows: 1 on the diagonal, as a view
    return max_abs(residual)


def unitarity_deviation(u) -> float:
    """Max entry magnitude of ``U^dag U - I``; a tall ``u`` is measured as an isometry (orthonormal columns)."""
    u = as_matrix(u, "u")
    if u.shape[0] < u.shape[1]:
        raise ValueError(f"u must be square or tall, got {u.shape}")
    gram = u.conj().T @ u
    gram.reshape(-1)[:: len(gram) + 1] -= 1.0  # the diagonal, as a view (faster than gram.flat)
    return max_abs(gram)


def svd(t) -> tuple[np.ndarray, tuple[float, ...], np.ndarray]:
    """``(u, singulars, w)`` with ``T = u @ diag(singulars) @ w``: numpy's ``(u, s, vh)``.

    ``w`` right-multiplies, as numpy's ``vh`` (the conjugate transpose of the
    usual right factor).  ``singulars`` is a tuple of ``min(rows, cols)``
    non-negative Python floats, descending.
    """
    t = as_matrix(t, "t")
    if t.shape[0] < 1 or t.shape[1] < 1:
        raise ValueError(f"t must be non-empty, got shape {t.shape}")
    try:
        u, s, w = np.linalg.svd(t)
    except np.linalg.LinAlgError as exc:
        raise SynthesisError(f"SVD failed to converge: {exc}") from exc
    return u, tuple(float(x) for x in s), w


def matrix_to_json(m) -> dict:
    """Encode a matrix as ``{"rows", "cols", "data"}`` with [re, im] pairs, row-major."""
    m = as_matrix(m, "m")
    data = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def json_int(x, name: str) -> int:
    """A JSON integer as an int; a boolean raises TypeError naming ``name``, like ``operator.index`` on a float."""
    if isinstance(x, bool):
        raise TypeError(f"{name} must be an integer, got {x!r}")
    return operator.index(x)


def json_float(x) -> float:
    """A finite JSON number as a float; else ValueError, or OverflowError for an int beyond the float range."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {x!r}")
    return float(x)


def complex_from_json(data, depth: int = 0):
    """Decode an ``[re, im]`` pair of numbers, or lists of them nested ``depth`` deep.

    Anything else raises ValueError, so a malformed document is an input error.
    """
    if depth:
        if not isinstance(data, list):
            raise ValueError(f"expected a list of [re, im] pairs, got {type(data).__name__}")
        return [complex_from_json(x, depth - 1) for x in data]
    if isinstance(data, list) and len(data) == 2:
        with contextlib.suppress(ValueError, OverflowError):
            return complex(json_float(data[0]), json_float(data[1]))
    raise ValueError(f"expected an [re, im] pair of numbers, got {data!r}")


def matrix_from_json(obj) -> np.ndarray:
    """Decode the matrix JSON format produced by :func:`matrix_to_json`."""
    try:
        rows = json_int(obj["rows"], "rows")
        cols = json_int(obj["cols"], "cols")
        entries = complex_from_json(obj["data"], depth=1)
    except (TypeError, KeyError) as exc:
        raise ValueError(f"matrix JSON must contain integer rows/cols and data: {exc}") from exc
    if rows < 0 or cols < 0:
        raise ValueError(f"rows and cols must be non-negative, got {rows} and {cols}")
    if len(entries) != rows * cols:
        raise ValueError(f"matrix JSON data length {len(entries)} != rows*cols = {rows * cols}")
    return as_matrix(np.array(entries, dtype=complex).reshape(rows, cols), "matrix JSON")
