"""Reference computations made apart from qsynth, used to check its outputs.

Nothing here calls the package.  Netlists are read in the documented JSON
format and multiplied out one element at a time as row updates on the
current matrix; permanents come from Ryser's formula; random unitaries from
QR orthonormalisation of a complex Gaussian matrix.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def haar_unitary(rng, n: int) -> np.ndarray:
    """Haar-random n x n unitary (QR of a complex Gaussian, phases fixed)."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def matrix_with_spectrum(rng, n: int, m: int, sigmas) -> np.ndarray:
    """n x m matrix U diag(sigmas) W with Haar U, W and exactly these singular values."""
    d = np.zeros((n, m), dtype=complex)
    for i, s in enumerate(sigmas):
        d[i, i] = s
    return haar_unitary(rng, n) @ d @ haar_unitary(rng, m)


def apply_element(s: np.ndarray, e: dict, n_modes: int) -> None:
    """Left-multiply ``s`` in place by the 2N x 2N lift of one netlist element.

    Row ``p`` is mode p's annihilation operator, row ``p + N`` its creation
    operator.  A phase shifter multiplies them by e^{+i phi} and e^{-i phi};
    a beam splitter rotates rows (a, b) and (a+N, b+N) by
    [[cos t, sin t], [-sin t, cos t]]; a two-mode squeezer mixes a with b^dag
    and b with a^dag with cosh/sinh of xi.
    """
    n = n_modes
    kind = e["type"]
    if kind == "ps":
        p, z = e["mode"], complex(math.cos(e["phi"]), math.sin(e["phi"]))
        s[p] *= z
        if s.shape[0] == 2 * n:
            s[p + n] *= z.conjugate()
        return
    a, b = e["modes"]
    rows = (a, b, a + n, b + n) if s.shape[0] == 2 * n else (a, b)
    if kind == "bs":
        c, t = math.cos(e["theta"]), math.sin(e["theta"])
        for ra, rb in zip(rows[0::2], rows[1::2]):
            s[[ra, rb]] = c * s[ra] + t * s[rb], -t * s[ra] + c * s[rb]
        return
    if kind != "tms" or s.shape[0] != 2 * n:
        raise ValueError(f"cannot apply element {e!r} to a {s.shape[0]}-row matrix")
    ch, sh = math.cosh(e["xi"]), math.sinh(e["xi"])
    ra, rb, rac, rbc = s[a].copy(), s[b].copy(), s[a + n].copy(), s[b + n].copy()
    s[a] = ch * ra + sh * rbc
    s[b] = ch * rb + sh * rac
    s[a + n] = ch * rac + sh * rb
    s[b + n] = ch * rbc + sh * ra


def netlist_smatrix(netlist: dict) -> np.ndarray:
    """2N x 2N product of a JSON netlist's elements (first element applied first)."""
    n = netlist["n_modes"]
    s = np.eye(2 * n, dtype=complex)
    for e in netlist["elements"]:
        apply_element(s, e, n)
    return s


def passive_product(elements, n_modes: int) -> np.ndarray:
    """n x n single-particle product of phase shifters and beam splitters."""
    u = np.eye(n_modes, dtype=complex)
    for e in elements:
        apply_element(u, e, n_modes)
    return u


def quasi_deviation(s: np.ndarray) -> float:
    """Largest entry of |S G S^dag - G| with G = diag(+1..+1, -1..-1)."""
    n = s.shape[0] // 2
    g = np.concatenate([np.ones(n), -np.ones(n)])
    return float(np.max(np.abs((s * g) @ s.conj().T - np.diag(g))))


def max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.size(a) else 0.0


def permanent(m: np.ndarray) -> complex:
    """Ryser's formula, exact for the <= 6 x 6 matrices a Fock amplitude needs."""
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            total += (-1) ** size * np.prod(m[:, cols].sum(axis=1))
    return (-1) ** n * total


def fock_amplitude(u: np.ndarray, occ_in, occ_out) -> complex:
    """<occ_out| U |occ_in> for a passive network with single-particle matrix U."""
    rows = [j for j, c in enumerate(occ_out) for _ in range(c)]
    cols = [k for k, c in enumerate(occ_in) for _ in range(c)]
    if len(rows) != len(cols):
        return 0.0 + 0.0j
    norm = math.sqrt(
        math.prod(math.factorial(x) for x in occ_in) * math.prod(math.factorial(x) for x in occ_out)
    )
    return permanent(u[np.ix_(rows, cols)]) / norm


def count_bounds(n: int, m: int) -> tuple[int, int, int]:
    """Worst-case (beam splitters, phase shifters, modulation elements) for an n x m input."""
    return (
        n * (n - 1) // 2 + m * (m - 1) // 2,
        n * (n + 1) // 2 + m * (m + 1) // 2,
        min(n, m),
    )
