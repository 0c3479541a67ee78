"""Analytic decomposition of an arbitrary complex 2x2 matrix.

A chain of explicit phase shifts and real beam splitter rotations reduces the
matrix to real upper-triangular form, whose singular structure then has a
closed form: ``T = U . D . BS(theta2) . PS_1(-xi1)`` with
``U = PS_1(alpha1) . PS_2(alpha2) . BS(gamma) . PS_1(beta1) . PS_2(beta2)``
and ``D = diag(sigma1, sigma2)``, ``sigma1 >= sigma2 >= 0``.  This module
computes the parameters, as the name -> float dict that ``qsynth analytic2x2``
prints under ``params``, and the element columns of ``W`` and ``U``; the D stage
and the checks are the numeric pipeline's (:func:`qsynth.synth.verified`), so
it cross-checks the numeric factors.
"""

from __future__ import annotations

import cmath
import math

from .blocks import BS, PS, Elements
from .mesh import PRUNE_EPS, wrap_angle
from .numkit import TOL, as_matrix
from .synth import SynthesisResult, verified


def _phase(z: complex) -> float:
    """arg normalized to (-pi, pi], with arg(0) = 0."""
    return wrap_angle(math.atan2(z.imag, z.real)) if z != 0 else 0.0  # cmath.phase raises on underflow


def _abs(z: complex) -> float:
    """``abs(z)``, but inf beyond the float range, where ``abs`` raises OverflowError."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def analytic_params(t) -> dict[str, float]:
    """The decomposition parameters of a finite complex 2x2 matrix by name; radians, ``sigma1 >= sigma2 >= 0``."""
    t = as_matrix(t, "t")
    if t.shape != (2, 2):
        raise ValueError(f"t must be 2x2, got {t.shape}")

    # Python scalars: their arithmetic overflows to inf without a warning.
    (t00, t01), (t10, t11) = t.tolist()
    r00, r01, r10, r11 = map(_abs, (t00, t01, t10, t11))
    phi11 = _phase(t00)
    phi21 = _phase(t10)
    # Rotate the left column real, then null the lower-left entry.
    vartheta = math.atan2(r10, r00)
    cv, sv = math.cos(vartheta), math.sin(vartheta)
    e12 = r01 * cmath.exp(1j * (_phase(t01) - phi11))
    e22 = r11 * cmath.exp(1j * (_phase(t11) - phi21))
    t11_t = r00 * cv + r10 * sv
    t12_t = cv * e12 + sv * e22
    t22_t = -sv * e12 + cv * e22
    r12, r22 = _abs(t12_t), _abs(t22_t)
    xi1 = _phase(t12_t)
    xi2 = _phase(t22_t)

    # Real upper-triangular remainder [[a, b], [0, d]], all entries >= 0,
    # scaled by a power of two (exactly) so that squaring them neither
    # overflows nor underflows; sigma1 and sigma2 are scaled back below.
    k = math.frexp(max(t11_t, r12, r22))[1]
    a, b, d = (math.ldexp(x, -k) for x in (t11_t, r12, r22))
    s = a * a + b * b + d * d
    p = (abs(b * d), abs(a * b))
    q = (a * a - d * d + b * b, a * a - d * d - b * b)
    theta1 = -0.5 * math.atan2(2.0 * p[0], q[0])
    theta2 = 0.5 * math.atan2(2.0 * p[1], q[1])
    sigma1 = math.sqrt(max((s + math.hypot(q[0], 2.0 * p[0])) / 2.0, 0.0))
    # sigma1 * sigma2 = det = a * d.  Taking sigma2 from the determinant keeps
    # it exact on rank-deficient input, where (s - root) / 2 is pure rounding.
    sigma2 = min(a * d / sigma1, sigma1) if sigma1 > 0.0 else 0.0
    # x * 2**k rounded once, as math.ldexp does, but inf beyond the float range
    # (couplings rejects it) where ldexp raises OverflowError.
    sigma1, sigma2 = (x * 2.0 * 2.0 ** (k - 1) for x in (sigma1, sigma2))
    if not all(map(math.isfinite, (t11_t, r12, r22))):  # sigma1 >= each, so it is beyond the float range too
        sigma1 = math.inf

    # Simplified form of the left unitary factor.
    mix = cmath.exp(1j * (xi2 - xi1))
    c1, s1 = math.cos(theta1), math.sin(theta1)
    x = cv * c1 + sv * s1 * mix
    y = cv * s1 - sv * c1 * mix
    alpha = _phase(x)
    beta = _phase(y)
    gamma = math.acos(min(abs(x), 1.0))  # |x| <= 1 by Cauchy-Schwarz, up to rounding
    return {"phi11": phi11, "phi21": phi21, "vartheta": vartheta, "xi1": xi1, "xi2": xi2,
            "theta1": theta1, "theta2": theta2, "sigma1": sigma1, "sigma2": sigma2,
            "alpha": alpha, "beta": beta, "gamma": gamma,
            "alpha1": phi11 + xi1 + (alpha + beta) / 2.0, "alpha2": phi21 + xi2 - (alpha + beta) / 2.0,
            "beta1": (alpha - beta) / 2.0, "beta2": (beta - alpha) / 2.0}


def _stage(*rows) -> Elements:
    """One unitary stage of the chain as columns, without its identity elements: each row is
    ``(PS, mode, phi)``, a phase shifter (phi gets wrapped), or ``(BS, 0, theta)`` on modes 0 and 1."""
    rows = [(PS, mode, mode, wrap_angle(x)) if kind == PS else (BS, 0, 1, x) for kind, mode, x in rows]
    return Elements(*zip(*(row for row in rows if abs(row[3]) > PRUNE_EPS)))


def analytic_synthesize(t, tol: float = TOL) -> tuple[dict[str, float], SynthesisResult]:
    """Closed-form pipeline: parameters plus the verified circuit for ``t``.

    The circuit uses only phase shifters, the two beam splitter rotations of
    the chain, and the D stage that :func:`qsynth.synth.verified` derives from
    ``(sigma1, sigma2)``: one loss/gain coupling per singular value different
    from 1 (mode 0 pairs with the first ancilla, mode 1 with the next free one).
    At most two ancillas appear, so the scattering matrix is at most 8x8.
    """
    t = as_matrix(t, "t")
    p = analytic_params(t)
    w_elements = _stage((PS, 0, -p["xi1"]), (BS, 0, p["theta2"]))
    u_elements = _stage((PS, 1, p["beta2"]), (PS, 0, p["beta1"]), (BS, 0, p["gamma"]), (PS, 1, p["alpha2"]),
                        (PS, 0, p["alpha1"]))
    return p, verified(t, (p["sigma1"], p["sigma2"]), w_elements, u_elements, tol)

