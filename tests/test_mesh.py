import cmath
import math

import numpy as np
import pytest

from qsynth.blocks import BeamSplitter, PhaseShifter
from qsynth.mesh import NotUnitaryError, reck_decompose, reconstruct
from qsynth.numkit import max_abs

from oracles import LOSSY_BS_U, mesh_verify, random_unitary


def bs_count(elements):
    return sum(1 for e in elements if isinstance(e, BeamSplitter))


def ps_count(elements):
    return sum(1 for e in elements if isinstance(e, PhaseShifter))


def test_identity_gives_empty_list():
    for n in (1, 2, 4):
        assert reck_decompose(np.eye(n)) == []


def test_single_rotation_is_already_elementary():
    theta = 0.3
    u = np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]],
        dtype=complex,
    )
    elements = reck_decompose(u)
    assert elements == [BeamSplitter(mode_a=0, mode_b=1, theta=pytest.approx(theta))]
    assert mesh_verify(elements, u) < 1e-15


def test_lossy_bs_left_factor():
    elements = reck_decompose(LOSSY_BS_U)
    assert mesh_verify(elements, LOSSY_BS_U) < 1e-12


def test_random_6x6_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(10):
        u = random_unitary(rng, 6)
        assert mesh_verify(reck_decompose(u), u) < 1e-12


def test_mesh_verify_empty_vs_identity():
    assert mesh_verify([], np.eye(3)) == 0.0


def test_mesh_verify_single_bs_vs_identity():
    # max-entry of BS(0.3) - I is the off-diagonal sin(0.3).
    deviation = mesh_verify([BeamSplitter(0, 1, 0.3)], np.eye(2))
    assert deviation == pytest.approx(math.sin(0.3), abs=1e-15)


def test_rejects_non_unitary():
    bad = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    with pytest.raises(NotUnitaryError) as info:
        reck_decompose(bad, tol=1e-10)
    assert info.value.deviation == pytest.approx(3.0)


def test_round_trip_and_bounds_up_to_8():
    rng = np.random.default_rng(32)
    for n in range(1, 9):
        for _ in range(5):
            u = random_unitary(rng, n)
            elements = reck_decompose(u)
            assert mesh_verify(elements, u) < 1e-11
            assert bs_count(elements) <= n * (n - 1) // 2
            assert ps_count(elements) <= n * (n + 1) // 2
            for e in elements:
                if isinstance(e, BeamSplitter):
                    assert 0.0 <= e.theta <= math.pi / 2


def test_determinant_phase_lives_in_phase_shifters():
    # Beam splitters are special orthogonal, so the product of the emitted
    # phases must reproduce the determinant.
    rng = np.random.default_rng(33)
    for n in (2, 3, 5):
        u = random_unitary(rng, n)
        elements = reck_decompose(u)
        total_phase = sum(e.phi for e in elements if isinstance(e, PhaseShifter))
        assert cmath.exp(1j * total_phase) == pytest.approx(np.linalg.det(u), abs=1e-10)


def test_embedded_rotation_with_degenerate_pivots():
    # A 2-mode rotation inside a larger identity: the untouched modes must not
    # produce elements.
    theta = 0.8
    u = np.eye(4, dtype=complex)
    u[1, 1] = math.cos(theta)
    u[1, 3] = math.sin(theta)
    u[3, 1] = -math.sin(theta)
    u[3, 3] = math.cos(theta)
    elements = reck_decompose(u)
    assert mesh_verify(elements, u) < 1e-12
    assert bs_count(elements) == 1


def test_diagonal_phases_only():
    phases = [0.3, -1.2, 2.9]
    u = np.diag(np.exp(1j * np.array(phases)))
    elements = reck_decompose(u)
    assert bs_count(elements) == 0
    assert mesh_verify(elements, u) < 1e-14


def test_reconstruct_respects_chronological_order():
    elements = [PhaseShifter(0, 1.0), BeamSplitter(0, 1, 0.5)]
    direct = reconstruct(elements, 2)
    ps = np.diag([np.exp(1j), 1.0])
    c, s = math.cos(0.5), math.sin(0.5)
    bs = np.array([[c, s], [-s, c]], dtype=complex)
    assert max_abs(direct - bs @ ps) < 1e-15
