import math

import numpy as np
import pytest

from qsynth.numkit import (
    as_matrix,
    check_tol,
    complex_from_json,
    json_float,
    json_int,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    quasiunitarity_deviation,
    svd,
    unitarity_deviation,
)

from oracles import LOSSY_BS_T, random_unitary


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])


def product(f) -> np.ndarray:
    """``u @ D @ w`` with the n x m diagonal D of the singular values written out."""
    d = np.zeros((len(f.u), len(f.w)), dtype=complex)
    for j, sigma in enumerate(f.singulars):
        d[j, j] = sigma
    return f.u @ d @ f.w


def test_svd_lossy_bs_singulars():
    f = svd(LOSSY_BS_T)
    assert np.allclose(f.singulars, (1.0, 0.0), atol=1e-12)


def test_svd_identity():
    f = svd(np.eye(3))
    assert np.allclose(f.singulars, (1.0, 1.0, 1.0), atol=1e-15)
    assert unitarity_deviation(f.u @ f.w) < 1e-14


def test_svd_random_3x2_reconstructs():
    rng = np.random.default_rng(11)
    t = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    f = svd(t)
    assert f.u.shape == (3, 3)
    assert f.w.shape == (2, 2)
    assert max_abs(product(f) - t) < 1e-12
    assert list(f.singulars) == sorted(f.singulars, reverse=True)


def test_svd_reconstruction_sweep():
    # Entries uniform in the unit disk, everything up to 8x8 (non-square too).
    rng = np.random.default_rng(15)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        radius = np.sqrt(rng.uniform(0, 1, size=(n, m)))
        t = radius * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(n, m)))
        assert max_abs(product(svd(t)) - t) < 1e-12


def test_svd_of_unitary_has_unit_singulars():
    rng = np.random.default_rng(12)
    for n in (2, 4, 7):
        u = random_unitary(rng, n)
        assert all(abs(s - 1.0) < 1e-12 for s in svd(u).singulars)


def test_svd_rejects_empty():
    with pytest.raises(ValueError):
        svd(np.zeros((0, 3)))


def test_quasiunitarity_identity_is_zero():
    assert quasiunitarity_deviation(np.eye(4)) == 0.0


def test_quasiunitarity_of_loss_rotation():
    # Block-diagonal rotation with transmission 0.6, reflection 0.8.
    s = np.array(
        [
            [0.6, 0.8, 0, 0],
            [-0.8, 0.6, 0, 0],
            [0, 0, 0.6, 0.8],
            [0, 0, -0.8, 0.6],
        ],
        dtype=complex,
    )
    assert quasiunitarity_deviation(s) < 1e-14


def test_quasiunitarity_hand_computed_diagonal():
    # S = diag(2, 2, 1/2, 1/2), N = 2: S G S^dag - G is diagonal with entries
    # 2*2 - 1 = 3 (twice) and -1/4 + 1 = 3/4 (twice); the largest is 3.
    s = np.diag([2.0, 2.0, 0.5, 0.5]).astype(complex)
    assert quasiunitarity_deviation(s) == pytest.approx(3.0, abs=1e-14)


def test_quasiunitarity_rejects_odd_dimension():
    with pytest.raises(ValueError):
        quasiunitarity_deviation(np.eye(3))


def test_unitarity_deviation_rejects_non_square():
    with pytest.raises(ValueError, match=r"u must be square, got \(2, 3\)"):
        unitarity_deviation(np.ones((2, 3)))


def test_quasiunitary_closed_under_products():
    from oracles import bs, embed_element, ps, tms

    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        mats = []
        for _ in range(2):
            pick = rng.integers(0, 3)
            a, b = rng.permutation(n)[:2]
            if pick == 0:
                e = ps(int(a), float(rng.uniform(-np.pi, np.pi)))
            elif pick == 1:
                e = bs(int(a), int(b), float(rng.uniform(0, np.pi / 2)))
            else:
                e = tms(int(a), int(b), float(rng.uniform(0, 1.0)))
            mats.append(embed_element(e, n))
        product = mats[0] @ mats[1]
        assert quasiunitarity_deviation(product) < 2 * n * 1e-15


def test_matrix_json_round_trip():
    rng = np.random.default_rng(14)
    m = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    back = matrix_from_json(matrix_to_json(m))
    assert max_abs(back - m) == 0.0


def test_matrix_json_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "data": []})
    with pytest.raises(ValueError):
        matrix_from_json(["not", "a", "matrix"])


@pytest.mark.parametrize(
    "data",
    [[1], [1, 2, 3], 5, "12", None, [None, 0], ["1", 0], [[1], 0], {"re": 1, "im": 0}, [10**400, 0], [True, 0],
     [0.5, False], [math.nan, 0]],
)
def test_pair_decoder_rejects_anything_but_two_numbers(data):
    with pytest.raises(ValueError):
        complex_from_json(data)
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1, "data": [data]})


def test_pair_decoder_nests():
    assert complex_from_json([1, -2.5]) == 1 - 2.5j
    assert complex_from_json([[[1, 0], [0, 1]], []], depth=2) == [[1, 1j], []]
    for bad in ([1, 0], [[1, 0], 5]):  # depth 2 needs a list of lists of pairs
        with pytest.raises(ValueError):
            complex_from_json(bad, depth=2)


@pytest.mark.parametrize("rows, cols", [(-1, -1), (2.0, 1), ("2", 1), (None, 1), (True, 3), (True, 2), (2, True)])
def test_matrix_json_rejects_bad_shape(rows, cols):
    with pytest.raises(ValueError):
        matrix_from_json({"rows": rows, "cols": cols, "data": [[1, 0], [0, 1]]})


def test_json_number_decoders_refuse_booleans():
    assert json_int(3, "n") == 3 and json_int(np.int64(-2), "n") == -2
    assert json_float(2) == 2.0 and json_float(-0.5) == -0.5 and json_float(np.float64(1.5)) == 1.5
    for flag in (True, False):
        with pytest.raises(TypeError, match=f"n must be an integer, got {flag}"):
            json_int(flag, "n")
    for bad in (True, False, math.nan, -math.inf, "1", None, [1]):
        with pytest.raises(ValueError, match="expected a finite number"):
            json_float(bad)
    with pytest.raises(OverflowError):
        json_float(10**400)


@pytest.mark.parametrize("tol", [0.0, 1.0, -1e-10, 2.0, math.inf, math.nan])
def test_check_tol_refuses_a_tol_outside_the_open_unit_interval(tol):
    with pytest.raises(ValueError, match=f"^tol must be positive and below 1, got {tol}$"):
        check_tol(tol)


@pytest.mark.parametrize("tol", [1e-300, 1e-10, 0.5, 0.999])
def test_check_tol_passes_a_usable_tol(tol):
    assert check_tol(tol) is None
