"""Seeded random instances: the private matrix exponential behind them."""

import numpy as np
import pytest

from polargrass.sampling import _expm, random_invertible, random_orthogonal, random_unitary

scipy_linalg = pytest.importorskip("scipy.linalg")


def recipe_matrices(n, rng):
    """The three exponents the samplers use, at size n."""
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return {"skew": A - A.T, "anti-hermitian": 0.5 * (B - B.conj().T), "scaled": 0.4 * A}


@pytest.mark.parametrize("n", range(1, 33))
def test_expm_matches_scipy(rng, n):
    for name, M in recipe_matrices(n, rng).items():
        ref = scipy_linalg.expm(M)
        got = _expm(M)
        assert got.dtype == ref.dtype, name
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), name


NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])
HALF_TURN = np.array([[0.0, -np.pi], [np.pi, 0.0]])


@pytest.mark.parametrize(
    "M, expect, rtol",
    [
        (np.zeros((3, 3)), np.eye(3), 1e-15),
        # norm 30: scaled by 2^3 and squared back
        (np.diag([1.0, -2.0, 30.0]), np.diag(np.exp([1.0, -2.0, 30.0])), 1e-13),
        (NILPOTENT, np.eye(2) + NILPOTENT, 1e-15),
        (HALF_TURN, -np.eye(2), 1e-14),
    ],
    ids=["zero", "diagonal", "nilpotent", "half-turn"],
)
def test_expm_closed_forms(M, expect, rtol):
    assert np.abs(_expm(M) - expect).max() <= rtol * np.abs(expect).max()


@pytest.mark.parametrize("n", [1, 2, 5, 16, 32])
def test_samplers_are_orthogonal_and_unitary(rng, n):
    Q = random_orthogonal(n, rng)
    U = random_unitary(n, rng)
    assert Q.dtype == np.float64
    assert np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-13
    assert np.abs(U.conj().T @ U - np.eye(n)).max() <= 1e-13
    assert np.linalg.cond(random_invertible(n, rng)) < 1e6
