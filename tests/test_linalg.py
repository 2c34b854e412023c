import numpy as np
import pytest

from polargrass import errors
from polargrass.errors import (
    FormatError,
    InvariantViolation,
    NonHermitian,
    NotPositiveDefinite,
    NumericallySingular,
    PolargrassError,
    RankMismatch,
)
from polargrass.linalg import (
    DEFAULT_TOL,
    Frame,
    Tolerances,
    as_matrix,
    as_real_matrix,
    check_clears,
    check_invertible,
    check_symmetry,
    check_within,
    clears,
    freeze,
    hs_norm,
    inverse_sqrt_hermitian,
    is_positive_definite,
    op_norm,
    principal_angle_distance,
    right_divide,
    smallest_singular_value,
    sqrt_hermitian,
    sqrt_pair_hermitian,
    symmetry_deviation,
    within,
)


def test_hs_norm_hand_value():
    # sqrt(3^2 + 4^2) = 5
    assert hs_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_op_norm_rank_one(rng):
    u = rng.standard_normal(4)
    v = rng.standard_normal(3)
    # |u v^T|_op = |u| |v|
    assert op_norm(np.outer(u, v)) == pytest.approx(
        np.linalg.norm(u) * np.linalg.norm(v)
    )


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(FormatError):
        as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_as_matrix_rejects_nonsquare_when_required():
    with pytest.raises(FormatError):
        as_matrix(np.zeros((2, 3)), square=True)


def test_as_real_matrix_rejects_complex():
    with pytest.raises(FormatError):
        as_real_matrix(np.eye(2) * (1 + 1j))


def test_tolerances_reject_nonpositive():
    with pytest.raises(FormatError):
        Tolerances(eq_tol=0.0)
    with pytest.raises(FormatError):
        Tolerances(spd_tol=-1e-12)


def test_default_tolerances():
    assert DEFAULT_TOL.eq_tol == 1e-10
    assert DEFAULT_TOL.spd_tol == 1e-12


def test_sqrt_and_inverse_sqrt_diagonal():
    A = np.diag([4.0, 9.0]).astype(complex)
    assert np.allclose(sqrt_hermitian(A), np.diag([2.0, 3.0]))
    assert np.allclose(inverse_sqrt_hermitian(A), np.diag([0.5, 1.0 / 3.0]))


def test_sqrt_pair_equals_the_two_roots(rng):
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    A = A @ A.conj().T + np.eye(5)
    root, inv_root = sqrt_pair_hermitian(A)
    assert np.array_equal(root, sqrt_hermitian(A))
    assert np.array_equal(inv_root, inverse_sqrt_hermitian(A))
    assert hs_norm(root @ inv_root - np.eye(5)) <= 1e-13


def test_sqrt_pair_validates_like_the_roots():
    with pytest.raises(NotPositiveDefinite):
        sqrt_pair_hermitian(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(NonHermitian):
        sqrt_pair_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        sqrt_pair_hermitian(np.diag([1.0, 1e-13]), Tolerances(spd_tol=1e-12))


def test_inverse_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        inverse_sqrt_hermitian(np.diag([1.0, -1.0]).astype(complex))


def test_is_positive_definite_requires_hermitian():
    with pytest.raises(NonHermitian):
        is_positive_definite(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_frame_rejects_nonorthonormal_columns():
    with pytest.raises(RankMismatch):
        Frame(np.array([[1.0], [1.0]]))


def test_frame_from_columns_orthonormalizes(rng):
    cols = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    f = Frame.from_columns(cols)
    assert hs_norm(f.matrix.conj().T @ f.matrix - np.eye(2)) < 1e-12
    # same span: the projector reproduces the original columns
    proj = f.matrix @ f.matrix.conj().T
    assert hs_norm(proj @ cols - cols) < 1e-12


def test_frame_from_columns_rejects_dependent():
    v = np.array([[1.0], [2.0], [0.0]])
    with pytest.raises(RankMismatch):
        Frame.from_columns(np.hstack([v, 2 * v]))


def test_frame_is_immutable():
    f = Frame(np.eye(2))
    with pytest.raises(AttributeError):
        f.matrix = np.zeros((2, 2))
    with pytest.raises(ValueError):
        f.matrix[0, 0] = 5.0


def test_principal_angle_identical_and_orthogonal():
    e1 = Frame(np.eye(4)[:, :1])
    e2 = Frame(np.eye(4)[:, 1:2])
    assert principal_angle_distance(e1, e1) == pytest.approx(0.0, abs=1e-14)
    # orthogonal lines: projector difference has norm 1
    assert principal_angle_distance(e1, e2) == pytest.approx(1.0)


def test_principal_angle_hand_rotation():
    # span(e1) vs span(cos t e1 + sin t e2): distance is |sin t|
    t = 0.3
    a = Frame(np.eye(3)[:, :1])
    b = Frame(np.array([[np.cos(t)], [np.sin(t)], [0.0]]))
    assert principal_angle_distance(a, b) == pytest.approx(abs(np.sin(t)), abs=1e-12)


def test_principal_angle_rank_mismatch():
    with pytest.raises(RankMismatch):
        principal_angle_distance(Frame(np.eye(4)[:, :1]), Frame(np.eye(4)[:, :2]))


def test_smallest_singular_value_hand():
    assert smallest_singular_value(np.diag([3.0, 0.25])) == pytest.approx(0.25)


def test_error_name_is_the_class_name():
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, PolargrassError) and c is not PolargrassError
    ]
    assert len(classes) == 27
    for cls in classes:
        assert cls.name == cls.__name__
        assert cls("x").name == cls.__name__


def test_freeze_copies_and_leaves_the_caller_writeable():
    a = np.asfortranarray(np.arange(4.0).reshape(2, 2))
    out = freeze(a)
    assert a.flags.writeable and not out.flags.writeable
    assert out.flags.c_contiguous and not np.shares_memory(a, out)
    assert np.array_equal(out, a)


@pytest.mark.parametrize(
    "dev, scale, ok",
    [
        (1e-11, 0.0, True),
        (2e-9, 10.0, False),
        (1e-9, 100.0, True),
        (np.nan, 1.0, False),
        (np.inf, 1.0, False),
        (1.0, np.inf, False),
        (np.inf, np.inf, False),
        (0.0, np.nan, False),
    ],
)
def test_within_fails_on_nonfinite(dev, scale, ok):
    assert within(dev, 1e-10, scale) is ok


@pytest.mark.parametrize(
    "margin, scale, ok",
    [
        (1e-9, 0.0, True),
        (1e-11, 0.0, False),
        (1e-9, 100.0, False),
        (np.nan, 1.0, False),
        (np.inf, 1.0, False),
        (1.0, np.inf, False),
        (1.0, np.nan, False),
    ],
)
def test_clears_fails_on_nonfinite(margin, scale, ok):
    assert clears(margin, 1e-10, scale) is ok


def test_raising_forms_return_what_they_checked():
    assert check_within(3e-11, 1e-10, 0.0, RankMismatch, "x") == 3e-11
    assert check_clears(0.5, 1e-10, 2.0, RankMismatch, "x") == 0.5
    with pytest.raises(RankMismatch, match=r"x \(nan\)"):
        check_within(np.nan, 1e-10, 0.0, RankMismatch, "x")
    with pytest.raises(RankMismatch, match=r"x \(nan\)"):
        check_clears(np.nan, 1e-10, 0.0, RankMismatch, "x")


def test_symmetry_check_signs():
    A = np.array([[0.0, 2.0], [-2.0, 1e-12]])
    assert symmetry_deviation(A, -1.0) == pytest.approx(2e-12)
    check_symmetry(A, -1.0, 1e-10, InvariantViolation, "Z not antisymmetric")
    with pytest.raises(InvariantViolation, match="not symmetric"):
        check_symmetry(A, 1.0, 1e-10, InvariantViolation, "Z not symmetric")


@pytest.mark.filterwarnings("ignore:overflow")
def test_symmetry_check_rejects_an_overflowing_norm():
    # ||Z|| overflows, so a relative budget would be infinite
    Z = np.array([[1e300, 0.5], [-0.5, 0.0]])
    with pytest.raises(InvariantViolation):
        check_symmetry(Z, -1.0, 1e-10, InvariantViolation, "Z not antisymmetric")


def test_right_divide_solves_and_guards(rng):
    num = rng.standard_normal((3, 3))
    den = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    assert hs_norm(right_divide(num, den, 1e-12, NumericallySingular, "x") @ den - num) < 1e-12
    with pytest.raises(NumericallySingular, match="sigma_min"):
        right_divide(num, np.diag([1.0, 1.0, 1e-14]), 1e-12, NumericallySingular, "x")


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_check_invertible_treats_nonfinite_as_singular(bad):
    with pytest.raises(NumericallySingular):
        check_invertible(np.array([[1.0, bad], [0.0, 1.0]]), 1e-12, NumericallySingular, "x")


@pytest.mark.filterwarnings("ignore:overflow")
def test_hermitian_check_rejects_an_overflowing_norm():
    with pytest.raises(NonHermitian):
        sqrt_hermitian(np.diag([1e300, 1e300]).astype(complex) + np.array([[0, 1.0], [0, 0]]))
