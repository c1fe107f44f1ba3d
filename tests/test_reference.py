"""Unit checks of the reference formulas the other tests compare against."""

import numpy as np
import pytest

from reference import four_term_sigma


def test_four_term_sigma_two_by_two_example():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    out = four_term_sigma(m, m, 1)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(1.5)


def test_four_term_sigma_identity_blocks():
    eye = np.eye(5)
    assert np.allclose(four_term_sigma(eye, eye, 3), np.eye(2))


def test_four_term_sigma_with_b_equal_h_is_schur_complement(rs):
    a = rs.normal(size=(6, 6))
    h = a @ a.T + 6 * np.eye(6)
    schur = h[3:, 3:] - h[3:, :3] @ np.linalg.solve(h[:3, :3], h[:3, 3:])
    assert np.allclose(four_term_sigma(h, h, 3), schur, atol=1e-10)
