from fractions import Fraction

import pytest

from siegel2.errors import PrecisionError
from siegel2.qexp1 import (
    delta1,
    diag_builder,
    diag_tensor,
    divisor_sigma,
    eisenstein1,
)


def convolve(a, b, prec):
    """Independent dense convolution oracle on coefficient lists."""
    out = [Fraction(0)] * (prec + 1)
    for i, x in enumerate(a[: prec + 1]):
        for j, y in enumerate(b[: prec + 1]):
            if i + j <= prec:
                out[i + j] += x * y
    return out


def dense(series, prec):
    return [Fraction(series.coeff(n)) for n in range(prec + 1)]


def test_divisor_sigma_examples():
    assert divisor_sigma(6, 1) == 12
    assert divisor_sigma(1, 3) == 1
    assert divisor_sigma(2, 3) == 9
    with pytest.raises(ValueError):
        divisor_sigma(0, 1)


def test_eisenstein_normalisations():
    assert eisenstein1(2, 4).coeff(1) == -24
    assert eisenstein1(4, 4).coeff(1) == 240
    assert eisenstein1(6, 4).coeff(1) == -504
    for k in (2, 4, 6):
        assert eisenstein1(k, 4).coeff(0) == 1
    with pytest.raises(ValueError):
        eisenstein1(8, 4)


def test_delta_against_convolution_oracle():
    prec = 10
    e4 = dense(eisenstein1(4, prec), prec)
    e6 = dense(eisenstein1(6, prec), prec)
    e4cube = convolve(convolve(e4, e4, prec), e4, prec)
    e6square = convolve(e6, e6, prec)
    want = [(a - b) / 1728 for a, b in zip(e4cube, e6square)]
    assert dense(delta1(prec), prec) == want
    assert delta1(prec).coeff(0) == 0
    assert delta1(prec).coeff(1) == 1
    assert delta1(prec).coeff(2) == -24
    assert e4cube[1] == 720


def test_ring_operations():
    prec = 12
    e4 = eisenstein1(4, prec)
    e6 = eisenstein1(6, prec)
    d = delta1(prec)
    assert e4**3 - e6**2 == d * 1728
    assert d.weight == 12
    assert (d * 0).coeffs == {}
    assert (e4**3).coeff(1) == 720
    assert (e4 * e4).weight == 8
    assert (e4**2) == e4 * e4


def test_precision_rules():
    e4 = eisenstein1(4, 10)
    e6 = eisenstein1(6, 5)
    assert (e4 * e6).precision == 5
    assert (e4 + e6).precision == 5
    assert e4.truncate(3).precision == 3
    with pytest.raises(PrecisionError):
        e4.truncate(11)
    with pytest.raises(ValueError):
        e4.coeff(11)


def test_truncation_consistency_of_builders():
    for name in ("x2", "x4", "x6", "x12", "y12", "alpha36"):
        big = diag_builder(name, 9)
        small = diag_builder(name, 5)
        assert big.truncate(5) == small


def test_diag_tensor_examples():
    prec = 6
    d = delta1(prec)
    e4 = eisenstein1(4, prec)
    assert diag_tensor(d, d).coeff(1, 1) == 1
    assert diag_tensor(e4, e4).coeff(0, 1) == 240
    t = diag_tensor(d, e4**3)
    assert all(t.coeff(0, n) == 0 for n in range(prec + 1))
    assert diag_tensor(d, d).symmetry_violations(1) == []
    assert t.symmetry_violations(1) and t.symmetry_violations(-1)
    assert diag_tensor(d, d).weight == t.weight == 12
    assert diag_tensor(d, e4).weight is None
    with pytest.raises(PrecisionError):
        diag_tensor(delta1(3), delta1(4))


def test_diag_builders():
    x12 = diag_builder("x12", 6)
    assert x12.coeff(1, 1) == 1
    assert all(x12.coeff(0, n) == 0 for n in range(7))
    y12 = diag_builder("y12", 6)
    assert y12.coeff(0, 1) == 1
    alpha = diag_builder("alpha36", 8)
    assert all(alpha.coeff(m, m) == 0 for m in range(9))
    assert alpha.coeff(3, 2) == 1 and alpha.coeff(2, 3) == -1
    weights = {"x2": 2, "x4": 4, "x6": 6, "x12": 12, "y12": 12, "alpha36": 36}
    for name, weight in weights.items():
        series = diag_builder(name, 5)
        sign = -1 if name == "alpha36" else 1
        assert series.symmetry_violations(sign) == []
        assert series.symmetry_violations(-sign) != []
        assert series.weight == weight
    with pytest.raises(ValueError):
        diag_builder("x8", 5)


def test_diag_ring_and_signs():
    x12 = diag_builder("x12", 8)
    y12 = diag_builder("y12", 8)
    alpha = diag_builder("alpha36", 8)
    prod = x12 * alpha
    assert prod.symmetry_violations(-1) == []
    assert (alpha * alpha).symmetry_violations(1) == []
    assert (y12 + y12 * -1).coeffs == {}
    mixed = x12 + alpha
    assert mixed.symmetry_violations(1) and mixed.symmetry_violations(-1)
    assert (x12 * y12).symmetry_violations(1) == []
    assert prod.weight == 48 and mixed.weight is None


def test_diag_mul_matches_tensor_of_products():
    prec = 8
    e4 = eisenstein1(4, prec)
    d = delta1(prec)
    left = diag_tensor(e4, d) * diag_tensor(d, e4)
    right = diag_tensor(e4 * d, d * e4)
    assert left == right
