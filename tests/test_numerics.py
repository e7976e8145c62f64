from fractions import Fraction

import mpmath
import pytest

from ekrlab.numerics import (check_eq, check_le, default_dps, fmt_rational,
                             fmt_real, log_base, parse_rational, to_mpf)

F = Fraction


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("7") == F(7)
    assert parse_rational(" 1/3 ") == F(1, 3)
    for bad in ("0.25", "1e-3", "2.5/4", "1/0"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_fmt_roundtrip():
    assert fmt_rational(F(3, 4)) == "3/4"
    assert fmt_rational(F(-1, 7)) == "-1/7"
    assert parse_rational(fmt_rational(F(22, 7))) == F(22, 7)
    s = fmt_real(mpmath.mpf(1) / 3)
    assert s.startswith("0.3333333333333333")


def test_check_le_exact_path():
    c = check_le(F(1, 3), F(1, 2))
    assert c.holds and not c.equal and c.exact
    assert c.slack == F(1, 6)
    c = check_le(F(1, 2), F(1, 3))
    assert not c.holds and c.exact
    c = check_eq(F(2, 4), F(1, 2))
    assert c.holds and c.equal and c.exact


def test_check_le_mpf_path_with_tolerance():
    # an undershoot below tau fails; within tau passes as equality
    c = check_le(lambda: to_mpf(1) + to_mpf("1e-13"), 1)
    assert c.holds and c.equal
    c = check_le(lambda: to_mpf(1) + to_mpf("1e-9"), 1)
    assert not c.holds


def test_check_le_retries_near_boundary():
    c = check_le(lambda: to_mpf(1) + to_mpf("1e-13"), 1)
    assert c.dps > default_dps()  # precision was raised before deciding


def test_log_base():
    with mpmath.workdps(30):
        assert abs(log_base(F(1, 9), F(1, 3)) - 2) < mpmath.mpf("1e-25")
        assert abs(log_base(8, 2) - 3) < mpmath.mpf("1e-25")


def test_check_le_callable_fraction_shortcut():
    # closures producing rationals still land on the exact path
    c = check_le(lambda: F(1, 4), lambda: F(1, 2))
    assert c.exact and c.holds and c.slack == F(1, 4)
