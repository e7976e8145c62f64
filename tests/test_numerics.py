import copy
import operator
import pickle
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ekrlab.numerics import (Checked, check_eq, check_le, default_dps,
                             dps_to_prec, fmt_rational, fmt_real, log,
                             log_base, nstr, parse_rational, power, to_mpf,
                             workdps)

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
    with workdps(30):
        assert abs(log_base(F(1, 9), F(1, 3)) - 2) < mpmath.mpf("1e-25")
        assert abs(log_base(8, 2) - 3) < mpmath.mpf("1e-25")


def test_check_le_callable_fraction_shortcut():
    # closures producing rationals still land on the exact path
    c = check_le(lambda: F(1, 4), lambda: F(1, 2))
    assert c.exact and c.holds and c.slack == F(1, 4)


# -- the real type against mpmath ------------------------------------------------

PROPERTY = settings(max_examples=300, deadline=None, database=None,
                    derandomize=True)

DPS = st.integers(15, 130)
INTS = st.integers(-10**40, 10**40)
FRACTIONS = st.fractions(min_value=-10**9, max_value=10**9,
                         max_denominator=10**15)
DECIMALS = st.builds("{}e{}".format, st.integers(-10**25, 10**25),
                     st.integers(-60, 60))
#: what `to_mpf` takes, besides reals
SOURCES = st.one_of(INTS, FRACTIONS, DECIMALS)


def _theirs(value):
    """mpmath's real for a `to_mpf` source, as ekrlab once built it."""
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpf(value)


def _same(ours, theirs):
    # the libmp tuple and every printed form ekrlab writes
    assert type(ours).__name__ == "_Real"
    assert ours._mpf_ == theirs._mpf_
    for digits in (18, 25):
        assert nstr(ours, digits) == mpmath.nstr(theirs, digits)
        assert (nstr(ours, digits, strip_zeros=False)
                == mpmath.nstr(theirs, digits, strip_zeros=False))


@PROPERTY
@given(DPS, SOURCES)
def test_construction_matches_mpmath(dps, value):
    with workdps(dps), mpmath.workdps(dps):
        _same(to_mpf(value), _theirs(value))
    # a real of higher precision rounds to the working precision
    with workdps(2 * dps):
        wide = to_mpf(value)
    with workdps(dps), mpmath.workdps(dps):
        _same(to_mpf(wide), mpmath.mpf(mpmath.mpf(wide._mpf_)))


BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}

#: the second operand's kinds: a real is drawn as a `to_mpf` source
OPERANDS = {"real": SOURCES, "int": INTS}


@PROPERTY
@given(DPS, SOURCES, st.sampled_from(sorted(BINARY)),
       st.sampled_from(sorted(OPERANDS)), st.data())
def test_arithmetic_matches_mpmath(dps, source, op, kind, data):
    fn = BINARY[op]
    other = data.draw(OPERANDS[kind])
    with workdps(dps), mpmath.workdps(dps):
        x = to_mpf(source)
        mx = mpmath.mpf(x._mpf_)
        y = to_mpf(other) if kind == "real" else other
        my = mpmath.mpf(y._mpf_) if kind == "real" else other
        assume(op != "/" or y != 0)
        _same(fn(x, y), fn(mx, my))
        assume(op != "/" or x != 0)
        _same(fn(y, x), fn(my, mx))
        _same(-x, -mx)
        _same(abs(x), abs(mx))


@PROPERTY
@given(DPS, st.fractions(min_value=Fraction(1, 10**6), max_value=10**3,
                         max_denominator=10**6),
       st.one_of(st.integers(-40, 40),
                 st.fractions(min_value=-8, max_value=8, max_denominator=10**4),
                 st.builds("{}e-3".format, st.integers(-8000, 8000))))
def test_powers_and_logs_match_mpmath(dps, base, expo):
    # a rational base or exponent becomes a real through `to_mpf`
    with workdps(dps), mpmath.workdps(dps):
        x = to_mpf(base)
        mx = mpmath.mpf(x._mpf_)
        y = expo if isinstance(expo, int) else to_mpf(expo)
        my = expo if isinstance(expo, int) else mpmath.mpf(y._mpf_)
        _same(x ** y, mx ** my)
        _same(power(x, y), mpmath.power(mx, my))
        if isinstance(expo, int) and expo > 0:
            _same(power(expo, x), mpmath.power(expo, mx))
            _same(log(expo), mpmath.log(expo))
        _same(log(x), mpmath.log(mx))


@PROPERTY
@given(DPS, SOURCES, SOURCES)
def test_comparisons_match_mpmath(dps, source, other):
    with workdps(dps), mpmath.workdps(dps):
        x = to_mpf(source)
        mx = mpmath.mpf(x._mpf_)
        if isinstance(other, (str, Fraction)):
            other = to_mpf(other)
        mo = mpmath.mpf(other._mpf_) if hasattr(other, "_mpf_") else other
        for fn in (operator.lt, operator.le, operator.gt, operator.ge,
                   operator.eq, operator.ne):
            assert fn(x, other) == fn(mx, mo)
            assert fn(other, x) == fn(mo, mx)
        assert bool(x) == bool(mx)


@pytest.mark.parametrize("fn", [
    operator.add, operator.sub, operator.mul, operator.truediv, operator.pow,
    operator.lt, operator.le, operator.gt, operator.ge, operator.eq,
    operator.ne])
def test_fraction_on_the_left_or_in_an_ordering_is_a_type_error(fn):
    # a real meets only reals and ints: a Fraction or a float on either side
    # of an operator or an ordering is a TypeError, so a rational becomes a
    # real through `to_mpf` alone and rounds one way
    with workdps(30):
        real = to_mpf(2)
        for foreign in (Fraction(1, 3), 0.5):
            with pytest.raises(TypeError):
                fn(foreign, real)
            with pytest.raises(TypeError):
                fn(real, foreign)
        # reals and ints still meet, and mpmath's reals are reals; an int
        # raised to a real goes through `power`
        for other in (3, to_mpf(3), mpmath.mpf(3)):
            fn(real, other)
            if fn is operator.pow and isinstance(other, int):
                with pytest.raises(TypeError):
                    fn(other, real)
            else:
                fn(other, real)
        if fn in (operator.eq, operator.ne):
            # any other type is simply unequal, on either side
            for other in ("", None):
                assert fn(real, other) is fn(other, real) is (
                    fn is operator.ne)


def test_a_rational_becomes_a_real_only_through_to_mpf():
    # `log`, `power` and `to_mpf` refuse what an operator refuses, and
    # `check_le` rounds a side that is not rational through `to_mpf`
    with workdps(30):
        for foreign in (Fraction(1, 3), 0.5):
            for call in (lambda: log(foreign),
                         lambda: power(foreign, to_mpf(2)),
                         lambda: power(to_mpf(2), foreign)):
                with pytest.raises(TypeError, match="to_mpf"):
                    call()
        for bad in (0.5, None, [1]):
            with pytest.raises(TypeError, match="to_mpf"):
                to_mpf(bad)
        with pytest.raises(TypeError, match="to_mpf"):
            check_le(0.5, 1)
        with pytest.raises(TypeError, match="to_mpf"):
            check_le(1, lambda: 0.5)


def test_bits_follow_libmps_formula():
    # the bits of a precision are known without loading libmp
    for dps in range(15, 2001):
        assert dps_to_prec(dps) == mpmath.libmp.dps_to_prec(dps), dps


def test_checked_with_reals_pickles_and_copies():
    with workdps(40):
        c = check_le(lambda: log(to_mpf(3)), 2)
    assert not c.exact and type(c.slack).__name__ == "_Real"
    for twin in (pickle.loads(pickle.dumps(c)), copy.copy(c),
                 copy.deepcopy(c)):
        assert type(twin) is Checked
        fields = [getattr(twin, f) for f in Checked._fields]
        assert fields == [getattr(c, f) for f in Checked._fields]
        assert twin.slack._mpf_ == c.slack._mpf_
        assert fmt_real(twin.slack) == fmt_real(c.slack)
