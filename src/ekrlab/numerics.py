"""Tolerance-aware comparisons mixing exact rationals with high-precision reals.

All measure arithmetic in this package is exact (`fractions.Fraction`).  Only
quantities with irrational exponents (log-ratios, powers like eps**u) are
evaluated as binary floating-point reals.  Comparisons against such
quantities use an explicit tolerance tau; when a comparison lands within
10*tau of the boundary the working precision is doubled and the computation
retried, so a verdict is never an artifact of rounding.

The reals are a small type built on `mpmath.libmp`, mpmath's low-level
float library: each operation makes the libmp call that `mpmath.mpf` makes,
at the same precision and rounding (to nearest), so every digit matches
mpmath's at an equal precision.  Most commands never reach the real layer,
so libmp loads on first use, and without running `mpmath/__init__.py`,
whose contexts and function modules would cost several times the rest of a
short command.  The value sits in a slot named `_mpf_`, as in mpmath, so
mpmath accepts these reals and this module accepts mpmath's.

A rational becomes a real only through `to_mpf`, so it rounds one way.
Past that door a real meets only reals and ints: a Fraction or a float
beside an operator, an ordering or `==`, or as an argument of `log`,
`power` or `to_mpf`, is a TypeError.

The working precision is one setting: `settings` sets the digits a header
reports, the bits every real is computed at and the tolerance together
(DEFAULT_DPS and DEFAULT_TOL outside any block); only `check_le`'s retries
raise the bits, through `workdps`.
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
import sys
from fractions import Fraction

#: where mpmath is installed; only its `libmp` subpackage is ever loaded
_MPMATH = importlib.util.find_spec("mpmath")
if _MPMATH is None:
    raise ModuleNotFoundError("No module named 'mpmath'", name="mpmath")

#: the name libmp is loaded under when mpmath itself is not imported; it
#: lies outside the `mpmath.` and `ekrlab.` names
_LIBMP = "_ekrlab_libmp"

_lib = None  # libmp, once loaded

#: decimal digits of working precision (relative error well below 1e-18)
DEFAULT_DPS = 30

#: least working precision accepted (that of a double)
MIN_DPS = 15

#: comparison tolerance tau
DEFAULT_TOL = Fraction(1, 10**12)


def dps_to_prec(dps: int) -> int:
    """The bits of `dps` decimal digits, by libmp's own formula, so that a
    command that never computes a real never loads libmp."""
    return max(1, round((dps + 1) * 3.3219280948873626))


#: the working precision in digits and in bits, and the tolerance tau;
#: `settings` sets all three, `workdps` the bits alone
_dps = DEFAULT_DPS
_prec = dps_to_prec(DEFAULT_DPS)
_tol = DEFAULT_TOL

_new = object.__new__


def _libmp():
    """mpmath's libmp: the one mpmath imported, if it is loaded, else a
    copy loaded from mpmath's directory under a private name."""
    global _lib
    if _lib is None:
        if "mpmath" in sys.modules:
            _lib = sys.modules["mpmath"].libmp
        else:
            path = os.path.join(os.path.dirname(_MPMATH.origin), "libmp")
            spec = importlib.util.spec_from_file_location(
                _LIBMP, os.path.join(path, "__init__.py"),
                submodule_search_locations=[path])
            module = importlib.util.module_from_spec(spec)
            sys.modules[_LIBMP] = module  # its relative imports look here
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[_LIBMP]
                raise
            _lib = module
    return _lib


@contextlib.contextmanager
def workdps(dps: int):
    """Compute reals at `dps` decimal digits inside the block, as
    `mpmath.workdps` does; `default_dps()` keeps the digits of `settings`."""
    global _prec
    saved, _prec = _prec, dps_to_prec(dps)
    try:
        yield
    finally:
        _prec = saved


def _real(value: tuple) -> "_Real":
    x = _new(_Real)
    x._mpf_ = value
    return x


def _operand(x, fn: str = ""):
    """The libmp value of a real (anything with `_mpf_`, so mpmath's reals
    too) or an int, exactly.  Anything else, a Fraction or a float included,
    is NotImplemented, so that an operator or an ordering raises TypeError;
    given the name `fn` of a function, it is a TypeError that names it."""
    value = getattr(x, "_mpf_", None)
    if value is not None:
        return value
    if isinstance(x, int):
        return _lib.from_int(x)
    if fn:
        raise TypeError(f"{fn}() does not take a {type(x).__name__}; to_mpf "
                        "makes a real of an int, a Fraction or a decimal string")
    return NotImplemented


class _Real:
    """A binary floating-point real: the libmp tuple (sign, mantissa,
    exponent, bit count) in `_mpf_`.  Each operation rounds to nearest at
    the working precision, through the libmp call `mpmath.mpf` makes for
    it: `*` and `**` by an int use `mpf_mul_int` and `mpf_pow_int`, and an
    int divided by a real `mpf_rdiv_int`.  A real meets only reals and
    ints, on either side of an operator or an ordering (an int raised to a
    real is `power`'s); a Fraction or a float there, or beside `==` and
    `!=`, is a TypeError, so a rational becomes a real only through
    `to_mpf`, rounded one way.  Any other type is unequal to a real."""

    __slots__ = ("_mpf_",)

    def __add__(self, other):
        t = _operand(other)
        if t is NotImplemented:
            return t
        return _real(_lib.mpf_add(self._mpf_, t, _prec, "n"))

    __radd__ = __add__

    def __sub__(self, other):
        t = _operand(other)
        if t is NotImplemented:
            return t
        return _real(_lib.mpf_sub(self._mpf_, t, _prec, "n"))

    def __rsub__(self, other):
        t = _operand(other)
        if t is NotImplemented:
            return t
        return _real(_lib.mpf_sub(t, self._mpf_, _prec, "n"))

    def __mul__(self, other):
        if isinstance(other, int):
            return _real(_lib.mpf_mul_int(self._mpf_, other, _prec, "n"))
        t = _operand(other)
        if t is NotImplemented:
            return t
        return _real(_lib.mpf_mul(self._mpf_, t, _prec, "n"))

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = _operand(other)
        if t is NotImplemented:
            return t
        return _real(_lib.mpf_div(self._mpf_, t, _prec, "n"))

    def __rtruediv__(self, other):
        if isinstance(other, int):
            return _real(_lib.mpf_rdiv_int(other, self._mpf_, _prec, "n"))
        return NotImplemented

    def __pow__(self, other):
        if isinstance(other, int):
            return _real(_lib.mpf_pow_int(self._mpf_, other, _prec, "n"))
        t = _operand(other)
        if t is NotImplemented:
            return t
        return _real(_lib.mpf_pow(self._mpf_, t, _prec, "n"))

    def __neg__(self):
        return _real(_lib.mpf_neg(self._mpf_, _prec, "n"))

    def __abs__(self):
        return _real(_lib.mpf_abs(self._mpf_, _prec, "n"))

    def __eq__(self, other):
        t = _operand(other)
        if t is not NotImplemented:
            return _lib.mpf_eq(self._mpf_, t)
        if isinstance(other, (Fraction, float)):
            # an ordering refuses these, so == and != must not quietly
            # answer False and True
            raise TypeError(f"a real is not compared with a "
                            f"{type(other).__name__}; to_mpf makes a real "
                            "of a rational")
        return t

    def __lt__(self, other):
        t = _operand(other)
        return t if t is NotImplemented else _lib.mpf_lt(self._mpf_, t)

    def __le__(self, other):
        t = _operand(other)
        return t if t is NotImplemented else _lib.mpf_le(self._mpf_, t)

    def __gt__(self, other):
        t = _operand(other)
        return t if t is NotImplemented else _lib.mpf_gt(self._mpf_, t)

    def __ge__(self, other):
        t = _operand(other)
        return t if t is NotImplemented else _lib.mpf_ge(self._mpf_, t)

    def __bool__(self):
        return self._mpf_ != _lib.fzero

    def __repr__(self):
        return f"real('{_lib.to_str(self._mpf_, _lib.repr_dps(_prec))}')"

    def __getstate__(self):
        return self._mpf_

    def __setstate__(self, value):
        _libmp()  # an unpickled real needs the library for its operations
        self._mpf_ = value


def log(x) -> _Real:
    """ln(x) of a real or an int, as `mpmath.log`; anything else is a
    TypeError (`to_mpf` makes a real of a rational)."""
    return _real(_libmp().mpf_log(_operand(x, "log"), _prec, "n"))


def power(x, y) -> _Real:
    """x**y for reals or ints, as `mpmath.power`; anything else is a
    TypeError (`to_mpf` makes a real of a rational)."""
    lib = _libmp()
    return _real(lib.mpf_pow(_operand(x, "power"), _operand(y, "power"),
                             _prec, "n"))


def nstr(x, n: int, **kwargs) -> str:
    """x to `n` significant digits, as `mpmath.nstr` (libmp's `to_str`)."""
    return _libmp().to_str(x._mpf_, n, **kwargs)


#: what `check_le` accepts on either side; an annotation only, so that
#: `typing` stays off the import path
ValueLike = "int | Fraction | _Real | Callable[[], ValueLike]"


class _Frozen:
    """Base of the immutable records.

    A record's public slots are its fields and the slots starting with "_"
    are private caches.  `_Frozen.__init__` takes one value per field, in
    slot order, and sets every cache to None; a record that validates or
    converts its input does so in its own `__init__` and ends in
    `super().__init__(...)`.  Assignment raises, and a record pickles and
    copies through its constructor called on its fields, so a copy starts
    with empty caches."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = [s for c in reversed(cls.__mro__)
                 for s in vars(c).get("__slots__", ())]
        cls._fields = tuple(s for s in slots if not s.startswith("_"))
        cls._caches = tuple(s for s in slots if s.startswith("_"))
        # a slot's own descriptor sets it faster than object.__setattr__
        cls._setters = tuple(getattr(cls, s).__set__ for s in cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} "
                            f"values {self._fields}, got {len(values)}")
        for setter, value in zip(self._setters, values):
            setter(self, value)
        for name in self._caches:
            object.__setattr__(self, name, None)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), tuple(getattr(self, s) for s in self._fields))


def default_dps() -> int:
    """The working precision in decimal digits, as the header reports it."""
    return _dps


def check_dps(dps, name: str) -> int:
    """`dps` (an int or a decimal string) as an int of at least MIN_DPS
    digits; anything else is a ValueError that names `name`."""
    if not str(dps).strip().isdecimal() or int(dps) < MIN_DPS:
        raise ValueError(f"{name} must be a whole number of at least "
                         f"{MIN_DPS} digits, got {dps!r}")
    return int(dps)


def default_tol() -> Fraction:
    """The comparison tolerance tau."""
    return _tol


def settings(dps: int | None = None, tol=None):
    """A block run at precision `dps` and tolerance `tol`, which puts back
    the settings it found however it ends; the CLI runs each command inside
    one.  The values are checked here, before the block opens: a `dps` of
    None is EKRLAB_PRECISION's, or DEFAULT_DPS without it, and a bad one is
    a ValueError that names the variable; a `tol` of None is DEFAULT_TOL."""
    if dps is None:
        env = os.environ.get("EKRLAB_PRECISION")
        dps = check_dps(env, "EKRLAB_PRECISION") if env else DEFAULT_DPS
    return _settings(check_dps(dps, "dps"),
                     DEFAULT_TOL if tol is None else Fraction(tol))


@contextlib.contextmanager
def _settings(dps: int, tol: Fraction):
    global _dps, _prec, _tol
    saved = _dps, _prec, _tol
    _dps, _prec, _tol = dps, dps_to_prec(dps), tol
    try:
        yield
    finally:
        _dps, _prec, _tol = saved


def to_mpf(x) -> _Real:
    """An int, Fraction, decimal string ("1e-9") or real as a real rounded
    to the working precision, as `mpmath.mpf` rounds it (a Fraction as its
    numerator's real divided by its denominator).  It is the one way a
    rational becomes a real: anything else, a float included, is a
    TypeError."""
    lib = _libmp()
    if isinstance(x, Fraction):
        num = lib.mpf_pos(lib.from_int(x.numerator), _prec, "n")
        return _real(lib.mpf_div(num, lib.from_int(x.denominator), _prec, "n"))
    if isinstance(x, str):
        value = lib.from_str(x, _prec, "n")
    else:
        value = _operand(x, "to_mpf")
    return _real(lib.mpf_pos(value, _prec, "n"))


def _eval(x):
    """A side of `check_le`: a callable called until it gives a value, and
    a real rounded into the working precision; a rational stays exact."""
    while callable(x):
        x = x()
    return x if isinstance(x, (int, Fraction)) else to_mpf(x)


def log_base(x, base) -> _Real:
    """log_base(x) = ln(x)/ln(base)."""
    return log(to_mpf(x)) / log(to_mpf(base))


class Checked(_Frozen):
    """Outcome of a single `lhs <= rhs` comparison.

    slack = rhs - lhs; `holds` allows a -tau undershoot, `equal` means the two
    sides agree within tau.  `exact` marks comparisons where both sides were
    rational and no tolerance was involved.
    """

    __slots__ = ("lhs", "rhs", "slack", "holds", "equal", "exact", "dps")


def check_le(lhs: ValueLike, rhs: ValueLike) -> Checked:
    """Check lhs <= rhs, retrying at doubled precision near the boundary.

    Either side may be a plain value or a zero-argument callable; callables
    are re-invoked after each precision raise, so real-producing closures
    genuinely gain accuracy on retry.
    """
    tol, dps = _tol, _dps
    for attempt in range(4):
        with workdps(dps):
            a, b = _eval(lhs), _eval(rhs)
            if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
                slack = Fraction(b) - Fraction(a)
                return Checked(a, b, slack, slack >= 0, slack == 0, True, dps)
            slack = to_mpf(b) - to_mpf(a)
            t = to_mpf(tol)
            if attempt == 3 or not abs(slack) < 10 * t:
                return Checked(a, b, slack, slack >= -t, abs(slack) <= t,
                               False, dps)
        dps *= 2


def check_eq(lhs: ValueLike, rhs: ValueLike) -> Checked:
    """Check |lhs - rhs| <= tau (exact equality when both sides rational)."""
    c = check_le(lhs, rhs)
    return Checked(c.lhs, c.rhs, c.slack, c.equal, c.equal, c.exact, c.dps)


def fmt_rational(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """Parse "num/den" (or a bare integer); floats are deliberately rejected."""
    s = s.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"not an exact rational: {s!r} (use num/den form)")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {s!r}") from None


def fmt_real(x) -> str:
    """Serialize a real with 18 significant digits."""
    return nstr(x, 18, strip_zeros=False)
