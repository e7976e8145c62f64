"""Tolerance-aware comparisons mixing exact rationals with high-precision reals.

All measure arithmetic in this package is exact (`fractions.Fraction`).  Only
quantities with irrational exponents (log-ratios, powers like eps**u) are
evaluated as mpmath floats.  Comparisons against such quantities use an
explicit tolerance tau; when a comparison lands within 10*tau of the boundary
the working precision is doubled and the computation retried, so a verdict is
never an artifact of rounding.

Importing mpmath is most of the package's import time, and most commands
never reach the real layer, so it loads on first attribute access: the
other modules take `mpmath` from here, and `load_real_layer()` forces the
load (before a process pool forks, so that the workers inherit it).
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union


def _lazy_import(name: str):
    """`name` imported on first attribute access (the standard library's
    `importlib.util.LazyLoader` recipe); an already imported module as is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


mpmath = _lazy_import("mpmath")


def load_real_layer() -> None:
    """Finish loading mpmath now (a no-op once it is loaded)."""
    mpmath.mpf


#: decimal digits of working precision (relative error well below 1e-18)
DEFAULT_DPS = 30

#: least working precision accepted (that of a double)
MIN_DPS = 15

#: comparison tolerance tau
DEFAULT_TOL = Fraction(1, 10**12)

ValueLike = Union[int, Fraction, "mpmath.mpf", Callable[[], "ValueLike"]]


_active = {"dps": None, "tol": None}


def default_dps() -> int:
    if _active["dps"] is not None:
        return _active["dps"]
    env = os.environ.get("EKRLAB_PRECISION")
    return check_dps(env, "EKRLAB_PRECISION") if env else DEFAULT_DPS


def check_dps(dps, name: str) -> int:
    """`dps` (an int or a decimal string) as an int of at least MIN_DPS
    digits; anything else is a ValueError that names `name`."""
    if not str(dps).strip().isdecimal() or int(dps) < MIN_DPS:
        raise ValueError(f"{name} must be a whole number of at least "
                         f"{MIN_DPS} digits, got {dps!r}")
    return int(dps)


def default_tol() -> Fraction:
    return _active["tol"] if _active["tol"] is not None else DEFAULT_TOL


def set_defaults(dps: int | None = None, tol=None) -> None:
    """Session-wide overrides (the CLI wires --precision / --tau here).
    Passing None resets a value to its built-in/env default."""
    _active["dps"] = check_dps(dps, "dps") if dps is not None else None
    _active["tol"] = Fraction(tol) if tol is not None else None


def to_mpf(x) -> mpmath.mpf:
    """Convert int/Fraction/mpf to mpf at the current working precision."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _eval(x, dps: int):
    with mpmath.workdps(dps):
        while callable(x):
            x = x()
        if isinstance(x, (int, Fraction)):
            return x
        return +x  # round into the working precision


def log_base(x, base) -> mpmath.mpf:
    """log_base(x) = ln(x)/ln(base)."""
    return mpmath.log(to_mpf(x)) / mpmath.log(to_mpf(base))


@dataclass(frozen=True)
class Checked:
    """Outcome of a single `lhs <= rhs` comparison.

    slack = rhs - lhs; `holds` allows a -tau undershoot, `equal` means the two
    sides agree within tau.  `exact` marks comparisons where both sides were
    rational and no tolerance was involved.
    """

    lhs: object
    rhs: object
    slack: object
    holds: bool
    equal: bool
    exact: bool
    dps: int

    def __bool__(self) -> bool:
        return self.holds


def check_le(lhs: ValueLike, rhs: ValueLike, tol: Fraction | None = None,
             dps: int | None = None) -> Checked:
    """Check lhs <= rhs, retrying at doubled precision near the boundary.

    Either side may be a plain value or a zero-argument callable; callables
    are re-invoked after each precision raise, so mpf-producing closures
    genuinely gain accuracy on retry.
    """
    tol = default_tol() if tol is None else Fraction(tol)
    dps = default_dps() if dps is None else dps
    a = _eval(lhs, dps)
    b = _eval(rhs, dps)
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        slack = Fraction(b) - Fraction(a)
        return Checked(a, b, slack, slack >= 0, slack == 0, True, dps)
    for _ in range(3):
        with mpmath.workdps(dps):
            slack = to_mpf(b) - to_mpf(a)
            near = abs(slack) < 10 * to_mpf(tol)
        if not near:
            break
        dps *= 2
        a = _eval(lhs, dps)
        b = _eval(rhs, dps)
    with mpmath.workdps(dps):
        slack = to_mpf(b) - to_mpf(a)
        t = to_mpf(tol)
        return Checked(a, b, slack, bool(slack >= -t), bool(abs(slack) <= t),
                       False, dps)


def check_eq(lhs: ValueLike, rhs: ValueLike, tol: Fraction | None = None,
             dps: int | None = None) -> Checked:
    """Check |lhs - rhs| <= tau (exact equality when both sides rational)."""
    c = check_le(lhs, rhs, tol=tol, dps=dps)
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


def fmt_real(x, digits: int = 18) -> str:
    """Serialize a real with `digits` significant digits."""
    if isinstance(x, (int, Fraction)):
        return fmt_rational(Fraction(x))
    return mpmath.nstr(x, digits, strip_zeros=False)
