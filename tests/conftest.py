import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ekrlab import SetFamily, _kernels, numerics


def random_rational(rng: random.Random, open_unit: bool = True) -> Fraction:
    """A random fraction in (0,1) with small denominator."""
    den = rng.randint(2, 40)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


def random_family(rng: random.Random, n: int) -> SetFamily:
    bits = rng.getrandbits(1 << n)
    return SetFamily(n, bits)


def monotone_families(n: int):
    """Every increasing family on [n] as a SetFamily, in ascending mask
    order."""
    return (SetFamily(n, bits) for bits in _kernels.monotone_masks(n))


def iso_rows(profile_of, fields):
    """The rows of an `iso_sweep` table, (family id,) + row for each family
    and bias in order: the rows the sweep wrote one by one."""
    return ((fid,) + row for fid, k in enumerate(profile_of)
            for row in fields[k])


def random_increasing_family(rng: random.Random, n: int) -> SetFamily:
    bits = 0
    for _ in range(rng.randint(0, 2 * n + 1)):
        bits |= 1 << rng.randrange(1 << n)
    return SetFamily(n, bits).up_closure()


def numerics_state() -> tuple:
    """numerics' digits, tolerance and bits."""
    return numerics._dps, numerics._tol, numerics._prec


#: `numerics_state()` outside any `settings` block
NUMERICS_DEFAULTS = (numerics.DEFAULT_DPS, numerics.DEFAULT_TOL,
                     numerics.dps_to_prec(numerics.DEFAULT_DPS))


@pytest.fixture(autouse=True)
def numerics_left_at_the_defaults():
    """Fail a test that leaves numerics' digits, tolerance or bits off the
    defaults, so that a leaked setting fails the test that leaks it, not a
    later one; the defaults are put back first."""
    yield
    left = numerics_state()
    if left != NUMERICS_DEFAULTS:
        numerics._dps, numerics._tol, numerics._prec = NUMERICS_DEFAULTS
        pytest.fail(f"the test left numerics at (dps, tol, bits) = {left}, "
                    f"not {NUMERICS_DEFAULTS}")


@pytest.fixture
def rng():
    return random.Random(20260809)


def _perfbench_module(name: str):
    """perfbench/<name>.py as a module, read and never written."""
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench"
        spec = importlib.util.spec_from_file_location(name, path / f"{name}.py")
        # registered before it runs: a dataclass looks itself up there
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def perfbench_workloads():
    """perfbench/workloads.py as a module: the commands of the benchmark."""
    return _perfbench_module("workloads")


def perfbench_gate():
    """perfbench/gate.py as a module: the benchmark's output digest."""
    return _perfbench_module("gate")
