import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ekrlab import SetFamily, _kernels


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


def random_increasing_family(rng: random.Random, n: int) -> SetFamily:
    bits = 0
    for _ in range(rng.randint(0, 2 * n + 1)):
        bits |= 1 << rng.randrange(1 << n)
    return SetFamily(n, bits).up_closure()


@pytest.fixture
def rng():
    return random.Random(20260809)


def perfbench_workloads():
    """perfbench/workloads.py as a module: the commands of the benchmark."""
    if "workloads" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench"
        spec = importlib.util.spec_from_file_location(
            "workloads", path / "workloads.py")
        # registered before it runs: its dataclass looks itself up there
        sys.modules["workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["workloads"])
    return sys.modules["workloads"]
