"""The compiled kernel and the pure Python kernel agree operation for operation."""

import importlib
import random
from fractions import Fraction

import pytest

import eltlab
from eltlab import core

pykernel = importlib.import_module("eltlab._pykernel")
try:
    ckernel = importlib.import_module("eltlab._kernel")
except ImportError:
    ckernel = None

needs_compiled = pytest.mark.skipif(ckernel is None, reason="compiled kernel not built")


def sample(mod, rng):
    if rng.randrange(8) == 0:
        return mod.NEG_INF
    t = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
    l = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return mod.ELTScalar(t, l)


def fields(x, mod):
    if x is mod.NEG_INF:
        return "-inf"
    return (x.tangible, x.layer)


@needs_compiled
def test_arithmetic_parity():
    rng_c = random.Random(99)
    rng_p = random.Random(99)
    for _ in range(400):
        xc, yc = sample(ckernel, rng_c), sample(ckernel, rng_c)
        xp, yp = sample(pykernel, rng_p), sample(pykernel, rng_p)
        assert fields(xc, ckernel) == fields(xp, pykernel)
        for rc, rp in (
            (xc + yc, xp + yp),
            (xc * yc, xp * yp),
            (-xc, -xp),
            (xc ** 3, xp ** 3),
            (xc ** 0, xp ** 0),
        ):
            assert fields(rc, ckernel) == fields(rp, pykernel)
            assert str(rc) == str(rp)


@needs_compiled
def test_relation_parity():
    rng_c = random.Random(7)
    rng_p = random.Random(7)
    for _ in range(400):
        xc, yc = sample(ckernel, rng_c), sample(ckernel, rng_c)
        xp, yp = sample(pykernel, rng_p), sample(pykernel, rng_p)
        assert xc.surpasses(yc) == xp.surpasses(yp)
        assert xc.nabla(yc) == xp.nabla(yp)
        assert (xc == yc) == (xp == yp)
        assert xc.is_neg_inf == xp.is_neg_inf


@pytest.mark.parametrize("mod", [pykernel] + ([ckernel] if ckernel else []))
def test_kernel_contract(mod):
    one = mod.ELTScalar(0, 1)
    assert one == mod.ONE
    assert hash(one) == hash(mod.ONE)
    assert mod.NEG_INF ** 0 == mod.ONE
    assert mod.NEG_INF + one == one
    assert mod.NEG_INF * one is mod.NEG_INF
    assert str(mod.NEG_INF) == "-inf"
    with pytest.raises(TypeError):
        mod.ELTScalar(1.5, 1)
    with pytest.raises(ValueError):
        one ** -1


def test_backend_selection():
    """The compiled kernel whenever it imports, the pure one otherwise."""
    if ckernel is not None:
        assert eltlab.BACKEND == "c"
        assert core.ELTScalar is ckernel.ELTScalar
    else:
        assert eltlab.BACKEND == "py"
        assert core.ELTScalar is pykernel.ELTScalar
