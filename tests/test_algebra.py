import tracemalloc

import numpy as np
import pytest

from bqem.algebra import Biquaternion, I1, I2, I3, ONE, cross, dot


def rand_bq(rng, n):
    return Biquaternion(rng.uniform(-1, 1, (n, 4)) + 1j * rng.uniform(-1, 1, (n, 4)))


def test_multiplication_table():
    assert np.array_equal((I1 * I2).components, I3.components)
    assert np.array_equal((I2 * I3).components, I1.components)
    assert np.array_equal((I3 * I1).components, I2.components)
    assert np.array_equal((I2 * I1).components, (-I3).components)
    for unit in (I1, I2, I3):
        assert np.array_equal((unit * unit).components, (-ONE).components)


def test_complex_unit_commutes_with_quaternion_units():
    for unit in (ONE, I1, I2, I3):
        left = (1j * ONE) * unit
        right = unit * (1j * ONE)
        assert np.array_equal(left.components, right.components)
        assert np.array_equal(left.components, (1j * unit).components)


def test_unit_element():
    a = Biquaternion((0.3 + 1j, -2.0, 0.5j, 1.25))
    assert np.array_equal((a * ONE).components, a.components)
    assert np.array_equal((ONE * a).components, a.components)


def test_zero_divisors():
    # (1 + 1j*i1)(1 - 1j*i1): scalar 1 - (1j)(-1j) = 0, vector cancels
    a = ONE + 1j * I1
    b = ONE - 1j * I1
    assert (a * b).max_abs() == 0.0


def test_quat_conj_values():
    assert np.array_equal(I1.quat_conj().components, (-I1).components)
    assert np.array_equal((ONE + I2).quat_conj().components, (ONE - I2).components)


def test_quat_conj_antiautomorphism():
    rng = np.random.default_rng(7)
    a, b = rand_bq(rng, 500), rand_bq(rng, 500)
    err = ((a * b).quat_conj() - b.quat_conj() * a.quat_conj()).max_abs()
    assert err <= 1e-12


def test_complex_conj():
    assert np.array_equal((1j * ONE).complex_conj().components, (-1j * ONE).components)
    real = Biquaternion((1.0, -2.0, 3.0, 0.25))
    assert np.array_equal(real.complex_conj().components, real.components)
    # real part recovery: (V + V*)/2 strips the imaginary vector content
    calE = np.array([1.0, -0.5, 2.0])
    calH = np.array([0.3, 0.7, -1.1])
    V = Biquaternion.from_vector(calE + 1j * calH)
    rec = 0.5 * (V + V.complex_conj())
    assert np.allclose(rec.vector, calE) and abs(rec.scalar) == 0.0


def test_projections():
    assert I1.scalar == 0.0
    five_i3 = Biquaternion((5.0, 0, 0, 1.0))
    assert np.array_equal(Biquaternion.from_vector(five_i3.vector).components, I3.components)
    assert np.array_equal(cross(I1, I2).components, I3.components)
    assert dot(I1, I1) == 1.0


def test_associativity_bulk():
    rng = np.random.default_rng(0)
    a, b, c = (rand_bq(rng, 10_000) for _ in range(3))
    assert ((a * b) * c - a * (b * c)).max_abs() <= 1e-12


def test_mul_reconstruction_from_projections():
    rng = np.random.default_rng(3)
    a, b = rand_bq(rng, 2000), rand_bq(rng, 2000)
    rebuilt = Biquaternion.from_parts(
        a.scalar * b.scalar - dot(a, b),
        a.scalar[..., None] * b.vector + b.scalar[..., None] * a.vector + cross(a, b).vector,
    )
    assert (rebuilt - a * b).max_abs() <= 1e-12


def test_pure_vector_square_is_minus_dot():
    rng = np.random.default_rng(11)
    v = Biquaternion.from_vector(rng.uniform(-1, 1, (1000, 3)) + 1j * rng.uniform(-1, 1, (1000, 3)))
    sq = v * v
    assert np.max(np.abs(sq.scalar + dot(v, v))) <= 1e-12
    assert np.max(np.abs(sq.vector)) <= 1e-12


def test_broadcasting_and_batch_ops():
    rng = np.random.default_rng(5)
    batch = rand_bq(rng, 6)
    single = Biquaternion((0.5, 1.0, -1.0j, 2.0))
    prod = batch * single
    assert prod.shape == (6,)
    for i in range(6):
        assert np.allclose(prod[i].components, (batch[i] * single).components)
    assert np.allclose(batch.sum().components, batch.components.sum(axis=0))


def test_immutability():
    a = Biquaternion((1.0, 0, 0, 0))
    with pytest.raises(ValueError):
        a.components[0] = 2.0


def test_operators_own_their_result():
    # every operator builds one fresh array and wraps it: the result is
    # read-only, shares no memory with the operands, and is not copied again
    rng = np.random.default_rng(5)
    p, q = rand_bq(rng, 20000), rand_bq(rng, 20000)
    ops = {
        "mul": lambda: p * q, "scale": lambda: p * 2.0, "rscale": lambda: 2.0 * p, "div": lambda: p / 2.0,
        "add": lambda: p + q, "sub": lambda: p - q, "neg": lambda: -p, "conj": p.complex_conj,
        "quat_conj": p.quat_conj, "sum": lambda: p.sum(axis=()),
    }
    for name, op in ops.items():
        op()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = op()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert not out.components.flags.writeable, name
        assert not any(np.shares_memory(out.components, o.components) for o in (p, q)), name
        # the product stacks its four components: they are one more result's worth
        bound = 2.5 if name == "mul" else 1.5
        assert peak <= bound * out.components.nbytes, (name, peak / out.components.nbytes)
    assert not Biquaternion.zeros((3,)).components.flags.writeable


def test_bad_shape_rejected():
    with pytest.raises(ValueError):
        Biquaternion((1.0, 2.0, 3.0))
    # a vector part needs trailing length 3, whatever its shape
    for vector in (5.0, (1.0, 2.0)):
        with pytest.raises(ValueError, match="trailing length 3"):
            Biquaternion.from_parts(vector=vector)
