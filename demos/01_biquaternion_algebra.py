#!/usr/bin/env python3
# Complex quaternions in five minutes: the unit table, zero divisors,
# and the two conjugations that drive everything else in this library.

import numpy as np

from bqem import Biquaternion, I1, I2, ONE, cross, dot

print("== unit table ==")
print("i1*i2 =", (I1 * I2).components, " (i3)")
print("i2*i1 =", (I2 * I1).components, " (-i3)")
print("i1*i1 =", (I1 * I1).components, " (-1)")

# The complex unit 1j commutes with the quaternionic units, which is what
# makes H(C) different from the real quaternions: it has zero divisors.
a = ONE + 1j * I1
b = ONE - 1j * I1
print("\n== zero divisors ==")
print("(1 + 1j i1)(1 - 1j i1) =", (a * b).components)

# Everything broadcasts: a whole field of values is one object.
rng = np.random.default_rng(0)
batch = Biquaternion(rng.normal(size=(100_000, 4)) + 1j * rng.normal(size=(100_000, 4)))
print("\n== bulk laws on", batch.shape[0], "random values ==")
x, y, z = batch[:30_000], batch[30_000:60_000], batch[60_000:90_000]
print("max associativity error   :", ((x * y) * z - x * (y * z)).max_abs())
print("conjugation reverses mul  :", ((x * y).quat_conj() - y.quat_conj() * x.quat_conj()).max_abs())

# The product splits into scalar/vector pieces the way vector calculus
# expects: Sc(ab) = a0 b0 - <av, bv>, Vec(ab) = a0 bv + b0 av + av x bv.
rebuilt = Biquaternion.from_parts(
    x.scalar * y.scalar - dot(x, y),
    x.scalar[..., None] * y.vector + y.scalar[..., None] * x.vector + cross(x, y).vector,
)
print("scalar/vector reconstruction:", (rebuilt - x * y).max_abs())

# complex_conj flips 1j only; quat_conj flips the vector part only.
v = Biquaternion.from_parts(2.0 + 1j, (1.0, -1j, 0.5))
print("\nv             =", v.components)
print("v.quat_conj()    =", v.quat_conj().components)
print("v.complex_conj() =", v.complex_conj().components)
