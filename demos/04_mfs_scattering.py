#!/usr/bin/env python3
# The method-of-fundamental-solutions benchmark: scattering of a magnetic
# dipole field by a perfectly conducting 5 x 3 x 2 ellipsoid, alpha = 1+0.3j.
# Sources sit on the ellipsoid shrunk by 0.15, errors are measured against
# the exact dipole field of the medium on the ellipsoid inflated by 5.

from dataclasses import replace

from bqem import ChiralMedium, Ellipsoid, MfsProblem, run_benchmark

problem = MfsProblem(
    surface=Ellipsoid(5.0, 3.0, 2.0),
    medium=ChiralMedium(beta=0.0, alpha=1 + 0.3j),
    n_sources=10,
    source_scale=0.15,
)

print("achiral dipole benchmark (moment (1,1,1)/sqrt(3)):")
print(f"{'N':>4} {'errE':>12} {'errH':>12} {'cond':>10} {'sc_leak':>10}")
for row in run_benchmark(problem, [10, 15, 20, 25, 30, 35]):
    print(
        f"{row['N']:4d} {row['errE']:12.3e} {row['errH']:12.3e} "
        f"{row['cond']:10.1e} {row['sc_leak']:10.1e}"
    )

# The same machinery solves genuinely chiral problems.  In a chiral medium
# the reference dipole excites both circular polarizations, an exact
# exterior solution the solver fits from its boundary datum alone: errB on
# the surface and the far errors fall together.
chiral = replace(problem, medium=ChiralMedium(beta=0.1, alpha=1 + 0.3j))
print("\nchiral dipole benchmark (beta = 0.1):")
print(f"{'N':>4} {'errB':>12} {'errE':>12} {'errH':>12}")
for row in run_benchmark(chiral, [10, 20, 35]):
    print(f"{row['N']:4d} {row['errB']:12.3e} {row['errE']:12.3e} {row['errH']:12.3e}")
