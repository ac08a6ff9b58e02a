#!/usr/bin/env python3
# The method-of-fundamental-solutions benchmark: scattering of a magnetic
# dipole field by a perfectly conducting 5 x 3 x 2 ellipsoid, alpha = 1+0.3j.
# Sources sit on the ellipsoid shrunk by 0.15, errors are measured against
# the exact dipole field on the ellipsoid inflated by 5.

from bqem import ChiralMedium, Ellipsoid, MfsProblem, chiral_selftest, run_benchmark

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

# The same machinery solves genuinely chiral problems.  The self-test
# manufactures an exact exterior solution from a point source exciting both
# circular polarizations and solves the boundary value problem blind.
print("\nchiral self-test (beta = 0.1):")
print(f"{'N':>4} {'boundary err':>14} {'far err':>12}")
for n in (10, 20, 35):
    r = chiral_selftest(ChiralMedium(beta=0.1, alpha=1 + 0.3j), n)
    print(f"{n:4d} {r.boundary_error:14.3e} {r.far_error:12.3e}")
