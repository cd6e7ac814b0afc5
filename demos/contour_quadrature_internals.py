"""Inside the vertical-line quadrature.

Both kernels run through one primitive: the inverse Mellin integral
(1/2 pi i) int_(c) G(z) r^z dz along Re z = c, truncated at a height
chosen from the integrand's own decay and discretized by the trapezoid
rule (exponentially accurate for analytic integrands).  Every contour
value reports how its line was laid out.
"""

import numpy as np

import levykernel as lk

# each value's own diagnostics: the line's abscissa and ladder height, the
# nodes its refinement used, and how far the integral was from real;
# the oracle's independent quadrature alongside
print(f"{'d':>2} {'alpha':>5} {'beta':>4} {'r':>5} {'c':>6} {'T':>5} "
      f"{'nodes':>6} {'imag/|I|':>9} {'contour':>22} {'oracle':>22}")
for d, alpha, beta, r in ((2, 1.5, 0.0, 3.0), (3, 0.5, 0.7, 2.0),
                          (10, 1.2, 2.0, 1.0), (2, 1.99, 0.0, 0.5)):
    spec = lk.KernelSpec(d=d, alpha=alpha, beta=beta)
    res = lk.stable_mb(spec, r)
    diag = res.diagnostics
    oracle = lk.stable_oracle(spec, r).value
    print(f"{d:2d} {alpha:5.2f} {beta:4.1f} {r:5.1f} {diag['abscissa']:6.3f} "
          f"{diag['truncation_height']:5.0f} {diag['nodes_used']:6d} "
          f"{diag['imag_ratio']:9.1e} {res.value:22.15e} {oracle:22.15e}")

# why the ladder terminates: |Gamma| decays like e^(-pi |v|/2) up a line,
# with the polynomial factor read off from the Stirling magnitude
print(f"\n{'v':>5} {'|Gamma(1+iv)|':>15} {'Stirling magnitude':>19}")
for v in (4.0, 16.0, 64.0):
    gamma = np.exp(lk.log_gamma(1.0 + v * 1j))
    print(f"{v:5.0f} {abs(gamma):15.6e} "
          f"{lk.stirling_magnitude(1.0, v):19.6e}")

# the kernel value must not depend on the abscissa inside the strip
spec = lk.KernelSpec(d=2, alpha=1.5)
lo, hi = lk.admissible_strip(2, 0.0)
print(f"\ncontour independence inside the strip ({lo}, {hi}), r = 3:")
for c in (0.6, 1.0, 1.4, 1.9):
    v = lk.stable_mb(spec, 3.0, abscissa=c).value
    print(f"  c = {c}: {v:.15e}")

# the Bessel-Mellin identity closes the loop between the oscillatory
# and contour worlds: int J_0(s) s^(z-1) ds = 2^(z-1) G(z/2)/G(1-z/2)
z = 0.5
w = lambda s: np.where(np.asarray(s) > 0, np.asarray(s, float) ** (z - 1.0), 0.0)
res = lk.oscillatory_bessel_integral(w, 0.0, 1.0, tol=1e-9)
print(f"\nBessel transform of s^({z}-1): panels over "
      f"{res.diagnostics['panels']} zeros -> {res.value:.10f}; "
      f"gamma-ratio closed form "
      f"{lk.mellin_bessel_rhs(complex(z), 0.0).real:.10f}")
