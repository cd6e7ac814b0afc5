"""Inside the vertical-line quadrature.

Everything in this package runs through one primitive: the inverse
Mellin integral (1/2 pi i) int_(c) f(z) dz along Re z = c, truncated at
a height chosen from the integrand's own decay and discretized by the
trapezoid rule (exponentially accurate for analytic integrands).
"""

import math

import numpy as np

import levykernel as lk

# the simplest inversion: Gamma(z) r^-z recovers e^-r
for r in (1.0, 2.0, 5.0):
    def f(z, r=r):
        z = np.asarray(z, dtype=complex)
        return np.exp(lk.log_gamma(z) - z * math.log(r))

    big_t = lk.auto_truncation(f, 1.0, 1e-12)
    res = lk.vertical_line_integral(f, lk.ContourSpec(1.0, big_t), tol=1e-12)
    print(f"r = {r}: ladder height T = {big_t:4.0f}, "
          f"integral = {res.value.real:.12f}, e^-r = {math.exp(-r):.12f}, "
          f"tail bound {res.diagnostics['tail_bound']:.1e}")

# why the ladder terminates: |Gamma| decays like e^(-pi |v|/2) up a line,
# with the polynomial factor read off from the Stirling magnitude
print(f"\n{'v':>5} {'|Gamma(1+iv)|':>15} {'Stirling magnitude':>19}")
for v in (4.0, 16.0, 64.0):
    print(f"{v:5.0f} {abs(lk.gamma(1.0 + v * 1j)):15.6e} "
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
