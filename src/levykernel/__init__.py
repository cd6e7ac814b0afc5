"""levykernel: heat kernels of isotropic stable and radial Levy processes.

Evaluation routes: vertical-line (inverse-Mellin) contour integrals,
residue expansions at both ends of the strip, closed forms at the
Cauchy/Gaussian endpoints, and an independent oscillatory-quadrature
oracle against which everything else is validated.
"""

from .errors import (Approximation, DomainError, LevyKernelError, NoDecay,
                     NonConvergent, ParityError, StripViolation)
from .mellin import ContourSpec, mellin_bessel_rhs
from .oracle import (bessel_zeros, hankel_oracle, normalization_check,
                     oscillatory_bessel_integral, stable_oracle,
                     stable_weight, symbol_oracle, symbol_weight)
from .radial_symbol import (RadialSymbol, decay_slope, general_kernel_at_origin,
                            general_kernel_mb, general_leading_term,
                            make_symbol, mellin_M, mellin_Mk,
                            perturbed_leading_term, smoothstep_cutoff,
                            sum_symbol_envelope, sum_symbol_envelope_check,
                            symbol_registry, tail_integral)
from .specfun import (bessel_j, bessel_j_derivative, log_gamma,
                      stirling_magnitude)
from .stable_kernel import (KernelSpec, SeriesTerm, admissible_strip,
                            envelope_ratio, evaluate, gaussian_kernel,
                            kernel_at_origin, leading_term, poisson_kernel,
                            scaling_reduce, small_r_series, stable_mb,
                            stable_series)

__version__ = "0.1.0"
