"""Magnon-cavity sensor toolkit built around higher-order exceptional points.

The package constructs the non-Hermitian dynamical matrices of a Hermitian
atom-cavity system, locates and characterizes their exceptional points,
propagates Gaussian states exactly and under losses, and evaluates the
resulting metrological performance (susceptibility, noise, sensitivity,
quantum Fisher information, scaling laws).
"""

from .config import (PERTURBATIONS, ConfigurationError, NumericalError,
                     RegimeError, SystemConfig, collective_rate, ep3_sensor,
                     ep4_system)
from .gaussian import (BlochMessiahDecomposition, GaussianState, Propagator,
                       apply_external_loss, bloch_messiah_2mode, coherent_init,
                       evolve, evolve_lossy, excitation_numbers, propagator,
                       readout_swap, symplectic_form, total_excitation,
                       two_mode_squeezer_coefficients, vacuum_state)
from .metrology import (Observable, ScalingFit, SensitivityReport,
                        feasibility_check, noise_variance, observable,
                        peak_total_excitation, qfi, qfi_chi_scaling,
                        qfi_parts, scaling_fit, sensitivity, sql,
                        susceptibility, working_point_time)
from .model import (DynamicalMatrix, IrreducibilityReport, SymmetryReport,
                    build_system, check_irreducibility, check_symmetries,
                    ep4_locus)
from .perturb import (BiorthogonalBasis, PropagatorCoefficients,
                      biorthogonal_basis, exact_propagator_coefficients,
                      first_order_eigenvalues, first_order_propagator,
                      susceptibility_derivatives)
from .spectral import (CubicDiscriminant, PuiseuxFit, Spectrum,
                       cardano_eigenvalues, cubic_discriminant, eigensolve,
                       match_branches, perturbed_eigenvalues_analytic,
                       puiseux_fit)

__version__ = "0.1.0"
