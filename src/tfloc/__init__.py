"""Numerical toolkit for time-frequency localization operators.

Wavelet (scale/translation) and Gabor (translation/modulation) localization
operators realized on discretized phase planes, together with the
diagonalizing transform that exhibits them as multiplication, integral and
compound-symbol pseudodifferential operators on a single frequency axis, and
the commutative algebra their first-variable symbols generate.
"""

from .algebra import (Partition, PartitionCloud, commutator_diagnostics,
                      evaluate_on_cloud, partition_gammas, semi_commutator)
from .atoms import (AdmissibilityError, Atom, Fibers, make_atom, make_wavelet,
                    make_window)
from .fields import (PhasePlaneField, analyze, bargmann, bargmann_adjoint,
                     random_bandlimited)
from .fourier import fourier
from .grids import LineGrid, SampledFunction, ScaleGrid, induced_grid
from .kernels import (GammaFunction, SpectrumReport, boundedness_verdict,
                      gamma, overlap_kernel, spectrum_from_gamma,
                      weighted_overlap_kernel)
from .operators import (OperatorMatrix, build_direct, build_integral,
                        build_multiplication, build_pseudodiff,
                        default_operator_grid, filter_signal,
                        hausdorff_distance, operator_norm, spectrum,
                        verify_equivalence)
from .symbols import Symbol1D, SymbolParseError, SymbolSpec, parse_symbol

__version__ = "0.1.0"
