"""Spectral geometry on noncommutative tori at finite Fourier truncation."""

from .algebra import (
    AlgebraElement,
    LatticeBox,
    TorusGeometry,
    adjoint,
    cocycle_phase,
    derivation,
    inner_product,
    multiply,
    resize,
    sobolev_norm,
    trace,
    weighted_inner_product_opp,
)
from .calculus import (
    CompressedOperator,
    TorusMatrix,
    compress,
    determinant,
    functional_calculus,
    make_positive,
    matrix_inverse,
    matrix_trace,
    spectral_bounds,
)
from .errors import NCTorusError
from .forms import (
    OneForm,
    VectorField,
    differential,
    divergence_one_form,
    divergence_vector_field,
    form_inner_product,
    modular_automorphism,
)
from .laplacian import (
    LaplaceBeltramiOperator,
    SpectrumResult,
    assemble,
    assemble_riemannian,
    conformal_covariance_check,
    spectrum,
    weyl_constant,
    weyl_fit,
)
from .metrics import (
    Density,
    RiemannianMetric,
    density_exp,
    density_from_element,
    metric_conformal,
    metric_flat,
    metric_functional,
    metric_product,
    riemannian_density,
    validate_metric,
    volume,
    weight,
)

__version__ = "0.1.0"
