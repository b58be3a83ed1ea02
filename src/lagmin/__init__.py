"""Computational kernel for Laguerre geometry in the isotropic model.

Oriented planes and spheres, their isotropic point model, biharmonic
graph fields with exact derivative jets, the reconstruction map back to
surfaces in Gauss-coordinate form, the closed-form building blocks and
their ruled convolutions, circle-pencil classification in cycle space,
and numerical certification of the tangency and stationarity claims.
"""

from .errors import (
    BadFit,
    DegenerateCone,
    DegenerateFamily,
    DependentCircles,
    DomainMismatch,
    EmptyIntersection,
    GrammarError,
    IdealImage,
    LagminError,
    NonImmersed,
    NotLinearOnCircle,
    ProvenanceMismatch,
    SingularPoint,
    TooFew,
    UnknownName,
    ZeroGaussCurvature,
    ZeroNormal,
)
from .geom_core import (
    ContactElement,
    Line3,
    OrientedPlane,
    OrientedSphere,
    sphere_tangent_plane,
)
from .isotropic import (
    IMSphere,
    IsoPoint,
    inverse_stereographic,
    ipoint_to_plane,
    line_to_imcircle,
    plane_to_ipoint,
    sphere_to_imsphere,
    stereographic,
)
from .fields import (
    ScalarField,
    bilaplacian,
    fd_bilaplacian,
    make_bump_field,
    make_elliptic_field,
    make_exceptional_field,
    make_hyperbolic_field,
    make_parabolic_field,
    make_polynomial_field,
    make_remark_counterexample,
    pushforward_inversion,
    sum_fields,
)
from .reconstruct import (
    FieldSurface,
    ParamSurface,
    isotropic_image,
    reconstruct_surface,
)
from .surfaces import (
    BLOCK_NAMES,
    RulingFamily,
    block_field,
    building_block,
    convolve,
    cyclographic_preimage,
    ruled_surface,
    rulings_of_convolution,
)
from .pencils import (
    Cycle,
    classify_family,
    center_constraint_check,
    fit_nested,
    gauss_circle_of_cone,
    gauss_pencil_of_cones,
    recover_crossing,
)
from .meshing import obj_text, surface_mesh, write_obj
from .verify import (
    CheckReport,
    biharmonic_residual,
    curvatures,
    fd_curvature_check,
    first_variation,
    gaussmap_identity_residual,
    omega_integrand,
    ruling_residual,
    stationarity_check,
    tangency_check,
    tangency_residual,
)
from .grammar import parse_field, parse_surface

__version__ = "1.0.0"
