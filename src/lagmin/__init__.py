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
    line_to_imcircle,
    plane_to_ipoint,
    sphere_to_imsphere,
    stereographic,
)
from .fields import (
    EllipticField,
    ExceptionalField,
    HyperbolicField,
    ParabolicField,
    RootQuarticField,
    ScalarField,
    fd_bilaplacian,
    make_bump_field,
    make_polynomial_field,
    pushforward_inversion,
    sum_fields,
)
from .reconstruct import (
    FieldSurface,
    ParamSurface,
    isotropic_image,
)
from .surfaces import (
    BLOCK_NAMES,
    ConvolutionSurface,
    LineFamily,
    RuledPatch,
    block_field,
    building_block,
    cyclographic_preimage,
    kinematic_rulings,
)
from .pencils import (
    Cycle,
    classify_family,
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
