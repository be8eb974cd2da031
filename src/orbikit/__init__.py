"""orbikit: a desk-scale workbench for orbifold groupoids.

Finite groupoids and Fourier-truncated circle/torus action groupoids,
Morita bitorsors between them, transported cocycles, bundles, sections and
connections, and truncated Dirac spectral triples over both the invariant
function algebra and the groupoid convolution algebra.
"""

__version__ = "0.1.0"

from .bases import (
    BandLimitError,
    CatalogError,
    CircleModes,
    CircleRotation,
    FiniteSet,
    FourierCircle,
    FourierTorus,
    LabelPermutation,
    TorusIsometry,
    TorusModes,
)
from .groupoids import (
    ActionGroupoid,
    CechCover,
    CircleArc,
    FiniteGroup,
    FiniteGroupoid,
    cech_groupoid,
    cyclic_translation_groupoid,
    finite_action_groupoid,
    germ_of,
    group_groupoid,
    is_effective,
    isotropy,
    negation_torus_groupoid,
    orbits,
    rotation_groupoid,
    trivial_cover,
    trivial_groupoid,
    unit_groupoid,
    validate_groupoid,
)
from .morita import (
    Bitorsor,
    QuotientCovering,
    double_cover_bitorsor,
    cech_bitorsor,
    compose_homs,
    fibre_partition_report,
    find_two_morphism,
    identity_bitorsor,
    inverse_bitorsor,
    lift_bisection,
    localize_cech,
    validate_generalized_hom,
    weak_equivalence_pair,
)
from .cocycles import (
    Cocycle,
    cohomologous,
    induce_cocycle,
    induced_bundle,
    reconstruct_bundle,
    sign_cocycle,
    validate_cocycle,
)
from .transport import (
    BundleSection,
    CircleForm,
    InvariantConnection,
    InvariantInnerProduct,
    induce_connection,
    induce_inner_product,
    pushforward_form,
    pushforward_function,
    pushforward_section,
)
from .clifford import CliffordRep, SpinLift, build_clifford, projective_lift, spin_lift_search
from .spectral import (
    DiracSpec,
    OrbifoldMeasure,
    TruncatedDirac,
    assemble_dirac,
    check_spectral_triple,
    induced_dirac,
    invariant_projector,
    orbifold_integral,
)
from .convolution import (
    ConvolutionElement,
    act,
    convolution_triple_report,
    convolve,
    faithfulness_probe,
)
from .harness import list_scenarios, run_scenario
