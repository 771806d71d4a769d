"""Entanglement witnesses from the geometry of the separable set.

Construct witnesses from an entangled target and a separable reference
(closest separable state, segment point toward the maximally mixed
state, or far-face mixture of an unextendible product basis), decompose
them into coordinated local measurement settings, and verify every
construction against closed forms and optimization oracles.
"""

from .linalg import (
    DensityState,
    ProductProjection,
    SystemShape,
    hs_distance,
    hs_inner,
    hs_norm,
    partial_transpose,
    tensor,
)
from .measurements import (
    GhzDecomposition,
    MeasurementSetting,
    ShotEstimate,
    WitnessDecomposition,
    far_face_decomposition,
    ghz_decomposition,
    qudit_decomposition,
    shot_estimate,
    standard_witness,
    three_qubit_decomposition,
    three_qubit_witness,
    two_qubit_decomposition,
)
from .oracle import (
    MinProductsResult,
    PptReport,
    SeeSawConfig,
    min_over_products,
    ppt_report,
    product_from_angles,
)
from .spin import (
    projection_family,
    spin_expand,
    spin_matrix,
    spin_projection,
    spin_reconstruct,
    spin_relations_check,
)
from .states import (
    closest_separable,
    completely_random,
    four_vector,
    ghz,
    ghz_corner_mix,
    ghz_dephased,
    ghz_segment_state,
    ghz_segment_weight,
    max_entangled,
    noise_ball,
    noisy_mixture,
    pauli_parity_state,
    schmidt_state,
    three_qubit_family,
    three_qubit_family_mt,
    three_qubit_separable_candidates,
)
from .upb import (
    UpbSet,
    bound_entangled,
    estimate_epsilon,
    far_face_witness,
    reweighted_bound_entangled,
    tiles,
    uniform_mixture,
)
from .witness import (
    Witness,
    detects,
    evaluate,
    frustum_predicate,
    nearest_witness,
    qudit_detection_predicate,
    segment_witness,
    two_qubit_noise_threshold,
)

__version__ = "0.1.0"
