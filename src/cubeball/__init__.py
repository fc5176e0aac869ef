"""Chain coordinates on the Boolean cube and low-stretch maps onto the
Hamming ball, with exhaustive and sampled verification sweeps."""

__version__ = "0.1.0"

from .bits import (
    DEFAULT_ENUMERATION_CAP,
    BitVector,
    EdgeId,
    distance,
)
from .chains import (
    BLANK,
    ChainCode,
    ChainPosition,
    MarkedString,
    chain_code,
    chain_member,
    chain_members,
    mark,
    position,
)
from .bijections import (
    BallVector,
    BijectionKind,
    forward_map,
    inverse_map,
    naive,
    naive_inverse,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
    transitivity_map,
)
from .metrics import (
    Direction,
    RatioAudit,
    StretchReport,
    SweepMode,
    TransitivityAudit,
    forward_stretch_exhaustive,
    forward_stretch_sampled,
    inverse_stretch_exhaustive,
    pairwise_ratio_audit,
    transitivity_ratio_audit,
)
from . import analysis, errors
