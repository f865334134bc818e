"""Hydrogen-contamination variability analysis for Al/AlOx/Al tunnel junctions.

Subpackages: count statistics (stats), atomic-structure analysis (structure),
hydrogen motif classification (motifs), tight-binding NEGF transport
(transport), Josephson-energy arithmetic and distributions (josephson), and
the pipeline CLI (cli).
"""

from .josephson import EjDistribution, ej_distribution, ej_single
from .motifs import MOTIF_CLASSES, MotifRecord, classify_h, motif_statistics
from .stats import BetaBinomial, CountSample, FitResult, fit, read_counts
from .structure import (
    AtomicStructure,
    BondGraph,
    OxideRegion,
    effective_time,
    ideal_gas_count,
    parse_xyz,
    stoichiometry,
)
from .transport import (
    JunctionModel,
    TransmissionCurve,
    apply_defect,
    calibrate_barrier,
    transfer_matrix_transmission,
    transmission,
)

__version__ = "0.1.0"
