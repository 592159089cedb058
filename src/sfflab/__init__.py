"""sfflab: spectral form factor laboratory for coupled chaotic torus maps."""

__version__ = "0.1.0"

from .dynamics import (
    CatMapSpec,
    CorrelationEstimate,
    DEFAULT_MAP,
    SystemSpec,
    estimate_correlation,
)
from .orbits import (
    OrbitFamily,
    SubsystemOrbit,
    family_iterator,
    stability_amplitude_sq,
    sum_rule_check,
)
from .phases import (
    CltReport,
    VarianceTable,
    action_difference_identity_check,
    clt_diagnostics,
    per_bond_variance_table,
    sample_phase_distribution,
    variance_series,
    variance_time_average,
)
from .potts import (
    PottsParams,
    SffPrediction,
    closed_form_sff,
    deviation_bound,
    prediction,
    scaled_kappa,
    sff_transfer,
    thouless_time,
    transfer_eigenvalues,
)
from .quantum import (
    CircuitSpec,
    SffSeries,
    build_circuit,
    compare,
    coupling_operator,
    quantize_subsystem,
    sff_numeric,
)
from .harness import ExperimentConfig, RunManifest, run_experiment
