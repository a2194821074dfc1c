"""Transfer-entropy tensors: subchannel decomposition, capacity bounds, and
chain/fork/v-structure discrimination for quantized time series."""

from .core import (
    Alphabet,
    DimensionMismatch,
    DistributionError,
    InsufficientData,
    JointPmf,
    MissingSupport,
    Pmf,
    TransitionTensor,
    UndefinedCondition,
    apply_channel,
    compose_chain,
    conditional_mutual_information,
    dagger,
    entropy,
    mutual_information,
)
from .estimation import (
    DelayScanResult,
    EmbeddedDataset,
    EmbeddingSpec,
    SubchannelEstimate,
    delay_scan,
    embed,
    estimate_subchannels,
    infer_alphabet,
    te_from_counts,
    transfer_entropy,
    transfer_entropy_direct,
)
from .capacity import (
    CapacityResult,
    blahut_arimoto,
    capacity_bound_from_counts,
    channel_capacity,
    te_capacity_bound,
)
from .structure import (
    MultiInputTensor,
    RelationEstimate,
    TriadConfig,
    TriadVerdict,
    bar_tensor,
    bivariate_identifiable,
    chain_residual,
    classify_triad,
    dagger_per_condition,
    delay_additivity_check,
    dpi_check,
    estimate_triad_tensors,
    fork_residual,
    noiseless_check,
    v_structure_marginals,
)
from .pipeline import AnalysisReport, PairResult, analyze_pair, analyze_series
from .significance import (
    SurrogateConfig,
    acausal_mirror,
    null_distribution,
    p_value,
    scan_statistic,
)
from .simulate import (
    LatticeConfig,
    TriadData,
    generate_lattice,
    generate_triad,
    quantize_extrema,
    step_lattices,
)

__version__ = "0.1.0"
