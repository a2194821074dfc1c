"""Transfer-entropy tensors: subchannel decomposition, capacity bounds, and
chain/fork/v-structure discrimination for quantized time series.

The public names below load on first use (PEP 562): ``import tetensor``
imports no numpy until one of them is read, so ``tetensor.cli`` can set
numpy's BLAS defaults before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "Alphabet",
        "DimensionMismatch",
        "DistributionError",
        "InsufficientData",
        "JointPmf",
        "MissingSupport",
        "Pmf",
        "TransitionTensor",
        "UndefinedCondition",
        "apply_channel",
        "compose_chain",
        "conditional_mutual_information",
        "dagger",
        "entropy",
        "mutual_information",
    ), "core"),
    **dict.fromkeys((
        "DelayScanResult",
        "EmbeddedDataset",
        "EmbeddingSpec",
        "SubchannelEstimate",
        "delay_scan",
        "embed",
        "estimate_subchannels",
        "infer_alphabet",
        "te_from_counts",
        "transfer_entropy",
        "transfer_entropy_direct",
    ), "estimation"),
    **dict.fromkeys((
        "CapacityResult",
        "blahut_arimoto",
        "capacity_bound_from_counts",
        "channel_capacity",
        "te_capacity_bound",
    ), "capacity"),
    **dict.fromkeys((
        "MultiInputTensor",
        "RelationEstimate",
        "TriadConfig",
        "TriadVerdict",
        "bar_tensor",
        "bivariate_identifiable",
        "chain_residual",
        "classify_triad",
        "dagger_per_condition",
        "delay_additivity_check",
        "dpi_check",
        "estimate_triad_tensors",
        "fork_residual",
        "noiseless_check",
        "v_structure_marginals",
    ), "structure"),
    **dict.fromkeys((
        "AnalysisReport",
        "PairResult",
        "analyze_pair",
        "analyze_series",
    ), "pipeline"),
    **dict.fromkeys((
        "SurrogateConfig",
        "acausal_mirror",
        "null_distribution",
        "p_value",
        "scan_statistic",
    ), "significance"),
    **dict.fromkeys((
        "LatticeConfig",
        "TriadData",
        "generate_lattice",
        "generate_triad",
        "quantize_extrema",
        "step_lattices",
    ), "simulate"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
