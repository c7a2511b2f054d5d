"""Infinite-width NTK predictions of ensemble test-loss statistics,
finite-width MLP ensembles, and power-law scaling fits."""

from .errors import DivergenceError, IllConditionedError, NtkuqError
from .kernels import (
    ArchitectureConfig,
    InputSet,
    KernelPair,
    build_kernel_pair,
    erf_deriv_pair_expectation,
    erf_pair_expectation,
    load_kernel_pair,
    save_kernel_pair,
)
from .infwidth import (
    EarlyStopPolicy,
    PredictivePosterior,
    bayesian_posterior,
    closed_form_posterior,
    gd_evolve,
    save_posterior_jsonl,
)
from .loss_stats import (
    LossStats,
    loss_stats,
    mc_loss_moments,
)
from .finite_width import (
    AdamState,
    EnsembleRunRecord,
    EnsembleSummary,
    MlpState,
    TrainConfig,
    adam_epoch,
    forward,
    gd_epoch,
    init_network,
    mse_loss,
    run_ensemble,
    train_with_early_stopping,
)
from .scaling import (
    FlatnessVerdict,
    MatrixScalingReport,
    ScalingFit,
    epsilon_flatness_check,
    fit_power_law,
    matrix_element_scan,
)
from .datasets import (
    Dataset,
    dataset_from_spec,
    energy_from_label,
    load_event_vectors,
    load_idx,
    make_synthetic,
    save_event_vectors,
)
from .experiment import ExperimentPlan, RunResult, emit_plot_data
from .experiment import load_plan_file, plan_from_file, run_plan

__version__ = "0.1.0"
