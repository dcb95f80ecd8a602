"""Evaluation pipeline: metrics, tables, noisy experiments, paper references."""

from .noisy import EnergyExperiment, noisy_energy_experiment
from .paper_reference import (
    TABLE1_PAULI_WEIGHT,
    TABLE2_PAULI_WEIGHT,
    TABLE3_PAULI_WEIGHT,
    TABLE6_UNOPT,
)
from .pipeline import (
    BASELINE_NAMES,
    MappingReport,
    compare_mappings,
    evaluate_mapping,
    standard_mappings,
)
from .tables import (
    format_table,
    results_dir,
    write_bench_json,
    write_result,
    write_result_json,
)

__all__ = [
    "MappingReport",
    "evaluate_mapping",
    "standard_mappings",
    "compare_mappings",
    "BASELINE_NAMES",
    "format_table",
    "write_result",
    "write_result_json",
    "write_bench_json",
    "results_dir",
    "EnergyExperiment",
    "noisy_energy_experiment",
    "TABLE1_PAULI_WEIGHT",
    "TABLE2_PAULI_WEIGHT",
    "TABLE3_PAULI_WEIGHT",
    "TABLE6_UNOPT",
]
