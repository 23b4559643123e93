"""Experiment scenarios, report emission, and the command-line interface."""

from .reports import SCHEMA_VERSION, TrialReport, render_text, write_report
from .scenarios import ExperimentConfig, run_scenario, scenario_names

__all__ = [
    "SCHEMA_VERSION",
    "TrialReport",
    "render_text",
    "write_report",
    "ExperimentConfig",
    "run_scenario",
    "scenario_names",
]
