"""Paths to the data files shipped inside the package.

Bundled files: the recorded model-run fixture and its target sets, the
default neighborhood alias table, and a synthetic demo dataset for trying
the CLI without assembling real surveillance data.
"""

from __future__ import annotations

from pathlib import Path

_DATA_DIR = Path(__file__).parent / "data"


def bundled_path(name: str) -> Path:
    path = _DATA_DIR / name
    if not path.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path


def model_runs_path() -> Path:
    """Recorded allocation recommendations from five LLM configurations."""
    return bundled_path("model_runs.json")


def targets_path() -> Path:
    """Empirical high-risk target sets for Chicago, NYC, and Washington, D.C."""
    return bundled_path("targets.json")


def aliases_path() -> Path:
    """Default neighborhood alias table (user-editable format)."""
    return bundled_path("aliases.json")


def demo_dataset_path() -> Path:
    """Synthetic demo city dataset; figures are invented."""
    return bundled_path("demo_city.csv")
