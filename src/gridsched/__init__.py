"""Grid job scheduling toolkit: fuzzy DE scheduler, baselines, benchmark harness."""

from gridsched.model import (
    Assignment,
    GridInstance,
    Job,
    Resource,
    brute_force_optimum,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "GridInstance",
    "Job",
    "Resource",
    "brute_force_optimum",
    "__version__",
]
