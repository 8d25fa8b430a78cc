"""Balance-guided sparse PDE discovery toolkit.

Term-level sparse regression solved by importance-guided progressive pruning,
plus the benchmark solvers, coefficient-thresholding baselines, and metrics
needed to evaluate it end to end.
"""

from .core import (
    Axis,
    Dataset,
    DatasetError,
    DiscoveredModel,
    PruneIteration,
    PruneTrace,
    SampleSet,
    add_noise,
    load_dataset,
    save_dataset,
    subsample,
)
from .differentiation import time_derivative
from .library import Library, LibrarySpec, TermDescriptor, build_library, reduce_independent
from .regression import FitResult, least_squares
from .pruner import PrunerConfig, discover, importance
from .baselines import stlsq, train_stridge
from .metrics import coefficient_error, relative_l2, structure_match
from .simulate import (
    BenchmarkConfig,
    SolverInstability,
    generate_benchmark,
    integrate_model,
    reference_model,
)
from .benchmarks import discovery_recipe, run_discovery

__version__ = "0.1.0"
