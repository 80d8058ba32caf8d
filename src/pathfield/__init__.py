"""Random-path mobile sensing simulator for 2D bandlimited fields."""

from .field import BandlimitedField, fourier_sum, generate_random_field, harmonics
from .paths import (
    ConfigurationError,
    PathGenerationError,
    Point,
    POINT_SCHEMES,
    SamplePath,
    Scheme,
    SchemeConfig,
    UNAWARE_SCHEMES,
    directed_walk,
    generate_paths,
    line_path,
    paths_to_csv,
    random_walk_path,
    same_edge,
    sample_boundary_point,
    sample_scattered,
)
from .sensing import build_matrix, point_rows
from .estimation import (
    EstimateReport,
    SingularSystemError,
    condition_number,
    estimate_coefficients,
    measure,
    reconstruct_and_score,
)
from .sweep import (
    CellResult,
    SweepResult,
    SweepSpec,
    check_bound_trend,
    rank_schemes,
    run_sweep,
)

__version__ = "0.1.0"
