"""Random-path mobile sensing simulator for 2D bandlimited fields."""

from .field import BandlimitedField, fourier_sum, generate_random_field, harmonics
from .paths import (
    ConfigurationError,
    PathGenerationError,
    Point,
    POINT_SCHEMES,
    PathSet,
    SamplePath,
    Scheme,
    SchemeConfig,
    UNAWARE_SCHEMES,
    directed_walks,
    generate_paths,
    line_paths,
    paths_to_csv,
    random_walks,
    same_edge,
    sample_boundary_points,
    sample_scattered,
)
from .sensing import Sensing, build_matrix, point_rows
from .estimation import (
    SingularSystemError,
    condition_number,
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
