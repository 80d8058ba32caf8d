"""Random-path mobile sensing simulator for 2D bandlimited fields."""

from .field import BandlimitedField, generate_random_field
from .paths import (
    ConfigurationError,
    PathGenerationError,
    POINT_SCHEMES,
    PathSet,
    SamplePath,
    Scheme,
    SchemeConfig,
    UNAWARE_SCHEMES,
    generate_paths,
    paths_to_csv,
)
from .sensing import (
    Sensing,
    SingularSystemError,
    build_matrix,
    condition_number,
    measure,
    reconstruct_and_score,
)
from .sweep import (
    CellResult,
    SweepResult,
    SweepSpec,
    rank_schemes,
    run_sweep,
)

__version__ = "0.1.0"
