"""Graph linear canonical transforms on Cartesian product graphs.

The package builds multi-dimensional linear canonical transforms for signals
on Cartesian product graphs out of per-factor spectral decompositions, in two
factorizations (chirp-scale-fractional and chirp-convolution-chirp), and
ships the benchmark harness (additivity, reversibility, operation counts) and
a transform-domain compression pipeline built on them.
"""
from .errors import GlctError, NumericalError, ValidationError
from .graphs import (
    Graph,
    GsoKind,
    ProductGraph,
    bipolar_rect_signal,
    cartesian_product,
    gso,
    kronecker_sum,
    make_comet,
    make_complete,
    make_family,
    make_low_stretch_tree,
    make_path,
    make_ring,
)
from .kernels import FactorDecomposition, decompose_graph
from .params import (
    LctParams,
    ParamBlock,
    ProgramGroup,
    ZeroBVariant,
    inverse,
    sample_random_params,
)
from .product import (
    ProductContext,
    SignalNd,
    TransformSpec,
    block_rows,
    dense_operator,
    glct_cddhfs_nd,
    glct_cmccm_nd,
    mult_count,
)
from .spectral import (
    SpectralBasis,
    eig_sym,
    frac_diag_power,
    gft_matrix,
)
from .experiments import (
    BENCHMARK_SIGNALS,
    COMPRESSION_REFERENCE_PARAMS,
    CompressionReport,
    NmseReport,
    apply_glct,
    benchmark_signal,
    complexity_model,
    compress,
    compress_gfrft,
    compression_study,
    nmse_additivity,
    nmse_reversibility,
    search_glct_params,
    suite_additivity,
    suite_reversibility,
)

__version__ = "0.1.0"
