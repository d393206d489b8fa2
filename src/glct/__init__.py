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
    product_gso,
)
from .kernels import FactorDecomposition, decompose_graph
from .params import (
    LctParams,
    ParamBlock,
    ProgramGroup,
    ZeroBVariant,
    cddhfs_decompose,
    cmccm_decompose,
    compose,
    inverse,
    recompose,
    sample_random_params,
)
from .product import (
    ProductContext,
    SignalNd,
    TransformSpec,
    apply_spec,
    block_rows,
    cddhfs_block,
    cmccm_block,
    dense_operator,
    gcm_nd,
    gfrft_block,
    gfrft_nd,
    gft_nd,
    glct_cddhfs_nd,
    glct_cmccm_nd,
    gscale_nd,
    igft_nd,
    mult_count,
)
from .spectral import (
    FourierEigen,
    SpectralBasis,
    eig_sym,
    eig_unitary,
    frac_diag_power,
    frac_operator,
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
    correlation_coefficient,
    nmse_additivity,
    nmse_reversibility,
    normalized_rms,
    relative_error,
    search_glct_params,
    suite_additivity,
    suite_reversibility,
)

__version__ = "0.1.0"
