"""Cooperative wireless network coding toolkit: GF(2) code design,
detect-and-forward relay simulation over Rayleigh fading, and MAP /
sum-product decoding with relay reliability information."""

from .gf2 import BitMatrix, is_systematic_prefix
from .design import (
    NetworkCode,
    TradeoffPoint,
    code_for_requirements,
    default_schedule,
    greedy_code,
    network_code,
    rate_advantage,
    repetition_baseline,
    repetition_code,
    separation_vector,
    tradeoff_table,
)
from .channel import (
    FadingModel,
    RoundBatch,
    SncPolicy,
    combine_reliability,
    link_error_prob,
    simulate_rounds,
    snc_threshold,
)
from .decoders import (
    channel_llr,
    decode_with_mode_batch,
    llr_chat,
    map_decode_batch,
    sp_decode_batch,
)
from .harness import (
    BerRecord,
    ConfigError,
    SimConfig,
    compare_sweeps,
    estimate_diversity_slope,
    records_from_csv,
    records_to_csv,
    run_sweep,
)

__version__ = "0.1.0"
