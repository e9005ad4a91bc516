"""Coded caching schemes from subspace geometry over finite fields.

The package builds caching line graphs from subspaces of GF(q)^k, turns
them into concrete placement + XOR-delivery schemes with an end-to-end
simulator, and computes subpacketization-aware lower bounds and the
reference comparison tables.
"""

from .gf import GF, field
from .subspaces import count_intersecting, generating_set_counts, q_binomial
from .linegraph import (
    CapacityError,
    ConstructionParams,
    DegenerateConstructionError,
    InvariantError,
    build_line_graph,
    build_universe,
    enumerate_transmission_cliques,
    verify_line_graph,
)
from .scheme import (
    CodedPacket,
    DecodeError,
    DeliveryPlan,
    FileStore,
    Packets,
    PlacementMap,
    SchemaError,
    SchemeInstance,
    build_placement,
    build_scheme,
    decode,
    decode_round,
    delivery_violation,
    deserialize,
    document_chunks,
    encode,
    run_trials,
    serialize,
)
from .bounds import (
    BoundsReport,
    SystemTriple,
    bound_pda,
    bound_cutset,
    bound_cutset_reported,
    bound_generic,
    bound_generic_max,
    bound_biregular,
    bounds_report,
)
from .compare import (
    ComparisonRow,
    asymptotic_sweep,
    binomial_scheme_params,
    pda_scheme_params,
    subspace_scheme_row,
    table1,
    table3,
)

__version__ = "0.1.0"
