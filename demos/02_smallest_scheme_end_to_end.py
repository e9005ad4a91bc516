#!/usr/bin/env python3
"""The smallest interesting scheme (k=3, m=1, t=1, q=2), start to finish.

Seven users sit at the seven points of the projective plane over GF(2);
a subfile is a pair of points, a user caches it when it lies on their
line.  One XOR packet per non-collinear point triple serves everyone.

Run: python demos/02_smallest_scheme_end_to_end.py
"""

import numpy as np

from pgcache import ConstructionParams, build_scheme, q_binomial, verify_line_graph
from pgcache.linegraph import build_line_graph, build_universe
from pgcache.scheme import (
    FileStore,
    decode_round,
    demand_stream,
    run_round,
    serialize,
)

cp = ConstructionParams(k=3, m=1, t=1, q=2)

uni = build_universe(cp)
print("users (points):         ", uni.num_users)
# a sum space is the span of a subfile's points: a line of the plane
print("sum spaces (lines):     ", q_binomial(cp.k - cp.t + 1, cp.m + 1, cp.q))
print("subfiles (point pairs): ", uni.subpacketization)

print("uncached per user   D = ", cp.user_clique_size)
print("uncached per subfile c =", cp.subfile_clique_size)
report = verify_line_graph(build_line_graph(uni))
print("structural conditions pass:", report.ok)

inst = build_scheme(cp)
p = inst.params
print("\ncached fraction M/N =", p.cached_fraction, " rate R =", p.rate,
      " packets per round =", inst.delivery.num_cliques)
print("first transmission clique:", inst.delivery.clique(0))

# one demand round with random file contents
store = FileStore.random(num_files=7, num_subfiles=21, subfile_len=32, seed=1)
demands = next(demand_stream(seed=1, num_users=7, num_files=7))
print("\ndemands:", demands)
packets = run_round(inst, store, demands)
print("packets sent:", len(packets), "of", store.subfile_len, "bytes each")
ok = decode_round(inst, store, demands, packets)
print("every user reconstructed its file exactly:", all(ok))

naive = 7 * 21          # unicast everything
uncoded = int(np.sum(inst.placement.matrix))  # send each missing subfile alone
print("\nsubfile transmissions: naive", naive, "| uncoded", uncoded,
      "| coded", len(packets))

doc = serialize(inst)
print("\nserialized scheme document:", len(doc), "bytes, format pgcache/1")
