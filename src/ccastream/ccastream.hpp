// Umbrella header: the full public API of the ccastream library.
//
//   sim::Chip          — the AM-CCA chip simulator (mesh, routing, IO, energy)
//   graph::*           — RPVO fragments, insert-edge protocol, host façade
//   apps::*            — MonotoneApp (streaming BFS/SSSP/components),
//                        reachability, PageRank, triangles
//   wl::*              — SBM/R-MAT generators, Edge/Snowball sampling
//   base::*            — sequential reference oracles and baselines
//   io::*              — edge lists, CSV experiment outputs, increment logs
//   svc::*             — long-lived streaming service (ingest + queries)
#pragma once

#include "runtime/action.hpp"
#include "runtime/alloc_policy.hpp"
#include "runtime/arena.hpp"
#include "runtime/context.hpp"
#include "runtime/future.hpp"
#include "runtime/geometry.hpp"
#include "runtime/handler_registry.hpp"
#include "runtime/rng.hpp"
#include "runtime/terminator.hpp"
#include "runtime/types.hpp"

#include "sim/chip.hpp"
#include "sim/compute_cell.hpp"
#include "sim/energy.hpp"
#include "sim/io_channel.hpp"
#include "sim/message.hpp"
#include "sim/routing.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

#include "graph/builder.hpp"
#include "graph/device.hpp"
#include "graph/fragment.hpp"
#include "graph/protocol.hpp"
#include "graph/stream_edge.hpp"

#include "apps/bfs.hpp"
#include "apps/components.hpp"
#include "apps/monotone.hpp"
#include "apps/pagerank.hpp"
#include "apps/reach.hpp"
#include "apps/sssp.hpp"
#include "apps/triangles.hpp"

#include "workload/rmat.hpp"
#include "workload/sampling.hpp"
#include "workload/sbm.hpp"
#include "workload/sliding_window.hpp"

#include "baseline/algorithms.hpp"
#include "baseline/dynamic_bfs.hpp"
#include "baseline/dynamic_components.hpp"
#include "baseline/dynamic_sssp.hpp"
#include "baseline/graph.hpp"

#include "io/csv.hpp"
#include "io/edgelist.hpp"
#include "io/increment_codec.hpp"

#include "svc/stream_service.hpp"
