// Per-layer probes shared by every workload's traced run: algorithm calls
// timed on each rank (busy vs. wait), the collectives timed in back-to-back
// blocks at the sizes the algorithms use, and the per-class traffic counts
// from dedicated shared-memory runs.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "comm/comm.hpp"
#include "comm/runtime.hpp"
#include "core/dist2d.hpp"

namespace perfbench {

/// Operation classes, in metric order.
enum Class : int { kBfs = 0, kMsBfs, kPr, kCc, kClasses };
inline constexpr const char* kClassNames[kClasses] = {"bfs", "msbfs", "pr", "cc"};

/// What one call of each class runs.
struct OpPlan {
  std::vector<Gid> bfs_roots;    // single-source probes cycle through these
  std::vector<Gid> msbfs_roots;  // one multi-source batch
  int pr_iterations = 20;
};

/// Runs one call of class `c` (the `i`-th of its kind) on every rank;
/// returns its superstep count (BFS steps, MS-BFS supersteps, PageRank
/// iterations, CC iterations).
std::int64_t run_class(int c, hpcg::core::Dist2DGraph& g, const OpPlan& plan,
                       int i);

inline constexpr int kProbeCalls = 5;

/// Probe results (process-shareable).
struct ProbeOut {
  double call_ms[kClasses][kProbeCalls][kRanks];
  std::int64_t supersteps[kClasses];
  double barrier_us;
  double allreduce_one_us;
  double bcast_gbps;
  double allgatherv_ms;
};

/// Collective on every rank: times kProbeCalls calls of each class and the
/// collective probes on the resident communicators. `ghost_doubles` is the
/// size of PageRank's ghost broadcast. Rank 0 records spans into `log`,
/// naming the collective probes under `comm_layer`.
void probe_layers(hpcg::core::Dist2DGraph& g, hpcg::comm::Comm& comm,
                  const OpPlan& plan, std::size_t ghost_doubles,
                  const char* comm_layer, ProbeOut& out, SpanLog& log);

/// Appends algos.* (busy/wait/supersteps) and the four collective metrics
/// under `comm_prefix` ("comm" on shared memory, "transport" on sockets).
void add_probe_metrics(const ProbeOut& probe, const char* comm_prefix,
                       MetricTable& out);

/// Appends comm.bytes.x / comm.messages.x: the RunStats deltas of one call
/// per class over a construction-only run, on the shared-memory backend.
void add_traffic_counts(const hpcg::core::Partitioned2D& parts,
                        const OpPlan& plan, MetricTable& out);

/// PageRank ghost-broadcast size on this partition (one row block).
inline std::size_t ghost_doubles(const hpcg::core::Partitioned2D& parts) {
  return static_cast<std::size_t>(parts.n() / parts.grid().row_groups());
}

/// Run options every rank world of the benchmark uses.
hpcg::comm::RunOptions run_options();

}  // namespace perfbench
