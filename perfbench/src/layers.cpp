#include "layers.hpp"

#include <algorithm>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/msbfs.hpp"
#include "algos/pagerank.hpp"
#include "comm/runtime.hpp"

namespace perfbench {

namespace algos = hpcg::algos;
namespace comm = hpcg::comm;
namespace core = hpcg::core;

comm::RunOptions run_options() {
  comm::RunOptions o;
  o.kernel.threads = kKernelThreads;
  return o;
}

std::int64_t run_class(int c, core::Dist2DGraph& g, const OpPlan& plan, int i) {
  switch (c) {
    case kBfs: {
      const auto& roots = plan.bfs_roots;
      const auto r = algos::bfs(
          g, roots[static_cast<std::size_t>(i) % roots.size()]);
      return r.top_down_steps + r.bottom_up_steps;
    }
    case kMsBfs:
      return algos::multi_source_bfs(g, plan.msbfs_roots).supersteps;
    case kPr:
      algos::pagerank(g, plan.pr_iterations);
      return plan.pr_iterations;
    default:
      return algos::connected_components(g, algos::CcOptions::all_push())
          .iterations;
  }
}

namespace {

/// Rank 0's per-operation time of `reps` back-to-back calls, median of
/// five blocks, in seconds. Every rank must call it with the same reps.
template <class F>
double block_time(comm::Comm& comm, int reps, F&& op) {
  std::vector<double> per_op;
  for (int b = 0; b < 6; ++b) {
    comm.barrier();
    const double t0 = now_s();
    for (int i = 0; i < reps; ++i) op();
    comm.barrier();
    if (b > 0) per_op.push_back((now_s() - t0) / reps);  // block 0 warms up
  }
  return median(per_op);
}

}  // namespace

void probe_layers(core::Dist2DGraph& g, comm::Comm& comm, const OpPlan& plan,
                  std::size_t ghost, const char* comm_layer, ProbeOut& out,
                  SpanLog& log) {
  const bool lead = comm.rank() == 0;
  SpanLog* spans = lead ? &log : nullptr;
  const auto me = static_cast<std::size_t>(comm.rank());
  for (int c = 0; c < kClasses; ++c) {
    const std::string name = std::string("algos.") + kClassNames[c];
    for (int i = 0; i < kProbeCalls; ++i) {
      comm.barrier();
      Scope span(spans, name.c_str(), i);
      const double t0 = now_s();
      const auto steps = run_class(c, g, plan, i);
      out.call_ms[c][i][me] = (now_s() - t0) * 1e3;
      if (lead && i == 0) out.supersteps[c] = steps;
    }
  }

  double barrier_s = 0.0;
  {
    Scope span(spans, (std::string(comm_layer) + ".barrier").c_str());
    barrier_s = block_time(comm, 300, [&] { comm.barrier(); });
  }
  double allreduce_s = 0.0;
  {
    Scope span(spans, (std::string(comm_layer) + ".allreduce_one").c_str());
    std::int64_t x = comm.rank();
    allreduce_s = block_time(comm, 300, [&] {
      x = comm.allreduce_one(x, comm::ReduceOp::kSum) & 0xff;
    });
  }
  std::vector<double> buf(ghost, 1.0);
  double bcast_s = 0.0;
  {
    Scope span(spans, (std::string(comm_layer) + ".bcast").c_str());
    bcast_s = block_time(comm, 10, [&] {
      g.col_comm().broadcast(std::span<double>(buf), 0);
    });
  }
  double allgatherv_s = 0.0;
  {
    Scope span(spans, (std::string(comm_layer) + ".allgatherv").c_str());
    const auto share = ghost / static_cast<std::size_t>(g.row_comm().size());
    std::vector<double> mine(share, 1.0);
    std::vector<double> all;
    allgatherv_s = block_time(comm, 10, [&] {
      g.row_comm().allgatherv(std::span<const double>(mine), all);
    });
  }
  if (lead) {
    out.barrier_us = barrier_s * 1e6;
    out.allreduce_one_us = allreduce_s * 1e6;
    out.bcast_gbps =
        static_cast<double>(ghost * sizeof(double)) / bcast_s / 1e9;
    out.allgatherv_ms = allgatherv_s * 1e3;
  }
}

void add_probe_metrics(const ProbeOut& probe, const char* comm_prefix,
                       MetricTable& out) {
  for (int c = 0; c < kClasses; ++c) {
    std::vector<double> busy;
    std::vector<double> wait;
    for (int i = 0; i < kProbeCalls; ++i) {
      const double* ranks = probe.call_ms[c][i];
      double sum = 0.0;
      for (int r = 0; r < kRanks; ++r) sum += ranks[r];
      busy.push_back(sum / kRanks);
      wait.push_back(*std::max_element(ranks, ranks + kRanks) -
                     *std::min_element(ranks, ranks + kRanks));
    }
    const std::string p = std::string("algos.") + kClassNames[c];
    out.push_back({p + ".busy_ms", median(busy), "ms"});
    out.push_back({p + ".wait_ms", median(wait), "ms"});
    out.push_back({p + ".supersteps",
                   static_cast<double>(probe.supersteps[c]), "count"});
  }
  const std::string p(comm_prefix);
  out.push_back({p + ".barrier_us", probe.barrier_us, "us"});
  out.push_back({p + ".allreduce_one_us", probe.allreduce_one_us, "us"});
  out.push_back({p + ".bcast_gbps", probe.bcast_gbps, "GB/s"});
  out.push_back({p + ".allgatherv_ms", probe.allgatherv_ms, "ms"});
}

void add_traffic_counts(const core::Partitioned2D& parts, const OpPlan& plan,
                        MetricTable& out) {
  const auto topo = comm::Topology::aimos(kRanks);
  const comm::CostModel cost;
  const auto traffic = [&](int c) {
    return comm::Runtime::run(kRanks, topo, cost, run_options(),
                              [&](comm::Comm& world) {
                                core::Dist2DGraph g(world, parts);
                                if (c >= 0) run_class(c, g, plan, 0);
                              });
  };
  const auto base = traffic(-1);
  for (int c = 0; c < kClasses; ++c) {
    const auto s = traffic(c);
    const std::string x = kClassNames[c];
    out.push_back({"comm.bytes." + x,
                   static_cast<double>(s.bytes - base.bytes), "bytes"});
    out.push_back({"comm.messages." + x,
                   static_cast<double>(s.messages - base.messages), "count"});
  }
}

}  // namespace perfbench
