// batch-rmat18 and socket-rmat16: rounds of one-shot analytics on an
// already-loaded 2D-partitioned graph. The same rank body runs on rank
// threads over shared memory (batch) and on forked rank processes over
// Unix sockets (socket); everything the ranks report goes through one
// process-shared BatchShared block.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <random>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/gather.hpp"
#include "algos/msbfs.hpp"
#include "algos/pagerank.hpp"
#include "algos/reference.hpp"
#include "bench.hpp"
#include "comm/runtime.hpp"
#include "comm/transport/launcher.hpp"
#include "core/balance.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "layers.hpp"
#include "stream/commit.hpp"

namespace perfbench {
namespace {

namespace algos = hpcg::algos;
namespace comm = hpcg::comm;
namespace core = hpcg::core;
namespace graph = hpcg::graph;
namespace stream = hpcg::stream;

// Single-source BFS per round, timed as one block. With 32, a block's p95
// falls below its two slowest BFS, so one preempted BFS does not set it.
constexpr int kBfsBlock = 32;
constexpr int kMsBfsRoots = 64;
constexpr int kPrIterations = 20;
// Each round commits one batch that inserts one fresh edge owned by each
// rank and deletes them again (8 ops, the serve workload's batch size).
// Every rank stages and rebuilds in every commit, so the commit's cost does
// not hinge on which ranks random pairs happen to hit, and every round's
// answers can be checked against one set of references.
constexpr int kMutationPairs = kRanks;
constexpr int kMaxFailures = 4;

/// Everything the ranks report (process-shared).
struct BatchShared {
  double ready_s;              // all ranks hold their Dist2DGraph
  double csr_s[kRanks];        // per-rank Dist2DGraph construction
  // Measured run: growth of the resident high-water mark over the baseline
  // when the graphs are ready and at the end of the timed phase. On rank
  // threads every rank sees the one process; a rank process measures its
  // own growth over what it inherited.
  double ready_growth_mb[kRanks];
  double end_growth_mb[kRanks];
  Samples bfs_block_ms;        // per-BFS time derived from each block
  Samples bfs_tail_ms;         // per block: p95 of its BFS times
  Samples msbfs_ms;
  Samples pr_ms;
  Samples cc_ms;
  Samples mutate_ms;
  std::int64_t attempted;
  std::int64_t failed;
  WindowLog windows;           // sampled rounds, grouped by host steal
  std::int64_t ok_ops[2];      // correct operations, [untraced, traced] rounds
  double timed_s[2];           // wall of the timed regions, same split
  std::int64_t edges_applied;
  std::int64_t commits;
  int n_failures;
  char failure[kMaxFailures][160];
  ProbeOut probe;
  SpanLog spans;
};

/// Read-only inputs of the ranks: roots, references and the time budget.
/// Forked rank processes inherit it.
struct Plan {
  std::vector<Gid> giant;          // original ids of the largest component
  const graph::Csr* striped_csr;   // reference BFS runs on striped ids
  const std::vector<double>* ref_pr;
  const std::vector<Gid>* ref_cc;
  OpPlan probe_ops;
  double seconds = 0.0;
  bool trace = false;
  std::uint64_t seed = 0;
  const char* comm_layer = "comm";  // "transport" over sockets
  bool own_process = false;         // ranks are forked processes
  double rss_base_mb = 0.0;         // the process's baseline (rank threads)
};

/// Inputs of round `r`, drawn from (seed, r) alone so every rank agrees.
struct RoundOps {
  std::vector<Gid> bfs;
  std::vector<Gid> msbfs;
  std::vector<stream::EdgeOp> mutation;
};

RoundOps round_ops(const Plan& plan, const core::Partitioned2D& parts,
                   std::int64_t r) {
  const Gid n = parts.n();
  std::mt19937_64 rng(plan.seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(r));
  std::uniform_int_distribution<std::size_t> pick(0, plan.giant.size() - 1);
  std::uniform_int_distribution<Gid> any(0, n - 1);
  RoundOps ops;
  for (int i = 0; i < kBfsBlock; ++i) ops.bfs.push_back(plan.giant[pick(rng)]);
  for (int i = 0; i < kMsBfsRoots; ++i) ops.msbfs.push_back(plan.giant[pick(rng)]);
  const auto owner = [&](Gid u, Gid v) {
    const auto& rl = parts.relabel();
    return parts.grid().rank_at(parts.row_partition().part_of(rl.to_new(u)),
                                parts.col_partition().part_of(rl.to_new(v)));
  };
  for (int rank = 0; rank < kMutationPairs; ++rank) {
    Gid u = 0;
    Gid v = 0;
    do {
      u = any(rng);
      v = any(rng);
    } while (u == v || owner(u, v) != rank);
    ops.mutation.push_back({stream::EdgeOpKind::kInsert, u, v});
  }
  for (int i = 0; i < kMutationPairs; ++i) {
    auto op = ops.mutation[static_cast<std::size_t>(i)];
    op.kind = stream::EdgeOpKind::kDelete;
    ops.mutation.push_back(op);
  }
  return ops;
}

void note_failure(BatchShared& out, const std::string& what) {
  ++out.failed;
  if (out.n_failures < kMaxFailures) {
    std::snprintf(out.failure[out.n_failures++], sizeof(out.failure[0]), "%s",
                  what.c_str());
  }
}

bool levels_match(const std::vector<std::int64_t>& got,
                  const std::vector<std::int64_t>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t v = 0; v < want.size(); ++v) {
    const auto w = want[v] < 0 ? algos::BfsResult::kUnvisited : want[v];
    if (got[v] != w) return false;
  }
  return true;
}

/// The body every rank runs: build the rank's Dist2DGraph, then (when
/// `full`) rounds until the budget is spent, then the layer probes.
void rank_body(comm::Comm& world, const core::Partitioned2D& parts,
               const Plan& plan, BatchShared& out, bool full) {
  const bool lead = world.rank() == 0;
  const auto rank = static_cast<std::size_t>(world.rank());
  SpanLog* log = lead ? &out.spans : nullptr;
  const double rss_base = full && plan.own_process ? reset_peak_rss() : plan.rss_base_mb;
  const double built0 = now_s();
  std::optional<core::Dist2DGraph> graph_holder;
  {
    Scope span(log, "core.csr");
    graph_holder.emplace(world, parts);
  }
  core::Dist2DGraph& g = *graph_holder;
  out.csr_s[world.rank()] = now_s() - built0;
  world.barrier();
  if (lead) out.ready_s = now_s();
  if (!full) return;
  out.ready_growth_mb[rank] = peak_rss_now() - rss_base;

  const auto& relabel = parts.relabel();
  const double start = now_s();
  for (std::int64_t r = 0;; ++r) {
    int go = lead && !out.windows.done(plan.seconds, now_s() - start) ? 1 : 0;
    go = world.allreduce_one(go, comm::ReduceOp::kMax);
    if (go == 0) break;
    // Traced runs alternate untraced and traced rounds, so the overhead
    // estimate sees the same host drift on both sides.
    const int mode = plan.trace && r % 2 == 1 ? 1 : 0;
    SpanLog* rlog = mode == 1 ? log : nullptr;
    Scope round_span(rlog, "bench.round", r);
    const RoundOps ops = round_ops(plan, parts, r);
    const bool sample = r > 0;  // round 0 warms caches and lazy state
    const int window = lead && sample ? out.windows.index() : -1;
    double timed = 0.0;

    const int checked = static_cast<int>(r % kBfsBlock);
    std::vector<std::int64_t> bfs_levels;
    std::vector<double> op_ms;
    world.barrier();
    const double b0 = now_s();
    double prev = b0;
    for (int i = 0; i < kBfsBlock; ++i) {
      Scope span(rlog, "algos.bfs", r);
      auto res = algos::bfs(g, ops.bfs[static_cast<std::size_t>(i)]);
      const double t = now_s();
      op_ms.push_back((t - prev) * 1e3);
      prev = t;
      if (i == checked) bfs_levels = std::move(res.level);
    }
    world.barrier();
    if (lead && sample) {
      out.bfs_block_ms.add((now_s() - b0) * 1e3 / kBfsBlock, window);
      out.bfs_tail_ms.add(quantile(op_ms, 0.95), window);
    }
    timed += now_s() - b0;

    const auto timed_call = [&](Samples& samples, const char* name, auto&& fn) {
      world.barrier();
      const double t0 = now_s();
      {
        Scope span(rlog, name, r);
        fn();
      }
      world.barrier();
      const double dt = now_s() - t0;
      if (lead && sample) samples.add(dt * 1e3, window);
      timed += dt;
    };
    algos::MsBfsResult ms;
    timed_call(out.msbfs_ms, "algos.msbfs",
               [&] { ms = algos::multi_source_bfs(g, ops.msbfs); });
    std::vector<double> pr;
    timed_call(out.pr_ms, "algos.pr",
               [&] { pr = algos::pagerank(g, kPrIterations); });
    algos::CcResult cc;
    timed_call(out.cc_ms, "algos.cc", [&] {
      cc = algos::connected_components(g, algos::CcOptions::all_push());
    });
    stream::CommitResult mut;
    timed_call(out.mutate_ms, "stream.commit",
               [&] { mut = stream::commit(g, ops.mutation); });

    // Correctness, outside the timed region: one answer of every class
    // against the sequential oracle (the commit left the edge set as it was).
    Scope check_span(rlog, "ref.check", r);
    const int ms_checked = static_cast<int>(r % kMsBfsRoots);
    const auto lv = algos::gather_row_state(
        g, std::span<const std::int64_t>(bfs_levels));
    const auto ms_lv = algos::gather_row_state(
        g, std::span<const std::int64_t>(ms.level[static_cast<std::size_t>(ms_checked)]));
    const auto pr_all = algos::gather_row_state(g, std::span<const double>(pr));
    const auto cc_all = algos::gather_row_state(g, std::span<const Gid>(cc.label));
    if (!lead) continue;
    const int ops_in_round = kBfsBlock + 4;
    const std::int64_t failed_before = out.failed;
    const auto& csr = *plan.striped_csr;
    const Gid bfs_root = ops.bfs[static_cast<std::size_t>(checked)];
    if (!levels_match(lv, algos::ref::bfs_levels(csr, relabel.to_new(bfs_root)))) {
      note_failure(out, "bfs levels differ from the oracle, root " +
                            std::to_string(bfs_root));
    }
    const Gid ms_root = ops.msbfs[static_cast<std::size_t>(ms_checked)];
    if (!levels_match(ms_lv, algos::ref::bfs_levels(csr, relabel.to_new(ms_root)))) {
      note_failure(out, "msbfs levels differ from the oracle, root " +
                            std::to_string(ms_root));
    }
    bool pr_ok = pr_all.size() == plan.ref_pr->size();
    for (std::size_t v = 0; pr_ok && v < pr_all.size(); ++v) {
      pr_ok = std::abs(pr_all[v] - (*plan.ref_pr)[v]) < 1e-9;
    }
    if (!pr_ok) note_failure(out, "pagerank differs from the oracle");
    if (cc_all != *plan.ref_cc) note_failure(out, "cc labels differ from the oracle");
    const std::int64_t want = 2 * kMutationPairs;
    if (mut.inserted != want || mut.deleted != want) {
      note_failure(out, "commit applied " + std::to_string(mut.inserted) + "/" +
                            std::to_string(mut.deleted) + " entries, want " +
                            std::to_string(want));
    }
    out.attempted += ops_in_round;
    out.edges_applied += mut.inserted + mut.deleted;
    out.commits += 1;
    if (sample) {
      const std::int64_t ok = ops_in_round - (out.failed - failed_before);
      out.ok_ops[mode] += ok;
      out.timed_s[mode] += timed;
      out.windows.add(timed, ok, 1);
      out.windows.close_if_due(false);
    }
  }
  out.end_growth_mb[rank] = peak_rss_now() - rss_base;
  if (plan.trace) {
    probe_layers(g, world, plan.probe_ops, ghost_doubles(parts),
                 plan.comm_layer, out.probe, out.spans);
  }
}

/// Runs `body` on kRanks ranks: threads over shared memory, or forked
/// processes over sockets.
void launch(bool socket, const std::function<void(comm::Comm&)>& body) {
  const auto topo = comm::Topology::aimos(kRanks);
  const comm::CostModel cost;
  if (!socket) {
    comm::Runtime::run(kRanks, topo, cost, run_options(), body);
    return;
  }
  comm::transport::GangOptions gang;
  gang.procs = kRanks;
  gang.max_restarts = 0;
  const auto res = comm::transport::run_gang(
      gang, [&](comm::transport::SocketTransport& t, int) {
        auto ropts = run_options();
        ropts.transport = &t;
        comm::Runtime::run(kRanks, topo, cost, ropts, body);
        return 0;
      });
  if (res.exit_code != 0) {
    throw std::runtime_error("socket gang failed with exit code " +
                             std::to_string(res.exit_code));
  }
}

}  // namespace

int run_batch(const Args& args, bool socket, RunResult& result) {
  const std::string dataset = socket ? "rmat16" : "rmat18";
  SharedBlock<BatchShared> out;
  SpanLog* log = args.trace ? &out->spans : nullptr;
  out->spans.on = args.trace;
  // Every reported percentile is a median over rounds.
  out->windows.min_units = 2 * kSamplesBeyond;

  std::vector<double> setup_s, load_s, partition_s, csr_s;
  std::optional<core::Partitioned2D> parts;
  graph::Csr striped_csr;
  std::vector<double> ref_pr;
  std::vector<Gid> ref_cc;
  Plan plan;
  double edge_imbalance = 0.0;
  std::int64_t edges = 0;
  double ref_pr_ms = 0.0, ref_cc_ms = 0.0, ref_bfs_ms = 0.0, ref_msbfs_ms = 0.0;
  double partition_growth_mb = 0.0;

  for (int s = 0; s < kSetups; ++s) {
    const bool last = s + 1 == kSetups;
    parts.reset();
    // The references are resident from here on; the measured setup's
    // memory is what grows over them.
    if (last) plan.rss_base_mb = reset_peak_rss();
    const double t0 = now_s();
    Scope setup_span(log, "bench.setup", s);
    graph::EdgeList el;
    {
      Scope span(log, "graph.load", s);
      el = graph::load_dataset(dataset, args.scale_shift);
    }
    const double t1 = now_s();
    {
      Scope span(log, "core.partition", s);
      parts.emplace(core::Partitioned2D::build(el, core::Grid(2, 2)));
    }
    const double t2 = now_s();
    if (last) partition_growth_mb = peak_rss_now() - plan.rss_base_mb;
    load_s.push_back(t1 - t0);
    partition_s.push_back(t2 - t1);
    const auto body = [&](comm::Comm& world) {
      rank_body(world, *parts, plan, *out, last);
    };
    if (!last) {
      launch(socket, body);
      setup_s.push_back(out->ready_s - t0);
      csr_s.push_back(*std::max_element(out->csr_s, out->csr_s + kRanks));
    }
    if (s == 0) {
      // References and roots, from the first (identical) input and outside
      // every timed setup.
      edges = el.m();
      edge_imbalance = core::partition_balance(*parts).edge_imbalance();
      graph::EdgeList striped = el;
      parts->relabel().apply(striped);
      striped_csr = graph::Csr(striped.n, striped.edges);
      double r0 = now_s();
      ref_pr = algos::ref::pagerank(striped_csr, kPrIterations);
      ref_pr_ms = (now_s() - r0) * 1e3;
      r0 = now_s();
      ref_cc = algos::ref::connected_components(striped);
      ref_cc_ms = (now_s() - r0) * 1e3;
      std::vector<Gid> original_labels(ref_cc.size());
      for (std::size_t v = 0; v < ref_cc.size(); ++v) {
        original_labels[static_cast<std::size_t>(
            parts->relabel().to_original(static_cast<Gid>(v)))] = ref_cc[v];
      }
      plan.giant = giant_component(original_labels);
      plan.striped_csr = &striped_csr;
      plan.ref_pr = &ref_pr;
      plan.ref_cc = &ref_cc;
      plan.seconds = args.seconds;
      plan.trace = args.trace;
      plan.seed = args.seed;
      plan.comm_layer = socket ? "transport" : "comm";
      plan.own_process = socket;
      const RoundOps first = round_ops(plan, *parts, 0);
      for (const Gid v : first.bfs) result.digest(static_cast<std::uint64_t>(v));
      for (const Gid v : first.msbfs) result.digest(static_cast<std::uint64_t>(v));
      for (const auto& op : first.mutation) {
        result.digest(static_cast<std::uint64_t>(op.u));
        result.digest(static_cast<std::uint64_t>(op.v));
      }
      plan.probe_ops.bfs_roots = first.bfs;
      plan.probe_ops.msbfs_roots = first.msbfs;
      plan.probe_ops.pr_iterations = kPrIterations;
      r0 = now_s();
      algos::ref::bfs_levels(striped_csr, parts->relabel().to_new(first.bfs[0]));
      ref_bfs_ms = (now_s() - r0) * 1e3;
      if (args.trace) {
        r0 = now_s();
        for (const Gid root : first.msbfs) {
          algos::ref::bfs_levels(striped_csr, parts->relabel().to_new(root));
        }
        ref_msbfs_ms = (now_s() - r0) * 1e3;
      }
    }
    if (last) {
      el = graph::EdgeList{};  // the ranks hold the partition only
      launch(socket, body);
      setup_s.push_back(out->ready_s - t0);
      csr_s.push_back(*std::max_element(out->csr_s, out->csr_s + kRanks));
    }
  }

  const BatchShared& o = *out;
  result.attempted = o.attempted;
  result.failed = o.failed;
  for (int i = 0; i < o.n_failures; ++i) result.failures.emplace_back(o.failure[i]);
  const auto mode_goodput = [&](int mode) {
    return o.timed_s[mode] > 0 ? static_cast<double>(o.ok_ops[mode]) / o.timed_s[mode] : 0.0;
  };
  const auto keep = select_windows(o.windows, args.seconds);
  // Rank threads share this process; rank processes add the largest one's
  // own growth to this process's (load and partition).
  const auto largest = [](const double* mb) { return *std::max_element(mb, mb + kRanks); };
  const double self_growth_mb = socket ? peak_rss_now() - plan.rss_base_mb : 0.0;
  const double peak_mb = self_growth_mb + largest(o.end_growth_mb);
  const auto p50 = [&](const char* name, const Samples& x) {
    return percentile_metric(name, x.values(keep), 0.5, "ms");
  };
  auto& e2e = result.end_to_end;
  e2e.push_back({"setup_s", median(setup_s), "s"});
  e2e.push_back({"peak_rss_mb", peak_mb, "MiB"});
  e2e.push_back({"goodput_rps", goodput(o.windows, keep), "1/s"});
  e2e.push_back(p50("bfs_p50_ms", o.bfs_block_ms));
  // The tail within each block, medianed over blocks: one slow stretch of
  // the host moves a few blocks, not the reported tail.
  e2e.push_back(p50("bfs_p95_ms", o.bfs_tail_ms));
  e2e.push_back(p50("msbfs_p50_ms", o.msbfs_ms));
  e2e.push_back(p50("pr_p50_ms", o.pr_ms));
  e2e.push_back(p50("cc_p50_ms", o.cc_ms));
  e2e.push_back(p50("mutate_p50_ms", o.mutate_ms));
  result.notes.push_back(describe_windows(o.windows, keep));
  char rss[200];
  std::snprintf(rss, sizeof(rss),
                "rss baseline %.1f MiB; growth: partition %.1f, graphs ready %.1f, "
                "timed end %.1f MiB%s",
                plan.rss_base_mb, partition_growth_mb,
                (socket ? self_growth_mb : 0.0) + largest(o.ready_growth_mb), peak_mb,
                socket ? " (this process + largest rank process)" : "");
  result.notes.emplace_back(rss);

  if (args.trace) {
    auto& pl = result.per_layer;
    pl.push_back({"graph.load_s", median(load_s), "s"});
    pl.push_back({"graph.edges", static_cast<double>(edges), "count"});
    pl.push_back({"core.partition_s", median(partition_s), "s"});
    pl.push_back({"core.csr_s", median(csr_s), "s"});
    pl.push_back({"core.edge_imbalance", edge_imbalance, "ratio"});
    add_probe_metrics(o.probe, plan.comm_layer, pl);
    add_traffic_counts(*parts, plan.probe_ops, pl);
    pl.push_back({"stream.edges_applied",
                  o.commits > 0 ? static_cast<double>(o.edges_applied) / o.commits : 0.0,
                  "count"});
    const double untraced = mode_goodput(0);
    pl.push_back({"trace.overhead_pct",
                  untraced > 0 ? (untraced - mode_goodput(1)) / untraced * 100.0 : 0.0,
                  "%"});
    pl.push_back({"ref.bfs_ms", ref_bfs_ms, "ms"});
    pl.push_back({"ref.msbfs_ms", ref_msbfs_ms, "ms"});
    pl.push_back({"ref.pr_ms", ref_pr_ms, "ms"});
    pl.push_back({"ref.cc_ms", ref_cc_ms, "ms"});
    add_self_times(o.spans, pl);
    write_spans(o.spans, args.trace_dir,
                (socket ? "socket-rmat16-seed" : "batch-rmat18-seed") +
                    std::to_string(args.seed));
  }
  return 0;
}

}  // namespace perfbench
