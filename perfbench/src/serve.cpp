// serve-rmat16-rw: a resident Session + Service under a closed loop of one
// generator thread keeping kOutstanding requests in flight. Latency is the
// benchmark's own submit-until-ready interval per request, reported per
// request class; the mix is dealt from shuffled decks so every run carries
// the same class proportions and the seed only changes order and roots.
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "algos/reference.hpp"
#include "bench.hpp"
#include "comm/runtime.hpp"
#include "core/balance.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "layers.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"

namespace perfbench {
namespace {

namespace algos = hpcg::algos;
namespace comm = hpcg::comm;
namespace core = hpcg::core;
namespace graph = hpcg::graph;
namespace serve = hpcg::serve;
namespace stream = hpcg::stream;

constexpr int kOutstanding = 8;
constexpr std::size_t kHotRoots = 16;  // BFS roots repeat, so cache and coalescing engage
constexpr int kMsBfsRoots = 8;
constexpr int kPrIterations = 5;  // warm-started
constexpr int kMutationOps = 8;
constexpr double kDeleteShare = 0.3;
// The timed phase is split over this many sessions, each set up afresh and
// given an equal share of --seconds: throughput differs by up to 15 %
// from one session to the next on the same host, so one session per run
// would make that the run-to-run spread.
constexpr int kSegments = 5;
constexpr int kWarmupRequests = 40;    // per segment, excluded from samples
constexpr double kTraceWindowS = 0.5;  // traced runs alternate windows
// The generator looks at every in-flight ticket at least this often, so a
// completion is stamped (and its slot refilled) within one interval.
constexpr auto kPoll = std::chrono::microseconds(50);
// Room for the mirror's inserts, so it never reallocates in the timed loop.
constexpr std::size_t kMirrorSlack = std::size_t{1} << 16;
constexpr int kMaxFailures = 4;

enum ReqClass : int { kBfsReq, kMsBfsReq, kPrReq, kCcReq, kMutateReq, kReqClasses };
/// One deck: 60 % BFS, 10 % each of MS-BFS, PageRank, CC and mutations.
constexpr ReqClass kDeck[] = {kBfsReq, kBfsReq, kBfsReq, kBfsReq,  kBfsReq,
                              kBfsReq, kMsBfsReq, kPrReq, kCcReq, kMutateReq};

/// The benchmark's own copy of the undirected edge multiset, advanced by
/// every mutation batch it submits (commits apply in submission order).
struct Mirror {
  graph::Gid n = 0;
  std::vector<std::pair<Gid, Gid>> edges;  // one entry per undirected copy

  explicit Mirror(const graph::EdgeList& el) : n(el.n) {
    edges.reserve(el.edges.size() / 2 + kMirrorSlack);
    for (const auto& e : el.edges) {
      if (e.u < e.v) edges.emplace_back(e.u, e.v);
    }
  }
  /// A batch of `count` ops; deletes always hit an existing copy.
  std::vector<stream::EdgeOp> next_batch(std::mt19937_64& rng, int& inserts,
                                         int& deletes) {
    std::vector<stream::EdgeOp> ops;
    std::bernoulli_distribution del(kDeleteShare);
    std::uniform_int_distribution<Gid> any(0, n - 1);
    inserts = deletes = 0;
    while (static_cast<int>(ops.size()) < kMutationOps) {
      if (del(rng) && !edges.empty()) {
        std::uniform_int_distribution<std::size_t> pick(0, edges.size() - 1);
        const std::size_t i = pick(rng);
        ops.push_back({stream::EdgeOpKind::kDelete, edges[i].first, edges[i].second});
        edges[i] = edges.back();
        edges.pop_back();
        ++deletes;
      } else {
        const Gid u = any(rng);
        const Gid v = any(rng);
        if (u == v) continue;
        ops.push_back({stream::EdgeOpKind::kInsert, u, v});
        edges.emplace_back(std::min(u, v), std::max(u, v));
        ++inserts;
      }
    }
    return ops;
  }
  graph::EdgeList edge_list() const {
    graph::EdgeList el;
    el.n = n;
    for (const auto& [u, v] : edges) {
      el.edges.push_back({u, v});
      el.edges.push_back({v, u});
    }
    return el;
  }
};

/// Component labels normalised to the smallest member id (the oracle's).
std::vector<Gid> normalize(const std::vector<Gid>& labels) {
  std::map<Gid, Gid> smallest;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    smallest.try_emplace(labels[v], static_cast<Gid>(v));
  }
  std::vector<Gid> out(labels.size());
  for (std::size_t v = 0; v < labels.size(); ++v) out[v] = smallest[labels[v]];
  return out;
}

bool levels_match(const std::vector<std::int64_t>& got,
                  const std::vector<std::int64_t>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t v = 0; v < want.size(); ++v) {
    if (got[v] != (want[v] < 0 ? serve::Response::kUnvisited : want[v])) return false;
  }
  return true;
}

struct Inflight {
  serve::Ticket ticket;
  ReqClass cls;
  std::vector<Gid> roots;
  int inserts = 0;
  int deletes = 0;
  double submit_s = 0.0;
  int mode = 0;       // 1 = submitted in a traced window
  int span = -1;      // request span, closed at completion
  bool sample = true;
};

struct Counters {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t ok[2] = {0, 0};
  std::int64_t queries = 0;
  std::int64_t cache_hits = 0;
  std::int64_t bfs_batches = 0;
  std::int64_t bfs_batch_sum = 0;
  std::int64_t post_mutation = 0;
  std::int64_t incremental = 0;
  std::int64_t overload_retries = 0;
  std::int64_t mutations = 0;
  std::int64_t edges_applied = 0;
  std::vector<std::string> failures;
  void fail(const std::string& what) {
    ++failed;
    if (static_cast<int>(failures.size()) < kMaxFailures) failures.push_back(what);
  }
};

/// Cheap per-response invariants checked inside the timed phase; the full
/// oracle comparisons run at epoch 0 and after the loop.
bool plausible(const Inflight& req, const serve::Response& r, Gid n) {
  const auto un = static_cast<std::size_t>(n);
  switch (req.cls) {
    case kBfsReq:
    case kMsBfsReq: {
      if (r.levels.size() != req.roots.size()) return false;
      for (std::size_t k = 0; k < req.roots.size(); ++k) {
        if (r.levels[k].size() != un ||
            r.levels[k][static_cast<std::size_t>(req.roots[k])] != 0) {
          return false;
        }
      }
      return true;
    }
    case kPrReq: {
      if (r.rank.size() != un) return false;
      double mass = 0.0;
      for (const double x : r.rank) mass += x;
      return std::isfinite(mass) && mass > 0.0 && mass <= 1.0 + 1e-9;
    }
    case kCcReq:
      return r.component.size() == un && r.n_components > 0;
    default:
      return r.edges_inserted == 2 * req.inserts && r.edges_deleted == 2 * req.deletes;
  }
}

serve::Request query(serve::Algo algo, std::vector<Gid> roots = {},
                     int iterations = 20) {
  serve::Request r;
  r.algo = algo;
  r.roots = std::move(roots);
  r.iterations = iterations;
  return r;
}

serve::SessionOptions session_options() {
  serve::SessionOptions o;
  o.kernel.threads = kKernelThreads;
  return o;
}

}  // namespace

int run_serve(const Args& args, RunResult& result) {
  const auto spans = std::make_unique<SpanLog>();  // large; kept off the stack
  SpanLog& log_ref = *spans;
  log_ref.on = args.trace;
  SpanLog* log = args.trace ? &log_ref : nullptr;

  // References and inputs, from an untimed load of the same input and
  // outside every timed region.
  const auto base = std::make_unique<graph::EdgeList>(
      graph::load_dataset("rmat16", args.scale_shift));
  const Gid n = base->n;
  const graph::Csr csr(base->n, base->edges);
  Counters c;
  double r0 = now_s();
  const auto ref_cc = algos::ref::connected_components(*base);
  const double ref_cc_ms = (now_s() - r0) * 1e3;
  const auto giant = giant_component(ref_cc);
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 7);
  std::uniform_int_distribution<std::size_t> pick_giant(0, giant.size() - 1);
  // One hot root from each of kHotRoots equal strata of the giant
  // component ordered by degree, so every seed's hot set has the same
  // degree profile and does not tilt the run's BFS cost.
  std::vector<Gid> by_degree = giant;
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](Gid a, Gid b) { return csr.degree(a) < csr.degree(b); });
  std::vector<Gid> hot;
  for (std::size_t i = 0; i < kHotRoots; ++i) {
    std::uniform_int_distribution<std::size_t> in_stratum(
        i * by_degree.size() / kHotRoots, (i + 1) * by_degree.size() / kHotRoots - 1);
    hot.push_back(by_degree[in_stratum(rng)]);
  }
  std::shuffle(hot.begin(), hot.end(), rng);
  for (const Gid v : hot) result.digest(static_cast<std::uint64_t>(v));
  std::vector<Gid> ms_roots(hot.begin(), hot.begin() + kMsBfsRoots);
  std::vector<std::vector<std::int64_t>> want_bfs;
  double ref_bfs_ms = 0.0;
  for (const Gid root : hot) {
    r0 = now_s();
    want_bfs.push_back(algos::ref::bfs_levels(csr, root));
    ref_bfs_ms = (now_s() - r0) * 1e3;
  }
  r0 = now_s();
  for (const Gid root : ms_roots) algos::ref::bfs_levels(csr, root);
  const double ref_msbfs_ms = (now_s() - r0) * 1e3;
  const auto want_pr = algos::ref::pagerank(csr, 20);
  r0 = now_s();
  algos::ref::pagerank(csr, kPrIterations);
  const double ref_pr_ms = (now_s() - r0) * 1e3;
  const auto latency_ms = std::make_unique<Samples[]>(kReqClasses);
  const auto windows = std::make_unique<WindowLog>();

  std::unique_ptr<serve::Session> session;
  std::unique_ptr<serve::Service> service;
  std::vector<double> setup_s, load_s, peak_mb;
  std::vector<double> queue_depth;
  std::vector<double> stamp_error_us;  // bound on each completion stamp's lag
  std::vector<ReqClass> deck;
  double loop_s = 0.0;            // closed-loop seconds of earlier segments
  double mode_s[2] = {0.0, 0.0};  // closed-loop seconds per trace mode
  const auto answer = [&](serve::Request req) -> serve::Response {
    ++c.attempted;
    return service->submit(std::move(req)).result.get();
  };
  // Timed waits of the load generator wake within a microsecond of their
  // deadline rather than the default 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);

  for (int seg = 0; seg < kSegments; ++seg) {
    // Setup, from this thread free to run on every CPU, since it starts
    // the rank threads. The references are resident from here on; the
    // segment's memory is what grows over them.
    service.reset();
    session.reset();
    unpin_thread();
    const double rss_base_mb = reset_peak_rss();
    {
      const double t0 = now_s();
      Scope setup_span(log, "bench.setup", seg);
      graph::EdgeList el;
      {
        Scope span(log, "graph.load", seg);
        el = graph::load_dataset("rmat16", args.scale_shift);
      }
      load_s.push_back(now_s() - t0);
      {
        Scope span(log, "core.session", seg);
        session = std::make_unique<serve::Session>(el, core::Grid(2, 2), session_options());
        session->run([](core::Dist2DGraph&, comm::Comm&) {});  // ranks built
      }
      serve::ServiceOptions sopts;
      sopts.kernel.threads = kKernelThreads;
      service = std::make_unique<serve::Service>(*session, sopts);
      setup_s.push_back(now_s() - t0);
    }

    // Epoch-0 answers against the oracle.
    {
      Scope check_span(log, "ref.check", 2 * seg);
      for (std::size_t i = 0; i < hot.size(); ++i) {
        const auto got = answer(query(serve::Algo::kBfs, {hot[i]}));
        if (got.levels.empty() || !levels_match(got.levels[0], want_bfs[i])) {
          c.fail("epoch-0 bfs differs from the oracle, root " + std::to_string(hot[i]));
        }
      }
      const auto ms = answer(query(serve::Algo::kMsBfs, ms_roots));
      bool ok = ms.levels.size() == ms_roots.size();
      for (std::size_t k = 0; ok && k < ms_roots.size(); ++k) {
        ok = levels_match(ms.levels[k], want_bfs[k]);  // ms_roots lead `hot`
      }
      if (!ok) c.fail("epoch-0 msbfs differs from the oracle");
      const auto pr = answer(query(serve::Algo::kPageRank, {}, 20));
      ok = pr.rank.size() == want_pr.size();
      for (std::size_t v = 0; ok && v < want_pr.size(); ++v) {
        ok = std::abs(pr.rank[v] - want_pr[v]) < 1e-9;
      }
      if (!ok) c.fail("epoch-0 pagerank differs from the oracle");
      if (normalize(answer(query(serve::Algo::kCc)).component) != ref_cc) {
        c.fail("epoch-0 cc differs from the oracle");
      }
    }

    // Each rank keeps a CPU of its own for the closed loop, and the load
    // generator (the busiest thread after the ranks) shares the last one.
    session->run([](core::Dist2DGraph&, comm::Comm& world) { pin_thread(world.rank()); });
    pin_thread(kRanks - 1);

    // Closed loop, until the windows hold this segment's share of
    // --seconds (counted over all segments so far).
    Mirror mirror(*base);
    const std::int64_t mutations_before = c.mutations;
    const double target_s = args.seconds * (seg + 1) / kSegments;
    std::deque<Inflight> inflight;
    std::int64_t submitted = 0;
    const auto make = [&](Inflight& f) {
      serve::Request req;
      switch (f.cls) {
        case kBfsReq:
          req.algo = serve::Algo::kBfs;
          f.roots = {hot[rng() % hot.size()]};
          break;
        case kMsBfsReq:
          req.algo = serve::Algo::kMsBfs;
          for (int k = 0; k < kMsBfsRoots; ++k) f.roots.push_back(giant[pick_giant(rng)]);
          break;
        case kPrReq:
          req.algo = serve::Algo::kPageRank;
          req.iterations = kPrIterations;
          req.warm_start = true;
          break;
        case kCcReq:
          req.algo = serve::Algo::kCc;
          break;
        default:
          req.algo = serve::Algo::kMutate;
          req.ops = mirror.next_batch(rng, f.inserts, f.deletes);
          break;
      }
      req.roots = f.roots;
      req.client = "loadgen";
      if (submitted < kWarmupRequests) {  // the start of the request draw
        result.digest(static_cast<std::uint64_t>(f.cls));
        for (const Gid v : f.roots) result.digest(static_cast<std::uint64_t>(v));
        for (const auto& op : req.ops) result.digest(static_cast<std::uint64_t>(op.u));
      }
      return req;
    };
    const double start = now_s();
    double last_done = start;
    double prev_scan = start;
    while (true) {
      windows->close_if_due(true);
      while (!windows->done(target_s, loop_s + now_s() - start) &&
             static_cast<int>(inflight.size()) < kOutstanding) {
        if (deck.empty()) {
          deck.assign(std::begin(kDeck), std::end(kDeck));
          std::shuffle(deck.begin(), deck.end(), rng);
        }
        Inflight f;
        f.cls = deck.back();
        deck.pop_back();
        serve::Request req = make(f);
        f.sample = submitted++ >= kWarmupRequests;
        f.submit_s = now_s();
        f.mode = args.trace &&
                 static_cast<std::int64_t>((f.submit_s - start) / kTraceWindowS) % 2 == 1;
        SpanLog* rlog = f.mode ? log : nullptr;
        if (rlog) {
          f.span = rlog->record(f.cls == kMutateReq ? "stream.mutate" : "serve.request",
                                f.submit_s, f.submit_s, -1, submitted);
        }
        ++c.attempted;
        while (true) {
          const double s0 = now_s();
          try {
            f.ticket = service->submit(req);
            if (rlog) rlog->record("serve.submit", s0, now_s(), f.span, submitted);
            break;
          } catch (const serve::Overloaded&) {
            ++c.overload_retries;
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
        }
        queue_depth.push_back(static_cast<double>(service->queue_depth()));
        inflight.push_back(std::move(f));
      }
      if (inflight.empty()) break;
      // Wakes as soon as the oldest request is ready, and otherwise after
      // kPoll, then stamps every ready request: cache hits and coalesced BFS
      // can finish before older requests. A stamp lags the completion by at
      // most the time since the request was last seen pending.
      inflight.front().ticket.result.wait_for(kPoll);
      const double scan = now_s();
      for (auto it = inflight.begin(); it != inflight.end();) {
        if (it->ticket.result.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++it;
          continue;
        }
        const double done = now_s();
        last_done = done;
        stamp_error_us.push_back((done - std::max(prev_scan, it->submit_s)) * 1e6);
        if (it->span >= 0) log_ref.spans[it->span].end = done;
        try {
          const serve::Response& r = it->ticket.result.get();
          if (!plausible(*it, r, n)) {
            c.fail(std::string("implausible ") + serve::to_string(r.algo) + " response");
          } else {
            ++c.ok[it->mode];
            const int w = windows->index();
            windows->add(0.0, 1);
            if (it->sample && it->mode == 0) {
              latency_ms[it->cls].add((done - it->submit_s) * 1e3, w);
            }
          }
          if (it->cls == kMutateReq) {
            ++c.mutations;
            c.edges_applied += r.edges_inserted + r.edges_deleted;
          } else {
            ++c.queries;
            if (r.from_cache) ++c.cache_hits;
            if (it->cls == kBfsReq && !r.from_cache) {
              ++c.bfs_batches;
              c.bfs_batch_sum += r.batch_size;
            }
            if (r.epoch > 0 && !r.from_cache) {
              ++c.post_mutation;
              if (r.incremental) ++c.incremental;
            }
          }
        } catch (const std::exception& e) {
          c.fail(std::string("request failed: ") + e.what());
        }
        it = inflight.erase(it);
      }
      prev_scan = scan;
    }
    windows->close_if_due(true, true);
    const double elapsed = last_done - start;
    loop_s += now_s() - start;
    peak_mb.push_back(peak_rss_now() - rss_base_mb);
    // Requests submitted in odd kTraceWindowS windows of a traced run are
    // traced.
    for (int k = 0; k * kTraceWindowS < elapsed; ++k) {
      mode_s[args.trace ? k % 2 : 0] += std::min(kTraceWindowS, elapsed - k * kTraceWindowS);
    }

    // The served graph after every batch committed in this segment,
    // against the mirror.
    service->drain();
    Scope span(log, "ref.check", 2 * seg + 1);
    const auto got = answer(query(serve::Algo::kCc));
    const auto want = algos::ref::connected_components(mirror.edge_list());
    if (normalize(got.component) != want) c.fail("final cc differs from the mirror's oracle");
    const auto committed = static_cast<std::uint64_t>(c.mutations - mutations_before);
    if (service->epoch() != committed) {
      c.fail("epoch " + std::to_string(service->epoch()) + " after " +
             std::to_string(committed) + " mutation batches");
    }
  }
  unpin_thread();

  result.attempted = c.attempted;
  result.setups = kSegments;
  result.failed = c.failed;
  result.failures = c.failures;
  const auto mode_goodput = [&](int mode) {
    const double t = mode_s[mode];
    return t > 0 ? static_cast<double>(c.ok[mode]) / t : 0.0;
  };
  const auto keep = select_windows(*windows, args.seconds);
  const auto lat = [&](const char* name, ReqClass k) {
    return percentile_metric(name, latency_ms[k].values(keep), 0.5, "ms");
  };
  auto& e2e = result.end_to_end;
  e2e.push_back({"setup_s", median(setup_s), "s"});
  // The first session's: later ones start over memory an earlier one left
  // resident (cached thread stacks, allocator arenas) and grow less.
  e2e.push_back({"peak_rss_mb", peak_mb.front(), "MiB"});
  e2e.push_back({"goodput_rps", goodput(*windows, keep), "1/s"});
  e2e.push_back(lat("bfs_p50_ms", kBfsReq));
  // The tail of each run of 200 consecutive BFS requests, medianed.
  e2e.push_back(grouped_percentile_metric("bfs_p95_ms", latency_ms[kBfsReq].values(keep),
                                          0.95, "ms"));
  e2e.push_back(lat("msbfs_p50_ms", kMsBfsReq));
  e2e.push_back(lat("pr_p50_ms", kPrReq));
  e2e.push_back(lat("cc_p50_ms", kCcReq));
  e2e.push_back(lat("mutate_p50_ms", kMutateReq));
  result.notes.push_back(describe_windows(*windows, keep));
  std::ostringstream rss;
  rss << "rss growth at each segment's end (MiB):";
  for (const double mb : peak_mb) rss << " " << mb;
  result.notes.push_back(rss.str());
  char notes[200];
  std::snprintf(notes, sizeof(notes),
                "completion stamp lag bound: p50 %.1f us, p99 %.1f us, max %.1f us",
                quantile(stamp_error_us, 0.5), quantile(stamp_error_us, 0.99),
                quantile(stamp_error_us, 1.0));
  result.notes.emplace_back(notes);

  if (args.trace) {
    auto& pl = result.per_layer;
    OpPlan ops;
    ops.bfs_roots = hot;
    ops.msbfs_roots = ms_roots;
    ops.pr_iterations = kPrIterations;
    // Layer probes on the resident ranks; the service is drained and idle.
    const auto probe = std::make_unique<ProbeOut>();
    const auto& parts = session->partition();
    session->run([&](core::Dist2DGraph& g, comm::Comm& world) {
      probe_layers(g, world, ops, ghost_doubles(parts), "comm", *probe, log_ref);
    });
    // The Session builds its partition and rank graphs internally; time
    // the same two steps on their own for the core layer.
    r0 = now_s();
    const auto own = core::Partitioned2D::build(*base, core::Grid(2, 2));
    const double partition_s = now_s() - r0;
    double csr_s[kRanks] = {};
    comm::Runtime::run(kRanks, comm::Topology::aimos(kRanks), comm::CostModel{},
                       run_options(), [&](comm::Comm& world) {
                         const double t = now_s();
                         core::Dist2DGraph g(world, own);
                         csr_s[world.rank()] = now_s() - t;
                       });
    pl.push_back({"graph.load_s", median(load_s), "s"});
    pl.push_back({"graph.edges", static_cast<double>(base->m()), "count"});
    pl.push_back({"core.partition_s", partition_s, "s"});
    pl.push_back({"core.csr_s", *std::max_element(csr_s, csr_s + kRanks), "s"});
    pl.push_back({"core.edge_imbalance",
                  core::partition_balance(parts).edge_imbalance(), "ratio"});
    add_probe_metrics(*probe, "comm", pl);
    add_traffic_counts(parts, ops, pl);
    const auto ratio = [](std::int64_t a, std::int64_t b) {
      return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    pl.push_back({"serve.cache_hit_ratio", ratio(c.cache_hits, c.queries), "ratio"});
    pl.push_back({"serve.bfs_batch_mean", ratio(c.bfs_batch_sum, c.bfs_batches), "count"});
    pl.push_back({"serve.incremental_ratio", ratio(c.incremental, c.post_mutation), "ratio"});
    pl.push_back({"serve.overload_retries", static_cast<double>(c.overload_retries), "count"});
    pl.push_back({"serve.queue_depth_p95", quantile(queue_depth, 0.95), "count"});
    pl.push_back({"stream.edges_applied", ratio(c.edges_applied, c.mutations), "count"});
    const double untraced = mode_goodput(0);
    pl.push_back({"trace.overhead_pct",
                  untraced > 0 ? (untraced - mode_goodput(1)) / untraced * 100.0 : 0.0,
                  "%"});
    pl.push_back({"ref.bfs_ms", ref_bfs_ms, "ms"});
    pl.push_back({"ref.msbfs_ms", ref_msbfs_ms, "ms"});
    pl.push_back({"ref.pr_ms", ref_pr_ms, "ms"});
    pl.push_back({"ref.cc_ms", ref_cc_ms, "ms"});
    add_self_times(log_ref, pl);
    write_spans(log_ref, args.trace_dir,
                "serve-rmat16-rw-seed" + std::to_string(args.seed));
  }
  return 0;
}

}  // namespace perfbench
