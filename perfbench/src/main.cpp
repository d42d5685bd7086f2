// perfbench: wall-clock benchmark of the 2D-partitioned graph engine.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale-shift K] [--trace-dir DIR]
//
// Prints the host fingerprint, one `metric NAME VALUE UNIT` line per metric
// and, last, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The untraced run (--trace 0) reports the end-to-end metrics, the traced
// run (--trace 1) the per-layer ones. See README.md for what each means.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "core/simd.hpp"
#include "util/parse.hpp"

namespace perfbench {
namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s",      "peak_rss_mb", "goodput_rps", "bfs_p50_ms",   "bfs_p95_ms",
    "msbfs_p50_ms", "pr_p50_ms",   "cc_p50_ms",   "mutate_p50_ms"};

/// Every per-layer metric, in print order, with its unit. A workload that
/// does not exercise a layer reports 0 for it (README.md lists which).
const std::vector<std::pair<std::string, std::string>> kPerLayer = [] {
  std::vector<std::pair<std::string, std::string>> m = {
      {"graph.load_s", "s"},         {"graph.edges", "count"},
      {"core.partition_s", "s"},     {"core.csr_s", "s"},
      {"core.edge_imbalance", "ratio"}};
  for (const char* x : {"bfs", "msbfs", "pr", "cc"}) {
    const std::string p = std::string("algos.") + x;
    m.push_back({p + ".busy_ms", "ms"});
    m.push_back({p + ".wait_ms", "ms"});
    m.push_back({p + ".supersteps", "count"});
  }
  for (const char* layer : {"comm", "transport"}) {
    const std::string p(layer);
    m.push_back({p + ".barrier_us", "us"});
    m.push_back({p + ".allreduce_one_us", "us"});
    m.push_back({p + ".bcast_gbps", "GB/s"});
    m.push_back({p + ".allgatherv_ms", "ms"});
  }
  for (const char* x : {"bfs", "msbfs", "pr", "cc"}) {
    m.push_back({std::string("comm.bytes.") + x, "bytes"});
    m.push_back({std::string("comm.messages.") + x, "count"});
  }
  m.insert(m.end(), {{"serve.cache_hit_ratio", "ratio"},
                     {"serve.bfs_batch_mean", "count"},
                     {"serve.incremental_ratio", "ratio"},
                     {"serve.overload_retries", "count"},
                     {"serve.queue_depth_p95", "count"},
                     {"stream.edges_applied", "count"},
                     {"trace.overhead_pct", "%"},
                     {"host.loadavg", "1"},
                     {"host.steal_pct", "%"}});
  for (const char* x : {"bfs", "msbfs", "pr", "cc"}) {
    m.push_back({std::string("ref.") + x + "_ms", "ms"});
  }
  for (const auto& layer : kLayers) m.push_back({layer + ".self_ms", "ms"});
  return m;
}();

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload batch-rmat18|serve-rmat16-rw|"
               "socket-rmat16 --seed N --seconds S --trace 0|1\n"
               "                 [--scale-shift K] [--trace-dir DIR]\n";
  return 2;
}

std::string simd_level() {
#if HPCG_SIMD_X86
  switch (hpcg::core::detail::simd_path()) {
    case 2: return "avx512";
    case 1: return "avx2";
    default: return "scalar";
  }
#else
  return "scalar";
#endif
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string number(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      const auto v = hpcg::util::parse_uint64(value);
      if (!v) return usage("invalid --seed " + value);
      args.seed = *v;
      have_seed = true;
    } else if (key == "--seconds") {
      const auto v = hpcg::util::parse_double(value);
      if (!v || !(*v > 0.0) || *v > 600.0) return usage("invalid --seconds " + value);
      args.seconds = *v;
      have_seconds = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (key == "--scale-shift") {
      const auto v = hpcg::util::parse_int32(value);
      if (!v || *v > 0 || *v < -12) return usage("invalid --scale-shift " + value);
      args.scale_shift = *v;
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return usage("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  const std::set<std::string> workloads = {"batch-rmat18", "serve-rmat16-rw",
                                           "socket-rmat16"};
  if (workloads.count(args.workload) == 0) {
    return usage("unknown workload " + args.workload);
  }

  // Guard: timings from an unoptimised build or an oversubscribed host are
  // not comparable, so refuse them outright.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
#ifndef NDEBUG
  std::cerr << "perfbench: refusing a build with assertions on (not Release)\n";
  return 3;
#endif
  if (build_type != "Release") {
    std::cerr << "perfbench: refusing a " << build_type << " build; build Release\n";
    return 3;
  }
  if (kRanks * kKernelThreads > nproc) {
    std::cerr << "perfbench: " << kRanks << " ranks x " << kKernelThreads
              << " threads exceed the " << nproc << " online CPUs\n";
    return 3;
  }

  const HostSample before = host_sample();
  RunResult result;
  int rc = 0;
  try {
    if (args.workload == "serve-rmat16-rw") {
      rc = run_serve(args, result);
    } else {
      rc = run_batch(args, args.workload == "socket-rmat16", result);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  if (rc != 0) return rc;
  const HostSample after = host_sample();
  const double total = static_cast<double>(after.total - before.total);
  const double steal_pct =
      total > 0 ? static_cast<double>(after.steal - before.steal) / total * 100.0 : 0.0;

  std::cout << "host nproc=" << nproc << " simd=" << simd_level() << " compiler=\""
            << compiler() << "\" build=" << build_type << " ranks=" << kRanks
            << " threads_per_rank=" << kKernelThreads << "\n"
            << "host loadavg_start=" << before.loadavg
            << " loadavg_end=" << after.loadavg << " steal_pct=" << steal_pct << "\n"
            << "run workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
            << " setups=" << result.setups << "\n";
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(result.inputs_digest));
  std::cout << "inputs digest=" << digest << "\n";
  for (const auto& f : result.failures) std::cout << "failure " << f << "\n";
  for (const auto& note : result.notes) std::cout << note << "\n";

  MetricTable printed;
  if (!args.trace) {
    for (const auto& name : kEndToEnd) {
      const auto it = std::find_if(result.end_to_end.begin(), result.end_to_end.end(),
                                   [&](const Metric& m) { return m.name == name; });
      if (it == result.end_to_end.end() || !std::isfinite(it->value) || it->value <= 0) {
        std::cerr << "perfbench: end-to-end metric " << name
                  << " is missing or not positive (run too short?)\n";
        return 1;
      }
      if (it->need > 0) {
        std::cout << "samples " << name << " n=" << it->samples << " need=" << it->need
                  << "\n";
        if (it->samples < it->need) {
          std::cerr << "perfbench: " << name << " has " << it->samples
                    << " samples; its percentile needs " << it->need << " (" << kSamplesBeyond
                    << " beyond it)\n";
          return 1;
        }
      }
      printed.push_back(*it);
    }
  } else {
    result.per_layer.push_back({"host.loadavg", after.loadavg, "1"});
    result.per_layer.push_back({"host.steal_pct", steal_pct, "%"});
    for (const auto& m : result.per_layer) {
      const bool known = std::any_of(kPerLayer.begin(), kPerLayer.end(),
                                     [&](const auto& k) { return k.first == m.name; });
      if (!known) {
        std::cerr << "perfbench: unlisted per-layer metric " << m.name << "\n";
        return 1;
      }
    }
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = std::find_if(result.per_layer.begin(), result.per_layer.end(),
                                   [&](const Metric& m) { return m.name == name; });
      const double value = it == result.per_layer.end() ? 0.0 : it->value;
      printed.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }
  }
  const double fail_ratio =
      result.attempted > 0 ? static_cast<double>(result.failed) / result.attempted : 1.0;
  for (const auto& m : printed) {
    std::cout << "metric " << m.name << " " << number(m.value) << " " << m.unit << "\n";
  }
  std::cout << "metric fail_ratio " << number(fail_ratio) << " 1\n";

  std::ostringstream js;
  js << "{\"correct\": " << (result.failed == 0 && result.attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < printed.size(); ++i) {
    js << (i ? ", " : "") << "\"" << json_escape(printed[i].name)
       << "\": {\"value\": " << number(printed[i].value) << ", \"unit\": \""
       << json_escape(printed[i].unit) << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}
