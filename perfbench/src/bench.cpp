#include "bench.hpp"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void add_self_times(const SpanLog& log, MetricTable& out) {
  std::vector<double> child(static_cast<std::size_t>(log.n), 0.0);
  for (int i = 0; i < log.n; ++i) {
    const Span& s = log.spans[i];
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, std::pair<double, int>> by_layer;
  for (int i = 0; i < log.n; ++i) {
    const Span& s = log.spans[i];
    const std::string name(s.name);
    auto& acc = by_layer[name.substr(0, name.find('.'))];
    acc.first += (s.end - s.start) - child[static_cast<std::size_t>(i)];
    acc.second += 1;
  }
  for (const auto& layer : kLayers) {
    const auto it = by_layer.find(layer);
    const double mean = it == by_layer.end() || it->second.second == 0
                            ? 0.0
                            : it->second.first / it->second.second;
    out.push_back({layer + ".self_ms", mean * 1e3, "ms"});
  }
}

void write_spans(const SpanLog& log, const std::string& dir,
                 const std::string& stem) {
  if (dir.empty() || log.n == 0) return;
  std::filesystem::create_directories(dir);
  std::ofstream os(std::filesystem::path(dir) / (stem + ".jsonl"));
  os.precision(17);
  for (int i = 0; i < log.n; ++i) {
    const Span& s = log.spans[i];
    os << "{\"i\":" << i << ",\"name\":\"" << s.name << "\",\"start\":" << s.start
       << ",\"end\":" << s.end << ",\"parent\":" << s.parent
       << ",\"id\":" << s.id << "}\n";
  }
}

namespace {

/// A "VmXXX:  <kB> kB" field of /proc/self/status, in MiB.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == field + ":") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

}  // namespace

double reset_peak_rss() {
#ifdef __GLIBC__
  ::malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset the peak RSS via /proc/self/clear_refs");
  return status_mb("VmRSS");
}

double peak_rss_now() { return status_mb("VmHWM"); }

HostSample host_sample() {
  HostSample h;
  std::ifstream("/proc/loadavg") >> h.loadavg;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 10; ++field) {
    std::uint64_t x = 0;
    if (!(stat >> x)) break;
    if (field < 8) h.total += x;  // guest time is already inside user
    if (field == 7) h.steal = x;
  }
  return h;
}

std::vector<char> select_windows(const WindowLog& log, double seconds) {
  std::vector<int> order(static_cast<std::size_t>(log.n));
  for (int i = 0; i < log.n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return log.windows[a].steal_pct < log.windows[b].steal_pct;
  });
  std::vector<char> keep(static_cast<std::size_t>(log.n), 0);
  double held = 0.0;
  std::int64_t units = 0;
  for (const int i : order) {
    if (held >= seconds && units >= log.min_units) break;
    keep[static_cast<std::size_t>(i)] = 1;
    held += log.windows[i].timed_s;
    units += log.windows[i].units;
  }
  return keep;
}

Metric percentile_metric(const std::string& name, std::vector<double> values,
                         double q, const std::string& unit) {
  const auto n = static_cast<std::int64_t>(values.size());
  const auto need =
      static_cast<std::int64_t>(std::ceil(kSamplesBeyond / (1.0 - q) - 1e-9));
  return {name, quantile(std::move(values), q), unit, n, need};
}

Metric grouped_percentile_metric(const std::string& name,
                                 const std::vector<double>& values, double q,
                                 const std::string& unit) {
  const auto group =
      static_cast<std::size_t>(std::ceil(kSamplesBeyond / (1.0 - q) - 1e-9));
  std::vector<double> tails;
  for (std::size_t g = 0; g + group <= values.size(); g += group) {
    tails.push_back(quantile({values.begin() + static_cast<std::ptrdiff_t>(g),
                              values.begin() + static_cast<std::ptrdiff_t>(g + group)},
                             q));
  }
  return {name, median(tails), unit, static_cast<std::int64_t>(values.size()),
          static_cast<std::int64_t>(3 * group)};
}

namespace {

const cpu_set_t& initial_cpus() {
  static const cpu_set_t set = [] {
    cpu_set_t out;
    CPU_ZERO(&out);
    if (::sched_getaffinity(0, sizeof(out), &out) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    return out;
  }();
  return set;
}

void set_affinity(const cpu_set_t& set) {
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

}  // namespace

void pin_thread(int k) {
  const cpu_set_t& all = initial_cpus();
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) cpus.push_back(c);
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(k) % cpus.size()], &one);
  set_affinity(one);
}

void unpin_thread() { set_affinity(initial_cpus()); }

double goodput(const WindowLog& log, const std::vector<char>& keep) {
  double timed = 0.0;
  std::int64_t ok = 0;
  for (int i = 0; i < log.n; ++i) {
    if (!keep[static_cast<std::size_t>(i)]) continue;
    timed += log.windows[i].timed_s;
    ok += log.windows[i].ok_ops;
  }
  return timed > 0 ? static_cast<double>(ok) / timed : 0.0;
}

std::string describe_windows(const WindowLog& log, const std::vector<char>& keep) {
  int quiet = 0, kept = 0;
  std::int64_t kept_units = 0;
  double kept_steal = 0.0, kept_s = 0.0, all_s = 0.0;
  for (int i = 0; i < log.n; ++i) {
    const Window& w = log.windows[i];
    all_s += w.timed_s;
    if (w.steal_pct <= kQuietStealPct) ++quiet;
    if (!keep[static_cast<std::size_t>(i)]) continue;
    ++kept;
    kept_s += w.timed_s;
    kept_units += w.units;
    kept_steal = std::max(kept_steal, w.steal_pct);
  }
  std::ostringstream os;
  os << "windows " << log.n << " (" << quiet << " quiet, " << all_s
     << " s timed), kept " << kept << " (" << kept_s << " s";
  if (log.min_units > 0) os << ", " << kept_units << " rounds";
  os << ", steal <= " << kept_steal << " %)";
  return os.str();
}

std::vector<Gid> giant_component(const std::vector<Gid>& labels) {
  std::map<Gid, std::int64_t> size;
  for (const Gid l : labels) ++size[l];
  Gid best = 0;
  std::int64_t best_size = -1;
  for (const auto& [label, count] : size) {
    if (count > best_size) {
      best = label;
      best_size = count;
    }
  }
  std::vector<Gid> members;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] == best) members.push_back(static_cast<Gid>(v));
  }
  return members;
}

}  // namespace perfbench
