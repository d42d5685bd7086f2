// Shared vocabulary of the wall-clock benchmark: clocks, sample sets,
// the in-memory span log, process-shared memory, host fingerprint and the
// metric table every workload fills.
//
// Everything a rank writes lives in plain fixed-size structs so the same
// code serves rank threads (shm backend) and forked rank processes (socket
// backend): the structs are placed in an anonymous MAP_SHARED mapping made
// before any rank starts, and the parent reads them after the ranks end.
#pragma once

#include <sys/mman.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/dist2d.hpp"
#include "graph/types.hpp"

namespace perfbench {

using hpcg::graph::Gid;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Host load figures read from /proc.
struct HostSample {
  double loadavg = 0.0;
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
HostSample host_sample();

/// Share of CPU time the hypervisor took from this VM between two samples.
inline double steal_pct(const HostSample& from, const HostSample& to) {
  const auto total = to.total - from.total;
  return total > 0 ? 100.0 * static_cast<double>(to.steal - from.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

// Steal windows. On a shared host the hypervisor takes stretches of CPU
// time from this VM, and a BSP step stalls whenever any rank's CPU is
// taken: a few percent of steal slows every workload by tens of percent.
// The timed phase is therefore cut into windows of at least kWindowS, each
// tagged with the steal it saw. The run goes on until its quiet windows
// (steal <= kQuietStealPct) hold --seconds of timed work and `min_units`
// sampled rounds, or until kMaxStretch x --seconds have passed and all
// windows hold `min_units` rounds (kHardStretch x --seconds at most);
// metrics come from the quietest windows that hold as much
// (select_windows).
inline constexpr double kWindowS = 1.0;
inline constexpr double kQuietStealPct = 1.5;
inline constexpr double kMaxStretch = 1.5;
inline constexpr double kHardStretch = 2.5;
inline constexpr int kMaxWindows = 1024;

/// A reported percentile needs this many samples beyond it.
inline constexpr int kSamplesBeyond = 10;

struct Window {
  double steal_pct;
  double timed_s;
  std::int64_t ok_ops;
  std::int64_t units;  // sampled rounds (batch and socket)
};

/// Window bookkeeping, kept by one thread (process-shareable).
struct WindowLog {
  int n = 0;
  Window windows[kMaxWindows];
  std::int64_t min_units = 0;  // sampled rounds the kept windows must hold
  double quiet_s = 0.0;        // timed seconds in closed quiet windows
  std::int64_t quiet_units = 0;
  std::int64_t all_units = 0;
  bool open = false;
  double opened_at = 0.0;
  HostSample at_open;
  Window current{};

  /// Index of the window the next sample belongs to (opens one if needed).
  int index() {
    if (!open) {
      open = true;
      opened_at = now_s();
      at_open = host_sample();
      current = Window{};
    }
    return n;
  }
  void add(double timed_s, std::int64_t ok_ops, std::int64_t units = 0) {
    index();
    current.timed_s += timed_s;
    current.ok_ops += ok_ops;
    current.units += units;
  }
  /// Closes the open window once it is kWindowS old, or at once with
  /// `now_or_never` (at the end of a timed stretch). With `timed_is_wall`
  /// the window's whole wall time counts as timed work.
  void close_if_due(bool timed_is_wall, bool now_or_never = false) {
    if (!open || n >= kMaxWindows) return;
    const double now = now_s();
    if (!now_or_never && now - opened_at < kWindowS) return;
    if (timed_is_wall) current.timed_s = now - opened_at;
    current.steal_pct = steal_pct(at_open, host_sample());
    if (current.steal_pct <= kQuietStealPct) {
      quiet_s += current.timed_s;
      quiet_units += current.units;
    }
    all_units += current.units;
    windows[n++] = current;
    open = false;
  }
  bool done(double seconds, double elapsed) const {
    return (quiet_s >= seconds && quiet_units >= min_units) ||
           (elapsed >= kMaxStretch * seconds && all_units >= min_units) ||
           elapsed >= kHardStretch * seconds || n >= kMaxWindows;
  }
};

/// The windows to report from: by ascending steal until they hold
/// `seconds` of timed work and `log.min_units` rounds (all windows if they
/// hold less).
std::vector<char> select_windows(const WindowLog& log, double seconds);

inline constexpr int kMaxSamples = 8192;

/// Fixed-capacity sample set, each value tagged with its window
/// (process-shareable).
struct Samples {
  int n = 0;
  double v[kMaxSamples];
  int window[kMaxSamples];
  void add(double x, int w) {
    if (n >= kMaxSamples) return;
    v[n] = x;
    window[n++] = w;
  }
  /// Values from the kept windows.
  std::vector<double> values(const std::vector<char>& keep) const {
    std::vector<double> out;
    for (int i = 0; i < n; ++i) {
      const auto w = static_cast<std::size_t>(window[i]);
      if (w < keep.size() && keep[w]) out.push_back(v[i]);
    }
    return out;
  }
};

/// One traced interval at a layer boundary. The layer is the name's prefix
/// up to the first '.'; `parent` indexes the enclosing span in the same log
/// (-1 for a root); `id` names the round, request or setup it belongs to.
struct Span {
  char name[32];
  double start;
  double end;
  int parent;
  std::int64_t id;
};

inline constexpr int kMaxSpans = 32768;

/// In-memory span log written by ONE thread (rank 0, or the load
/// generator); dumped after the run. Disabled logs record nothing.
struct SpanLog {
  bool on = false;
  int n = 0;
  int depth = 0;
  int stack[16];
  Span spans[kMaxSpans];

  /// Opens a span nested in the innermost open one; returns its index.
  int open(const char* name, std::int64_t id) {
    if (!on || n >= kMaxSpans || depth >= 16) return -1;
    Span& s = spans[n];
    std::strncpy(s.name, name, sizeof(s.name) - 1);
    s.name[sizeof(s.name) - 1] = '\0';
    s.start = now_s();
    s.end = s.start;
    s.parent = depth > 0 ? stack[depth - 1] : -1;
    s.id = id;
    stack[depth++] = n;
    return n++;
  }
  void close(int index) {
    if (index < 0) return;
    spans[index].end = now_s();
    --depth;
  }
  /// Records a finished span (for intervals that do not nest, such as
  /// overlapping service requests); returns its index.
  int record(const char* name, double start, double end, int parent,
             std::int64_t id) {
    if (!on || n >= kMaxSpans) return -1;
    Span& s = spans[n];
    std::strncpy(s.name, name, sizeof(s.name) - 1);
    s.name[sizeof(s.name) - 1] = '\0';
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.id = id;
    return n++;
  }
};

/// RAII span scope over a SpanLog; a null log records nothing.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::int64_t id = 0)
      : log_(log), index_(log ? log->open(name, id) : -1) {}
  ~Scope() {
    if (log_) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Owns one T in an anonymous shared mapping, visible to processes forked
/// after construction. T must be trivially destructible plain data.
template <class T>
class SharedBlock {
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  SharedBlock() {
    void* p = ::mmap(nullptr, sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap of shared block failed");
    ptr_ = new (p) T();
  }
  ~SharedBlock() { ::munmap(ptr_, sizeof(T)); }
  SharedBlock(const SharedBlock&) = delete;
  SharedBlock& operator=(const SharedBlock&) = delete;
  T& operator*() const { return *ptr_; }
  T* operator->() const { return ptr_; }

 private:
  T* ptr_ = nullptr;
};

/// Ordered metric table: name, value, unit. A percentile also carries its
/// sample count and the count it needs for kSamplesBeyond samples beyond it.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::int64_t samples = 0;
  std::int64_t need = 0;
};
using MetricTable = std::vector<Metric>;

/// The q-quantile of `values` as a metric, with its sample requirement.
Metric percentile_metric(const std::string& name, std::vector<double> values,
                         double q, const std::string& unit);

/// The q-quantile within each run of consecutive `values` just long enough
/// to hold kSamplesBeyond samples beyond it, medianed over those runs (a
/// short last run is dropped): a slow stretch of the host moves the runs it
/// falls in, not the reported tail. Needs at least three runs.
Metric grouped_percentile_metric(const std::string& name,
                                 const std::vector<double>& values, double q,
                                 const std::string& unit);

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload's graph by this power of two (smoke tests).
  int scale_shift = 0;
  std::string trace_dir;
};

inline constexpr int kSetups = 3;  // per run; setup_s is their median

/// Outcome of one workload run, before formatting.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  int setups = kSetups;  // setups that setup_s is the median of
  MetricTable end_to_end;
  MetricTable per_layer;
  std::vector<std::string> failures;  // first few wrong-answer messages
  std::vector<std::string> notes;     // printed before the metrics
  /// Digest of the seed-drawn inputs (roots, request draw, mutations), so
  /// a test can see that another seed changed them.
  std::uint64_t inputs_digest = 0xcbf29ce484222325ull;
  void digest(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      inputs_digest = (inputs_digest ^ ((x >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
};

inline constexpr int kRanks = 4;        // 2 x 2 grid
inline constexpr int kKernelThreads = 1;

/// Layers whose self time every traced run reports.
inline const std::vector<std::string> kLayers = {
    "graph", "core", "algos", "comm", "transport", "serve", "stream", "ref"};

/// Per-layer self time from a span log: for every layer (name prefix), the
/// mean over its spans of (duration - time covered by direct children);
/// 0 for a layer off the workload's path.
void add_self_times(const SpanLog& log, MetricTable& out);

/// Writes the span log as JSON lines into `dir` (no-op when empty).
void write_spans(const SpanLog& log, const std::string& dir,
                 const std::string& stem);

// Peak resident memory. The benchmark's own scaffolding (references, the
// mutation mirror, graphs of earlier setups) is resident before the
// measured setup starts, so peak_rss_mb is the growth of the kernel's
// high-water mark (VmHWM) over a baseline taken right before that setup.

/// Returns free heap to the kernel, resets this process's high-water mark
/// to its current resident set, and returns that baseline in MiB.
double reset_peak_rss();
/// This process's resident high-water mark in MiB.
double peak_rss_now();

/// Pins the calling thread to the `k`-th CPU (modulo their count) of the
/// set the process could run on when one of these two was first called,
/// so that every run places its ranks alike. The first call must come
/// before any pin.
void pin_thread(int k);
/// Lets the calling thread run on that whole set again.
void unpin_thread();

/// Goodput over the kept windows: correct operations per timed second.
double goodput(const WindowLog& log, const std::vector<char>& keep);

/// One line on the windows: how many, how many quiet, which were kept.
std::string describe_windows(const WindowLog& log, const std::vector<char>& keep);

/// Vertices of the largest component under `labels` (one component label
/// per vertex), ascending; roots drawn from it traverse the bulk of the
/// graph.
std::vector<Gid> giant_component(const std::vector<Gid>& labels);

int run_batch(const Args& args, bool socket, RunResult& result);
int run_serve(const Args& args, RunResult& result);

}  // namespace perfbench
