// Shared pieces of the end-to-end benchmark: run options, the metric sheet,
// the in-memory span tracer, and /proc helpers.
//
// The benchmark drives the libraries only through their public functions
// (graph::StoredCsrGraph, core::MultiLogVCEngine, core::RuntimeContext,
// multilog::MultiLogStore, ssd::Blob). End-to-end numbers come from
// untraced runs timed by the benchmark itself; the per-layer ledger comes
// from a separate traced run whose spans wrap every call the benchmark makes
// into a layer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

// ---- run options ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs that finish in seconds (smoke mode).
  bool tiny = false;
  /// Scratch directory for stores, traces and result records.
  std::filesystem::path work_dir;
};

// ---- metric sheet -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main: the metrics of the requested mode
/// plus the operation tally (an operation is one job or one query).
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Host and build facts, as a JSON object.
  std::string host_json;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

// ---- tracing ------------------------------------------------------------------

struct SpanRecord {
  std::string layer;
  std::string name;
  double start_s = 0;
  double end_s = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  /// Operation the span belongs to (job or query index + 1; 0 = none).
  std::uint64_t request = 0;
  unsigned tid = 0;
  std::vector<std::pair<std::string, double>> args;

  double seconds() const { return end_s - start_s; }
  /// Value of arg `key` (0 when absent).
  double arg(const std::string& key) const;
};

/// Spans kept in memory and written out once, at exit. Recording is off
/// unless enabled; a disabled tracer costs one relaxed load per span.
class Tracer {
 public:
  Tracer();
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Seconds since the tracer was created (steady clock).
  double now() const;
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(SpanRecord span);

  /// Every recorded span with this layer and name, in record order.
  std::vector<SpanRecord> find(const std::string& layer,
                               const std::string& name) const;

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write_chrome_json(const std::filesystem::path& path,
                         const std::string& host_json) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
};

/// RAII span around one call into a layer. Inert when the tracer is off.
class Span {
 public:
  Span(Tracer& tracer, const char* layer, const char* name,
       std::uint64_t parent = 0, std::uint64_t request = 0);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return rec_.id; }
  void arg(std::string key, double value);
  /// Close the span now (the destructor is then a no-op).
  void end();

 private:
  Tracer& tracer_;
  bool live_ = false;
  SpanRecord rec_;
};

// ---- /proc helpers --------------------------------------------------------------

struct ProcIo {
  std::uint64_t rchar = 0;
  std::uint64_t wchar = 0;
};
ProcIo read_proc_io();
/// Reset the process's peak-RSS mark (VmHWM) to its current RSS.
void reset_peak_rss();
double peak_rss_mb();

/// Host and build facts as a JSON object. `io_backend` is the backend in
/// use after the probe, `store_format` the stored graph's on-disk format.
std::string host_facts_json(const std::string& io_backend,
                            const std::string& store_format,
                            std::size_t memory_budget_bytes);

// ---- workloads ------------------------------------------------------------------

Outcome run_pagerank_rmat(const Options& opt, Tracer& tracer);
Outcome run_bfs_grid(const Options& opt, Tracer& tracer);
Outcome run_serve_mix(const Options& opt, Tracer& tracer);

}  // namespace e2e
