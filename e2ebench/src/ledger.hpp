// Layer calls shared by the batch and serving workloads: store set-up, one
// engine job, the layer replays, and the per-layer ledger assembled from the
// traced run's spans.
#pragma once

#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/stored_csr.hpp"
#include "multilog/multilog_store.hpp"
#include "multilog/record.hpp"
#include "multilog/sort_group.hpp"
#include "ssd/storage.hpp"

namespace e2e {

using namespace mlvc;

inline constexpr double kMB = 1e6;

/// The storage categories the ledger breaks traffic down by.
inline constexpr ssd::IoCategory kLedgerCategories[] = {
    ssd::IoCategory::kCsrRowPtr,  ssd::IoCategory::kCsrColIdx,
    ssd::IoCategory::kCsrVal,     ssd::IoCategory::kMessageLog,
    ssd::IoCategory::kEdgeLog,    ssd::IoCategory::kVertexValue,
};

/// Attach a storage-counter delta and the matching /proc/self/io delta to a
/// window span (a batch job, or one pass of the query loop).
void add_io_args(Span& span, const ssd::IoStatsSnapshot& d, const ProcIo& p0,
                 const ProcIo& p1);

/// Attach a finished run's engine counters to its span.
void add_run_args(Span& span, const core::RunStats& stats);

/// CSR build + interval partition + StoredCsrGraph write (forward and
/// transpose) of `edges` onto `storage`, each wrapped in a graph-layer span.
/// The CSR is moved into *csr_out when given.
template <core::VertexApp App>
std::unique_ptr<graph::StoredCsrGraph> build_store(
    ssd::Storage& storage, const graph::EdgeList& edges,
    const core::EngineOptions& opts, Tracer& tracer,
    graph::CsrGraph* csr_out = nullptr) {
  graph::CsrGraph csr;
  {
    Span s(tracer, "graph", "csr_build");
    csr = graph::CsrGraph::from_edge_list(edges);
  }
  graph::VertexIntervals intervals;
  {
    Span s(tracer, "graph", "partition");
    intervals = core::partition_for_app<App>(csr, opts);
    s.arg("intervals", intervals.count());
  }
  std::unique_ptr<graph::StoredCsrGraph> stored;
  {
    Span s(tracer, "graph", "store_write");
    const auto before = storage.stats().snapshot();
    graph::StoredCsrOptions sopt;
    sopt.with_weights = App::kNeedsWeights;
    stored = std::make_unique<graph::StoredCsrGraph>(storage, "g", csr,
                                                     intervals, sopt);
    s.arg("bytes_written",
          static_cast<double>(
              (storage.stats().snapshot() - before).total_bytes_written()));
    s.arg("edges", static_cast<double>(csr.num_edges()));
  }
  if (csr_out != nullptr) *csr_out = std::move(csr);
  return stored;
}

/// Generate a workload input on the calling thread alone. The generators
/// sort in parallel, and the OpenMP workers' allocator arenas would keep
/// that garbage resident into the measured jobs, where the engine reuses
/// the same workers; generated on one thread it is trimmed away instead.
template <typename Generate>
auto generate_input(Generate&& generate) {
#ifdef _OPENMP
  const int threads = omp_get_max_threads();
  omp_set_num_threads(1);
  auto input = generate();
  omp_set_num_threads(threads);
  return input;
#else
  return generate();
#endif
}

/// Set-up repetitions: one when traced; otherwise at least three, more
/// while they add up to under two seconds, so a cheap set-up still gets a
/// steady median.
inline bool more_setups(const std::vector<double>& setup_s, bool traced) {
  if (traced) return setup_s.empty();
  double total = 0;
  for (double s : setup_s) total += s;
  return setup_s.size() < 3 || (total < 2.0 && setup_s.size() < 50);
}

/// Whether to start the next operation (a job, or a pass over the queries)
/// of the measurement window. `done` operations took `elapsed` seconds; the
/// next `step` (2 when traced and untraced ones alternate) are started only
/// while, at the mean pace so far, they still end inside `seconds`.
inline bool keep_measuring(std::size_t done, std::size_t min_ops,
                           std::size_t step, double elapsed, double seconds) {
  if (done < min_ops) return true;
  return elapsed * static_cast<double>(done + step) /
             static_cast<double>(done) <=
         seconds;
}

struct JobResult {
  bool ok = false;
  /// Engine construction to the return of run().
  double run_s = 0;
  /// Construction to the last result value streamed and checked.
  double latency_s = 0;
  double read_mb = 0;
  double write_mb = 0;
  std::string io_backend;
  std::string error;
};

/// One engine job: construct, run, stream the values through `check`. A
/// one-shot engine when ctx is null, else a context-mode (admitted) engine.
/// `check(first_vertex, chunk)` returns false on a wrong value. Spans: a
/// core.job window (construction to run() return, carrying the storage
/// deltas) with core.engine_init, core.run and per-superstep children, then
/// core.value_stream.
template <core::VertexApp App, typename Check>
JobResult run_job(core::RuntimeContext* ctx, graph::StoredCsrGraph& graph,
                  const App& app, const core::EngineOptions& opts,
                  Tracer& tracer, std::uint64_t parent, std::uint64_t request,
                  Check&& check) {
  JobResult r;
  ssd::Storage& storage = graph.storage();
  const WallTimer wall;
  try {
    const auto io0 = storage.stats().snapshot();
    const ProcIo p0 = read_proc_io();
    Span job(tracer, "core", "job", parent, request);
    std::optional<core::MultiLogVCEngine<App>> engine;
    {
      Span init(tracer, "core", "engine_init", job.id(), request);
      if (ctx != nullptr) {
        engine.emplace(*ctx, graph, app, opts);
      } else {
        engine.emplace(graph, app, opts);
      }
    }
    core::RunStats stats;
    {
      Span run(tracer, "core", "run", job.id(), request);
      double last = tracer.now();
      const std::uint64_t run_id = run.id();
      stats = engine->run_with_callback([&](const core::SuperstepStats&) {
        if (tracer.enabled()) {
          SpanRecord step;
          step.layer = "core";
          step.name = "superstep";
          step.start_s = last;
          step.end_s = last = tracer.now();
          step.id = tracer.next_id();
          step.parent = run_id;
          step.request = request;
          tracer.record(std::move(step));
        }
        return true;
      });
      add_run_args(run, stats);
    }
    r.run_s = wall.elapsed_seconds();
    const auto d = storage.stats().snapshot() - io0;
    add_io_args(job, d, p0, read_proc_io());
    job.end();
    r.read_mb = static_cast<double>(d.total_bytes_read()) / kMB;
    r.write_mb = static_cast<double>(d.total_bytes_written()) / kMB;
    r.io_backend = stats.io_backend;
    bool values_ok = true;
    {
      Span vs(tracer, "core", "value_stream", parent, request);
      engine->for_each_value_chunk([&](VertexId first, auto chunk) {
        if (!check(first, chunk)) values_ok = false;
      });
    }
    r.ok = values_ok;
    if (!values_ok) r.error = "wrong result values";
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.latency_s = wall.elapsed_seconds();
  return r;
}

// ---- replays: single layers driven on their own ---------------------------------

/// graph layer: read_adjacency_multi over every interval in loader-sized
/// batches (the loader's share of the engine budget), timed as one span.
void replay_adjacency_scan(const graph::StoredCsrGraph& graph,
                           const core::EngineOptions& opts, Tracer& tracer);

/// ssd layer: random page-sized Blob::read_multi calls over the stored
/// adjacency blobs, timed as one span.
void replay_page_reads(const graph::StoredCsrGraph& graph, std::uint64_t seed,
                       Tracer& tracer);

/// Cap on the records the multilog replay appends.
inline constexpr std::uint64_t kReplayRecords = 8u << 20;

/// multilog layer: the records of a dense superstep (every vertex sends one
/// message along each out-edge, capped at kReplayRecords) appended through
/// MultiLogStore with per-thread staging, then loaded back and grouped by
/// sort_and_group with the app's combine, interval by interval. Two spans:
/// multilog.append and multilog.sort_group, each with a record count.
template <core::VertexApp App>
void replay_multilog(ssd::Storage& storage, const graph::StoredCsrGraph& graph,
                     const App& app, const core::EngineOptions& opts,
                     Tracer& tracer) {
  using Message = typename App::Message;
  using Rec = multilog::Record<Message>;
  // Destinations of the replayed sends, in source order (untimed).
  std::vector<VertexId> dsts;
  const auto& iv = graph.intervals();
  for (IntervalId i = 0; i < iv.count() && dsts.size() < kReplayRecords;
       ++i) {
    const EdgeIndex n = graph.interval_edge_count(i);
    const std::size_t at = dsts.size();
    dsts.resize(at + n);
    graph.read_adjacency(i, 0, n, std::span<VertexId>(dsts.data() + at, n));
  }
  if (dsts.size() > kReplayRecords) dsts.resize(kReplayRecords);
  const Message payload{};
  const core::EngineOptions resolved = core::apply_env_overrides(opts);
  {
    multilog::MultiLogStore store(
        storage, "replay", iv,
        multilog::MultiLogConfig{
            .record_size = sizeof(Rec),
            .format = resolved.on_disk_format,
            .payload_varint = multilog::kPayloadVarint<Message>,
            .buffer_budget_bytes = resolved.log_buffer_budget(),
            .staging_records = resolved.scatter_staging_records});
    std::vector<multilog::MultiLogStore::Staging> staging(
        std::max(1u, hardware_threads()));
    for (auto& s : staging) s = store.make_staging();
    constexpr std::size_t kBlock = 4096;
    const std::size_t blocks = (dsts.size() + kBlock - 1) / kBlock;
    {
      Span s(tracer, "multilog", "append");
      parallel_for(std::size_t{0}, blocks, [&](std::size_t b) {
        auto& st = staging[thread_index()];
        const std::size_t end = std::min(dsts.size(), (b + 1) * kBlock);
        for (std::size_t k = b * kBlock; k < end; ++k) {
          multilog::append_record_staged(store, st, dsts[k], payload);
        }
      });
      for (auto& st : staging) store.flush_staging(st);
      store.swap_generations();
      s.arg("records", static_cast<double>(dsts.size()));
    }
    std::vector<std::byte> bytes;
    const auto combine = [&app](const Message& a, const Message& b) {
      return app.combine(a, b);
    };
    double sort_s = 0;
    std::uint64_t grouped = 0;
    Span s(tracer, "multilog", "sort_group");
    for (IntervalId i = 0; i < iv.count(); ++i) {
      bytes.clear();
      store.load_interval(i, bytes);
      const WallTimer t;
      const auto g =
          resolved.on_disk_format == OnDiskFormat::kV2
              ? multilog::sort_and_group_v2<Message>(
                    bytes, iv.begin(i), iv.end(i), resolved.sort_group_path,
                    combine)
              : multilog::sort_and_group<Message>(bytes, iv.begin(i),
                                                  iv.end(i),
                                                  resolved.sort_group_path,
                                                  combine);
      sort_s += t.elapsed_seconds();
      grouped += g.decoded;
    }
    s.arg("records", static_cast<double>(grouped));
    s.arg("sort_s", sort_s);
  }
}

// ---- the end-to-end sheet ---------------------------------------------------------

/// What the untraced part of a run measured. A unit is a job (batch) or a
/// pass over the query list (serving); an operation is a job or a query.
struct Tally {
  std::vector<double> setup_s;
  std::vector<double> unit_s;
  std::vector<double> read_mb, write_mb;  // per unit
  /// Peak RSS from the end of set-up to the end of the first unit. Later
  /// units would also count what the allocator kept from earlier ones,
  /// which a process serving one job never holds.
  double peak_mb = 0;
  /// Per operation; +inf for a failed one (slower than any limit).
  std::vector<double> latency_s;
  double ok_ops = 0;
  /// Wall time of all units.
  double busy_s = 0;
};

/// Every end-to-end metric: medians over units, latency percentiles over
/// operations, correct operations per second of measured wall time.
void add_end_to_end(Outcome& out, const Tally& t);

// ---- the per-layer ledger ---------------------------------------------------------

/// What the ledger needs beyond the spans themselves.
struct LedgerInputs {
  /// The traced window spans: batch = the first traced core.job; serve =
  /// the first traced serve.loop.
  SpanRecord window;
  /// Operations inside the window (their spans carry these request ids).
  std::set<std::uint64_t> requests;
  bool serving = false;
  std::size_t budget_bytes = 0;
  /// Medians of the window's wall time, untraced and traced.
  double untraced_s = 0;
  double traced_s = 0;
};

/// Every per-layer metric, from the tracer's spans.
void add_layer_metrics(Outcome& out, const Tracer& tracer,
                       const LedgerInputs& in);

}  // namespace e2e
