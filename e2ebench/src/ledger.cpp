#include "ledger.hpp"

#include <algorithm>
#include <cmath>

namespace e2e {

namespace {

std::string cat_name(ssd::IoCategory c) { return std::string(ssd::to_string(c)); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void add_io_args(Span& span, const ssd::IoStatsSnapshot& d, const ProcIo& p0,
                 const ProcIo& p1) {
  for (const ssd::IoCategory c : kLedgerCategories) {
    span.arg("io.read." + cat_name(c), static_cast<double>(d[c].bytes_read));
    span.arg("io.write." + cat_name(c),
             static_cast<double>(d[c].bytes_written));
  }
  span.arg("io.logical_read.csr_col_idx",
           static_cast<double>(d[ssd::IoCategory::kCsrColIdx].logical_bytes_read));
  span.arg("io.read_total", static_cast<double>(d.total_bytes_read()));
  span.arg("io.write_total", static_cast<double>(d.total_bytes_written()));
  span.arg("io.retries", static_cast<double>(d.io_retry_count));
  span.arg("io.giveups", static_cast<double>(d.io_giveup_count));
  span.arg("cache.hits", static_cast<double>(d.cache_hit_pages));
  span.arg("cache.misses", static_cast<double>(d.cache_miss_pages));
  span.arg("cache.bypasses", static_cast<double>(d.cache_bypass_pages));
  span.arg("cache.evictions", static_cast<double>(d.cache_evictions));
  span.arg("proc.rchar", static_cast<double>(p1.rchar - p0.rchar));
  span.arg("proc.wchar", static_cast<double>(p1.wchar - p0.wchar));
}

void add_run_args(Span& span, const core::RunStats& st) {
  std::uint64_t active = 0, edges = 0, touched = 0, inefficient = 0, hits = 0;
  for (const auto& s : st.supersteps) {
    active += s.active_vertices;
    edges += s.edges_activated;
    touched += s.pages_touched;
    inefficient += s.pages_inefficient;
    hits += s.edge_log_hits;
  }
  span.arg("supersteps", static_cast<double>(st.supersteps.size()));
  span.arg("compute_s", st.compute_seconds());
  span.arg("io_wait_s", st.io_wait_seconds());
  span.arg("sort_group_s", st.sort_group_seconds());
  span.arg("scatter_stall_s", st.scatter_stall_seconds());
  span.arg("scatter_flushes", static_cast<double>(st.scatter_flush_count()));
  span.arg("groups_scatter", static_cast<double>(st.groups_scatter()));
  span.arg("groups_comparison", static_cast<double>(st.groups_comparison()));
  span.arg("active_vertices", static_cast<double>(active));
  span.arg("messages", static_cast<double>(st.total_messages()));
  span.arg("edges_activated", static_cast<double>(edges));
  span.arg("pages_touched", static_cast<double>(touched));
  span.arg("pages_inefficient", static_cast<double>(inefficient));
  span.arg("edge_log_hits", static_cast<double>(hits));
  span.arg("modeled_s", st.modeled_storage_seconds());
}

void replay_adjacency_scan(const graph::StoredCsrGraph& graph,
                           const core::EngineOptions& opts, Tracer& tracer) {
  const EdgeIndex batch = std::max<EdgeIndex>(
      1, core::apply_env_overrides(opts).loader_budget() / sizeof(VertexId));
  std::vector<VertexId> buf(static_cast<std::size_t>(batch));
  Span s(tracer, "graph", "adj_scan");
  EdgeIndex edges = 0;
  for (IntervalId i = 0; i < graph.intervals().count(); ++i) {
    const EdgeIndex n = graph.interval_edge_count(i);
    for (EdgeIndex lo = 0; lo < n; lo += batch) {
      const EdgeIndex hi = std::min(n, lo + batch);
      const graph::StoredCsrGraph::ElemRange range{lo, hi, buf.data()};
      graph.read_adjacency_multi(i, {&range, 1});
      edges += hi - lo;
    }
  }
  s.arg("edges", static_cast<double>(edges));
}

void replay_page_reads(const graph::StoredCsrGraph& graph, std::uint64_t seed,
                       Tracer& tracer) {
  constexpr std::size_t kPage = 4096;
  constexpr std::size_t kOpsPerCall = 32;
  constexpr std::size_t kCalls = 512;  // 64 MiB of random 4 KiB reads
  const IntervalId n = graph.intervals().count();
  std::vector<const ssd::Blob*> blobs;
  std::vector<std::uint64_t> cum_pages;  // inclusive prefix of blob pages
  std::uint64_t total_pages = 0;
  for (IntervalId i = 0; i < n; ++i) {
    const ssd::Blob& b = graph.colidx_blob(i);
    const std::uint64_t pages = b.size() / kPage;
    if (pages == 0) continue;
    total_pages += pages;
    blobs.push_back(&b);
    cum_pages.push_back(total_pages);
  }
  if (total_pages == 0) return;
  SplitMix64 rng(seed ^ 0x5eedULL);
  std::vector<std::byte> buf(kPage * kOpsPerCall);
  std::vector<ssd::ReadOp> ops(kOpsPerCall);
  Span s(tracer, "ssd", "page_read");
  std::uint64_t bytes = 0;
  for (std::size_t call = 0; call < kCalls; ++call) {
    const std::uint64_t pick = rng.next_below(total_pages);
    const std::size_t bi = static_cast<std::size_t>(
        std::upper_bound(cum_pages.begin(), cum_pages.end(), pick) -
        cum_pages.begin());
    const ssd::Blob& blob = *blobs[bi];
    const std::uint64_t pages = blob.size() / kPage;
    for (std::size_t k = 0; k < kOpsPerCall; ++k) {
      ops[k] = {rng.next_below(pages) * kPage, buf.data() + k * kPage, kPage};
    }
    blob.read_multi(ops);
    bytes += kPage * kOpsPerCall;
  }
  s.arg("bytes", static_cast<double>(bytes));
}

void add_end_to_end(Outcome& out, const Tally& t) {
  out.add("setup_s", median(t.setup_s), "s");
  out.add("run_s", median(t.unit_s), "s");
  out.add("qps", ratio(t.ok_ops, t.busy_s), "1/s");
  out.add("query_p50_s", median(t.latency_s), "s");
  out.add("query_p95_s", percentile(t.latency_s, 0.95), "s");
  out.add("storage_read_mb", median(t.read_mb), "MB");
  out.add("storage_write_mb", median(t.write_mb), "MB");
  out.add("peak_rss_mb", t.peak_mb, "MB");
}

void add_layer_metrics(Outcome& out, const Tracer& tracer,
                       const LedgerInputs& in) {
  const auto in_window = [&](const std::vector<SpanRecord>& spans) {
    std::vector<SpanRecord> kept;
    for (const auto& s : spans) {
      if (in.requests.count(s.request) != 0) kept.push_back(s);
    }
    return kept;
  };
  const auto first = [&](const char* layer, const char* name) {
    const auto spans = tracer.find(layer, name);
    return spans.empty() ? SpanRecord{} : spans.front();
  };
  const auto sum_arg = [](const std::vector<SpanRecord>& spans,
                          const char* key) {
    double t = 0;
    for (const auto& s : spans) t += s.arg(key);
    return t;
  };
  const auto durations = [](const std::vector<SpanRecord>& spans) {
    std::vector<double> d;
    for (const auto& s : spans) d.push_back(s.seconds());
    return d;
  };
  const SpanRecord& w = in.window;

  // graph
  const SpanRecord store = first("graph", "store_write");
  out.add("graph.csr_build_s", first("graph", "csr_build").seconds(), "s");
  out.add("graph.partition_s", first("graph", "partition").seconds(), "s");
  out.add("graph.store_write_s", store.seconds(), "s");
  out.add("graph.store_bytes_per_edge",
          ratio(store.arg("bytes_written"), store.arg("edges")), "B/edge");
  out.add("graph.adj_read_amp",
          ratio(w.arg("io.read.csr_col_idx"),
                w.arg("io.logical_read.csr_col_idx")),
          "x");
  const SpanRecord scan = first("graph", "adj_scan");
  out.add("graph.adj_scan_medges_s",
          ratio(scan.arg("edges") / 1e6, scan.seconds()), "Medge/s");

  // ssd
  for (const ssd::IoCategory c : kLedgerCategories) {
    out.add("ssd.read_mb." + cat_name(c), w.arg("io.read." + cat_name(c)) / kMB,
            "MB");
  }
  for (const ssd::IoCategory c : kLedgerCategories) {
    out.add("ssd.write_mb." + cat_name(c),
            w.arg("io.write." + cat_name(c)) / kMB, "MB");
  }
  const SpanRecord page = first("ssd", "page_read");
  out.add("ssd.page_read_mb_s", ratio(page.arg("bytes") / kMB, page.seconds()),
          "MB/s");
  const auto runs = in_window(tracer.find("core", "run"));
  out.add("ssd.modeled_s", sum_arg(runs, "modeled_s"), "s");
  out.add("ssd.io_retries", w.arg("io.retries"), "count");
  out.add("ssd.io_giveups", w.arg("io.giveups"), "count");
  out.add("ssd.syscall_read_ratio",
          ratio(w.arg("proc.rchar"), w.arg("io.read_total")), "x");
  out.add("ssd.syscall_write_ratio",
          ratio(w.arg("proc.wchar"), w.arg("io.write_total")), "x");

  // multilog
  out.add("multilog.sort_group_s", sum_arg(runs, "sort_group_s"), "s");
  out.add("multilog.scatter_stall_s", sum_arg(runs, "scatter_stall_s"), "s");
  out.add("multilog.scatter_flushes", sum_arg(runs, "scatter_flushes"),
          "count");
  const double cmp = sum_arg(runs, "groups_comparison");
  out.add("multilog.comparison_group_frac",
          ratio(cmp, cmp + sum_arg(runs, "groups_scatter")), "frac");
  const SpanRecord append = first("multilog", "append");
  out.add("multilog.append_mrec_s",
          ratio(append.arg("records") / 1e6, append.seconds()), "Mrec/s");
  const SpanRecord group = first("multilog", "sort_group");
  out.add("multilog.sort_group_mrec_s",
          ratio(group.arg("records") / 1e6, group.arg("sort_s")), "Mrec/s");
  const double messages = sum_arg(runs, "messages");
  out.add("multilog.log_bytes_per_msg",
          ratio(w.arg("io.write.message_log"), messages), "B/msg");
  out.add("multilog.inefficient_page_frac",
          ratio(sum_arg(runs, "pages_inefficient"),
                sum_arg(runs, "pages_touched")),
          "frac");
  out.add("multilog.edge_log_hits", sum_arg(runs, "edge_log_hits"), "count");

  // core
  const auto inits = in_window(tracer.find("core", "engine_init"));
  const auto jobs = in_window(tracer.find("core", "job"));
  const auto steps = in_window(tracer.find("core", "superstep"));
  const auto streams = in_window(tracer.find("core", "value_stream"));
  double run_s = 0;
  for (const auto& j : jobs) run_s += j.seconds();
  const double compute = sum_arg(runs, "compute_s");
  const double io_wait = sum_arg(runs, "io_wait_s");
  out.add("core.engine_init_s", median(durations(inits)), "s");
  out.add("core.supersteps", static_cast<double>(steps.size()), "count");
  out.add("core.superstep_p50_ms", median(durations(steps)) * 1e3, "ms");
  out.add("core.superstep_max_ms", percentile(durations(steps), 1.0) * 1e3,
          "ms");
  out.add("core.run_s", run_s, "s");
  out.add("core.compute_s", compute, "s");
  out.add("core.io_wait_s", io_wait, "s");
  out.add("core.unattributed_s", run_s - compute - io_wait, "s");
  double stream_s = 0;
  for (const auto& s : streams) stream_s += s.seconds();
  out.add("core.value_stream_s", stream_s, "s");
  out.add("core.active_vertices", sum_arg(runs, "active_vertices"), "count");
  out.add("core.messages", messages, "count");
  out.add("core.edges_activated", sum_arg(runs, "edges_activated"), "count");
  out.add("core.budget_mb",
          static_cast<double>(in.budget_bytes) / (1024.0 * 1024.0), "MiB");

  // serve (admission and the shared cache exist only in the serving path)
  const auto waits = durations(inits);
  out.add("serve.admit_wait_p50_ms", in.serving ? median(waits) * 1e3 : 0,
          "ms");
  out.add("serve.admit_wait_p95_ms",
          in.serving ? percentile(waits, 0.95) * 1e3 : 0, "ms");
  out.add("serve.query_run_p50_s", in.serving ? median(durations(runs)) : 0,
          "s");
  const double hits = w.arg("cache.hits");
  out.add("serve.cache_hit_ratio",
          ratio(hits, hits + w.arg("cache.misses") + w.arg("cache.bypasses")),
          "frac");
  out.add("serve.cache_bypass_pages", w.arg("cache.bypasses"), "count");
  out.add("serve.cache_evictions", w.arg("cache.evictions"), "count");

  out.add("trace_overhead_frac", ratio(in.traced_s, in.untraced_s) - 1,
          "frac");
}

}  // namespace e2e
