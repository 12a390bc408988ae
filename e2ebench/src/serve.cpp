// serve-mix: a closed loop of clients, each waiting for its reply, issuing
// seeded BFS / SSSP / WCC queries against one RuntimeContext. The queries
// share the store, the ssd read path, the BudgetArbiter and the shared
// adjacency PageCache.
#include <malloc.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <thread>

#include "apps/bfs.hpp"
#include "apps/sssp.hpp"
#include "apps/wcc.hpp"
#include "core/runtime_context.hpp"
#include "graph/generators.hpp"
#include "ledger.hpp"
#include "reference.hpp"

namespace e2e {

namespace {

enum class Kind { kBfs, kSssp, kWcc };

struct Query {
  Kind kind = Kind::kWcc;
  VertexId source = 0;
  /// FNV-1a of the reference answer's value bytes.
  std::uint64_t expect = 0;
};

struct QueryResult {
  bool ok = false;
  double latency_s = 0;
};

struct Pass {
  std::vector<QueryResult> queries;
  double makespan_s = 0;
  double read_mb = 0;
  double write_mb = 0;
};

constexpr unsigned kClients = 4;

/// Symmetric small-integer weights, so SSSP sums are exact in float and an
/// undirected edge weighs the same both ways.
void assign_weights(graph::EdgeList& edges, std::uint64_t seed) {
  for (auto& e : edges.edges()) {
    const std::uint64_t lo = std::min(e.src, e.dst), hi = std::max(e.src, e.dst);
    SplitMix64 mix(seed ^ (lo << 32 | hi));
    e.weight = static_cast<float>(1 + mix.next_below(16));
  }
}

/// 60% BFS and 20% SSSP from non-isolated sources, 20% WCC; reference
/// answers computed once per distinct query.
std::vector<Query> make_queries(const graph::CsrGraph& csr, std::size_t count,
                                std::uint64_t seed) {
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  std::map<std::pair<int, VertexId>, std::uint64_t> memo;
  std::vector<Query> out;
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    const std::uint64_t roll = rng.next_below(10);
    q.kind = roll < 6 ? Kind::kBfs : roll < 8 ? Kind::kSssp : Kind::kWcc;
    if (q.kind != Kind::kWcc) {
      do {
        q.source = static_cast<VertexId>(rng.next_below(csr.num_vertices()));
      } while (csr.out_degree(q.source) == 0);
    }
    const auto key = std::make_pair(static_cast<int>(q.kind), q.source);
    auto it = memo.find(key);
    if (it == memo.end()) {
      std::uint64_t h = kFnvSeed;
      if (q.kind == Kind::kBfs) {
        const auto v = bfs_reference(csr, q.source);
        h = fnv1a(h, v.data(), v.size() * sizeof(v[0]));
      } else if (q.kind == Kind::kSssp) {
        const auto v = sssp_reference(csr, q.source);
        h = fnv1a(h, v.data(), v.size() * sizeof(v[0]));
      } else {
        const auto v = wcc_reference(csr);
        h = fnv1a(h, v.data(), v.size() * sizeof(v[0]));
      }
      it = memo.emplace(key, h).first;
    }
    q.expect = it->second;
    out.push_back(q);
  }
  return out;
}

template <core::VertexApp App>
QueryResult run_query(core::RuntimeContext& ctx, graph::StoredCsrGraph& graph,
                      const App& app, const core::EngineOptions& opts,
                      const Query& q, Tracer& tracer, std::uint64_t loop_id,
                      std::uint64_t request) {
  Span span(tracer, "serve", "query", loop_id, request);
  std::uint64_t h = kFnvSeed;
  const JobResult r = run_job(
      &ctx, graph, app, opts, tracer, span.id(), request,
      [&h](VertexId, auto chunk) {
        h = fnv1a(h, chunk.data(), chunk.size_bytes());
        return true;
      });
  if (!r.ok) std::cerr << "query failed: " << r.error << "\n";
  const bool ok = r.ok && h == q.expect;
  if (r.ok && !ok) std::cerr << "query returned wrong values\n";
  return {ok, r.latency_s};
}

Pass run_pass(core::RuntimeContext& ctx, graph::StoredCsrGraph& graph,
              const std::vector<Query>& queries,
              const core::EngineOptions& opts, Tracer& tracer,
              std::atomic<std::uint64_t>& next_request) {
  Pass pass;
  pass.queries.resize(queries.size());
  const auto io0 = ctx.storage().stats().snapshot();
  const ProcIo p0 = read_proc_io();
  const WallTimer wall;
  Span loop(tracer, "serve", "loop");
  std::atomic<std::size_t> next{0};
  const auto client = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < queries.size();) {
      const Query& q = queries[i];
      const std::uint64_t req = next_request.fetch_add(1) + 1;
      try {
        switch (q.kind) {
          case Kind::kBfs:
            pass.queries[i] = run_query(ctx, graph, apps::Bfs{.source = q.source},
                                        opts, q, tracer, loop.id(), req);
            break;
          case Kind::kSssp:
            pass.queries[i] =
                run_query(ctx, graph, apps::Sssp{.source = q.source}, opts, q,
                          tracer, loop.id(), req);
            break;
          case Kind::kWcc:
            pass.queries[i] = run_query(ctx, graph, apps::Wcc{}, opts, q,
                                        tracer, loop.id(), req);
            break;
        }
      } catch (const std::exception& e) {
        std::cerr << "query failed: " << e.what() << "\n";
        pass.queries[i] = {false, 0};
      }
    }
  };
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (auto& t : clients) t.join();
  pass.makespan_s = wall.elapsed_seconds();
  const auto d = ctx.storage().stats().snapshot() - io0;
  add_io_args(loop, d, p0, read_proc_io());
  pass.read_mb = static_cast<double>(d.total_bytes_read()) / kMB;
  pass.write_mb = static_cast<double>(d.total_bytes_written()) / kMB;
  return pass;
}

}  // namespace

Outcome run_serve_mix(const Options& opt, Tracer& tracer) {
  graph::RmatParams params;
  params.scale = opt.tiny ? 10 : 16;
  params.edge_factor = 16;
  params.seed = opt.seed;
  graph::EdgeList edges =
      generate_input([&] { return graph::generate_rmat(params); });
  assign_weights(edges, opt.seed);
  const std::size_t n_queries = opt.tiny ? 24 : 200;

  core::EngineOptions opts;
  opts.memory_budget_bytes = opt.tiny ? 1_MiB : 4_MiB;
  // Queries run to convergence.
  opts.max_supersteps = 1u << 20;
  core::RuntimeContextOptions copt;
  copt.device.page_size = 4096;
  copt.memory_pool_bytes = opt.tiny ? 8_MiB : 32_MiB;
  copt.shared_cache_bytes = opt.tiny ? 256_KiB : 2_MiB;

  const auto dir = opt.work_dir / "store";
  Tally tally;
  std::unique_ptr<core::RuntimeContext> ctx;
  std::unique_ptr<graph::StoredCsrGraph> stored;
  graph::CsrGraph csr;
  tracer.set_enabled(opt.trace);
  while (more_setups(tally.setup_s, opt.trace)) {
    stored.reset();
    ctx.reset();
    std::filesystem::remove_all(dir);
    const WallTimer t;
    {
      Span s(tracer, "serve", "context_init");
      ctx = std::make_unique<core::RuntimeContext>(dir, copt);
    }
    stored = build_store<apps::Sssp>(ctx->storage(), edges, opts, tracer, &csr);
    {
      Span s(tracer, "serve", "adopt_graph");
      ctx->adopt_graph(*stored);
    }
    tally.setup_s.push_back(t.elapsed_seconds());
  }
  const std::vector<Query> queries = make_queries(csr, n_queries, opt.seed);
  csr = graph::CsrGraph();
  edges = graph::EdgeList();
  malloc_trim(0);
  reset_peak_rss();

  Outcome out;
  std::vector<double> traced_s;
  std::atomic<std::uint64_t> next_request{0};
  const WallTimer window;
  for (std::uint64_t k = 0;; ++k) {
    const bool traced_pass = opt.trace && k % 2 == 1;
    if (!traced_pass && !keep_measuring(k, 2, opt.trace ? 2 : 1,
                                        window.elapsed_seconds(), opt.seconds)) {
      break;
    }
    tracer.set_enabled(traced_pass);
    const Pass p =
        run_pass(*ctx, *stored, queries, opts, tracer, next_request);
    for (const auto& q : p.queries) {
      ++out.attempted;
      if (!q.ok) ++out.failed;
    }
    if (traced_pass) {
      traced_s.push_back(p.makespan_s);
      continue;
    }
    if (tally.unit_s.empty()) tally.peak_mb = peak_rss_mb();
    tally.unit_s.push_back(p.makespan_s);
    tally.read_mb.push_back(p.read_mb);
    tally.write_mb.push_back(p.write_mb);
    tally.busy_s += p.makespan_s;
    for (const auto& q : p.queries) {
      tally.latency_s.push_back(
          q.ok ? q.latency_s : std::numeric_limits<double>::infinity());
      tally.ok_ops += q.ok ? 1 : 0;
    }
  }
  out.host_json = host_facts_json(ctx->io_backend_name(),
                                  to_string(stored->format()),
                                  opts.memory_budget_bytes);
  if (!opt.trace) {
    add_end_to_end(out, tally);
    return out;
  }

  tracer.set_enabled(true);
  stored->set_adjacency_cache(std::shared_ptr<ssd::PageCache>());
  replay_adjacency_scan(*stored, opts, tracer);
  replay_page_reads(*stored, opt.seed, tracer);
  replay_multilog(ctx->storage(), *stored, apps::Bfs{}, opts, tracer);
  LedgerInputs in;
  in.window = tracer.find("serve", "loop").front();
  for (const auto& q : tracer.find("serve", "query")) {
    if (q.parent == in.window.id) in.requests.insert(q.request);
  }
  in.serving = true;
  in.budget_bytes = opts.memory_budget_bytes;
  in.untraced_s = median(tally.unit_s);
  in.traced_s = median(traced_s);
  add_layer_metrics(out, tracer, in);
  return out;
}

}  // namespace e2e
