// The batch workloads: one engine job at a time over a stored graph several
// times the memory budget.
//
//   pagerank-rmat  delta-PageRank on R-MAT (dense, write-heavy)
//   bfs-grid       BFS from a corner of a grid (sparse frontier, read-heavy)
#include <malloc.h>

#include <cmath>
#include <filesystem>
#include <limits>

#include "apps/bfs.hpp"
#include "apps/pagerank_delta.hpp"
#include "graph/generators.hpp"
#include "ledger.hpp"
#include "reference.hpp"

namespace e2e {

namespace {

struct BatchSetup {
  core::EngineOptions opts;
  ssd::DeviceConfig device;
};

/// Set up the store (several times when untraced; the last copy is kept),
/// build the checker from the in-memory CSR, then run jobs for the
/// measurement window. Traced runs alternate untraced and traced jobs and
/// finish with the layer replays.
template <core::VertexApp App, typename MakeCheck>
Outcome run_batch(const Options& opt, Tracer& tracer, graph::EdgeList edges,
                  const App& app, const BatchSetup& setup,
                  MakeCheck&& make_check) {
  const auto dir = opt.work_dir / "store";
  Tally tally;
  std::unique_ptr<ssd::Storage> storage;
  std::unique_ptr<graph::StoredCsrGraph> stored;
  graph::CsrGraph csr;
  tracer.set_enabled(opt.trace);
  while (more_setups(tally.setup_s, opt.trace)) {
    stored.reset();
    storage.reset();
    std::filesystem::remove_all(dir);
    storage = std::make_unique<ssd::Storage>(dir, setup.device);
    const WallTimer t;
    stored = build_store<App>(*storage, edges, setup.opts, tracer, &csr);
    tally.setup_s.push_back(t.elapsed_seconds());
  }
  auto check = make_check(csr);
  csr = graph::CsrGraph();
  edges = graph::EdgeList();
  malloc_trim(0);
  reset_peak_rss();

  Outcome out;
  std::vector<double> traced_s;
  std::string io_backend;
  const WallTimer window;
  for (std::uint64_t k = 0;; ++k) {
    const bool traced_job = opt.trace && k % 2 == 1;
    if (!traced_job && !keep_measuring(k, 2, opt.trace ? 2 : 1,
                                       window.elapsed_seconds(), opt.seconds)) {
      break;
    }
    tracer.set_enabled(traced_job);
    const JobResult r =
        run_job(nullptr, *stored, app, setup.opts, tracer, 0, k + 1, check);
    ++out.attempted;
    if (!r.ok) {
      ++out.failed;
      std::cerr << "job failed: " << r.error << "\n";
    }
    if (io_backend.empty()) io_backend = r.io_backend;
    if (traced_job) {
      traced_s.push_back(r.run_s);
      continue;
    }
    if (tally.unit_s.empty()) tally.peak_mb = peak_rss_mb();
    tally.unit_s.push_back(r.run_s);
    tally.latency_s.push_back(
        r.ok ? r.latency_s : std::numeric_limits<double>::infinity());
    tally.ok_ops += r.ok ? 1 : 0;
    tally.busy_s += r.latency_s;
    tally.read_mb.push_back(r.read_mb);
    tally.write_mb.push_back(r.write_mb);
  }
  out.host_json = host_facts_json(io_backend, to_string(stored->format()),
                                  setup.opts.memory_budget_bytes);
  if (!opt.trace) {
    add_end_to_end(out, tally);
    return out;
  }

  tracer.set_enabled(true);
  replay_adjacency_scan(*stored, setup.opts, tracer);
  replay_page_reads(*stored, opt.seed, tracer);
  replay_multilog(*storage, *stored, app, setup.opts, tracer);
  LedgerInputs in;
  for (const auto& j : tracer.find("core", "job")) {
    if (j.parent == 0) {
      in.window = j;
      break;
    }
  }
  in.requests = {in.window.request};
  in.budget_bytes = setup.opts.memory_budget_bytes;
  in.untraced_s = median(tally.unit_s);
  in.traced_s = median(traced_s);
  add_layer_metrics(out, tracer, in);
  return out;
}

BatchSetup batch_setup(std::size_t budget, Superstep max_supersteps) {
  BatchSetup s;
  s.opts.memory_budget_bytes = budget;
  s.opts.max_supersteps = max_supersteps;
  s.device.page_size = 4096;
  return s;
}

}  // namespace

Outcome run_pagerank_rmat(const Options& opt, Tracer& tracer) {
  graph::RmatParams params;
  params.scale = opt.tiny ? 12 : 17;
  params.edge_factor = 16;
  params.seed = opt.seed;
  const apps::PageRankDelta app;
  const BatchSetup setup =
      batch_setup(opt.tiny ? 1_MiB : 2_MiB, core::EngineOptions{}.max_supersteps);
  // |engine - reference| <= kAbs + kRel * reference covers float
  // accumulation and the float-vs-double cut-off at the propagation
  // threshold; the largest deviation seen is 4.3e-4, at a rank of 356.
  constexpr double kAbs = 2e-3, kRel = 1e-5;
  const auto make_check = [&](const graph::CsrGraph& csr) {
    auto ref = std::make_shared<const std::vector<double>>(
        pagerank_delta_reference(csr, app.damping, app.epsilon,
                                 setup.opts.max_supersteps));
    return [ref](VertexId first,
                 std::span<const apps::PageRankDelta::Value> chunk) {
      bool ok = true;
      for (std::size_t k = 0; k < chunk.size(); ++k) {
        const double want = (*ref)[first + k];
        const double got = chunk[k].rank;
        if (!(std::fabs(got - want) <= kAbs + kRel * std::fabs(want))) {
          ok = false;
        }
      }
      return ok;
    };
  };
  return run_batch(opt, tracer,
                   generate_input([&] { return graph::generate_rmat(params); }),
                   app, setup, make_check);
}

Outcome run_bfs_grid(const Options& opt, Tracer& tracer) {
  // The seed does not change a grid; it only reseeds the page-read replay.
  const VertexId width = opt.tiny ? 64 : 512;
  const VertexId height = opt.tiny ? 32 : 256;
  const apps::Bfs app{.source = 0};
  const BatchSetup setup =
      batch_setup(opt.tiny ? 256_KiB : 512_KiB, width + height);
  // Closed form: the hop distance from corner (0, 0) to (x, y) is x + y.
  const auto make_check = [width](const graph::CsrGraph&) {
    return [width](VertexId first, std::span<const std::uint32_t> chunk) {
      bool ok = true;
      for (std::size_t k = 0; k < chunk.size(); ++k) {
        const VertexId v = first + static_cast<VertexId>(k);
        if (chunk[k] != v % width + v / width) ok = false;
      }
      return ok;
    };
  };
  return run_batch(opt, tracer, generate_input([&] {
                     return graph::generate_grid(width, height);
                   }),
                   app, setup, make_check);
}

}  // namespace e2e
