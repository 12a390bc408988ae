// mlvc_e2e — out-of-core end-to-end benchmark with a per-layer ledger.
//
//   mlvc_e2e --workload pagerank-rmat --seed 1 --seconds 10 --trace 0
//            --work-dir DIR [--tiny]
//
// Prints a "host {...}" line with host and build facts, then, as the last
// line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 reports
// the per-layer ledger and writes the spans as Chrome trace JSON under
// DIR/traces. Every result is also appended, with the host facts, to
// DIR/results.jsonl. See README.md next to this file.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::cerr << "usage: mlvc_e2e --workload pagerank-rmat|bfs-grid|serve-mix "
               "--seed N --seconds S --trace 0|1 --work-dir DIR [--tiny]\n";
  return 2;
}

std::string number(double v) {
  // Non-finite values (a failed operation's latency) become a huge finite
  // number so the line stays valid JSON and still reads as a regression.
  if (!std::isfinite(v)) v = 1e300;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string result_json(const e2e::Outcome& out) {
  std::ostringstream os;
  os << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--tiny") {
      opt.tiny = true;
    } else if ((v = value()) == nullptr) {
      return usage();
    } else if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.work_dir.empty() ||
      (trace != 0 && trace != 1) || !(opt.seconds > 0)) {
    return usage();
  }
  opt.trace = trace == 1;

  try {
    std::filesystem::create_directories(opt.work_dir);
    e2e::Tracer tracer;
    e2e::Outcome out;
    if (opt.workload == "pagerank-rmat") {
      out = e2e::run_pagerank_rmat(opt, tracer);
    } else if (opt.workload == "bfs-grid") {
      out = e2e::run_bfs_grid(opt, tracer);
    } else if (opt.workload == "serve-mix") {
      out = e2e::run_serve_mix(opt, tracer);
    } else {
      return usage();
    }
    const std::string tag = opt.workload + "-seed" + std::to_string(opt.seed) +
                            "-trace" + std::to_string(trace);
    if (opt.trace) {
      std::filesystem::create_directories(opt.work_dir / "traces");
      tracer.write_chrome_json(opt.work_dir / "traces" / (tag + ".json"),
                               out.host_json);
    }
    const std::string result = result_json(out);
    std::ofstream(opt.work_dir / "results.jsonl", std::ios::app)
        << "{\"run\": \"" << tag << "\", \"host\": " << out.host_json
        << ", \"result\": " << result << "}\n";
    std::cout << "host " << out.host_json << "\n" << result << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "mlvc_e2e: " << e.what() << "\n";
    return 1;
  }
}
