// Tracer, percentiles, and /proc + host-fact helpers.
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace e2e {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- tracer ---------------------------------------------------------------------

double SpanRecord::arg(const std::string& key) const {
  for (const auto& [k, v] : args) {
    if (k == key) return v;
  }
  return 0;
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

void Tracer::record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::find(const std::string& layer,
                                     const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  for (const auto& s : spans_) {
    if (s.layer == layer && s.name == name) out.push_back(s);
  }
  return out;
}

void Tracer::write_chrome_json(const std::filesystem::path& path,
                               const std::string& host_json) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out.precision(17);
  out << "{\"otherData\":" << host_json << ",\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"cat\":\""
        << s.layer << "\",\"name\":\"" << s.layer << "." << s.name
        << "\",\"ts\":" << s.start_s * 1e6 << ",\"dur\":" << s.seconds() * 1e6
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request;
    for (const auto& [k, v] : s.args) {
      out << ",\"" << k << "\":" << (std::isfinite(v) ? v : 0.0);
    }
    out << "}}";
  }
  out << "\n]}\n";
}

namespace {
unsigned small_thread_id() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned id = next.fetch_add(1);
  return id;
}
}  // namespace

Span::Span(Tracer& tracer, const char* layer, const char* name,
           std::uint64_t parent, std::uint64_t request)
    : tracer_(tracer), live_(tracer.enabled()) {
  if (!live_) return;
  rec_.layer = layer;
  rec_.name = name;
  rec_.id = tracer_.next_id();
  rec_.parent = parent;
  rec_.request = request;
  rec_.tid = small_thread_id();
  rec_.start_s = tracer_.now();
}

void Span::arg(std::string key, double value) {
  if (live_) rec_.args.emplace_back(std::move(key), value);
}

void Span::end() {
  if (!live_) return;
  live_ = false;
  rec_.end_s = tracer_.now();
  tracer_.record(std::move(rec_));
}

// ---- /proc ------------------------------------------------------------------------

ProcIo read_proc_io() {
  ProcIo io;
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") io.rchar = value;
    if (key == "wchar:") io.wchar = value;
  }
  return io;
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5\n";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::string host_facts_json(const std::string& io_backend,
                            const std::string& store_format,
                            std::size_t memory_budget_bytes) {
  std::string cpu = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) cpu = line.substr(colon + 2);
        break;
      }
    }
  }
  std::string kernel = "unknown";
  struct utsname uts {};
  if (uname(&uts) == 0) kernel = uts.release;
  int omp_threads = 1;
#ifdef _OPENMP
  omp_threads = omp_get_max_threads();
#endif
  const auto escape = [](std::string s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
  };
  std::ostringstream os;
  os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"cpu_model\":\""
     << escape(cpu) << "\",\"kernel\":\"" << escape(kernel)
     << "\",\"build_type\":\"" << MLVC_E2E_BUILD_TYPE
     << "\",\"io_backend\":\"" << escape(io_backend)
     << "\",\"omp_threads\":" << omp_threads << ",\"store_format\":\""
     << escape(store_format) << "\",\"memory_budget_bytes\":"
     << memory_budget_bytes << "}";
  return os.str();
}

}  // namespace e2e
