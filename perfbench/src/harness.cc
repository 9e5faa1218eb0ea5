#include "harness.h"

#include <stdlib.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>
#include <unordered_map>

// Counting operator new: bytes per thread. The writer-side
// decorator reads the server writer thread's counters around a publish
// (serve.publish_alloc_kb).
namespace {
thread_local uint64_t tl_alloc_bytes = 0;

void* CountedAlloc(std::size_t size) {
  tl_alloc_bytes += size;
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t alignment) {
  tl_alloc_bytes += size;
  void* p = nullptr;
  std::size_t align =
      std::max(sizeof(void*), static_cast<std::size_t>(alignment));
  if (posix_memalign(&p, align, size != 0 ? size : align) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return CountedAlignedAlloc(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return CountedAlignedAlloc(size, alignment);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  tl_alloc_bytes += size;
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  tl_alloc_bytes += size;
  return std::malloc(size != 0 ? size : 1);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace qpbench {

bool ParseArgs(int argc, char** argv, Args* out, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--smoke") {
      out->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + key;
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      out->workload = value;
    } else if (key == "--seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (key == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || out->seconds <= 0) {
        *error = "bad --seconds " + value;
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      out->trace = value == "1";
    } else if (key == "--inject") {
      out->inject = value;
    } else if (key == "--out-dir") {
      out->out_dir = value;
    } else if (key == "--build-type") {
      out->build_type = value;
    } else if (key == "--commit") {
      out->commit = value;
    } else {
      *error = "unknown argument " + key;
      return false;
    }
  }
  if (out->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

void WaitUntil(int64_t deadline_ns) {
  int64_t now = NowNs();
  if (deadline_ns - now > 200000) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - 150000));
  }
  while (NowNs() < deadline_ns) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p * static_cast<double>(values.size());
  size_t idx = rank <= 1.0 ? 0 : static_cast<size_t>(rank + 0.999999) - 1;
  return values[std::min(idx, values.size() - 1)];
}

void Ledger::Attempt(const std::string& op, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_[op].attempted += n;
}

void Ledger::Fail(const std::string& op, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_[op].failed += n;
}

void Ledger::CheckFailed(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (check_failures_.size() < 20) check_failures_.push_back(what);
  if (check_failures_.size() == 20) check_failures_.push_back("...");
}

bool Ledger::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return check_failures_.empty();
}

uint64_t Ledger::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [op, c] : counts_) n += c.attempted;
  return n;
}

uint64_t Ledger::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [op, c] : counts_) n += c.failed;
  return n;
}

std::map<std::string, OpCount> Ledger::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

std::vector<std::string> Ledger::check_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return check_failures_;
}

void MetricSink::Add(const std::string& name, double value,
                     const std::string& unit) {
  headline_.push_back({name, value, unit});
}

void MetricSink::Reference(const std::string& name, double value,
                           const std::string& unit) {
  reference_.push_back({name, value, unit});
}

uint64_t Tracer::Record(const std::string& name, uint64_t op, uint64_t parent,
                        int64_t start_ns, int64_t end_ns, uint64_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = NewSpanId();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({id, parent, op, name, start_ns, end_ns});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<LayerSelfTime> SelfTimeByLayer(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, LayerSelfTime> by_layer;
  for (const Span& s : spans) {
    std::string layer = s.name.substr(0, s.name.find('.'));
    int64_t duration = std::max<int64_t>(0, s.end_ns - s.start_ns);
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> cover;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        int64_t a = std::max(c->start_ns, s.start_ns);
        int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0, reach = s.start_ns;
    for (const auto& [a, b] : cover) {
      int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    LayerSelfTime& row = by_layer[layer];
    row.layer = layer;
    ++row.spans;
    row.total_ms += static_cast<double>(duration) * 1e-6;
    row.self_ms += static_cast<double>(duration - covered) * 1e-6;
  }
  std::vector<LayerSelfTime> out;
  for (auto& [layer, row] : by_layer) out.push_back(row);
  return out;
}

std::string Tracer::WriteOut(const std::string& dir,
                             const std::string& workload) const {
  std::vector<Span> all = spans();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  {
    std::ofstream out(dir + "/" + workload + ".spans.jsonl");
    for (const Span& s : all) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << ",\"name\":\"" << JsonEscape(s.name)
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
  }
  std::ostringstream table;
  char line[256];
  std::snprintf(line, sizeof(line), "%-8s %10s %12s %12s %10s\n", "layer",
                "spans", "total_ms", "self_ms", "self_us/sp");
  table << line;
  for (const LayerSelfTime& row : SelfTimeByLayer(all)) {
    std::snprintf(line, sizeof(line), "%-8s %10llu %12.3f %12.3f %10.2f\n",
                  row.layer.c_str(),
                  static_cast<unsigned long long>(row.spans), row.total_ms,
                  row.self_ms,
                  row.spans > 0 ? row.self_ms * 1e3 / row.spans : 0.0);
    table << line;
  }
  std::ofstream(dir + "/" + workload + ".self_time.txt") << table.str();
  return table.str();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB -> MB
}

uint64_t ThreadAllocBytes() { return tl_alloc_bytes; }

namespace {
const int64_t kProcessStartNs = NowNs();
}  // namespace

void Phase(const std::string& name) {
  std::fprintf(stderr, "[%8.3f s] %s\n",
               static_cast<double>(NowNs() - kProcessStartNs) * 1e-9,
               name.c_str());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace qpbench
