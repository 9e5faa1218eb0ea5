// qpbench: runs one named workload end to end through the RPC
// front-end and prints its metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}, where
// metrics are the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). Exits 1 when a correctness check failed, 2 on a
// usage or set-up error.
//
//   qpbench --workload quote-storm --seed 1 --seconds 30 --trace 0
#include <unistd.h>

#include <filesystem>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace qpbench {
namespace {

void PrintMetrics(const char* kind, const MetricSink& sink) {
  for (const Metric& m : sink.headline()) {
    std::printf("%-10s %-30s %16.4f %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : sink.reference()) {
    std::printf("%-10s %-30s %16.4f %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string MetricsJson(const MetricSink& sink) {
  std::string out = "{";
  char buf[512];
  bool first = true;
  for (const Metric& m : sink.headline()) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", JsonEscape(m.name).c_str(), m.value,
                  JsonEscape(m.unit).c_str());
    out += buf;
    first = false;
  }
  return out + "}";
}

// A run that outlives its measured window by this much has hung (set-up,
// warm-up, checks and teardown take well under it): the watchdog prints
// every thread's kernel state (to show where) and ends the process.
constexpr double kWatchdogSlackSeconds = 130;

class Watchdog {
 public:
  explicit Watchdog(double budget_s)
      : budget_(std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::duration<double>(budget_s))),
        thread_([this] { Watch(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void Watch() {
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, budget_, [this] { return done_; })) {
      return;
    }
    Phase("watchdog: run exceeded its budget; thread states:");
    for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
      std::string dir = entry.path().string();
      std::string comm, stat, wchan, syscall;
      std::getline(std::ifstream(dir + "/comm"), comm);
      std::getline(std::ifstream(dir + "/stat"), stat);
      std::getline(std::ifstream(dir + "/wchan"), wchan);
      std::getline(std::ifstream(dir + "/syscall"), syscall);
      std::fprintf(stderr, "  %s | %s | wchan=%s | syscall=%s\n", comm.c_str(),
                   stat.c_str(), wchan.c_str(), syscall.c_str());
    }
    std::fflush(stderr);
    std::_Exit(4);
  }

  const std::chrono::milliseconds budget_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "qpbench: %s\n", error.c_str());
    return 2;
  }
  Run run(args);
  Watchdog watchdog(args.seconds + kWatchdogSlackSeconds);
  if (args.workload == "quote-storm") {
    RunQuoteStorm(run);
  } else if (args.workload == "buyer-arrivals") {
    RunBuyerArrivals(run);
  } else if (args.workload == "seller-churn") {
    RunSellerChurn(run);
  } else {
    std::fprintf(stderr, "qpbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  run.end_to_end.Add("peak_rss_mb", PeakRssMb(), "MB");

  std::printf("== %s seed=%llu seconds=%g trace=%d%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  std::printf("meta build_type=%s commit=%s nproc=%ld hw_concurrency=%u\n",
              args.build_type.c_str(), args.commit.c_str(),
              sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency());
  std::printf("meta threads: client=2 loop=1 writer=1 shard_fanout=1(inline) "
              "connections<=2\n");
  std::printf("meta warmup_s=%g window_s=%g\n", args.smoke ? 0.2 : 2.0,
              args.seconds);
  for (const auto& [key, value] : run.meta) {
    std::printf("meta %s=%s\n", key.c_str(), value.c_str());
  }
  for (const auto& [op, count] : run.ledger.counts()) {
    std::printf("ops %-18s attempted=%llu failed=%llu\n", op.c_str(),
                static_cast<unsigned long long>(count.attempted),
                static_cast<unsigned long long>(count.failed));
  }
  PrintMetrics("e2e", run.end_to_end);
  PrintMetrics("layer", run.per_layer);
  PrintMetrics("ref", run.reference);
  if (!run.self_time_table.empty()) {
    std::printf("self time by layer (spans under %s/trace):\n%s",
                args.out_dir.c_str(), run.self_time_table.c_str());
  }
  for (const std::string& failure : run.ledger.check_failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = run.ledger.correct();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.ledger.attempted()),
              static_cast<unsigned long long>(run.ledger.failed()),
              MetricsJson(args.trace ? run.per_layer : run.end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace qpbench

int main(int argc, char** argv) { return qpbench::Main(argc, argv); }
