// Client lanes: one connection each, driven from one thread, timing
// every operation it sends. Open-loop lanes time from when an operation
// was due; closed-loop lanes from when it was sent.
#ifndef QPBENCH_LANES_H_
#define QPBENCH_LANES_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "serve/rpc/client.h"

namespace qpbench {

namespace rpc = qp::serve::rpc;

/// What every lane shares: the run's ledger and tracer, and the
/// measured window. Operations sent before `measure_from_ns` are
/// warm-up: checked and counted, but not timed.
struct LaneEnv {
  Ledger* ledger = nullptr;
  Tracer* tracer = nullptr;
  int64_t measure_from_ns = 0;
};

/// Latencies (us) of operations sent inside the measured window, with
/// the time each was sent (due, for open-loop lanes; answered, for the
/// saturating lane).
struct LaneResult {
  void Add(int64_t at_ns, double us) {
    at.push_back(at_ns);
    latency_us.push_back(us);
  }
  std::vector<int64_t> at;
  std::vector<double> latency_us;
  /// Open-loop lanes: how late the generator sent each operation.
  std::vector<double> lateness_us;
  /// Traced writer lanes: the benchmark's own in-process probe replay
  /// of each appended buyer.
  std::vector<double> aux_us;
  /// Quotes whose version was below `version_floor` at send time.
  uint64_t stale_reads = 0;
};

/// Connects a client with the benchmark's deadlines (a deadline counts
/// the operation as failed).
bool ConnectClient(rpc::RpcClient* client, uint16_t port, Ledger* ledger);

/// Per-reply check: index into the lane's input, and the reply. It
/// records any mismatch itself.
using QuoteCheck = std::function<void(size_t, const rpc::RpcReply&)>;

/// Open loop: one quote every 1/rate seconds from `start_ns` until
/// `end_ns`, cycling through `bundles` from a seeded offset. When
/// `version_floor` is set, each reply's version must be at least the
/// floor's value when the quote was sent (stale_reads counts misses).
LaneResult FixedRateQuotes(const LaneEnv& env, uint16_t port,
                           const std::vector<std::vector<uint32_t>>& bundles,
                           double rate, int64_t start_ns, int64_t end_ns,
                           uint64_t seed, const QuoteCheck& check,
                           const std::atomic<uint64_t>* version_floor = nullptr);

/// Saturating: `window` pipelined quotes outstanding until `end_ns`;
/// quotes sent inside the measured window and answered before `end_ns`
/// are recorded.
LaneResult SaturatingQuotes(const LaneEnv& env, uint16_t port,
                            const std::vector<std::vector<uint32_t>>& bundles,
                            int window, int64_t end_ns, uint64_t seed,
                            const QuoteCheck& check);

/// Lower quartile, over `slices` equal time slices of the samples'
/// range, of each slice's `p`-quantile. Other tenants of the host slow
/// the benchmark for seconds at a time, and past the warm-up nothing
/// speeds it up beyond its own pace, so the fast side of the slices
/// tracks the program: a host slowdown that covers up to three quarters
/// of the slices leaves the figure where it was, while a slower program
/// slows every slice.
/// Slices with fewer than 50 samples are skipped; with none left, the
/// whole-window quantile is returned.
double SlicedPercentile(const LaneResult& r, double p, int slices);

/// Upper quartile, over `slices` equal slices of [from_ns, to_ns), of
/// operations per second recorded in each slice (the fast side, as
/// above).
double SlicedRate(const LaneResult& r, int64_t from_ns, int64_t to_ns,
                  int slices);

/// Op ids and span helpers for traced lanes: the wire span of one
/// operation, recorded after the reply.
struct WireSpan {
  uint64_t op = 0;
  uint64_t id = 0;
};
WireSpan BeginWireSpan(Tracer* tracer);

}  // namespace qpbench

#endif  // QPBENCH_LANES_H_
