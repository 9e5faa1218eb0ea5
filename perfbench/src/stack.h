// The serving stack a workload runs against, built the way a deployment
// builds it: generated catalog + support, a support partition seeded
// from the opening buyers, a sharded engine solved on them, optional
// durability (journal + periodic checkpoints), and the RPC front-end on
// a loopback port.
#ifndef QPBENCH_STACK_H_
#define QPBENCH_STACK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "market/support_partitioner.h"
#include "serve/persist/checkpoint.h"
#include "serve/rpc/server.h"
#include "serve/sharded_engine.h"
#include "workloads/workload.h"

namespace qpbench {

namespace qs = qp::serve;

struct StackConfig {
  /// Support size |S| over the skewed world workload.
  int support = 1200;
  /// Opening buyers solved at set-up (one AppendBuyers batch).
  int initial_buyers = 300;
  /// Single-buyer appends after the batch, so the served book carries
  /// delta records above its chain base.
  int chain_appends = 0;
  int shards = 2;
  /// A non-empty directory turns on the write-ahead journal through
  /// persist::CheckpointManager (fsync off), with a checkpoint every N
  /// publishes (0 = journal only).
  std::string checkpoint_dir;
  int checkpoint_every = 0;
};

/// A buyer stream: which query each arrival asks and what it is worth.
/// Each support item gets a price U{1..10} drawn from `price_seed`; a
/// buyer values its conflict set additively at those prices (the paper's
/// item-price valuation model) times a noise factor drawn from
/// `noise_seed`.
struct Traffic {
  /// Query indices in arrival order: a permutation of the corpus drawn
  /// from `order_seed`, repeated to the traffic's length.
  std::vector<int> order;
  /// Valuation of the buyer at each arrival position.
  std::vector<double> valuations;
};

/// Conflict sets (global item ids) of every corpus query against the
/// workload's support, probed once through the program's own prober.
std::vector<std::vector<uint32_t>> CorpusConflictSets(int support_size);

/// Positions below `initial_buyers` value their set at the full item-price
/// sum, later arrivals at `arrival_scale` times it; every valuation is
/// multiplied by U(1 - noise, 1 + noise).
Traffic MakeTraffic(const std::vector<std::vector<uint32_t>>& sets,
                    int length, uint64_t order_seed, uint64_t price_seed,
                    uint64_t noise_seed, int initial_buyers,
                    double arrival_scale, double noise);

/// WriterLog decorator that times the journal and checkpoint calls and
/// the apply interval between them (routing, shard append, reprice,
/// publish) on the server's writer thread. Used in traced runs only.
class TimingLog : public qs::WriterLog {
 public:
  TimingLog(qs::persist::CheckpointManager* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  qp::Status LogAppend(const std::vector<std::vector<uint32_t>>& sets,
                       const qp::core::Valuations& valuations) override;
  qp::Status LogSellerDelta(const qp::market::CellDelta& delta) override;
  qp::Status OnPublish(qs::ShardedPricingEngine& engine) override;

  /// The client sets these before sending a writer op, so writer-side
  /// spans land under that op's wire span.
  std::atomic<uint64_t> current_op{0};
  std::atomic<uint64_t> current_parent{0};

  struct Totals {
    uint64_t logs = 0;
    double log_us = 0.0;
    uint64_t publishes = 0;
    double apply_ms = 0.0;
    double apply_alloc_kb = 0.0;
    std::vector<double> checkpoint_ms;
  };
  /// Read only after the writer is idle.
  const Totals& totals() const { return totals_; }

 private:
  qs::persist::CheckpointManager* inner_;
  Tracer* tracer_;
  int64_t apply_start_ = 0;
  uint64_t alloc_mark_ = 0;
  Totals totals_;
};

struct Stack {
  qp::workload::WorkloadInstance instance;
  qp::market::SupportSet support;
  std::unique_ptr<qs::ShardedPricingEngine> engine;
  std::unique_ptr<qs::persist::CheckpointManager> checkpoints;
  std::unique_ptr<TimingLog> timing_log;
  std::unique_ptr<qs::rpc::RpcServer> server;
  /// Buyers appended so far, in order: query index and valuation.
  std::vector<int> buyer_queries;
  std::vector<double> buyer_valuations;
  int setup_lps = 0;

  uint16_t port() const { return server->port(); }
  ~Stack();
};

/// Builds and starts a stack; buyers come from `traffic` positions
/// [0, initial_buyers + chain_appends).
std::unique_ptr<Stack> BuildStack(const StackConfig& config,
                                  const Traffic& traffic, Tracer* tracer);

/// Quote corpus: every edge the shards hold, as global item ids (shard
/// order, edge order). Writer-side: call while no append is in flight.
std::vector<std::vector<uint32_t>> EdgeBundles(
    const qs::ShardedPricingEngine& engine);

/// Price of a shard-local bundle recomputed from a pricing's published
/// parameters: the sum of item weights, the uniform bundle price, or the
/// XOS max of per-component sums; -1 for a family the benchmark does not
/// know.
double PriceFromParameters(const qp::core::PricingFunction* f,
                           const std::vector<uint32_t>& local);

/// A global bundle's price recomputed from the published per-shard
/// prices, added across shards in ascending shard order.
double RecomputePrice(const qs::MergedBookView& view,
                      const qp::market::SupportPartition& partition,
                      const std::vector<uint32_t>& bundle);

bool QuotesIdentical(const qs::Quote& a, const qs::Quote& b);

}  // namespace qpbench

#endif  // QPBENCH_STACK_H_
