#include "stack.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "common/rng.h"
#include "core/book_merge.h"
#include "core/pricing.h"
#include "market/incremental_builder.h"
#include "market/support.h"
#include "workloads/world_queries.h"

namespace qpbench {

namespace {

// The catalog and support are fixed across seeds: one generated world
// dataset (the repo's standard generator seed) and one support draw.
constexpr uint64_t kDataSeed = 7;

[[noreturn]] void Die(const std::string& what, const qp::Status& status) {
  std::cerr << "qpbench: " << what << ": " << status.ToString() << std::endl;
  std::exit(2);
}

}  // namespace

namespace {

struct Catalog {
  qp::workload::WorkloadInstance instance;
  qp::market::SupportSet support;
};

Catalog MakeCatalog(int support_size) {
  Catalog c;
  auto instance = qp::workload::MakeSkewedWorkload(kDataSeed);
  if (!instance.ok()) Die("workload generation", instance.status());
  c.instance = std::move(*instance);
  qp::Rng support_rng(qp::Mix64(kDataSeed ^ 0x5eedULL));
  auto support = qp::market::GenerateSupport(
      *c.instance.database, {.size = support_size}, support_rng);
  if (!support.ok()) Die("support generation", support.status());
  c.support = std::move(*support);
  return c;
}

}  // namespace

std::vector<std::vector<uint32_t>> CorpusConflictSets(int support_size) {
  Catalog c = MakeCatalog(support_size);
  qp::market::IncrementalBuilder prober(c.instance.database.get(), c.support);
  return prober.ComputeConflictSets(c.instance.queries);
}

Traffic MakeTraffic(const std::vector<std::vector<uint32_t>>& sets,
                    int length, uint64_t order_seed, uint64_t price_seed,
                    uint64_t noise_seed, int initial_buyers,
                    double arrival_scale, double noise) {
  const int n = static_cast<int>(sets.size());
  qp::Rng order_rng(qp::Mix64(order_seed ^ 0x7a11c0ffeeULL));
  std::vector<int> perm(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    int j = static_cast<int>(order_rng.UniformInt(0, i));
    std::swap(perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]);
  }
  uint32_t items = 0;
  for (const auto& set : sets) {
    for (uint32_t j : set) items = std::max(items, j + 1);
  }
  qp::Rng price_rng(qp::Mix64(price_seed ^ 0x7a1e5ULL));
  std::vector<double> price(items);
  for (double& p : price) p = static_cast<double>(price_rng.UniformInt(1, 10));
  qp::Rng rng(qp::Mix64(noise_seed ^ 0x0153ULL));
  Traffic t;
  for (int i = 0; i < length; ++i) {
    int q = perm[static_cast<size_t>(i % n)];
    double v = 0.0;
    for (uint32_t j : sets[static_cast<size_t>(q)]) v += price[j];
    if (i >= initial_buyers) v *= arrival_scale;
    t.order.push_back(q);
    t.valuations.push_back(v * rng.UniformReal(1.0 - noise, 1.0 + noise));
  }
  return t;
}

qp::Status TimingLog::LogAppend(const std::vector<std::vector<uint32_t>>& sets,
                                const qp::core::Valuations& valuations) {
  int64_t t0 = NowNs();
  qp::Status st = inner_->LogAppend(sets, valuations);
  int64_t t1 = NowNs();
  tracer_->Record("persist.journal", current_op.load(), current_parent.load(),
                  t0, t1);
  ++totals_.logs;
  totals_.log_us += static_cast<double>(t1 - t0) * 1e-3;
  apply_start_ = t1;
  alloc_mark_ = ThreadAllocBytes();
  return st;
}

qp::Status TimingLog::LogSellerDelta(const qp::market::CellDelta& delta) {
  int64_t t0 = NowNs();
  qp::Status st = inner_->LogSellerDelta(delta);
  int64_t t1 = NowNs();
  tracer_->Record("persist.journal", current_op.load(), current_parent.load(),
                  t0, t1);
  ++totals_.logs;
  totals_.log_us += static_cast<double>(t1 - t0) * 1e-3;
  return st;
}

qp::Status TimingLog::OnPublish(qs::ShardedPricingEngine& engine) {
  int64_t t0 = NowNs();
  tracer_->Record("serve.apply", current_op.load(), current_parent.load(),
                  apply_start_, t0);
  ++totals_.publishes;
  totals_.apply_ms += static_cast<double>(t0 - apply_start_) * 1e-6;
  totals_.apply_alloc_kb +=
      static_cast<double>(ThreadAllocBytes() - alloc_mark_) / 1024.0;
  uint64_t before = inner_->stats().checkpoints_written;
  qp::Status st = inner_->OnPublish(engine);
  int64_t t1 = NowNs();
  bool cut = inner_->stats().checkpoints_written != before;
  tracer_->Record(cut ? "persist.checkpoint" : "persist.on_publish",
                  current_op.load(), current_parent.load(), t0, t1);
  double ms = static_cast<double>(t1 - t0) * 1e-6;
  if (cut) totals_.checkpoint_ms.push_back(ms);
  return st;
}

Stack::~Stack() {
  if (server) server->Stop();
  if (engine) engine->SetWriterLog(nullptr);
}

std::unique_ptr<Stack> BuildStack(const StackConfig& config,
                                  const Traffic& traffic, Tracer* tracer) {
  auto stack = std::make_unique<Stack>();
  Catalog catalog = MakeCatalog(config.support);
  stack->instance = std::move(catalog.instance);
  stack->support = std::move(catalog.support);

  const auto& queries = stack->instance.queries;
  std::vector<qp::db::BoundQuery> opening;
  qp::core::Valuations opening_v;
  for (int i = 0; i < config.initial_buyers; ++i) {
    int q = traffic.order[static_cast<size_t>(i)];
    opening.push_back(queries[static_cast<size_t>(q)]);
    opening_v.push_back(traffic.valuations[static_cast<size_t>(i)]);
    stack->buyer_queries.push_back(q);
    stack->buyer_valuations.push_back(opening_v.back());
  }
  qp::market::SupportPartition partition =
      qp::market::SupportPartitioner::FromQueries(
          stack->instance.database.get(), stack->support, opening, {},
          {.num_shards = config.shards});
  std::vector<std::vector<uint32_t>> seed_edges =
      std::move(partition.seed_edges);

  qs::ShardedEngineOptions options;
  // Every LPIP threshold candidate (one per distinct valuation).
  options.engine.algorithms.lpip.max_candidates = 0;
  options.num_threads = 1;
  stack->engine = std::make_unique<qs::ShardedPricingEngine>(
      stack->instance.database.get(), std::move(partition), options);
  qp::Status st = stack->engine->AppendBuyersPrecomputed(std::move(seed_edges),
                                                         opening_v);
  if (!st.ok()) Die("opening solve", st);
  for (int i = 0; i < config.chain_appends; ++i) {
    size_t pos = static_cast<size_t>(config.initial_buyers + i);
    int q = traffic.order[pos];
    st = stack->engine->AppendBuyers({queries[static_cast<size_t>(q)]},
                                     {traffic.valuations[pos]});
    if (!st.ok()) Die("chain append", st);
    stack->buyer_queries.push_back(q);
    stack->buyer_valuations.push_back(traffic.valuations[pos]);
  }
  stack->setup_lps = stack->engine->stats().merged.total_lps_solved;

  if (!config.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(config.checkpoint_dir, ec);
    stack->checkpoints = std::make_unique<qs::persist::CheckpointManager>(
        qs::persist::CheckpointOptions{.dir = config.checkpoint_dir,
                                       .checkpoint_every =
                                           config.checkpoint_every,
                                       .keep = 2,
                                       .fsync = false});
    st = stack->checkpoints->Attach(stack->engine.get());
    if (!st.ok()) Die("checkpoint attach", st);
    if (tracer->enabled()) {
      stack->timing_log =
          std::make_unique<TimingLog>(stack->checkpoints.get(), tracer);
      stack->engine->SetWriterLog(stack->timing_log.get());
    } else {
      stack->engine->SetWriterLog(stack->checkpoints.get());
    }
  }

  qs::rpc::RpcServerOptions server_options;
  server_options.num_loops = 1;
  stack->server = std::make_unique<qs::rpc::RpcServer>(
      stack->engine.get(), stack->instance.database.get(), server_options);
  st = stack->server->Start();
  if (!st.ok()) Die("server start", st);
  return stack;
}

std::vector<std::vector<uint32_t>> EdgeBundles(
    const qs::ShardedPricingEngine& engine) {
  std::vector<std::vector<uint32_t>> bundles;
  for (int s = 0; s < engine.num_shards(); ++s) {
    const auto& items = engine.partition().shard_items[static_cast<size_t>(s)];
    const qp::core::Hypergraph& graph = engine.shard(s).hypergraph();
    for (int e = 0; e < graph.num_edges(); ++e) {
      std::vector<uint32_t> bundle;
      for (uint32_t local : graph.edge(e)) bundle.push_back(items[local]);
      bundles.push_back(std::move(bundle));
    }
  }
  return bundles;
}

double PriceFromParameters(const qp::core::PricingFunction* f,
                           const std::vector<uint32_t>& local) {
  double price = 0.0;
  if (auto* item = dynamic_cast<const qp::core::ItemPricing*>(f)) {
    for (uint32_t j : local) price += item->weights()[j];
  } else if (auto* uniform =
                 dynamic_cast<const qp::core::UniformBundlePricing*>(f)) {
    price = uniform->bundle_price();
  } else if (auto* xos = dynamic_cast<const qp::core::XosPricing*>(f)) {
    for (const auto& component : xos->components()) {
      double sum = 0.0;
      for (uint32_t j : local) sum += component[j];
      price = std::max(price, sum);
    }
  } else {
    return -1.0;
  }
  return price;
}

double RecomputePrice(const qs::MergedBookView& view,
                      const qp::market::SupportPartition& partition,
                      const std::vector<uint32_t>& bundle) {
  std::vector<std::vector<uint32_t>> parts(
      static_cast<size_t>(partition.num_shards));
  for (uint32_t item : bundle) {
    if (item >= partition.num_items()) continue;
    parts[static_cast<size_t>(partition.shard_of_item[item])].push_back(
        partition.local_of_item[item]);
  }
  std::vector<double> prices;
  for (int s = 0; s < partition.num_shards; ++s) {
    const auto& local = parts[static_cast<size_t>(s)];
    if (local.empty()) continue;
    double price = PriceFromParameters(view.shard(s).best().pricing.get(), local);
    if (price < 0) return -1.0;
    prices.push_back(price);
  }
  double total = 0.0;
  for (double p : prices) total += p;
  return total;
}

bool QuotesIdentical(const qs::Quote& a, const qs::Quote& b) {
  return a.price == b.price && a.version == b.version &&
         a.shard_versions == b.shard_versions && a.algorithm == b.algorithm;
}

}  // namespace qpbench
