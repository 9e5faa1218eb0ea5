#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "core/pricing.h"
#include "db/parser.h"
#include "lanes.h"
#include "market/conflict.h"
#include "market/incremental_builder.h"
#include "market/support.h"
#include "serve/persist/checkpoint.h"
#include "stack.h"
#include "workloads/world_queries.h"

namespace qpbench {

namespace {

namespace core = qp::core;
namespace market = qp::market;

// Traffic arrays are longer than the 986-query corpus so closed-loop
// writers never run out: arrivals cycle the corpus order.
constexpr int kTrafficLen = 986 * 8;
// Buyers arriving after set-up value their bundle at this share of the
// item-price sum: low arrivals leave most LPIP thresholds reusable, the
// regime the repo's publish-cost measurements describe.
constexpr double kArrivalScale = 0.2;
constexpr int kSetupReps = 5;
// The buyers that build and grow the book (order, item prices,
// valuations) are the same on every seed, so set-up and writer costs do
// not swing with the seed; the workload seed draws what readers do:
// purchase valuations, quote stream offsets, sampled bundle pairs, and
// where the seller's delta stream starts.
constexpr uint64_t kBookSeed = 11;
// quote-storm purchases cycle this many distinct queries, so the
// measured window sees the prepared-query cache warm (the first cycle
// runs during warm-up).
constexpr int kPurchaseCycle = 256;
// Appends and deltas whose per-op counts are reported as exact counts:
// the first K writer ops after set-up, independent of run length.
constexpr int kExactOps = 16;
// Time slices per phase for the sliced figures (see SlicedPercentile).
constexpr int kSlices = 16;
// Open-loop quote rate of the fixed-rate phases: high enough that the
// server loop rarely idles into a slow wakeup, low enough that a round
// trip stays well inside the 500 us interval.
constexpr double kFixedRate = 2000.0;
// Appends per run: `skip` untimed warm-up appends, then `measured` timed
// ones (the same buyers every run); the append lane stops after them.
struct AppendWindow {
  size_t skip;
  size_t measured;
};
constexpr AppendWindow kBuyerArrivalsAppends{8, 48};
constexpr AppendWindow kQuoteStormAppends{20, 400};
// seller-churn's purchase think time: purchases share the loop thread
// with the delta lane's requests and replies.
constexpr int64_t kChurnThinkNs = 500'000;

struct Timeline {
  int64_t start = 0;          // traffic starts (warm-up begins)
  int64_t measure_from = 0;   // measured window begins
  int64_t end = 0;            // measured window ends
  double warmup_s = 0.0;
  double window_s = 0.0;
  int64_t At(double fraction) const {
    return measure_from +
           static_cast<int64_t>(fraction * static_cast<double>(end - measure_from));
  }
};

Timeline MakeTimeline(const Run& run) {
  Timeline t;
  t.warmup_s = run.args.smoke ? 0.2 : 2.0;
  t.window_s = run.args.seconds;
  t.start = NowNs() + 20'000'000;
  t.measure_from = t.start + static_cast<int64_t>(t.warmup_s * 1e9);
  t.end = t.measure_from + static_cast<int64_t>(t.window_s * 1e9);
  return t;
}

std::unique_ptr<Stack> TimedSetup(Run& run, const StackConfig& config,
                                  const Traffic& traffic) {
  Phase("setup");
  std::vector<double> seconds;
  std::unique_ptr<Stack> stack;
  int reps = run.args.smoke ? 1 : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    if (stack) {
      // RpcServer::Stop() sets its stopping flag and notifies the writer
      // thread without holding the writer mutex, so a Stop() that lands
      // while the writer is entering its first wait is lost and Stop()
      // never returns. Give the discarded server's writer time to park
      // before stopping it.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      stack.reset();
    }
    int64_t t0 = NowNs();
    stack = BuildStack(config, traffic, &run.tracer);
    seconds.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  run.end_to_end.Add("setup_s", Percentile(seconds, 0.5), "s");
  run.meta.push_back({"setup_reps", std::to_string(reps)});
  Phase("traffic");
  return stack;
}

void Check(Run& run, bool ok, const std::string& what) {
  if (!ok) run.ledger.CheckFailed(what);
}

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
}

/// Per-layer values, all names present in every workload (0 where the
/// workload does not exercise the layer).
class Layers {
 public:
  Layers() {
    for (const auto& [name, unit] : kNames) values_[name] = {0.0, unit};
  }
  void Set(const std::string& name, double value) {
    values_.at(name).first = value;
  }
  double Get(const std::string& name) const { return values_.at(name).first; }
  void Emit(MetricSink* sink) const {
    for (const auto& [name, unit] : kNames) {
      sink->Add(name, values_.at(name).first, unit);
    }
  }

 private:
  static inline const std::vector<std::pair<std::string, std::string>> kNames = {
      {"rpc.quotes_per_tick", "quotes/tick"},
      {"rpc.frames_per_sendmsg", "frames/call"},
      {"rpc.overhead_us", "us"},
      {"rpc.writer_rejects", "count"},
      {"rpc.pool_bytes", "bytes"},
      {"serve.quote_ns", "ns"},
      {"serve.batch_quote_ns", "ns"},
      {"serve.chain_length", "count"},
      {"serve.epoch_pins", "pins/quote"},
      {"serve.purchase_us", "us"},
      {"serve.publish_ms", "ms"},
      {"serve.publish_alloc_kb", "KB"},
      {"serve.epoch_pending", "count"},
      {"core.reprice_ms", "ms"},
      {"core.lpip_ms", "ms"},
      {"core.cip_ms", "ms"},
      {"core.other_ms", "ms"},
      {"core.lpip_reused", "count"},
      {"core.incidence_merges", "count"},
      {"lp.lps_per_append", "count"},
      {"lp.setup_lps", "count"},
      {"market.probe_us_per_buyer", "us"},
      {"market.purchase_probe_us", "us"},
      {"market.prepared_hit_ratio", "ratio"},
      {"market.prepared_dropped", "count"},
      {"market.probes", "count"},
      {"market.pruned", "count"},
      {"db.parse_us", "us"},
      {"db.commit_us", "us"},
      {"db.pending_cells", "count"},
      {"db.folds", "count"},
      {"db.fold_retries", "count"},
      {"db.staleness_mean", "count"},
      {"persist.log_us", "us"},
      {"persist.journal_bytes_per_op", "bytes/op"},
      {"persist.checkpoint_ms", "ms"},
      {"persist.recover_s", "s"},
  };
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// The run's reference quotes over a static book: in-process quotes for
/// every corpus bundle, each also recomputed from the published prices.
std::vector<qs::Quote> ReferenceQuotes(
    Run& run, const qs::ShardedPricingEngine& engine,
    const std::vector<std::vector<uint32_t>>& bundles) {
  std::vector<qs::Quote> ref;
  ref.reserve(bundles.size());
  qs::MergedBookView view = engine.snapshot();
  int mismatches = 0;
  for (const auto& bundle : bundles) {
    ref.push_back(engine.QuoteBundle(bundle));
    double recomputed = RecomputePrice(view, engine.partition(), bundle);
    if (!Near(recomputed, ref.back().price, 1e-9)) ++mismatches;
  }
  Check(run, mismatches == 0,
        std::to_string(mismatches) +
            " quoted prices differ from the price recomputed from the "
            "published book");
  return ref;
}

/// Arbitrage-freeness on sampled bundle pairs, priced over the wire:
/// price(A) <= price(A u B) (monotone) and price(A u B) <= price(A) +
/// price(B) (subadditive).
void CheckArbitrage(Run& run, uint16_t port,
                    const std::vector<std::vector<uint32_t>>& bundles,
                    uint64_t seed, int pairs) {
  rpc::RpcClient client;
  if (!ConnectClient(&client, port, &run.ledger)) return;
  qp::Rng rng(qp::Mix64(seed ^ 0xa4b1ULL));
  int violations = 0;
  auto quote = [&](const std::vector<uint32_t>& b, double* price) {
    rpc::RpcReply reply;
    run.ledger.Attempt("quote_check");
    if (!client.Quote(b, &reply).ok() || !reply.ok()) {
      run.ledger.Fail("quote_check");
      return false;
    }
    *price = reply.quote.price;
    return true;
  };
  for (int i = 0; i < pairs; ++i) {
    const auto& a = bundles[rng.UniformInt(0, static_cast<int64_t>(bundles.size()) - 1)];
    const auto& b = bundles[rng.UniformInt(0, static_cast<int64_t>(bundles.size()) - 1)];
    std::vector<uint32_t> u = a;
    u.insert(u.end(), b.begin(), b.end());
    std::sort(u.begin(), u.end());
    u.erase(std::unique(u.begin(), u.end()), u.end());
    double pa = 0, pb = 0, pu = 0;
    if (!quote(a, &pa) || !quote(b, &pb) || !quote(u, &pu)) continue;
    const double tol = 1e-9 * std::max(1.0, pu);
    if (pa > pu + tol || pb > pu + tol || pu > pa + pb + tol) ++violations;
  }
  Check(run, violations == 0,
        std::to_string(violations) + " sampled bundle pairs violate "
        "monotonicity or subadditivity");
}

/// In-process quote timings over the final book (traced runs): one
/// QuoteBundle at a time, and per bundle through TryQuoteBatchInto.
void InProcessQuotePass(Run& run, const qs::ShardedPricingEngine& engine,
                        const std::vector<std::vector<uint32_t>>& bundles,
                        Layers* layers) {
  const int n = run.args.smoke ? 2000 : 20000;
  std::vector<double> single_ns;
  single_ns.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& b = bundles[static_cast<size_t>(i) % bundles.size()];
    int64_t t0 = NowNs();
    qs::Quote q = engine.QuoteBundle(b);
    int64_t t1 = NowNs();
    if (q.price < 0) run.ledger.CheckFailed("negative in-process quote");
    single_ns.push_back(static_cast<double>(t1 - t0));
  }
  layers->Set("serve.quote_ns", Percentile(single_ns, 0.5));
  constexpr size_t kBatch = 64;
  qs::ShardedPricingEngine::QuoteBatchScratch scratch;
  std::vector<std::vector<uint32_t>> batch(kBatch);
  std::vector<double> per_bundle_ns;
  for (int i = 0; i < n / static_cast<int>(kBatch); ++i) {
    for (size_t k = 0; k < kBatch; ++k) {
      batch[k] = bundles[(static_cast<size_t>(i) * kBatch + k) % bundles.size()];
    }
    int64_t t0 = NowNs();
    engine.TryQuoteBatchInto(batch, &scratch);
    int64_t t1 = NowNs();
    per_bundle_ns.push_back(static_cast<double>(t1 - t0) / kBatch);
  }
  layers->Set("serve.batch_quote_ns", Percentile(per_bundle_ns, 0.5));
}

/// Traced purchase replay: the same purchase's layers called in-process
/// from the benchmark — SQL parse, conflict probe through the
/// benchmark's own prober, and the engine's Purchase itself.
struct PurchaseReplay {
  PurchaseReplay(const Stack& stack, Tracer* tracer)
      : stack_(stack),
        tracer_(tracer),
        prober_(stack.instance.database.get(), stack.support, {},
                &stack.engine->catalog()) {}

  /// Returns the engine's outcome of the replayed purchase.
  qs::PurchaseOutcome Replay(uint64_t op, const std::string& sql,
                             double valuation) {
    uint64_t root = tracer_->NewSpanId();
    int64_t t0 = NowNs();
    auto bound = qp::db::ParseQuery(sql, *stack_.instance.database);
    int64_t t1 = NowNs();
    tracer_->Record("db.parse", op, root, t0, t1);
    parse_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    // The replay prober's prepared cache is private: it is flushed
    // whenever the catalog moved, so a replayed probe never reads
    // prepared state built against an older catalog.
    uint64_t head = stack_.engine->catalog().head_generation();
    if (head != seen_generation_) {
      prober_.InvalidatePreparedQueries();
      seen_generation_ = head;
    }
    int64_t t2 = NowNs();
    std::vector<uint32_t> bundle;
    if (bound.ok()) bundle = prober_.ConflictSetFor(*bound);
    int64_t t3 = NowNs();
    tracer_->Record("market.probe", op, root, t2, t3);
    probe_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
    qs::PurchaseOutcome outcome;
    if (bound.ok()) {
      int64_t t4 = NowNs();
      outcome = stack_.engine->Purchase(*bound, valuation);
      int64_t t5 = NowNs();
      tracer_->Record("serve.purchase", op, root, t4, t5);
      purchase_us.push_back(static_cast<double>(t5 - t4) * 1e-3);
    }
    tracer_->Record("bench.replay", op, 0, t0, NowNs(), root);
    return outcome;
  }

  std::vector<double> parse_us, probe_us, purchase_us;

 private:
  const Stack& stack_;
  Tracer* tracer_;
  market::IncrementalBuilder prober_;
  uint64_t seen_generation_ = ~0ULL;
};

/// Sale accounting the benchmark keeps for itself.
struct SaleTally {
  double revenue = 0.0;
  double offered_valuation = 0.0;
  uint64_t accepted = 0;
};

/// Checks one purchase reply: accepted iff valuation >= quoted price
/// (within the sell tolerance), the quote bit-identical to the
/// in-process quote of the returned bundle when the book is static, and
/// tallies the sale.
void CheckPurchase(Run& run, const qs::ShardedPricingEngine& engine,
                   bool static_book, double valuation,
                   const rpc::RpcReply& reply, SaleTally* tally) {
  const rpc::WirePurchase& p = reply.purchase;
  bool should_accept = p.quote.price <= valuation + core::kSellTolerance;
  if (p.accepted != should_accept) {
    run.ledger.CheckFailed("purchase acceptance disagrees with valuation >= "
                           "quoted price");
  }
  if (static_book && !QuotesIdentical(p.quote, engine.QuoteBundle(p.bundle))) {
    run.ledger.CheckFailed("purchase quote differs from the in-process quote "
                           "of its bundle");
  }
  tally->offered_valuation += valuation;
  if (p.accepted) {
    ++tally->accepted;
    tally->revenue += p.quote.price;
  }
}

/// Closed-loop purchases cycling the first `distinct` queries of the
/// fixed purchase order (0 = the whole corpus) until `stop_ns`, pausing
/// `think_ns` after each reply; latencies of purchases sent in
/// [env.measure_from_ns, measure_until_ns).
LaneResult ClosedLoopPurchases(Run& run, const LaneEnv& env, const Stack& stack,
                               const std::vector<std::vector<uint32_t>>& corpus_sets,
                               bool static_book, int distinct, int64_t think_ns,
                               int64_t stop_ns,
                               int64_t measure_until_ns, SaleTally* tally,
                               PurchaseReplay* replay, int replay_every) {
  LaneResult out;
  rpc::RpcClient client;
  if (!ConnectClient(&client, stack.port(), env.ledger)) return out;
  const int n = static_cast<int>(corpus_sets.size());
  // Purchasers value their bundle at the item-price sum times U(0.5, 1.5),
  // so roughly half the offers clear the posted price.
  Traffic order = MakeTraffic(corpus_sets, n, kBookSeed ^ 0xb0b, kBookSeed,
                              run.args.seed, n, 1.0, 0.5);
  const size_t cycle = static_cast<size_t>(distinct > 0 ? std::min(distinct, n) : n);
  rpc::RpcReply reply;
  for (size_t i = 0; NowNs() < stop_ns; ++i) {
    int q = order.order[i % cycle];
    double v = order.valuations[i % static_cast<size_t>(n)];
    const std::string& sql = stack.instance.sql[static_cast<size_t>(q)];
    WireSpan span = BeginWireSpan(env.tracer);
    env.ledger->Attempt("purchase");
    int64_t t0 = NowNs();
    qp::Status st = client.Purchase(sql, v, &reply);
    int64_t t1 = NowNs();
    if (!st.ok() || !reply.ok()) {
      env.ledger->Fail("purchase");
      if (!st.ok()) break;
      continue;
    }
    env.tracer->Record("rpc.purchase", span.op, 0, t0, t1, span.id);
    CheckPurchase(run, *stack.engine, static_book, v, reply, tally);
    if (t0 >= env.measure_from_ns && t0 < measure_until_ns) {
      out.Add(t0, static_cast<double>(t1 - t0) * 1e-3);
    }
    if (replay != nullptr && i % static_cast<size_t>(replay_every) == 0) {
      qs::PurchaseOutcome o = replay->Replay(span.op, sql, v);
      tally->offered_valuation += v;
      if (o.accepted) {
        ++tally->accepted;
        tally->revenue += o.quote.price;
      }
    }
    if (think_ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(think_ns));
  }
  return out;
}

void CheckSaleTally(Run& run, const qs::ShardedPricingEngine& engine,
                    SaleTally tally) {
  if (run.args.inject == "sale-tally" && tally.accepted > 0) {
    // Self-test: count one accepted sale twice (an off-by-one tally).
    ++tally.accepted;
    tally.revenue += tally.revenue / static_cast<double>(tally.accepted - 1);
  }
  auto rs = engine.reader_stats();
  Check(run, rs.purchases_accepted == tally.accepted,
        "benchmark counted " + std::to_string(tally.accepted) +
            " accepted sales, engine " + std::to_string(rs.purchases_accepted));
  Check(run, Near(rs.sale_revenue, tally.revenue, 1e-9),
        "benchmark sale tally differs from the engine's sale revenue");
}

/// Per-append writer observations (traced runs): LPs, reused LPIP
/// thresholds and reprice seconds of the shards that published.
struct AppendObserver {
  explicit AppendObserver(const qs::ShardedPricingEngine& engine)
      : engine_(engine) {
    versions_ = engine.snapshot().version_vector();
  }

  void Observe(bool sample_algorithms) {
    qs::MergedBookView view = engine_.snapshot();
    std::vector<uint64_t> now = view.version_vector();
    int lps = 0, reused = 0;
    double reprice_s = 0.0;
    for (int s = 0; s < view.num_shards(); ++s) {
      if (now[static_cast<size_t>(s)] == versions_[static_cast<size_t>(s)]) continue;
      const core::RepriceStats& rs = view.shard_view(s).reprice_stats();
      lps += rs.lps_solved;
      reused += rs.lpip_reused;
      reprice_s += rs.seconds;
      if (sample_algorithms) {
        std::shared_ptr<const qs::PriceBookSnapshot> book =
            view.shard_view(s).Materialize();
        for (const core::PricingResult& r : book->results()) {
          if (r.algorithm == "LPIP") lpip_ms_sum += r.seconds * 1e3;
          else if (r.algorithm == "CIP") cip_ms_sum += r.seconds * 1e3;
          else other_ms_sum += r.seconds * 1e3;
        }
      }
    }
    if (sample_algorithms) {
      ++sampled;
      sampled_reprice_ms_sum += reprice_s * 1e3;
    }
    versions_ = std::move(now);
    if (appends < kExactOps) {
      exact_lps += lps;
      exact_reused += reused;
    }
    ++appends;
    reprice_ms.push_back(reprice_s * 1e3);
  }

  int appends = 0;
  int exact_lps = 0;
  int exact_reused = 0;
  std::vector<double> reprice_ms;
  int sampled = 0;
  double sampled_reprice_ms_sum = 0, lpip_ms_sum = 0, cip_ms_sum = 0,
         other_ms_sum = 0;

 private:
  const qs::ShardedPricingEngine& engine_;
  std::vector<uint64_t> versions_;
};

/// Closed-loop single-buyer appends from traffic position `first_pos`.
/// Appends number `skip` to `skip + measured - 1` are timed and the lane
/// stops after the last of them (or at `stop_ns`), so every run times the
/// same buyers whatever its speed (each append reprices a larger book than
/// the last) and ends with the same book. After each reply `on_version`
/// receives the merged book version the append published.
template <typename OnVersion>
LaneResult ClosedLoopAppends(const LaneEnv& env, Stack& stack,
                             const Traffic& traffic, size_t first_pos,
                             int64_t stop_ns, size_t skip, size_t measured,
                             AppendObserver* observer,
                             market::IncrementalBuilder* replay_prober,
                             OnVersion on_version) {
  LaneResult out;
  rpc::RpcClient client;
  if (!ConnectClient(&client, stack.port(), env.ledger)) return out;
  rpc::RpcReply reply;
  std::vector<double> probe_us;
  for (size_t pos = first_pos; pos < first_pos + skip + measured && NowNs() < stop_ns;
       ++pos) {
    int q = traffic.order[pos % traffic.order.size()];
    double v = traffic.valuations[pos % traffic.valuations.size()];
    const std::string& sql = stack.instance.sql[static_cast<size_t>(q)];
    WireSpan span = BeginWireSpan(env.tracer);
    if (stack.timing_log) {
      stack.timing_log->current_op.store(span.op);
      stack.timing_log->current_parent.store(span.id);
    }
    env.ledger->Attempt("append");
    int64_t t0 = NowNs();
    qp::Status st = client.AppendBuyers({rpc::WireBuyer{sql, v}}, &reply);
    int64_t t1 = NowNs();
    if (!st.ok() || !reply.ok() || reply.append.code != rpc::WireCode::kOk) {
      env.ledger->Fail("append");
      if (!st.ok()) break;
      continue;
    }
    env.tracer->Record("rpc.append", span.op, 0, t0, t1, span.id);
    stack.buyer_queries.push_back(q);
    stack.buyer_valuations.push_back(v);
    on_version(reply.append.version);
    const size_t k = pos - first_pos;
    if (k >= skip && k < skip + measured) {
      out.Add(t0, static_cast<double>(t1 - t0) * 1e-3);
    }
    if (observer != nullptr) {
      observer->Observe(observer->appends % 4 == 0);
      // Probe replay: the appended buyer's conflict set computed through
      // the benchmark's own prober.
      int64_t p0 = NowNs();
      replay_prober->ComputeConflictSets(
          {stack.instance.queries[static_cast<size_t>(q)]});
      int64_t p1 = NowNs();
      env.tracer->Record("market.probe", span.op, 0, p0, p1);
      probe_us.push_back(static_cast<double>(p1 - p0) * 1e-3);
    }
  }
  out.aux_us = std::move(probe_us);
  return out;
}

/// The paper's normalized revenue: the serving book's revenue over the
/// sum of the valuations of the buyers it was solved on.
double BookRevenueRatio(const Stack& stack) {
  double sum_v = 0.0;
  for (double v : stack.buyer_valuations) sum_v += v;
  return sum_v > 0 ? stack.engine->snapshot().best_revenue() / sum_v : 0.0;
}

/// Appends are timed over a fixed index window (the same buyers every
/// run), so their p50 covers that whole window: time slices would keep or
/// drop buyers by host speed. Seller deltas stream for a whole phase and
/// take the sliced figure (see SlicedPercentile).
void ReportWrites(Run& run, const LaneResult& writes, const std::string& what,
                  bool index_window) {
  run.end_to_end.Add("write_p50_us",
                     index_window ? Percentile(writes.latency_us, 0.5)
                                  : SlicedPercentile(writes, 0.5, kSlices),
                     "us");
  run.reference.Reference(what + "_p90_us", Percentile(writes.latency_us, 0.9), "us");
  run.reference.Reference(what + "_p99_us", Percentile(writes.latency_us, 0.99), "us");
  run.reference.Reference(what + "_count", static_cast<double>(writes.latency_us.size()), "count");
}

void ReportFixedRate(Run& run, const LaneResult& quotes, double rate) {
  // Reference only: light-load round trips are dominated by thread
  // wake-ups, whose cost moved far beyond any allowed bound between runs
  // of the same code on the 4-vCPU machine (see README).
  run.reference.Reference("quote_p50_us", SlicedPercentile(quotes, 0.5, kSlices), "us");
  run.reference.Reference("quote_p90_us", Percentile(quotes.latency_us, 0.9), "us");
  run.reference.Reference("quote_p99_us", Percentile(quotes.latency_us, 0.99), "us");
  run.reference.Reference("quote_count", static_cast<double>(quotes.latency_us.size()), "count");
  run.meta.push_back({"fixed_rate_per_s", std::to_string(static_cast<int>(rate))});
  run.meta.push_back({"generator_lateness_p50_us",
                      std::to_string(Percentile(quotes.lateness_us, 0.5))});
  run.meta.push_back({"generator_lateness_p99_us",
                      std::to_string(Percentile(quotes.lateness_us, 0.99))});
  run.meta.push_back({"generator_lateness_max_us",
                      std::to_string(Percentile(quotes.lateness_us, 1.0))});
}

void ReportSaturating(Run& run, const LaneResult& sat, const LaneEnv& env,
                      int64_t end_ns, int window) {
  run.end_to_end.Add("quote_qps", SlicedRate(sat, env.measure_from_ns, end_ns, kSlices),
                     "1/s");
  run.reference.Reference("saturating_quote_p50_us", Percentile(sat.latency_us, 0.5), "us");
  run.meta.push_back({"saturating_window", std::to_string(window)});
}

void ReportSales(Run& run, const SaleTally& tally) {
  run.reference.Reference("sale_ratio",
                          tally.offered_valuation > 0
                              ? tally.revenue / tally.offered_valuation
                              : 0.0,
                          "ratio");
}

void ReportPurchases(Run& run, const LaneResult& purchases) {
  // Reference only, like quote_p50_us: seller-churn's purchase p50 spread
  // past the largest allowed bound over ten runs of the same code.
  run.reference.Reference("purchase_p50_us", SlicedPercentile(purchases, 0.5, kSlices), "us");
  run.reference.Reference("purchase_p90_us", Percentile(purchases.latency_us, 0.9), "us");
  run.reference.Reference("purchase_count", static_cast<double>(purchases.latency_us.size()), "count");
}

/// Server-side counters every workload reports as per-layer figures.
void ServerLayers(const Stack& stack, Layers* layers) {
  qs::rpc::RpcServerStats s = stack.server->stats();
  layers->Set("rpc.frames_per_sendmsg",
              s.writev_calls > 0 ? static_cast<double>(s.writev_frames) /
                                       static_cast<double>(s.writev_calls)
                                 : 0.0);
  layers->Set("rpc.writer_rejects", static_cast<double>(s.writer_rejected));
  layers->Set("rpc.pool_bytes", static_cast<double>(s.pool_bytes));
  qs::ShardedEngineStats es = stack.engine->stats();
  layers->Set("serve.epoch_pending", static_cast<double>(es.merged.epoch.pending));
  layers->Set("lp.setup_lps", stack.setup_lps);
  auto rs = stack.engine->reader_stats();
  uint64_t lookups = rs.prepared.hits + rs.prepared.misses;
  layers->Set("market.prepared_hit_ratio",
              lookups > 0 ? static_cast<double>(rs.prepared.hits) /
                                static_cast<double>(lookups)
                          : 0.0);
  layers->Set("market.prepared_dropped",
              static_cast<double>(rs.prepared.selective_dropped));
  const auto& cat = rs.catalog;
  layers->Set("db.pending_cells", static_cast<double>(cat.deltas_pending));
  layers->Set("db.folds", static_cast<double>(cat.folds));
  layers->Set("db.fold_retries", static_cast<double>(cat.fold_retries));
  layers->Set("db.staleness_mean",
              cat.staleness_samples > 0
                  ? static_cast<double>(cat.staleness_sum) /
                        static_cast<double>(cat.staleness_samples)
                  : 0.0);
}

/// Probe counts of one pass over the whole corpus through a fresh
/// prober: exact for a given catalog state.
void CorpusProbeCounts(const Stack& stack, Layers* layers) {
  market::IncrementalBuilder prober(stack.instance.database.get(),
                                    stack.support, {},
                                    &stack.engine->catalog());
  prober.ComputeConflictSets(stack.instance.queries);
  layers->Set("market.probes", static_cast<double>(prober.build_stats().probes));
  layers->Set("market.pruned", static_cast<double>(prober.build_stats().pruned));
}

void ReplayLayers(const PurchaseReplay& replay, Layers* layers) {
  layers->Set("db.parse_us", Percentile(replay.parse_us, 0.5));
  layers->Set("market.purchase_probe_us", Percentile(replay.probe_us, 0.5));
  layers->Set("serve.purchase_us", Percentile(replay.purchase_us, 0.5));
}

void AppendLayers(const qs::ShardedPricingEngine& engine,
                  const AppendObserver& observer, const LaneResult& appends,
                  uint64_t merges_before, Layers* layers) {
  if (observer.appends == 0) return;
  const double n = static_cast<double>(observer.appends);
  const double exact_n = std::min<double>(n, kExactOps);
  layers->Set("lp.lps_per_append", observer.exact_lps / exact_n);
  layers->Set("core.lpip_reused", observer.exact_reused / exact_n);
  layers->Set("core.reprice_ms", Percentile(observer.reprice_ms, 0.5));
  if (observer.sampled > 0) {
    const double k = observer.sampled;
    layers->Set("core.lpip_ms", observer.lpip_ms_sum / k);
    layers->Set("core.cip_ms", observer.cip_ms_sum / k);
    layers->Set("core.other_ms", observer.other_ms_sum / k);
  }
  layers->Set("core.incidence_merges",
              static_cast<double>(engine.stats().merged.incidence.merges -
                                  merges_before) / n);
  layers->Set("market.probe_us_per_buyer", Percentile(appends.aux_us, 0.5));
}

void FinishTrace(Run& run, const Stack& stack, Layers* layers) {
  Phase("finish");
  ServerLayers(stack, layers);
  if (run.tracer.enabled()) {
    run.self_time_table = run.tracer.WriteOut(run.args.out_dir + "/trace",
                                              run.args.workload);
  }
}

std::string CheckpointDir(const Run& run) {
  return run.args.out_dir + "/" + run.args.workload + "-" +
         std::to_string(::getpid());
}

}  // namespace

// ---------------------------------------------------------------------------
// quote-storm: a fixed book served read-only. Phase A: open-loop quotes
// at a fixed rate; phase B: pipelined quotes to saturation; a closed-loop
// purchase connection runs through both. Phase C, after every read is
// measured, appends buyers one at a time (no journal) for the workload's
// write figures.
void RunQuoteStorm(Run& run) {
  StackConfig config;
  config.support = 1200;
  config.initial_buyers = 300;
  config.chain_appends = 6;
  const auto corpus_sets = CorpusConflictSets(config.support);
  Traffic traffic = MakeTraffic(corpus_sets, kTrafficLen, kBookSeed, kBookSeed, kBookSeed,
                                config.initial_buyers, kArrivalScale, 0.25);
  std::unique_ptr<Stack> stack = TimedSetup(run, config, traffic);
  qs::ShardedPricingEngine& engine = *stack->engine;
  Layers layers;

  const std::vector<std::vector<uint32_t>> bundles = EdgeBundles(engine);
  const std::vector<qs::Quote> ref = ReferenceQuotes(run, engine, bundles);
  uint32_t chain = 0;
  for (const auto& s : engine.stats().shards) chain = std::max(chain, s.publish.chain_length);
  Check(run, chain > 0, "quote-storm book carries no delta records");
  run.meta.push_back({"serving_algorithm", ref.front().algorithm});
  layers.Set("serve.chain_length", chain);
  run.meta.push_back({"book", "skewed |S|=1200, 300 opening buyers + 6 single "
                              "appends, 2 shards, chain length " +
                                  std::to_string(chain)});

  std::atomic<bool> inject_pending{run.args.inject == "quote-price"};
  std::atomic<uint64_t> mismatches{0};
  QuoteCheck check = [&](size_t idx, const rpc::RpcReply& reply) {
    qs::Quote q = reply.quote;
    if (inject_pending.exchange(false)) q.price = std::nextafter(q.price, 1e300);
    if (!QuotesIdentical(q, ref[idx])) mismatches.fetch_add(1);
  };

  const double rate = kFixedRate;
  const int window = 32;
  Timeline t = MakeTimeline(run);
  const int64_t a_end = t.At(0.45), b_end = t.At(0.70);
  LaneEnv env{&run.ledger, &run.tracer, t.measure_from};
  SaleTally tally;
  LaneResult fixed, sat, purchases, appends;
  std::unique_ptr<PurchaseReplay> replay;
  if (run.tracer.enabled()) replay = std::make_unique<PurchaseReplay>(*stack, &run.tracer);
  qs::rpc::RpcServerStats srv_a{}, srv_b{};
  std::thread buyer([&] {
    // Five milliseconds of think time keep purchases (served inline on
    // the single loop) off most fixed-rate quotes' path.
    purchases = ClosedLoopPurchases(run, env, *stack, corpus_sets, true, kPurchaseCycle, 5'000'000, b_end, a_end,
                                    &tally, replay.get(), 8);
  });
  // Warm-up: the saturating traffic itself, so the host is past its
  // idle-to-busy speed burst before the fixed-rate phase is timed.
  SaturatingQuotes(LaneEnv{&run.ledger, &run.tracer, t.measure_from}, stack->port(),
                   bundles, window, t.measure_from, run.args.seed, check);
  // Epoch pins and reads are counted over the fixed-rate phase only.
  const uint64_t pins_before = engine.stats().merged.epoch.pins;
  const qs::rpc::RpcServerStats srv_start = stack->server->stats();
  fixed = FixedRateQuotes(env, stack->port(), bundles, rate, t.measure_from, a_end,
                          run.args.seed, check);
  srv_a = stack->server->stats();
  const uint64_t pins_a = engine.stats().merged.epoch.pins;
  LaneEnv sat_env{&run.ledger, &run.tracer, a_end + 200'000'000};
  sat = SaturatingQuotes(sat_env, stack->port(), bundles, window, b_end,
                         run.args.seed, check);
  srv_b = stack->server->stats();
  buyer.join();
  Phase("checks");
  Check(run, mismatches.load() == 0,
        std::to_string(mismatches.load()) +
            " wire quotes differ from the in-process quote");
  CheckSaleTally(run, engine, tally);
  CheckArbitrage(run, stack->port(), bundles, run.args.seed,
                 run.args.smoke ? 50 : 200);

  const double revenue_ratio = BookRevenueRatio(*stack);
  // Phase C: appends after the reads (the book changes from here on).
  Phase("appends");
  market::IncrementalBuilder replay_prober(stack->instance.database.get(),
                                           stack->support, {},
                                           &engine.catalog());
  AppendObserver observer(engine);
  LaneEnv write_env{&run.ledger, &run.tracer, b_end + 200'000'000};
  const uint64_t merges_before = engine.stats().merged.incidence.merges;
  appends = ClosedLoopAppends(
      write_env, *stack, traffic,
      // The lane stops after its last timed append; the deadline, past the
      // window's end, only guards against a stalled writer, so a slow run
      // still times all 400 appends.
      static_cast<size_t>(config.initial_buyers + config.chain_appends),
      t.end + 5'000'000'000, kQuoteStormAppends.skip, kQuoteStormAppends.measured,
      run.tracer.enabled() ? &observer : nullptr, &replay_prober, [](uint64_t) {});

  ReportFixedRate(run, fixed, rate);
  ReportSaturating(run, sat, sat_env, b_end, window);
  ReportPurchases(run, purchases);
  ReportWrites(run, appends, "append", true);
  run.end_to_end.Add("revenue_ratio", revenue_ratio, "ratio");
  ReportSales(run, tally);

  uint64_t ticks = srv_b.quote_ticks - srv_a.quote_ticks;
  layers.Set("rpc.quotes_per_tick",
             ticks > 0 ? static_cast<double>(srv_b.batched_quotes - srv_a.batched_quotes) /
                             static_cast<double>(ticks)
                       : 0.0);
  uint64_t served_a = srv_a.quote_requests + srv_a.purchase_requests -
                      srv_start.quote_requests - srv_start.purchase_requests;
  layers.Set("serve.epoch_pins",
             served_a > 0 ? static_cast<double>(pins_a - pins_before) /
                                static_cast<double>(served_a)
                          : 0.0);
  if (run.tracer.enabled()) {
    InProcessQuotePass(run, engine, bundles, &layers);
    CorpusProbeCounts(*stack, &layers);
    layers.Set("rpc.overhead_us", Percentile(fixed.latency_us, 0.5) -
                                      layers.Get("serve.quote_ns") * 1e-3);
    ReplayLayers(*replay, &layers);
    AppendLayers(engine, observer, appends, merges_before, &layers);
  }
  FinishTrace(run, *stack, &layers);
  layers.Emit(&run.per_layer);
}

// ---------------------------------------------------------------------------
// buyer-arrivals: one connection appends buyers one at a time (closed
// loop) at |S|=4000, where LPs dominate a publish; the journal and a
// checkpoint every 5 publishes run through persist::CheckpointManager.
// A second connection quotes at a fixed low rate throughout and checks
// each append is visible. The rest of the window runs closed-loop
// purchases against the final book, then quotes it to saturation.
namespace {

void CheckBuyerBook(Run& run, const Stack& stack) {
  const qs::ShardedPricingEngine& engine = *stack.engine;
  qs::MergedBookView view = engine.snapshot();
  double sum_v = 0.0, sum_ubp = 0.0;
  size_t buyers = 0;
  for (int s = 0; s < engine.num_shards(); ++s) {
    const core::Hypergraph& graph = engine.shard(s).hypergraph();
    const core::Valuations& vals = engine.shard(s).valuations();
    const qs::PriceBookSnapshot& book = view.shard(s);
    buyers += vals.size();
    double revenue = 0.0;
    for (int e = 0; e < graph.num_edges(); ++e) {
      double p = PriceFromParameters(book.best().pricing.get(), graph.edge(e));
      if (p >= 0 && p <= vals[static_cast<size_t>(e)] + core::kSellTolerance) {
        revenue += p;
      }
      sum_v += vals[static_cast<size_t>(e)];
    }
    Check(run, Near(revenue, book.best().revenue, 1e-9),
          "shard " + std::to_string(s) + ": recomputed book revenue " +
              std::to_string(revenue) + " != reported " +
              std::to_string(book.best().revenue));
    std::vector<double> sorted(vals.begin(), vals.end());
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    double best_ubp = 0.0;
    for (size_t i = 0; i < sorted.size(); ++i) {
      best_ubp = std::max(best_ubp, sorted[i] * static_cast<double>(i + 1));
    }
    const core::PricingResult* ubp = book.Find("UBP");
    Check(run, ubp != nullptr && Near(ubp->revenue, best_ubp, 1e-6),
          "shard " + std::to_string(s) + ": UBP revenue differs from "
          "max_p p * #{v >= p}");
    if (ubp != nullptr) sum_ubp += ubp->revenue;
  }
  double merged = view.best_revenue();
  Check(run, merged + 1e-6 >= sum_ubp && merged <= sum_v + 1e-6,
        "merged revenue outside [sum of shard UBP revenues, sum of v]");
  double own_sum = 0.0;
  for (double v : stack.buyer_valuations) own_sum += v;
  Check(run, buyers == stack.buyer_valuations.size() && Near(own_sum, sum_v, 1e-9),
        "engine buyers/valuations differ from the buyers the benchmark sent");
}

/// Recovers the run's checkpoint + journal into a fresh router and
/// requires it to quote every corpus bundle bit-identically to the live
/// book. Returns the recovery seconds (Recover + RestoreFromCheckpoint).
double CheckRecovery(Run& run, const Stack& stack, const std::string& dir,
                     const std::vector<std::vector<uint32_t>>& bundles) {
  const qs::ShardedPricingEngine& live = *stack.engine;
  qs::ShardedEngineOptions options;
  options.num_threads = 1;
  qs::ShardedPricingEngine recovered(stack.instance.database.get(),
                                     live.partition(), options);
  int64_t t0 = NowNs();
  auto state = qs::persist::Recover(dir);
  qp::Status st = state.ok() ? recovered.RestoreFromCheckpoint(*state)
                             : state.status();
  double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  Check(run, st.ok(), "recovery failed: " + st.ToString());
  if (!st.ok()) return seconds;
  int mismatches = 0;
  for (const auto& b : bundles) {
    if (!QuotesIdentical(live.QuoteBundle(b), recovered.QuoteBundle(b))) ++mismatches;
  }
  Check(run, mismatches == 0,
        std::to_string(mismatches) + " recovered quotes differ from the live book");
  return seconds;
}

void WriterLayers(const Stack& stack, const AppendObserver* observer,
                  uint64_t exact_journal_bytes, int exact_ops, Layers* layers) {
  if (exact_ops > 0) {
    layers->Set("persist.journal_bytes_per_op",
                static_cast<double>(exact_journal_bytes) / exact_ops);
  }
  if (!stack.timing_log) return;
  const TimingLog::Totals& t = stack.timing_log->totals();
  if (t.logs > 0) layers->Set("persist.log_us", t.log_us / static_cast<double>(t.logs));
  if (!t.checkpoint_ms.empty()) {
    layers->Set("persist.checkpoint_ms", Percentile(t.checkpoint_ms, 0.5));
  }
  if (t.publishes > 0 && observer != nullptr && observer->appends > 0) {
    double reprice_ms = 0.0;
    for (double ms : observer->reprice_ms) reprice_ms += ms;
    layers->Set("serve.publish_ms",
                (t.apply_ms - reprice_ms) / static_cast<double>(t.publishes));
    layers->Set("serve.publish_alloc_kb",
                t.apply_alloc_kb / static_cast<double>(t.publishes));
  }
}

}  // namespace

void RunBuyerArrivals(Run& run) {
  StackConfig config;
  config.support = run.args.smoke ? 1200 : 4000;
  config.initial_buyers = run.args.smoke ? 300 : 600;
  // One shard: every append reprices the same book, so append cost does
  // not depend on which shard a buyer routes to.
  config.shards = 1;
  config.checkpoint_every = 5;
  config.checkpoint_dir = CheckpointDir(run);
  const auto corpus_sets = CorpusConflictSets(config.support);
  Traffic traffic = MakeTraffic(corpus_sets, kTrafficLen, kBookSeed, kBookSeed, kBookSeed,
                                config.initial_buyers, kArrivalScale, 0.25);
  std::unique_ptr<Stack> stack = TimedSetup(run, config, traffic);
  qs::ShardedPricingEngine& engine = *stack->engine;
  Layers layers;
  run.meta.push_back({"book", "skewed |S|=" + std::to_string(config.support) + ", " +
                              std::to_string(config.initial_buyers) +
                              " opening buyers, 1 shard, all LPIP candidates, "
                              "journal + checkpoint every 5 publishes (fsync off)"});

  const std::vector<std::vector<uint32_t>> opening = EdgeBundles(engine);
  Timeline t = MakeTimeline(run);
  const int64_t a_end = t.At(0.55), p_end = t.At(0.65), s_end = t.At(0.90);
  LaneEnv env{&run.ledger, &run.tracer, t.measure_from};
  std::atomic<uint64_t> visible{0};
  SaleTally tally;
  const double beside_rate = 500.0;
  LaneResult beside;
  std::thread reader([&] {
    beside = FixedRateQuotes(env, stack->port(), opening, beside_rate, t.start,
                             a_end, run.args.seed,
                             [](size_t, const rpc::RpcReply&) {}, &visible);
  });
  market::IncrementalBuilder replay_prober(stack->instance.database.get(),
                                           stack->support, {}, &engine.catalog());
  AppendObserver observer(engine);
  const uint64_t merges_before = engine.stats().merged.incidence.merges;
  const uint64_t journal_base = stack->checkpoints->stats().journal_bytes;
  uint64_t exact_journal_bytes = 0;
  int appended = 0;
  LaneResult appends = ClosedLoopAppends(
      env, *stack, traffic,
      static_cast<size_t>(config.initial_buyers), a_end,
      kBuyerArrivalsAppends.skip, kBuyerArrivalsAppends.measured,
      run.tracer.enabled() ? &observer : nullptr, &replay_prober,
      [&](uint64_t version) {
        visible.store(version);
        if (++appended == kExactOps) {
          exact_journal_bytes = stack->checkpoints->stats().journal_bytes - journal_base;
        }
      });
  reader.join();
  Check(run, beside.stale_reads == 0,
        std::to_string(beside.stale_reads) +
            " quotes sent after an append reply saw an older book");

  // Closed-loop purchases against the final book.
  Phase("purchases");
  LaneEnv buy_env{&run.ledger, &run.tracer, a_end + 500'000'000};
  LaneResult purchases = ClosedLoopPurchases(run, buy_env, *stack, corpus_sets, true, 64, 0, p_end,
                                             p_end, &tally, nullptr, 1);

  // Tail: the final book quoted to saturation, then at a fixed rate.
  Phase("read tail");
  const std::vector<std::vector<uint32_t>> final_bundles = EdgeBundles(engine);
  const std::vector<qs::Quote> ref = ReferenceQuotes(run, engine, final_bundles);
  run.meta.push_back({"serving_algorithm", ref.front().algorithm});
  std::atomic<uint64_t> mismatches{0};
  QuoteCheck check = [&](size_t idx, const rpc::RpcReply& reply) {
    if (!QuotesIdentical(reply.quote, ref[idx])) mismatches.fetch_add(1);
  };
  const int window = 32;
  LaneEnv sat_env{&run.ledger, &run.tracer, p_end + 200'000'000};
  const qs::rpc::RpcServerStats srv_a = stack->server->stats();
  LaneResult sat = SaturatingQuotes(sat_env, stack->port(), final_bundles, window,
                                    s_end, run.args.seed, check);
  const qs::rpc::RpcServerStats srv_b = stack->server->stats();
  LaneEnv fixed_env{&run.ledger, &run.tracer, s_end + 100'000'000};
  LaneResult reads = FixedRateQuotes(fixed_env, stack->port(), final_bundles, kFixedRate,
                                     std::max(s_end, NowNs()), t.end, run.args.seed, check);
  Check(run, mismatches.load() == 0,
        std::to_string(mismatches.load()) + " wire quotes differ from the in-process quote");
  Phase("checks");
  CheckSaleTally(run, engine, tally);
  CheckBuyerBook(run, *stack);
  const double recover_s = CheckRecovery(run, *stack, config.checkpoint_dir, final_bundles);

  ReportFixedRate(run, reads, kFixedRate);
  ReportSaturating(run, sat, sat_env, s_end, window);
  ReportPurchases(run, purchases);
  ReportWrites(run, appends, "append", true);
  run.end_to_end.Add("revenue_ratio", BookRevenueRatio(*stack), "ratio");
  ReportSales(run, tally);
  run.reference.Reference("buyers_appended", static_cast<double>(appended), "count");
  run.reference.Reference("quote_beside_appends_p50_us",
                          SlicedPercentile(beside, 0.5, kSlices), "us");
  run.reference.Reference("quote_beside_appends_p90_us",
                          Percentile(beside.latency_us, 0.9), "us");

  uint64_t ticks = srv_b.quote_ticks - srv_a.quote_ticks;
  layers.Set("rpc.quotes_per_tick",
             ticks > 0 ? static_cast<double>(srv_b.batched_quotes - srv_a.batched_quotes) /
                             static_cast<double>(ticks)
                       : 0.0);
  layers.Set("persist.recover_s", recover_s);
  if (run.tracer.enabled()) {
    InProcessQuotePass(run, engine, final_bundles, &layers);
    layers.Set("rpc.overhead_us",
               Percentile(reads.latency_us, 0.5) - layers.Get("serve.quote_ns") * 1e-3);
    AppendLayers(engine, observer, appends, merges_before, &layers);
    CorpusProbeCounts(*stack, &layers);
  }
  WriterLayers(*stack, run.tracer.enabled() ? &observer : nullptr,
               exact_journal_bytes, std::min(appended, kExactOps), &layers);
  FinishTrace(run, *stack, &layers);
  layers.Emit(&run.per_layer);
  Phase("teardown");
  stack.reset();
  std::error_code ec;
  std::filesystem::remove_all(config.checkpoint_dir, ec);
}

// ---------------------------------------------------------------------------
// seller-churn: one connection streams ApplySellerDelta over the
// support's cells (closed loop) while a second runs closed-loop
// purchases that probe through the versioned catalog; the journal is on
// and nothing reprices. After the churn window the book is quoted at a
// fixed rate, then to saturation.
void RunSellerChurn(Run& run) {
  StackConfig config;
  config.checkpoint_every = 0;
  config.checkpoint_dir = CheckpointDir(run);
  const auto corpus_sets = CorpusConflictSets(config.support);
  Traffic traffic = MakeTraffic(corpus_sets, kTrafficLen, kBookSeed, kBookSeed, kBookSeed,
                                config.initial_buyers, kArrivalScale, 0.25);
  std::unique_ptr<Stack> stack = TimedSetup(run, config, traffic);
  qs::ShardedPricingEngine& engine = *stack->engine;
  Layers layers;

  // The delta cell set: the support's distinct cells, in support order.
  // Even rounds write the support's perturbed value, odd rounds restore
  // the original, so every round changes every cell.
  std::vector<market::CellDelta> cells;
  for (const market::CellDelta& d : stack->support) {
    bool seen = false;
    for (const market::CellDelta& c : cells) {
      seen |= c.table == d.table && c.row == d.row && c.column == d.column;
    }
    if (!seen) cells.push_back(d);
  }
  std::vector<qp::db::Value> original;
  for (const market::CellDelta& c : cells) {
    original.push_back(stack->instance.database->table(c.table).cell(c.row, c.column));
  }
  run.meta.push_back({"book", "skewed |S|=1200, 300 opening buyers, 2 shards, journal "
                              "on (fsync off); delta cell set " +
                                  std::to_string(cells.size()) + " cells"});

  // Serial twin for the in-process commit timing (traced runs).
  std::unique_ptr<qp::workload::WorkloadInstance> twin_data;
  std::unique_ptr<qs::ShardedPricingEngine> twin;
  if (run.tracer.enabled()) {
    auto inst = qp::workload::MakeSkewedWorkload(7);
    if (inst.ok()) {
      twin_data = std::make_unique<qp::workload::WorkloadInstance>(std::move(*inst));
      twin = std::make_unique<qs::ShardedPricingEngine>(twin_data->database.get(),
                                                        engine.partition());
    }
  }

  const std::vector<std::vector<uint32_t>> bundles = EdgeBundles(engine);
  const std::vector<qs::Quote> ref = ReferenceQuotes(run, engine, bundles);
  Timeline t = MakeTimeline(run);
  const int64_t a_end = t.At(0.7), b_end = t.At(0.85);
  LaneEnv env{&run.ledger, &run.tracer, t.measure_from};
  SaleTally tally;
  std::unique_ptr<PurchaseReplay> replay;
  if (run.tracer.enabled()) replay = std::make_unique<PurchaseReplay>(*stack, &run.tracer);
  LaneResult purchases;
  std::thread buyer([&] {
    purchases = ClosedLoopPurchases(run, env, *stack, corpus_sets, true, 0, kChurnThinkNs, a_end, a_end, &tally,
                                    replay.get(), 8);
  });

  // Delta lane, with the fold accounting the benchmark keeps itself:
  // cells committed since the last fold, and cells every fold folded.
  std::vector<qp::db::Value> expected(cells.size());
  std::vector<char> written(cells.size(), 0), since_fold(cells.size(), 0);
  std::vector<size_t> since_fold_list;
  uint64_t folds_seen = engine.catalog().stats().folds;
  uint64_t folded_expected = engine.catalog().stats().deltas_folded;
  uint64_t extra_folds = 0;
  LaneResult deltas;
  std::vector<double> commit_us;
  const uint64_t journal_base = stack->checkpoints->stats().journal_bytes;
  uint64_t exact_journal_bytes = 0;
  int deltas_done = 0;
  {
    rpc::RpcClient client;
    if (ConnectClient(&client, stack->port(), &run.ledger)) {
      rpc::RpcReply reply;
      const size_t offset = static_cast<size_t>(qp::Mix64(run.args.seed) % cells.size());
      for (size_t i = 0; NowNs() < a_end; ++i) {
        const size_t c = (i + offset) % cells.size();
        market::CellDelta delta = cells[c];
        if ((i / cells.size()) % 2 == 1) delta.new_value = original[c];
        WireSpan span = BeginWireSpan(&run.tracer);
        if (stack->timing_log) {
          stack->timing_log->current_op.store(span.op);
          stack->timing_log->current_parent.store(span.id);
        }
        run.ledger.Attempt("seller_delta");
        int64_t t0 = NowNs();
        qp::Status st = client.ApplySellerDelta(delta, &reply);
        int64_t t1 = NowNs();
        if (!st.ok() || !reply.ok() || reply.seller_delta.code != rpc::WireCode::kOk) {
          run.ledger.Fail("seller_delta");
          if (!st.ok()) break;
          continue;
        }
        run.tracer.Record("rpc.seller_delta", span.op, 0, t0, t1, span.id);
        expected[c] = delta.new_value;
        written[c] = 1;
        if (!since_fold[c]) {
          since_fold[c] = 1;
          since_fold_list.push_back(c);
        }
        uint64_t folds = engine.catalog().stats().folds;
        if (folds != folds_seen) {
          extra_folds += folds - folds_seen - 1;
          folded_expected += since_fold_list.size();
          for (size_t f : since_fold_list) since_fold[f] = 0;
          since_fold_list.clear();
          folds_seen = folds;
        }
        if (t0 >= env.measure_from_ns) deltas.Add(t0, static_cast<double>(t1 - t0) * 1e-3);
        if (++deltas_done == kExactOps) {
          exact_journal_bytes = stack->checkpoints->stats().journal_bytes - journal_base;
        }
        if (twin) {
          int64_t c0 = NowNs();
          qp::Status tst = twin->ApplySellerDelta(*twin_data->database, delta);
          int64_t c1 = NowNs();
          if (tst.ok()) commit_us.push_back(static_cast<double>(c1 - c0) * 1e-3);
          run.tracer.Record("db.commit", span.op, 0, c0, c1);
        }
      }
    }
  }
  buyer.join();
  if (run.args.inject == "cell-write") {
    // Self-test: a dropped cell write: the benchmark records one more
    // write to an edited cell but never sends it.
    for (size_t c = 0; c < cells.size(); ++c) {
      if (!written[c]) continue;
      expected[c] = expected[c] == original[c] ? cells[c].new_value : original[c];
      break;
    }
  }

  // Read tail: fixed-rate quotes, then saturation.
  Phase("read tail");
  std::atomic<uint64_t> mismatches{0};
  QuoteCheck check = [&](size_t idx, const rpc::RpcReply& reply) {
    if (!QuotesIdentical(reply.quote, ref[idx])) mismatches.fetch_add(1);
  };
  const double rate = kFixedRate;
  const int window = 32;
  LaneEnv fixed_env{&run.ledger, &run.tracer, a_end + 100'000'000};
  LaneResult fixed = FixedRateQuotes(fixed_env, stack->port(), bundles, rate,
                                     std::max(a_end, NowNs()), b_end, run.args.seed, check);
  const qs::rpc::RpcServerStats srv_a = stack->server->stats();
  LaneEnv sat_env{&run.ledger, &run.tracer, b_end + 100'000'000};
  LaneResult sat = SaturatingQuotes(sat_env, stack->port(), bundles, window, t.end,
                                    run.args.seed, check);
  const qs::rpc::RpcServerStats srv_b = stack->server->stats();
  Check(run, mismatches.load() == 0,
        std::to_string(mismatches.load()) + " wire quotes differ from the in-process quote");

  Phase("checks");
  // Catalog checks: read-back, fold accounting, and purchase bundles
  // against the reference probe on a database copy edited here.
  int wrong_cells = 0;
  std::vector<market::CellDelta> edits;
  for (size_t c = 0; c < cells.size(); ++c) {
    if (!written[c]) continue;
    edits.push_back({cells[c].table, cells[c].row, cells[c].column, expected[c]});
    if (engine.catalog().LogicalCell(cells[c].table, cells[c].row, cells[c].column) !=
        expected[c]) {
      ++wrong_cells;
    }
  }
  Check(run, wrong_cells == 0,
        std::to_string(wrong_cells) + " edited cells do not read back as last written");
  qp::db::VersionedDatabase::Stats cat = engine.catalog().stats();
  Check(run, extra_folds == 0 && cat.deltas_pending == since_fold_list.size() &&
                 cat.deltas_folded == folded_expected,
        "fold accounting: pending " + std::to_string(cat.deltas_pending) + " + folded " +
            std::to_string(cat.deltas_folded) + " != distinct cells edited per fold (" +
            std::to_string(since_fold_list.size()) + " + " +
            std::to_string(folded_expected) + ")");
  {
    auto copy = qp::workload::MakeSkewedWorkload(7);
    rpc::RpcClient client;
    if (copy.ok() && ConnectClient(&client, stack->port(), &run.ledger)) {
      for (const market::CellDelta& e : edits) market::ApplyDelta(*copy->database, e);
      qp::Rng rng(qp::Mix64(run.args.seed ^ 0x5c1eULL));
      const int samples = run.args.smoke ? 2 : 4;
      int differ = 0;
      for (int k = 0; k < samples; ++k) {
        size_t q = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(copy->queries.size()) - 1));
        rpc::RpcReply reply;
        run.ledger.Attempt("purchase");
        if (!client.Purchase(stack->instance.sql[q], 0.0, &reply).ok() || !reply.ok()) {
          run.ledger.Fail("purchase");
          continue;
        }
        CheckPurchase(run, engine, true, 0.0, reply, &tally);
        std::vector<uint32_t> wire = reply.purchase.bundle;
        std::vector<uint32_t> naive =
            market::NaiveConflictSet(*copy->database, copy->queries[q], stack->support);
        std::sort(wire.begin(), wire.end());
        std::sort(naive.begin(), naive.end());
        if (wire != naive) ++differ;
      }
      Check(run, differ == 0,
            std::to_string(differ) + " post-run purchase bundles differ from "
            "NaiveConflictSet on the benchmark's edited copy");
    }
  }
  CheckSaleTally(run, engine, tally);

  ReportFixedRate(run, fixed, rate);
  ReportSaturating(run, sat, sat_env, t.end, window);
  ReportPurchases(run, purchases);
  ReportWrites(run, deltas, "seller_delta", false);
  run.end_to_end.Add("revenue_ratio", BookRevenueRatio(*stack), "ratio");
  ReportSales(run, tally);
  run.reference.Reference("delta_p50_us", SlicedPercentile(deltas, 0.5, kSlices), "us");

  uint64_t ticks = srv_b.quote_ticks - srv_a.quote_ticks;
  layers.Set("rpc.quotes_per_tick",
             ticks > 0 ? static_cast<double>(srv_b.batched_quotes - srv_a.batched_quotes) /
                             static_cast<double>(ticks)
                       : 0.0);
  if (run.tracer.enabled()) {
    InProcessQuotePass(run, engine, bundles, &layers);
    layers.Set("rpc.overhead_us",
               Percentile(fixed.latency_us, 0.5) - layers.Get("serve.quote_ns") * 1e-3);
    ReplayLayers(*replay, &layers);
    layers.Set("db.commit_us", Percentile(commit_us, 0.5));
    CorpusProbeCounts(*stack, &layers);
  }
  WriterLayers(*stack, nullptr, exact_journal_bytes,
               std::min(kExactOps, deltas_done), &layers);
  FinishTrace(run, *stack, &layers);
  layers.Emit(&run.per_layer);
  Phase("teardown");
  stack.reset();
  std::error_code ec;
  std::filesystem::remove_all(config.checkpoint_dir, ec);
}

}  // namespace qpbench
