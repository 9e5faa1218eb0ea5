#include "lanes.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/rng.h"

namespace qpbench {

namespace {
constexpr int kDeadlineMs = 10000;
// A slice's quantile needs this many samples to count; a lane with fewer
// in every slice gets the whole-window quantile instead.
constexpr size_t kMinSliceSamples = 50;
}  // namespace

bool ConnectClient(rpc::RpcClient* client, uint16_t port, Ledger* ledger) {
  *client = rpc::RpcClient(rpc::RpcClientOptions{.connect_timeout_ms = 5000,
                                                 .recv_timeout_ms = kDeadlineMs,
                                                 .send_timeout_ms = kDeadlineMs});
  ledger->Attempt("connect");
  if (!client->Connect("127.0.0.1", port).ok()) {
    ledger->Fail("connect");
    return false;
  }
  return true;
}

WireSpan BeginWireSpan(Tracer* tracer) {
  if (!tracer->enabled()) return {};
  return {tracer->NewOp(), tracer->NewSpanId()};
}

LaneResult FixedRateQuotes(const LaneEnv& env, uint16_t port,
                           const std::vector<std::vector<uint32_t>>& bundles,
                           double rate, int64_t start_ns, int64_t end_ns,
                           uint64_t seed, const QuoteCheck& check,
                           const std::atomic<uint64_t>* version_floor) {
  LaneResult out;
  rpc::RpcClient client;
  if (!ConnectClient(&client, port, env.ledger)) return out;
  const int64_t interval = static_cast<int64_t>(1e9 / rate);
  size_t next = static_cast<size_t>(qp::Mix64(seed) % bundles.size());
  rpc::RpcReply reply;
  for (int64_t due = start_ns; due < end_ns; due += interval) {
    WaitUntil(due);
    const uint64_t floor = version_floor != nullptr ? version_floor->load() : 0;
    int64_t sent = NowNs();
    size_t idx = next++ % bundles.size();
    WireSpan span = BeginWireSpan(env.tracer);
    env.ledger->Attempt("quote");
    qp::Status st = client.Quote(bundles[idx], &reply);
    int64_t done = NowNs();
    if (!st.ok() || !reply.ok()) {
      env.ledger->Fail("quote");
      if (!st.ok()) break;  // transport gone; the lane ends
      continue;
    }
    env.tracer->Record("rpc.quote", span.op, 0, sent, done, span.id);
    if (reply.quote.version < floor) ++out.stale_reads;
    check(idx, reply);
    if (due >= env.measure_from_ns) {
      out.Add(due, static_cast<double>(done - due) * 1e-3);
      out.lateness_us.push_back(static_cast<double>(sent - due) * 1e-3);
    }
  }
  return out;
}

LaneResult SaturatingQuotes(const LaneEnv& env, uint16_t port,
                            const std::vector<std::vector<uint32_t>>& bundles,
                            int window, int64_t end_ns, uint64_t seed,
                            const QuoteCheck& check) {
  LaneResult out;
  rpc::RpcClient client;
  if (!ConnectClient(&client, port, env.ledger)) return out;
  struct Inflight {
    size_t idx;
    int64_t sent;
    WireSpan span;
  };
  std::unordered_map<uint64_t, Inflight> inflight;
  size_t next = static_cast<size_t>(qp::Mix64(seed ^ 0x5a7) % bundles.size());
  rpc::RpcReply reply;
  bool sending = true;
  while (!inflight.empty() || sending) {
    while (sending && inflight.size() < static_cast<size_t>(window)) {
      if (NowNs() >= end_ns) {
        sending = false;
        break;
      }
      // Traced runs record one wire span in 16 here: saturating traffic
      // would otherwise fill memory with spans.
      WireSpan span = next % 16 == 0 ? BeginWireSpan(env.tracer) : WireSpan{};
      size_t idx = next++ % bundles.size();
      int64_t sent = NowNs();
      env.ledger->Attempt("quote_saturating");
      auto id = client.SendQuote(bundles[idx]);
      if (!id.ok()) {
        env.ledger->Fail("quote_saturating");
        sending = false;
        break;
      }
      inflight.emplace(*id, Inflight{idx, sent, span});
    }
    if (inflight.empty()) break;
    if (!client.Receive(&reply).ok()) {
      env.ledger->Fail("quote_saturating", inflight.size());
      break;
    }
    int64_t done = NowNs();
    auto it = inflight.find(reply.request_id);
    if (it == inflight.end()) {
      env.ledger->CheckFailed("saturating lane: reply for an unknown id");
      continue;
    }
    Inflight f = it->second;
    inflight.erase(it);
    if (!reply.ok()) {
      env.ledger->Fail("quote_saturating");
      continue;
    }
    if (f.span.id != 0) {
      env.tracer->Record("rpc.quote", f.span.op, 0, f.sent, done, f.span.id);
    }
    check(f.idx, reply);
    if (f.sent >= env.measure_from_ns && done <= end_ns) {
      out.Add(done, static_cast<double>(done - f.sent) * 1e-3);
    }
  }
  return out;
}

double SlicedPercentile(const LaneResult& r, double p, int slices) {
  if (r.at.empty()) return 0.0;
  auto [lo, hi] = std::minmax_element(r.at.begin(), r.at.end());
  const double span = static_cast<double>(*hi - *lo) + 1.0;
  std::vector<std::vector<double>> by_slice(static_cast<size_t>(slices));
  for (size_t i = 0; i < r.at.size(); ++i) {
    size_t k = static_cast<size_t>(static_cast<double>(r.at[i] - *lo) / span *
                                   slices);
    by_slice[k].push_back(r.latency_us[i]);
  }
  std::vector<double> per_slice;
  for (const auto& v : by_slice) {
    if (v.size() >= kMinSliceSamples) per_slice.push_back(Percentile(v, p));
  }
  return per_slice.empty() ? Percentile(r.latency_us, p)
                           : Percentile(per_slice, 0.25);
}

double SlicedRate(const LaneResult& r, int64_t from_ns, int64_t to_ns,
                  int slices) {
  if (to_ns <= from_ns) return 0.0;
  const double span = static_cast<double>(to_ns - from_ns);
  std::vector<double> counts(static_cast<size_t>(slices), 0.0);
  for (int64_t t : r.at) {
    if (t < from_ns || t >= to_ns) continue;
    counts[static_cast<size_t>(static_cast<double>(t - from_ns) / span * slices)] += 1.0;
  }
  for (double& c : counts) c /= span * 1e-9 / slices;
  return Percentile(counts, 0.75);
}

}  // namespace qpbench
