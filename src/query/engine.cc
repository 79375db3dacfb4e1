#include "query/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "dsp/resample.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/merge.h"
#include "query/selector.h"
#include "util/hash.h"
#include "util/parallel.h"

// The per-stream transform and the cross-stream column reduction live in
// query/merge.cc — shared with the cluster layer's scatter-gather merge so
// a sharded fleet reduces with byte-identical FP semantics.

namespace nyqmon::qry {

// Contiguous stage marks for the EXPLAIN breakdown, one clock per query:
// every mark() closes the stage that started at the previous mark (the
// first at construction), and each is measured as the difference of two
// offsets from the start, so the stages sum to elapsed_ns() exactly.
class QueryEngine::StageClock {
 public:
  explicit StageClock(std::vector<QueryStageTiming>& stages)
      : stages_(stages), start_(std::chrono::steady_clock::now()) {}

  void mark(const char* stage) {
    const auto now_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    stages_.push_back({stage, now_ns - last_ns_});
    last_ns_ = now_ns;
  }

  /// Start to the last mark.
  std::uint64_t elapsed_ns() const { return last_ns_; }

 private:
  std::vector<QueryStageTiming>& stages_;
  const std::chrono::steady_clock::time_point start_;
  std::uint64_t last_ns_ = 0;
};

QueryEngine::QueryEngine(const mon::StripedRetentionStore& store,
                         QueryEngineConfig config)
    : store_(store),
      config_(config),
      cache_(config.cache_capacity, config.cache_shards) {}

QueryResponse QueryEngine::run(const QuerySpec& spec) {
  spec.validate();
  // End-to-end latency including the cache path: the p50-vs-p99 spread of
  // this histogram is ROADMAP item 2's tail, measured per query.
  NYQMON_OBS_TIMER("nyqmon_query_latency_ns");
  NYQMON_TRACE_SPAN("query", "query");
  queries_.fetch_add(1, std::memory_order_relaxed);

  QueryResponse resp;
  StageClock clock(resp.stages);

  // Metadata pass: selector match + invalidation fingerprint, no
  // reconstruction. A wildcard-free selector names at most one stream, so
  // it skips the fleet-wide scan and hits its stripe directly; globs walk
  // list_meta(), which is lexicographically sorted, so the matched order
  // (and with it every downstream reduction) is stable either way.
  std::vector<std::pair<std::string, mon::StreamMeta>> matched_meta;
  std::size_t considered = 0;
  if (is_exact(spec.selector)) {
    considered = 1;
    if (const auto m = store_.find_meta(spec.selector))
      matched_meta.emplace_back(spec.selector, *m);
  } else {
    auto meta = store_.list_meta();
    considered = meta.size();
    for (auto& [name, m] : meta)
      if (match_glob(spec.selector, name))
        matched_meta.emplace_back(std::move(name), m);
  }
  Fnv1a fp;
  for (const auto& [name, m] : matched_meta)
    fp.mix(fnv1a(name)).mix(m.generation);
  clock.mark("match");

  const std::string key = spec.canonical_key();
  if (config_.cache_enabled) {
    if (auto hit = cache_.lookup(key, fp.value())) {
      NYQMON_OBS_COUNT("nyqmon_query_cache_hits_total", 1);
      clock.mark("cache");
      resp.result = std::move(hit);
      resp.cache_hit = true;
      resp.total_ns = clock.elapsed_ns();
      return resp;
    }
    NYQMON_OBS_COUNT("nyqmon_query_cache_misses_total", 1);
  }
  clock.mark("cache");

  streams_considered_.fetch_add(considered, std::memory_order_relaxed);
  auto result = execute(spec, matched_meta, clock);
  if (config_.cache_enabled) cache_.insert(key, fp.value(), result);
  clock.mark("cache_store");
  resp.result = std::move(result);
  resp.total_ns = clock.elapsed_ns();
  return resp;
}

std::shared_ptr<const QueryResult> QueryEngine::execute(
    const QuerySpec& spec,
    const std::vector<std::pair<std::string, mon::StreamMeta>>& matched_meta,
    StageClock& clock) {
  auto result = std::make_shared<QueryResult>();
  result->spec = spec;

  // Range prune on metadata alone: a stream whose ingested span [t0, t_end)
  // misses the query range contributes nothing worth reconstructing.
  std::vector<mon::StreamMeta> kept_meta;
  for (const auto& [name, m] : matched_meta) {
    result->matched.push_back(name);
    if (m.ingested_samples > 0 && m.t0 < spec.t_end && m.t_end > spec.t_begin) {
      result->reconstructed.push_back(name);
      kept_meta.push_back(m);
    }
  }
  streams_matched_.fetch_add(result->matched.size(),
                             std::memory_order_relaxed);
  streams_pruned_.fetch_add(
      result->matched.size() - result->reconstructed.size(),
      std::memory_order_relaxed);
  streams_reconstructed_.fetch_add(result->reconstructed.size(),
                                   std::memory_order_relaxed);
  NYQMON_OBS_COUNT("nyqmon_query_streams_reconstructed_total",
                   result->reconstructed.size());
  clock.mark("prune");
  if (result->reconstructed.empty()) return result;

  // Snapshot-isolated read: capture the surviving streams' state (chunk
  // refs + hot-tail copies, briefly under each owning stripe's lock) into
  // one immutable handle. Reconstruction below never takes a stripe
  // lock — a slow query no longer blocks ingest, and ingest no longer
  // stretches the query tail (ROADMAP item 2's 1000x p50/p99 split).
  const mon::ReadSnapshot snap = store_.acquire_snapshot(result->reconstructed);
  clock.mark("snapshot");

  // Output grid timestamps, relative to t_begin (which is also where the
  // store's reconstruction grid is anchored).
  const std::size_t n_out = spec.grid_points();
  std::vector<double> rel_times(n_out);
  for (std::size_t i = 0; i < n_out; ++i)
    rel_times[i] = static_cast<double>(i) * spec.step_s;

  // Fan-out: each stream reconstructs into its pre-allocated slot; slot
  // order is the lexicographic stream order, so results are independent of
  // the worker count.
  std::vector<std::vector<double>> slots(result->reconstructed.size());
  parallel_claim(
      slots.size(), config_.workers, [&](std::size_t i) {
        auto base =
            snap.query(result->reconstructed[i], spec.t_begin, spec.t_end);
        if (base.empty()) {
          // The window is shorter than half this stream's collection
          // interval, so the store's grid rounds to zero points. Widen to
          // one collection interval: the single reconstructed point then
          // holds across the output grid (interp clamps to its support)
          // instead of fabricating zeros into aggregations.
          base = snap.query(
              result->reconstructed[i], spec.t_begin,
              spec.t_begin + 1.0 / kept_meta[i].collection_rate_hz);
        }
        slots[i] = base.empty()
                       ? std::vector<double>(n_out, 0.0)
                       : dsp::interp_linear(base.values(),
                                            base.sample_rate_hz(), rel_times);
        apply_transform(spec.transform, spec.step_s, slots[i]);
      });
  clock.mark("reconstruct");

  if (spec.aggregate == Aggregation::kNone) {
    result->series.reserve(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i)
      result->series.push_back(
          {result->reconstructed[i],
           sig::RegularSeries(spec.t_begin, spec.step_s,
                              std::move(slots[i]))});
    clock.mark("aggregate");
    return result;
  }

  // Cross-stream reduction per output timestamp, iterating streams in
  // lexicographic order (deterministic FP accumulation).
  std::vector<double> reduced(n_out, 0.0);
  std::vector<double> column(slots.size());
  for (std::size_t t = 0; t < n_out; ++t) {
    for (std::size_t i = 0; i < slots.size(); ++i) column[i] = slots[i][t];
    reduced[t] = aggregate_column(spec.aggregate, column);
  }
  result->series.push_back(
      {std::string(to_string(spec.aggregate)) + "(" + spec.selector + ")",
       sig::RegularSeries(spec.t_begin, spec.step_s, std::move(reduced))});
  clock.mark("aggregate");
  return result;
}

QueryEngineStats QueryEngine::stats() const {
  QueryEngineStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.streams_considered = streams_considered_.load(std::memory_order_relaxed);
  s.streams_matched = streams_matched_.load(std::memory_order_relaxed);
  s.streams_pruned = streams_pruned_.load(std::memory_order_relaxed);
  s.streams_reconstructed =
      streams_reconstructed_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  return s;
}

}  // namespace nyqmon::qry
