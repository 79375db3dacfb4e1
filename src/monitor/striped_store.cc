#include "monitor/striped_store.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "dsp/resample.h"
#include "obs/metrics.h"
#include "storage/codec.h"
#include "util/check.h"
#include "util/hash.h"

namespace nyqmon::mon {

namespace {

/// Every stripe acquisition funnels through here so lock contention is
/// measurable without a profiler. The uncontended fast path is a try_lock
/// plus one counter bump; only a blocked acquisition pays for timestamps.
/// All three instruments register together on first use, so the exposition
/// shows zeroed contention series even on an uncontended run.
std::unique_lock<std::mutex> lock_stripe(std::mutex& mu) {
  static obs::Counter& acquisitions = obs::Registry::instance().counter(
      "nyqmon_store_lock_acquisitions_total");
  static obs::Counter& contended =
      obs::Registry::instance().counter("nyqmon_store_lock_contended_total");
  static obs::Histogram& wait =
      obs::Registry::instance().histogram("nyqmon_store_lock_wait_ns");
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  acquisitions.add(1);
  if (!lock.owns_lock()) {
    contended.add(1);
    const auto t0 = std::chrono::steady_clock::now();
    lock.lock();
    wait.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  return lock;
}

/// Merge `all`, a concatenation of name-sorted per-stripe runs ending at
/// `bounds` (bounds[0] == 0), into one name-sorted sequence. Cascading
/// inplace_merge over the run boundaries costs O(n log stripes) instead of
/// a re-sort from scratch; list_meta() runs this once per query.
template <typename T, typename Less>
void merge_stripe_runs(std::vector<T>& all, std::vector<std::size_t> bounds,
                       Less less) {
  while (bounds.size() > 2) {
    std::vector<std::size_t> next{0};
    for (std::size_t i = 2; i < bounds.size(); i += 2) {
      std::inplace_merge(all.begin() + bounds[i - 2],
                         all.begin() + bounds[i - 1], all.begin() + bounds[i],
                         less);
      next.push_back(bounds[i]);
    }
    if (bounds.size() % 2 == 0) next.push_back(bounds.back());
    bounds = std::move(next);
  }
}

StreamMeta make_meta(double rate_hz, double t0, std::size_t ingested,
                     std::uint64_t generation) {
  StreamMeta m;
  m.collection_rate_hz = rate_hz;
  m.t0 = t0;
  m.t_end = t0 + static_cast<double>(ingested) / rate_hz;
  m.generation = generation;
  m.ingested_samples = ingested;
  return m;
}

/// The collection rates a stream may have: one value per ~32 years to one
/// per microsecond. At the low end, t0 + ingested / rate stays within
/// 2e28 s of a finite t0 for any 64-bit count, so no time derived from it
/// (hot_t0, a chunk's t0, t_end) overflows. At the high end, seal_chunk's
/// chunk_samples * rate stays finite, and the 1e-9 s slack with which
/// reads place values on the grid stays under a thousandth of a step.
constexpr double kMinCollectionRateHz = 1e-9;
constexpr double kMaxCollectionRateHz = 1e6;

/// Why a stream on the collection grid (`rate_hz`, `t0`) cannot be held,
/// or nullptr. Creation and restore both ask, so the store never holds a
/// stream that a restore of its own checkpoint would refuse.
const char* bad_grid(double rate_hz, double t0) {
  if (!(rate_hz >= kMinCollectionRateHz && rate_hz <= kMaxCollectionRateHz))
    return "needs a positive rate from 1e-9 to 1e6 Hz";
  if (!std::isfinite(t0)) return "needs a finite t0";
  return nullptr;
}

/// Why `snap` cannot be a stream of a store that seals every
/// `chunk_samples` values, or nullptr. seal_chunk() writes chunk_samples
/// values on the raw grid, or fewer re-sampled ones spanning the same
/// points, and leaves the hot tail shorter than a chunk. Reads re-sample a
/// chunk onto every grid point it spans, so a chunk spanning more would
/// make each query of its stream pay for that span.
const char* unsealable(const StreamSnapshot& snap, std::size_t chunk_samples) {
  if (const char* why = bad_grid(snap.collection_rate_hz, snap.t0))
    return why;
  if (!std::isfinite(snap.hot_t0)) return "needs a finite hot_t0";
  if (snap.hot.size() >= chunk_samples)
    return "needs a hot tail shorter than chunk_samples";
  for (const SealedChunk& c : snap.chunks) {
    if (!std::isfinite(c.t0) || !std::isfinite(c.dt) || c.dt <= 0.0)
      return "needs chunks with a finite t0 and a finite dt > 0";
    if (c.values.empty() || c.values.size() > chunk_samples)
      return "needs chunks of 1 to chunk_samples values";
    if (std::round(static_cast<double>(c.values.size()) * c.dt *
                   snap.collection_rate_hz) >
        static_cast<double>(chunk_samples))
      return "needs chunks spanning at most chunk_samples grid points";
  }
  return nullptr;
}

}  // namespace

StripedRetentionStore::StripedRetentionStore(StoreConfig config,
                                             std::size_t stripes)
    : config_(std::move(config)) {
  NYQMON_CHECK(config_.chunk_samples >= 32);
  NYQMON_CHECK(config_.headroom >= 1.0);
  NYQMON_CHECK(stripes >= 1);
  stripes_.reserve(stripes);
  for (std::size_t i = 0; i < stripes; ++i)
    stripes_.push_back(std::make_unique<Stripe>());
}

std::size_t StripedRetentionStore::stripe_index(
    const std::string& name) const {
  return fnv1a(name) % stripes_.size();
}

// ---- stream logic (stripe lock held) ----

StripedRetentionStore::StreamMap::iterator
StripedRetentionStore::create_locked(Stripe& stripe, const std::string& name,
                                     double collection_rate_hz, double t0) {
  const char* why = bad_grid(collection_rate_hz, t0);
  NYQMON_CHECK_MSG(why == nullptr,
                   "stream creation refused, stream " + name + ": " + why);
  NYQMON_CHECK_MSG(stripe.streams.find(name) == stripe.streams.end(),
                   "stream already exists: " + name);
  if (stripe.sink != nullptr)
    stripe.sink->on_create_stream(name, collection_rate_hz, t0);
  Stream s;
  s.collection_rate_hz = collection_rate_hz;
  s.t0 = t0;
  s.hot_t0 = t0;
  return stripe.streams.emplace(name, std::move(s)).first;
}

void StripedRetentionStore::append_locked(Stripe& stripe,
                                          StreamMap::iterator it,
                                          std::span<const double> values) {
  if (values.empty()) return;
  // Write-ahead: the sink logs the batch before any in-memory mutation, so
  // a crash mid-batch replays to a state at or before this append.
  if (stripe.sink != nullptr) stripe.sink->on_append(it->first, values);
  Stream& s = it->second;
  // Each non-empty batch advances the stream's generation, invalidating
  // cached query results that covered it — churn here is churn in the cache.
  ++s.generation;
  NYQMON_OBS_COUNT("nyqmon_store_appends_total", 1);
  NYQMON_OBS_COUNT("nyqmon_store_generation_bumps_total", 1);
  for (const double value : values) {
    s.hot.push_back(value);
    ++s.ingested;
    ++s.stats.ingested_samples;
    s.stats.bytes_raw += sizeof(double);
    s.stats.bytes_stored += sizeof(double);  // tail held raw until sealed
    if (s.hot.size() >= config_.chunk_samples) seal_chunk(s);
  }
}

void StripedRetentionStore::seal_chunk(Stream& s) {
  NYQMON_ENSURE(!s.hot.empty());
  const double raw_dt = 1.0 / s.collection_rate_hz;

  SealedChunk chunk;
  chunk.t0 = s.hot_t0;
  chunk.dt = raw_dt;
  chunk.values = s.hot;

  // A-posteriori re-sampling: estimate the chunk's Nyquist rate and keep
  // only headroom * that rate when it undercuts the collection rate.
  const nyq::NyquistEstimator estimator(config_.estimator);
  const auto est = estimator.estimate(s.hot, s.collection_rate_hz);
  if (est.ok()) {
    const double keep_rate =
        std::min(s.collection_rate_hz, config_.headroom * est.nyquist_rate_hz);
    const auto n_keep = static_cast<std::size_t>(std::max(
        2.0, std::ceil(static_cast<double>(s.hot.size()) * keep_rate /
                       s.collection_rate_hz)));
    if (n_keep < s.hot.size()) {
      chunk.values = dsp::resample_fourier(s.hot, n_keep);
      chunk.dt = raw_dt * static_cast<double>(s.hot.size()) /
                 static_cast<double>(n_keep);
      ++s.stats.chunks_reduced;
    }
  }

  // Byte accounting: the sealed samples leave the raw tail tier and land on
  // disk (at flush) codec-encoded plus fixed per-chunk framing.
  s.stats.bytes_stored -= sizeof(double) * s.hot.size();
  s.stats.bytes_stored +=
      sto::xor_encoded_size(chunk.values) + sto::kChunkDiskOverheadBytes;

  s.stats.sealed_ingested_samples += s.hot.size();
  s.stats.stored_samples += chunk.values.size();
  ++s.stats.chunks;
  s.hot_t0 += raw_dt * static_cast<double>(s.hot.size());
  s.hot.clear();
  s.chunks.push_back(std::make_shared<const SealedChunk>(std::move(chunk)));

  // Retention cap: drop the store's reference to the oldest sealed
  // chunks. A live snapshot that captured one keeps reading it through its
  // own reference, and the last such snapshot frees it. The eviction is
  // memory-side only — the chunk stays durable in flushed segments and
  // stats keep their cumulative view.
  if (config_.max_chunks_per_stream > 0) {
    while (s.chunks.size() > config_.max_chunks_per_stream) {
      s.chunks.erase(s.chunks.begin());
      ++s.chunks_trimmed;
      NYQMON_OBS_COUNT("nyqmon_store_chunks_trimmed_total", 1);
    }
  }
}

StreamView StripedRetentionStore::view_of(const std::string& name,
                                          const Stream& s) {
  StreamView v;
  v.name = name;
  v.collection_rate_hz = s.collection_rate_hz;
  v.t0 = s.t0;
  v.hot_t0 = s.hot_t0;
  v.generation = s.generation;
  v.ingested = s.ingested;
  v.chunks_trimmed = s.chunks_trimmed;
  v.chunks = s.chunks;  // shared refs — the cheap part of the capture
  v.hot = s.hot;        // copied — the tail keeps mutating under ingest
  v.stats = s.stats;
  return v;
}

// ---- public API ----

void StripedRetentionStore::create_stream(const std::string& name,
                                          double collection_rate_hz,
                                          double t0) {
  Stripe& stripe = stripe_of(name);
  const auto lock = lock_stripe(stripe.mu);
  create_locked(stripe, name, collection_rate_hz, t0);
}

void StripedRetentionStore::append_series(const std::string& name,
                                          std::span<const double> values) {
  Stripe& stripe = stripe_of(name);
  const auto lock = lock_stripe(stripe.mu);
  const auto it = stripe.streams.find(name);
  NYQMON_CHECK_MSG(it != stripe.streams.end(), "unknown stream: " + name);
  append_locked(stripe, it, values);
}

std::size_t StripedRetentionStore::create_or_append(
    const std::string& name, double collection_rate_hz, double t0,
    std::span<const double> values) {
  Stripe& stripe = stripe_of(name);
  const auto lock = lock_stripe(stripe.mu);
  auto it = stripe.streams.find(name);
  if (it == stripe.streams.end())
    it = create_locked(stripe, name, collection_rate_hz, t0);
  append_locked(stripe, it, values);
  return it->second.ingested;
}

StreamStats StripedRetentionStore::stats(const std::string& name) const {
  const Stripe& stripe = stripe_of(name);
  const auto lock = lock_stripe(stripe.mu);
  const auto it = stripe.streams.find(name);
  NYQMON_CHECK_MSG(it != stripe.streams.end(), "unknown stream: " + name);
  return it->second.stats;
}

std::optional<StreamMeta> StripedRetentionStore::find_meta(
    const std::string& name) const {
  const Stripe& stripe = stripe_of(name);
  const auto lock = lock_stripe(stripe.mu);
  const auto it = stripe.streams.find(name);
  if (it == stripe.streams.end()) return std::nullopt;
  const Stream& s = it->second;
  return make_meta(s.collection_rate_hz, s.t0, s.ingested, s.generation);
}

std::vector<std::pair<std::string, StreamMeta>>
StripedRetentionStore::list_meta() const {
  std::vector<std::pair<std::string, StreamMeta>> all;
  std::vector<std::size_t> bounds{0};
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    for (const auto& [name, s] : stripe->streams)
      all.emplace_back(name, make_meta(s.collection_rate_hz, s.t0, s.ingested,
                                       s.generation));
    bounds.push_back(all.size());
  }
  merge_stripe_runs(all, std::move(bounds), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return all;
}

std::vector<std::string> StripedRetentionStore::stream_names() const {
  std::vector<std::string> names;
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    for (const auto& [name, s] : stripe->streams) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

StoreRollup StripedRetentionStore::rollup() const {
  StoreRollup total;
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    total.streams += stripe->streams.size();
    for (const auto& [name, s] : stripe->streams) {
      total.ingested_samples += s.stats.ingested_samples;
      total.sealed_ingested_samples += s.stats.sealed_ingested_samples;
      total.stored_samples += s.stats.stored_samples;
      total.chunks += s.stats.chunks;
      total.chunks_reduced += s.stats.chunks_reduced;
      total.bytes_raw += s.stats.bytes_raw;
      total.bytes_stored += s.stats.bytes_stored;
    }
  }
  return total;
}

std::size_t StripedRetentionStore::streams() const {
  std::size_t n = 0;
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    n += stripe->streams.size();
  }
  return n;
}

void StripedRetentionStore::set_ingest_sink(IngestSink* sink) {
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    stripe->sink = sink;
  }
}

std::vector<std::string> StripedRetentionStore::restore_streams(
    std::map<std::string, StreamSnapshot> snapshots) {
  // Hold every owning stripe's lock across the existence check and the
  // restore, so a concurrent first ingest of one of the names lands either
  // before the check (and the whole restore is refused) or after the
  // restore (and appends to the restored stream). Ascending index order;
  // no other path holds two stripe locks at once.
  std::vector<bool> owns(stripes_.size(), false);
  for (const auto& [name, snap] : snapshots) {
    NYQMON_CHECK_MSG(snap.chunks_before == 0,
                     "restore needs a full snapshot: " + name);
    const char* why = unsealable(snap, config_.chunk_samples);
    NYQMON_CHECK_MSG(why == nullptr,
                     "restore refused, stream " + name + ": " + why);
    owns[stripe_index(name)] = true;
  }
  std::vector<std::unique_lock<std::mutex>> locks;
  for (std::size_t i = 0; i < stripes_.size(); ++i)
    if (owns[i]) locks.push_back(lock_stripe(stripes_[i]->mu));

  std::vector<std::string> existing;
  for (const auto& [name, snap] : snapshots)
    if (stripe_of(name).streams.count(name) != 0) existing.push_back(name);
  if (!existing.empty()) return existing;

  for (auto& [name, snap] : snapshots) {
    Stream s;
    s.collection_rate_hz = snap.collection_rate_hz;
    s.t0 = snap.t0;
    s.hot_t0 = snap.hot_t0;
    s.ingested = snap.stats.ingested_samples;
    s.hot = std::move(snap.hot);
    s.chunks.reserve(snap.chunks.size());
    for (auto& c : snap.chunks)
      s.chunks.push_back(std::make_shared<const SealedChunk>(std::move(c)));
    s.stats = snap.stats;
    s.generation = snap.generation;
    stripe_of(name).streams.emplace(name, std::move(s));
  }
  return {};
}

ReadSnapshot StripedRetentionStore::acquire_snapshot() const {
  // Capture per stripe under its lock (brief: chunk refs + hot copies).
  // The merge keeps ReadSnapshot::find's binary-search invariant.
  std::vector<StreamView> views;
  std::vector<std::size_t> bounds{0};
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    for (const auto& [name, s] : stripe->streams)
      views.push_back(view_of(name, s));
    bounds.push_back(views.size());
  }
  merge_stripe_runs(views, std::move(bounds),
                    [](const StreamView& a, const StreamView& b) {
                      return a.name < b.name;
                    });
  return ReadSnapshot(std::move(views));
}

ReadSnapshot StripedRetentionStore::acquire_snapshot(
    std::span<const std::string> names) const {
  // Group the names by owning stripe first so each stripe lock is taken
  // at most once (and untouched stripes not at all).
  std::vector<std::vector<const std::string*>> by_stripe(stripes_.size());
  for (const auto& name : names) by_stripe[stripe_index(name)].push_back(&name);
  std::vector<StreamView> views;
  views.reserve(names.size());
  for (std::size_t i = 0; i < stripes_.size(); ++i) {
    if (by_stripe[i].empty()) continue;
    const Stripe& stripe = *stripes_[i];
    const auto lock = lock_stripe(stripe.mu);
    for (const std::string* name : by_stripe[i]) {
      const auto it = stripe.streams.find(*name);
      if (it != stripe.streams.end())
        views.push_back(view_of(it->first, it->second));
    }
  }
  std::sort(views.begin(), views.end(),
            [](const StreamView& a, const StreamView& b) {
              return a.name < b.name;
            });
  return ReadSnapshot(std::move(views));
}

// ---- ReadSnapshot ----

const StreamView* ReadSnapshot::find(const std::string& name) const {
  const auto it = std::lower_bound(
      views_.begin(), views_.end(), name,
      [](const StreamView& v, const std::string& n) { return v.name < n; });
  if (it == views_.end() || it->name != name) return nullptr;
  return &*it;
}

std::vector<std::string> ReadSnapshot::stream_names() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& v : views_) names.push_back(v.name);
  return names;
}

std::optional<StreamMeta> ReadSnapshot::find_meta(
    const std::string& name) const {
  const StreamView* v = find(name);
  if (v == nullptr) return std::nullopt;
  return make_meta(v->collection_rate_hz, v->t0, v->ingested, v->generation);
}

sig::RegularSeries ReadSnapshot::query(const std::string& name,
                                       double t_begin, double t_end) const {
  const StreamView* v = find(name);
  NYQMON_CHECK_MSG(v != nullptr, "unknown stream: " + name);
  return reconstruct_range(v->collection_rate_hz, v->chunks, v->hot,
                           v->hot_t0, t_begin, t_end);
}

StreamSnapshot ReadSnapshot::export_stream(const std::string& name,
                                           std::size_t skip_chunks) const {
  const StreamView* v = find(name);
  NYQMON_CHECK_MSG(v != nullptr, "unknown stream: " + name);
  // Skip counts are absolute sealed-chunk indexes, so an eviction-trimmed
  // prefix only needs the skip to cover it (evicted chunks are already
  // durable in earlier segments by the time the cap may evict them).
  NYQMON_CHECK_MSG(skip_chunks >= v->chunks_trimmed,
                   "snapshot skip below evicted prefix: " + name);
  NYQMON_CHECK(skip_chunks <= v->chunks_trimmed + v->chunks.size());
  StreamSnapshot snap;
  snap.name = v->name;
  snap.collection_rate_hz = v->collection_rate_hz;
  snap.t0 = v->t0;
  snap.hot_t0 = v->hot_t0;
  snap.generation = v->generation;
  snap.chunks_before = skip_chunks;
  snap.chunks.reserve(v->chunks_trimmed + v->chunks.size() - skip_chunks);
  for (std::size_t i = skip_chunks - v->chunks_trimmed; i < v->chunks.size();
       ++i)
    snap.chunks.push_back(*v->chunks[i]);
  snap.hot = v->hot;
  snap.stats = v->stats;
  return snap;
}

}  // namespace nyqmon::mon
