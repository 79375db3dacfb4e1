#include "monitor/striped_store.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/hash.h"

namespace nyqmon::mon {

namespace {

/// Every stripe acquisition funnels through here so lock contention —
/// ROADMAP item 1's prime suspect for the flat worker scaling — is
/// measurable without a profiler. The uncontended fast path is a try_lock
/// plus one counter bump; only a blocked acquisition pays for timestamps.
/// All three instruments register together on first use, so the exposition
/// shows zeroed contention series even on an uncontended run.
std::unique_lock<std::mutex> lock_stripe(std::mutex& mu) {
#if defined(NYQMON_OBS_NOOP)
  return std::unique_lock<std::mutex>(mu);
#else
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
#endif
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

}  // namespace

StripedRetentionStore::StripedRetentionStore(StoreConfig config,
                                             std::size_t stripes) {
  NYQMON_CHECK(stripes >= 1);
  stripes_.reserve(stripes);
  // All stripes share one epoch registry: acquire_snapshot() pins a single
  // epoch covering the whole store, and chunks evicted by any stripe defer
  // to the same live-snapshot set.
  for (std::size_t i = 0; i < stripes; ++i)
    stripes_.push_back(std::make_unique<Stripe>(config, epochs_));
}

StripedRetentionStore::Stripe& StripedRetentionStore::stripe_of(
    const std::string& name) {
  return *stripes_[fnv1a(name) % stripes_.size()];
}

const StripedRetentionStore::Stripe& StripedRetentionStore::stripe_of(
    const std::string& name) const {
  return *stripes_[fnv1a(name) % stripes_.size()];
}

void StripedRetentionStore::create_stream(const std::string& name,
                                          double collection_rate_hz,
                                          double t0) {
  Stripe& s = stripe_of(name);
  const auto lock = lock_stripe(s.mu);
  s.store.create_stream(name, collection_rate_hz, t0);
}

void StripedRetentionStore::append(const std::string& name, double value) {
  Stripe& s = stripe_of(name);
  const auto lock = lock_stripe(s.mu);
  s.store.append(name, value);
  // Each append advances the stream's generation, invalidating cached
  // query results that covered it — churn here is churn in the cache.
  NYQMON_OBS_COUNT("nyqmon_store_appends_total", 1);
  NYQMON_OBS_COUNT("nyqmon_store_generation_bumps_total", 1);
}

void StripedRetentionStore::append_series(const std::string& name,
                                          std::span<const double> values) {
  Stripe& s = stripe_of(name);
  const auto lock = lock_stripe(s.mu);
  s.store.append_series(name, values);
  NYQMON_OBS_COUNT("nyqmon_store_appends_total", 1);
  NYQMON_OBS_COUNT("nyqmon_store_generation_bumps_total", 1);
}

std::size_t StripedRetentionStore::create_or_append(
    const std::string& name, double collection_rate_hz, double t0,
    std::span<const double> values) {
  Stripe& s = stripe_of(name);
  const auto lock = lock_stripe(s.mu);
  if (!s.store.find_meta(name))
    s.store.create_stream(name, collection_rate_hz, t0);
  s.store.append_series(name, values);
  NYQMON_OBS_COUNT("nyqmon_store_appends_total", 1);
  NYQMON_OBS_COUNT("nyqmon_store_generation_bumps_total", 1);
  return s.store.find_meta(name)->ingested_samples;
}

StreamStats StripedRetentionStore::stats(const std::string& name) const {
  const Stripe& s = stripe_of(name);
  const auto lock = lock_stripe(s.mu);
  return s.store.stats(name);
}

std::optional<StreamMeta> StripedRetentionStore::find_meta(
    const std::string& name) const {
  const Stripe& s = stripe_of(name);
  const auto lock = lock_stripe(s.mu);
  return s.store.find_meta(name);
}

std::vector<std::pair<std::string, StreamMeta>>
StripedRetentionStore::list_meta() const {
  std::vector<std::pair<std::string, StreamMeta>> all;
  std::vector<std::size_t> bounds{0};
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    auto part = stripe->store.list_meta();
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
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
    const auto part = stripe->store.stream_names();
    names.insert(names.end(), part.begin(), part.end());
  }
  std::sort(names.begin(), names.end());
  return names;
}

StoreRollup StripedRetentionStore::rollup() const {
  StoreRollup total;
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    total += stripe->store.rollup();
  }
  return total;
}

Cost StripedRetentionStore::storage_cost() const {
  Cost total;
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    total += stripe->store.storage_cost();
  }
  return total;
}

const StoreConfig& StripedRetentionStore::config() const {
  return stripes_.front()->store.config();
}

void StripedRetentionStore::set_ingest_sink(IngestSink* sink) {
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    stripe->store.set_ingest_sink(sink);
  }
}

void StripedRetentionStore::restore_stream(StreamSnapshot snapshot) {
  Stripe& s = stripe_of(snapshot.name);
  const auto lock = lock_stripe(s.mu);
  s.store.restore_stream(std::move(snapshot));
}

ReadSnapshot StripedRetentionStore::acquire_snapshot() const {
  // Capture per stripe under its lock (brief: chunk refs + hot copies),
  // pin one epoch for the composed view. The merge keeps
  // ReadSnapshot::find's binary-search invariant.
  std::vector<StreamView> views;
  std::vector<std::size_t> bounds{0};
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    stripe->store.capture_all_views(views);
    bounds.push_back(views.size());
  }
  merge_stripe_runs(views, std::move(bounds),
                    [](const StreamView& a, const StreamView& b) {
                      return a.name < b.name;
                    });
  return ReadSnapshot(epochs_, epochs_->pin(), std::move(views));
}

ReadSnapshot StripedRetentionStore::acquire_snapshot(
    std::span<const std::string> names) const {
  // Group the names by owning stripe first so each stripe lock is taken
  // at most once (and untouched stripes not at all).
  std::vector<std::vector<const std::string*>> by_stripe(stripes_.size());
  for (const auto& name : names)
    by_stripe[fnv1a(name) % stripes_.size()].push_back(&name);
  std::vector<StreamView> views;
  views.reserve(names.size());
  for (std::size_t i = 0; i < stripes_.size(); ++i) {
    if (by_stripe[i].empty()) continue;
    const auto lock = lock_stripe(stripes_[i]->mu);
    for (const std::string* name : by_stripe[i]) {
      StreamView v;
      if (stripes_[i]->store.capture_stream_view(*name, v))
        views.push_back(std::move(v));
    }
  }
  std::sort(views.begin(), views.end(),
            [](const StreamView& a, const StreamView& b) {
              return a.name < b.name;
            });
  return ReadSnapshot(epochs_, epochs_->pin(), std::move(views));
}

std::size_t StripedRetentionStore::streams() const {
  std::size_t n = 0;
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    n += stripe->store.streams();
  }
  return n;
}

}  // namespace nyqmon::mon
