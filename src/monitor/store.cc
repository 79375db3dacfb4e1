#include "monitor/store.h"

#include <algorithm>
#include <cmath>

#include "dsp/resample.h"
#include "obs/metrics.h"
#include "storage/codec.h"
#include "util/check.h"

namespace nyqmon::mon {

RetentionStore::RetentionStore(StoreConfig config,
                               std::shared_ptr<EpochRegistry> epochs)
    : config_(config), epochs_(std::move(epochs)) {
  NYQMON_CHECK(config_.chunk_samples >= 32);
  NYQMON_CHECK(config_.headroom >= 1.0);
}

void RetentionStore::create_stream(const std::string& name,
                                   double collection_rate_hz, double t0) {
  NYQMON_CHECK_MSG(collection_rate_hz > 0.0,
                   "stream creation needs a positive rate: " + name);
  NYQMON_CHECK_MSG(streams_.find(name) == streams_.end(),
                   "stream already exists: " + name);
  if (sink_ != nullptr) sink_->on_create_stream(name, collection_rate_hz, t0);
  Stream s;
  s.collection_rate_hz = collection_rate_hz;
  s.t0 = t0;
  s.hot_t0 = t0;
  streams_.emplace(name, std::move(s));
}

void RetentionStore::append(const std::string& name, double value) {
  append_series(name, std::span<const double>(&value, 1));
}

void RetentionStore::append_series(const std::string& name,
                                   std::span<const double> values) {
  const auto it = streams_.find(name);
  NYQMON_CHECK_MSG(it != streams_.end(), "unknown stream: " + name);
  Stream& s = it->second;
  if (values.empty()) return;
  // Write-ahead: the sink logs the batch before any in-memory mutation, so
  // a crash mid-batch replays to a state at or before this append.
  if (sink_ != nullptr) sink_->on_append(name, values);
  ++s.generation;
  for (const double value : values) {
    s.hot.push_back(value);
    ++s.ingested;
    ++s.stats.ingested_samples;
    s.stats.bytes_raw += sizeof(double);
    s.stats.bytes_stored += sizeof(double);  // tail held raw until sealed
    if (s.hot.size() >= config_.chunk_samples) seal_chunk(s);
  }
}

void RetentionStore::seal_chunk(Stream& s) {
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

  // Retention cap: evict the oldest sealed chunks from memory, parking
  // them in the epoch registry so a live snapshot acquired before this
  // seal can still read through its captured references. The eviction is
  // memory-side only — the chunk stays durable in flushed segments and
  // stats keep their cumulative view.
  if (config_.max_chunks_per_stream > 0) {
    while (s.chunks.size() > config_.max_chunks_per_stream) {
      epochs_->retire(std::move(s.chunks.front()));
      s.chunks.erase(s.chunks.begin());
      ++s.chunks_trimmed;
      NYQMON_OBS_COUNT("nyqmon_store_chunks_trimmed_total", 1);
    }
  }
}

StreamStats RetentionStore::stats(const std::string& name) const {
  const auto it = streams_.find(name);
  NYQMON_CHECK_MSG(it != streams_.end(), "unknown stream: " + name);
  return it->second.stats;
}

namespace {

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

}  // namespace

std::optional<StreamMeta> RetentionStore::find_meta(
    const std::string& name) const {
  const auto it = streams_.find(name);
  if (it == streams_.end()) return std::nullopt;
  const Stream& s = it->second;
  return make_meta(s.collection_rate_hz, s.t0, s.ingested, s.generation);
}

std::vector<std::pair<std::string, StreamMeta>> RetentionStore::list_meta()
    const {
  std::vector<std::pair<std::string, StreamMeta>> out;
  out.reserve(streams_.size());
  for (const auto& [name, s] : streams_)
    out.emplace_back(
        name, make_meta(s.collection_rate_hz, s.t0, s.ingested, s.generation));
  return out;
}

StoreRollup& StoreRollup::operator+=(const StoreRollup& other) {
  streams += other.streams;
  ingested_samples += other.ingested_samples;
  sealed_ingested_samples += other.sealed_ingested_samples;
  stored_samples += other.stored_samples;
  chunks += other.chunks;
  chunks_reduced += other.chunks_reduced;
  bytes_raw += other.bytes_raw;
  bytes_stored += other.bytes_stored;
  return *this;
}

void RetentionStore::restore_stream(StreamSnapshot snapshot) {
  NYQMON_CHECK(snapshot.collection_rate_hz > 0.0);
  NYQMON_CHECK_MSG(snapshot.chunks_before == 0,
                   "restore needs a full snapshot: " + snapshot.name);
  NYQMON_CHECK_MSG(streams_.find(snapshot.name) == streams_.end(),
                   "stream already exists: " + snapshot.name);
  Stream s;
  s.collection_rate_hz = snapshot.collection_rate_hz;
  s.t0 = snapshot.t0;
  s.hot_t0 = snapshot.hot_t0;
  s.ingested = snapshot.stats.ingested_samples;
  s.hot = std::move(snapshot.hot);
  s.chunks.reserve(snapshot.chunks.size());
  for (auto& c : snapshot.chunks)
    s.chunks.push_back(std::make_shared<const SealedChunk>(
        SealedChunk{c.t0, c.dt, std::move(c.values)}));
  s.stats = snapshot.stats;
  s.generation = snapshot.generation;
  streams_.emplace(std::move(snapshot.name), std::move(s));
}

std::vector<std::string> RetentionStore::stream_names() const {
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const auto& [name, s] : streams_) names.push_back(name);
  return names;
}

StoreRollup RetentionStore::rollup() const {
  StoreRollup total;
  total.streams = streams_.size();
  for (const auto& [name, s] : streams_) {
    total.ingested_samples += s.stats.ingested_samples;
    total.sealed_ingested_samples += s.stats.sealed_ingested_samples;
    total.stored_samples += s.stats.stored_samples;
    total.chunks += s.stats.chunks;
    total.chunks_reduced += s.stats.chunks_reduced;
    total.bytes_raw += s.stats.bytes_raw;
    total.bytes_stored += s.stats.bytes_stored;
  }
  return total;
}

Cost RetentionStore::storage_cost() const {
  std::size_t samples = 0;
  for (const auto& [name, s] : streams_) {
    samples += s.hot.size();
    for (const auto& chunk : s.chunks) samples += chunk->values.size();
  }
  return cost_of_samples(samples, config_.cost);
}

StreamView RetentionStore::make_view(const std::string& name,
                                     const Stream& s) const {
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

bool RetentionStore::capture_stream_view(const std::string& name,
                                         StreamView& out) const {
  const auto it = streams_.find(name);
  if (it == streams_.end()) return false;
  out = make_view(it->first, it->second);
  return true;
}

void RetentionStore::capture_all_views(std::vector<StreamView>& out) const {
  out.reserve(out.size() + streams_.size());
  for (const auto& [name, s] : streams_) out.push_back(make_view(name, s));
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
    snap.chunks.push_back(
        {v->chunks[i]->t0, v->chunks[i]->dt, v->chunks[i]->values});
  snap.hot = v->hot;
  snap.stats = v->stats;
  return snap;
}

void ReadSnapshot::release() {
  if (registry_) {
    registry_->release(epoch_);
    registry_.reset();
  }
  views_.clear();
  views_.shrink_to_fit();
}

}  // namespace nyqmon::mon
