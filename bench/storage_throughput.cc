// Durable-tier throughput: WAL-logged ingest, flush (codec encode + fsync),
// and cold recovery, over a synthetic metric mix, plus the end-to-end
// compression ratio (Nyquist re-sampling x Gorilla-XOR value codec).
//
// Usage: bench_storage_throughput [streams] [samples_per_stream]
//        (defaults: 256 streams, 8192 samples each)
//
// The stream mix cycles four shapes with very different compressibility:
// a smooth oversampled sine, a quantized gauge, a bursty counter, and a
// near-constant health flag. Emits one BENCH_storage_throughput.json line
// (flush/recover MB/s measured against the raw f64 bytes represented).
// Exits non-zero if a recovered stream fails the bit-identity spot check.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "monitor/striped_store.h"
#include "storage/manager.h"
#include "util/rng.h"

using namespace nyqmon;
namespace fs = std::filesystem;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<double> make_stream_values(std::size_t shape, std::size_t n,
                                       Rng& rng) {
  std::vector<double> v(n);
  switch (shape % 4) {
    case 0:  // smooth oversampled sine + slow drift
      for (std::size_t i = 0; i < n; ++i)
        v[i] = 40.0 + 5.0 * std::sin(2.0 * M_PI * 0.002 * double(i)) +
               1e-4 * double(i);
      break;
    case 1:  // quantized gauge (finite resolution)
      for (std::size_t i = 0; i < n; ++i)
        v[i] = std::round(8.0 * (50.0 +
                                 20.0 * std::sin(2.0 * M_PI * 0.01 * double(i)) +
                                 rng.uniform(-1.0, 1.0))) /
               8.0;
      break;
    case 2:  // bursty counter: mostly zero, occasional spikes
      for (std::size_t i = 0; i < n; ++i)
        v[i] = rng.uniform(0.0, 1.0) < 0.02 ? rng.uniform(10.0, 500.0) : 0.0;
      break;
    default:  // near-constant health flag
      for (std::size_t i = 0; i < n; ++i)
        v[i] = rng.uniform(0.0, 1.0) < 0.001 ? 0.0 : 1.0;
      break;
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t streams =
      argc > 1 ? static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10))
               : 256;
  const std::size_t samples =
      argc > 2 ? static_cast<std::size_t>(std::strtoull(argv[2], nullptr, 10))
               : 8192;
  if (streams == 0 || samples == 0) {
    std::fprintf(stderr, "usage: %s [streams] [samples_per_stream]\n",
                 argv[0]);
    return 2;
  }

  const std::string dir =
      (fs::temp_directory_path() / "nyqmon_bench_storage").string();
  fs::remove_all(dir);

  mon::StoreConfig store_cfg;
  store_cfg.chunk_samples = 256;

  sto::StorageConfig storage_cfg;
  storage_cfg.dir = dir;
  storage_cfg.truncate_existing = true;
  storage_cfg.wal_sync_interval_batches = 64;

  const double raw_mb =
      8.0 * double(streams) * double(samples) / 1.0e6;
  std::printf("storage throughput: %zu streams x %zu samples (%.1f MB raw)\n",
              streams, samples, raw_mb);

  // ------------------------------------------------------- ingest + WAL --
  sto::StorageManager manager(storage_cfg);
  mon::StripedRetentionStore store(store_cfg);
  store.set_ingest_sink(&manager);
  Rng rng(bench::kFleetSeed);
  const double t_ingest = now_s();
  constexpr std::size_t kBatch = 512;
  for (std::size_t s = 0; s < streams; ++s) {
    char name[64];
    std::snprintf(name, sizeof(name), "dev%03zu/metric%zu", s, s % 4);
    store.create_stream(name, 1.0);
    const auto values = make_stream_values(s, samples, rng);
    for (std::size_t off = 0; off < values.size(); off += kBatch) {
      const std::size_t len = std::min(kBatch, values.size() - off);
      store.append_series(
          name, std::span<const double>(values.data() + off, len));
    }
  }
  manager.sync();
  const double ingest_s = now_s() - t_ingest;

  // --------------------------------------------------------------- flush --
  const sto::FlushStats flushed = manager.flush(store);
  const auto rollup = store.rollup();
  const auto disk = manager.stats();
  // Rate everything against the same denominator (raw f64 bytes the flush
  // represents — this single flush covers the whole run) so the three
  // headline MB/s figures are comparable.
  const double flush_mb_s =
      double(rollup.bytes_raw) / 1.0e6 / flushed.seconds;
  std::printf(
      "ingest+WAL: %.2fs (%.1f MB/s raw) | flush: %.3fs (%.1f MB/s raw) -> "
      "%.2f MB segment\n",
      ingest_s, raw_mb / ingest_s, flushed.seconds, flush_mb_s,
      double(flushed.bytes_written) / 1.0e6);
  std::printf(
      "compression: %.1f MB raw -> %.2f MB stored (%.2fx end-to-end: "
      "%.2fx Nyquist x codec)\n",
      double(rollup.bytes_raw) / 1.0e6, double(rollup.bytes_stored) / 1.0e6,
      rollup.compression_ratio(), rollup.sealed_reduction());

  // ------------------------------------------------------------- recover --
  sto::StorageConfig read_cfg;
  read_cfg.dir = dir;
  sto::StorageManager reopened(read_cfg);
  mon::StripedRetentionStore cold(store_cfg);
  const sto::RecoveryStats rec = reopened.recover(cold);
  const double recover_mb_s = double(rollup.bytes_raw) / 1.0e6 / rec.seconds;
  std::printf("recover: %.3fs (%.1f MB/s raw), %zu chunks, %zu streams\n",
              rec.seconds, recover_mb_s, rec.chunks, rec.streams);

  // Bit-identity spot check: a recovered stream must answer exactly like
  // the live one.
  const auto meta = store.find_meta("dev000/metric0").value();
  const auto live_q =
      store.acquire_snapshot().query("dev000/metric0", meta.t0, meta.t_end);
  const auto cold_q =
      cold.acquire_snapshot().query("dev000/metric0", meta.t0, meta.t_end);
  if (live_q.size() != cold_q.size() ||
      std::memcmp(live_q.values().data(), cold_q.values().data(),
                  8 * live_q.size()) != 0) {
    std::fprintf(stderr, "FAIL: recovered reconstruction differs\n");
    return 1;
  }

  std::string json = "{\"bench\":\"storage_throughput\"";
  bench::json_append(json, "\"streams\":%zu", streams);
  bench::json_append(json, "\"samples_per_stream\":%zu", samples);
  bench::json_append(json, "\"raw_mb\":%.2f", raw_mb);
  bench::json_append(json, "\"ingest_wal_mb_s\":%.2f", raw_mb / ingest_s);
  bench::json_append(json, "\"flush_mb_s\":%.2f", flush_mb_s);
  bench::json_append(json, "\"recover_mb_s\":%.2f", recover_mb_s);
  bench::json_append(json, "\"segment_mb\":%.3f",
                     double(disk.segment_bytes) / 1.0e6);
  bench::json_append(json, "\"compression_ratio\":%.3f",
                     rollup.compression_ratio());
  bench::json_append(json, "\"nyquist_reduction\":%.3f",
                     rollup.sealed_reduction());
  bench::json_append(json, "\"wal_records\":%llu",
                     static_cast<unsigned long long>(disk.wal_records));
  json += "}";
  bench::write_json_line("storage_throughput", json);

  fs::remove_all(dir);
  return 0;
}
