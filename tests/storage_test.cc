// Durable tier (src/storage/): codec bit-exactness, WAL replay under torn
// writes, segment CRC corruption handling, flush -> reopen round trips
// (bit-identical reconstruction, monotonic generations), compaction, and
// the 500-pair engine-level cold-start equivalence.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "monitor/store.h"
#include "monitor/striped_store.h"
#include "query/builder.h"
#include "query/engine.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "signal/generators.h"
#include "storage/codec.h"
#include "storage/crc32.h"
#include "storage/manager.h"
#include "storage/segment.h"
#include "storage/wal.h"
#include "telemetry/fleet.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;
using namespace nyqmon;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

/// Fresh per-test scratch directory, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::temp_directory_path() / ("nyqmon_storage_test_" + name))
                 .string()) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

std::vector<double> noisy_sine(std::size_t n, double freq, Rng& rng) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(2.0 * M_PI * freq * static_cast<double>(i)) +
           0.05 * rng.uniform(-1.0, 1.0);
  return v;
}

// ------------------------------------------------------------------ codec --

TEST(Crc32, KnownAnswer) {
  const std::string s = "123456789";
  EXPECT_EQ(sto::crc32(std::span(
                reinterpret_cast<const std::uint8_t*>(s.data()), s.size())),
            0xCBF43926u);
  EXPECT_EQ(sto::crc32({}), 0u);
}

TEST(XorCodec, RoundTripIsBitExact) {
  Rng rng(7);
  std::vector<std::vector<double>> cases;
  cases.push_back({});
  cases.push_back({42.0});
  cases.push_back(std::vector<double>(100, 3.14159));
  cases.push_back(noisy_sine(777, 0.013, rng));
  std::vector<double> specials = {0.0,
                                  -0.0,
                                  1.0,
                                  -1.0,
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::denorm_min(),
                                  std::numeric_limits<double>::max(),
                                  std::numeric_limits<double>::epsilon()};
  cases.push_back(specials);
  std::vector<double> ramp(513);
  for (std::size_t i = 0; i < ramp.size(); ++i)
    ramp[i] = static_cast<double>(i) * 0.1;
  cases.push_back(ramp);
  std::vector<double> random(1000);
  for (auto& v : random) v = rng.uniform(-1e12, 1e12);
  cases.push_back(random);

  for (const auto& values : cases) {
    const auto bytes = sto::xor_encode(values);
    EXPECT_EQ(bytes.size(), sto::xor_encoded_size(values));
    const auto decoded = sto::xor_decode(bytes, values.size());
    ASSERT_EQ(decoded.size(), values.size());
    EXPECT_TRUE(same_bits(values, decoded));
  }
}

TEST(XorCodec, ConstantAndSmoothSeriesCompress) {
  const std::vector<double> constant(4096, 21.5);
  const auto const_bytes = sto::xor_encoded_size(constant);
  // One full value + ~1 bit per repeat.
  EXPECT_LT(const_bytes, 8 + 4096 / 8 + 16);

  // Quantized telemetry (finite-resolution counters/gauges) shares trailing
  // zero bits between neighbours — the codec's sweet spot. Full-entropy
  // noise mantissas, by contrast, stay near 8 B/sample.
  std::vector<double> quantized(4096);
  for (std::size_t i = 0; i < quantized.size(); ++i)
    quantized[i] = std::round(64.0 * std::sin(2.0 * M_PI * 0.004 *
                                              static_cast<double>(i))) /
                   64.0;
  EXPECT_LT(sto::xor_encoded_size(quantized), 4 * quantized.size());
}

TEST(XorCodec, DecodeOfTruncatedStreamThrows) {
  const std::vector<double> values(64, 1.25);
  auto bytes = sto::xor_encode(values);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(sto::xor_decode(bytes, values.size()), std::runtime_error);

  // A count far beyond what the bytes can hold (a corrupt u32 count field,
  // or any size_t) fails the same way, without first reserving for it.
  const auto full = sto::xor_encode(values);
  EXPECT_THROW(sto::xor_decode(full, 0xffffffffu), std::runtime_error);
  EXPECT_THROW(
      sto::xor_decode(full, std::numeric_limits<std::size_t>::max()),
      std::runtime_error);
}

// -------------------------------------------------------------------- WAL --

TEST(Wal, AppendReplayRoundTrip) {
  TempDir dir("wal_roundtrip");
  fs::create_directories(dir.path);
  const std::string path = dir.path + "/wal-000001.log";
  sto::WriteAheadLog::create(path);
  {
    sto::WriteAheadLog wal(path, 1);
    wal.append_create("a/x", 2.0, 0.5);
    wal.append_batch("a/x", std::vector<double>{1.0, 2.0, 3.0});
    wal.append_batch("a/x", std::vector<double>{4.0});
    wal.sync();
  }
  std::vector<sto::WalRecord> seen;
  const auto stats = sto::WriteAheadLog::replay(
      path, [&](const sto::WalRecord& r) { seen.push_back(r); });
  EXPECT_EQ(stats.records_replayed, 3u);
  EXPECT_EQ(stats.records_truncated, 0u);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].type, sto::WalRecord::Type::kCreate);
  EXPECT_EQ(seen[0].stream, "a/x");
  EXPECT_EQ(seen[0].collection_rate_hz, 2.0);
  EXPECT_EQ(seen[0].t0, 0.5);
  EXPECT_EQ(seen[1].values, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(seen[2].values, (std::vector<double>{4.0}));
}

TEST(Wal, TruncatedTailDropsOnlyLastRecordAndStaysAppendable) {
  TempDir dir("wal_torn");
  fs::create_directories(dir.path);
  const std::string path = dir.path + "/wal-000001.log";
  sto::WriteAheadLog::create(path);
  {
    sto::WriteAheadLog wal(path, 1);
    wal.append_batch("s", std::vector<double>{1.0, 2.0});
    wal.append_batch("s", std::vector<double>{3.0, 4.0});
  }
  // Tear the last record's tail off (a crash mid-write).
  const auto full = fs::file_size(path);
  sto::truncate_file(path, full - 5);

  std::size_t batches = 0;
  auto stats = sto::WriteAheadLog::replay(
      path, [&](const sto::WalRecord&) { ++batches; });
  EXPECT_EQ(batches, 1u);
  EXPECT_EQ(stats.records_replayed, 1u);
  EXPECT_EQ(stats.records_truncated, 1u);

  // Replay truncated the torn tail: the log keeps appending cleanly.
  {
    sto::WriteAheadLog wal(path, 1);
    wal.append_batch("s", std::vector<double>{5.0});
  }
  std::vector<sto::WalRecord> seen;
  stats = sto::WriteAheadLog::replay(
      path, [&](const sto::WalRecord& r) { seen.push_back(r); });
  EXPECT_EQ(stats.records_truncated, 0u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].values, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(seen[1].values, (std::vector<double>{5.0}));
}

// An append record copies its f64 run whole; its bytes stay the per-value
// little-endian encoding kept here, and replay returns every value's bits,
// −0.0, a NaN payload, denormals and ±inf included.
TEST(Wal, AppendRecordKeepsPerValueBytes) {
  TempDir dir("wal_bytes");
  fs::create_directories(dir.path);
  const std::string path = dir.path + "/wal-000001.log";
  const std::vector<double> values = {
      1.5,
      -0.0,
      std::bit_cast<double>(std::uint64_t{0x7ff80000deadbeefull}),
      std::numeric_limits<double>::denorm_min(),
      4.9e-310,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -1e300};
  sto::WriteAheadLog::create(path);
  {
    sto::WriteAheadLog wal(path, 1);
    wal.append_batch("s/odd", values);
  }

  std::vector<std::uint8_t> payload;
  sto::put_string(payload, "s/odd");
  sto::put_u32(payload, static_cast<std::uint32_t>(values.size()));
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int shift = 0; shift < 64; shift += 8)
      payload.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  std::vector<std::uint8_t> want(std::begin(sto::kWalMagic),
                                 std::end(sto::kWalMagic));
  sto::put_u8(want, 2);  // append record
  sto::put_u32(want, static_cast<std::uint32_t>(payload.size()));
  sto::put_u32(want, sto::crc32(payload));
  sto::put_bytes(want, payload);
  EXPECT_EQ(sto::read_file(path), want);

  std::vector<sto::WalRecord> seen;
  auto stats = sto::WriteAheadLog::replay(
      path, [&](const sto::WalRecord& r) { seen.push_back(r); });
  EXPECT_EQ(stats.records_truncated, 0u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_TRUE(same_bits(seen[0].values, values));

  // The same record, CRC-valid, declaring one value more than it holds:
  // replay keeps the first record and stops at this one.
  std::vector<std::uint8_t> over = payload;
  over[2 + 5] += 1;  // the u32 count after the str16 name
  std::vector<std::uint8_t> frame;
  sto::put_u8(frame, 2);
  sto::put_u32(frame, static_cast<std::uint32_t>(over.size()));
  sto::put_u32(frame, sto::crc32(over));
  sto::put_bytes(frame, over);
  sto::File::append(path).write(frame);
  seen.clear();
  stats = sto::WriteAheadLog::replay(
      path, [&](const sto::WalRecord& r) { seen.push_back(r); });
  EXPECT_EQ(stats.records_replayed, 1u);
  EXPECT_EQ(stats.records_truncated, 1u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_TRUE(same_bits(seen[0].values, values));
}

// A CRC-valid append record that declares more values than it carries is
// a torn tail: replay stops before it, without reserving for the count.
TEST(Wal, RecordDeclaringMoreValuesThanItHoldsIsATornTail) {
  TempDir dir("wal_overcount");
  fs::create_directories(dir.path);
  const std::string path = dir.path + "/wal-000001.log";
  sto::WriteAheadLog::create(path);
  {
    sto::WriteAheadLog wal(path, 1);
    wal.append_batch("s", std::vector<double>{1.0, 2.0});
  }
  std::vector<std::uint8_t> payload;
  sto::put_string(payload, "s");
  sto::put_u32(payload, 0xffffffffu);  // declares 2^32 - 1 values
  sto::put_f64(payload, 3.0);          // holds one
  std::vector<std::uint8_t> frame;
  sto::put_u8(frame, 2);  // append record
  sto::put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  sto::put_u32(frame, sto::crc32(payload));
  sto::put_bytes(frame, payload);
  sto::File::append(path).write(frame);

  std::vector<sto::WalRecord> seen;
  const auto stats = sto::WriteAheadLog::replay(
      path, [&](const sto::WalRecord& r) { seen.push_back(r); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].values, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(stats.records_replayed, 1u);
  EXPECT_EQ(stats.records_truncated, 1u);
}

// --------------------------------------------------- flush/reopen fidelity --

mon::StoreConfig small_chunks() {
  mon::StoreConfig cfg;
  cfg.chunk_samples = 64;
  return cfg;
}

/// The StorageManager tests run on several stripes, as production does, so
/// flush merges per-stripe captures and WAL replay routes each record to
/// its owning stripe. With 4 stripes "dev0/temp" lands on stripe 3 and
/// "dev1/drops" on stripe 2: stripe order is not name order.
constexpr std::size_t kStripes = 4;

/// Ingest a deterministic two-stream workload through `store`.
void ingest_workload(mon::StripedRetentionStore& store, std::size_t batches,
                     std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t b = 0; b < batches; ++b) {
    store.append_series("dev0/temp", noisy_sine(37, 0.01, rng));
    store.append_series("dev1/drops", noisy_sine(23, 0.21, rng));
  }
}

void create_workload_streams(mon::StripedRetentionStore& store) {
  store.create_stream("dev0/temp", 1.0);
  store.create_stream("dev1/drops", 4.0, 100.0);
}

TEST(StorageManager, FlushReopenQueriesBitIdentical) {
  TempDir dir("flush_reopen");
  mon::StripedRetentionStore live(small_chunks(), kStripes);
  {
    sto::StorageConfig cfg;
    cfg.dir = dir.path;
    cfg.truncate_existing = true;
    sto::StorageManager manager(cfg);
    live.set_ingest_sink(&manager);
    create_workload_streams(live);
    ingest_workload(live, 40, 11);
    const auto flushed = manager.flush(live);
    EXPECT_EQ(flushed.streams, 2u);
    EXPECT_GT(flushed.chunks, 0u);
    EXPECT_GT(flushed.bytes_written, 0u);
  }

  sto::StorageConfig cfg;
  cfg.dir = dir.path;
  sto::StorageManager reopened(cfg);
  const auto geom = reopened.manifest_geometry();
  ASSERT_TRUE(geom.has_value());
  EXPECT_EQ(geom->chunk_samples, 64u);

  mon::StripedRetentionStore cold(small_chunks(), kStripes);
  const auto rec = reopened.recover(cold);
  EXPECT_EQ(rec.streams, 2u);
  EXPECT_EQ(rec.crc_skipped_blocks, 0u);
  EXPECT_EQ(rec.wal_records_replayed, 0u);  // fresh WAL after flush

  for (const std::string name : {"dev0/temp", "dev1/drops"}) {
    const auto live_meta = live.find_meta(name).value();
    const auto cold_meta = cold.find_meta(name).value();
    EXPECT_EQ(live_meta.generation, cold_meta.generation) << name;
    EXPECT_EQ(live_meta.ingested_samples, cold_meta.ingested_samples);
    EXPECT_TRUE(same_bits(live_meta.t0, cold_meta.t0));
    EXPECT_TRUE(same_bits(live_meta.t_end, cold_meta.t_end));

    const auto live_stats = live.stats(name);
    const auto cold_stats = cold.stats(name);
    EXPECT_EQ(live_stats.stored_samples, cold_stats.stored_samples);
    EXPECT_EQ(live_stats.chunks, cold_stats.chunks);
    EXPECT_EQ(live_stats.bytes_raw, cold_stats.bytes_raw);
    EXPECT_EQ(live_stats.bytes_stored, cold_stats.bytes_stored);

    // The acceptance bar: band-limited reconstruction from the reopened
    // store is bit-identical to the live in-memory store.
    const double t0 = live_meta.t0;
    const double t_end = live_meta.t_end;
    const auto a = live.acquire_snapshot().query(name, t0, t_end);
    const auto b = cold.acquire_snapshot().query(name, t0, t_end);
    EXPECT_TRUE(same_bits(a.values(), b.values())) << name;
    const auto a_mid =
        live.acquire_snapshot().query(name, t0 + 13.0, t_end - 17.0);
    const auto b_mid =
        cold.acquire_snapshot().query(name, t0 + 13.0, t_end - 17.0);
    EXPECT_TRUE(same_bits(a_mid.values(), b_mid.values())) << name;
  }
}

TEST(StorageManager, ReopenThenAppendContinuesGenerationsAndSealing) {
  TempDir dir("reopen_append");
  // Reference: one uninterrupted in-memory store over the full workload.
  mon::StripedRetentionStore reference(small_chunks(), kStripes);
  create_workload_streams(reference);
  ingest_workload(reference, 30, 5);
  ingest_workload(reference, 30, 6);

  // Durable run, phase 1, flushed checkpoint.
  {
    sto::StorageConfig cfg;
    cfg.dir = dir.path;
    cfg.truncate_existing = true;
    sto::StorageManager manager(cfg);
    mon::StripedRetentionStore store(small_chunks(), kStripes);
    store.set_ingest_sink(&manager);
    create_workload_streams(store);
    ingest_workload(store, 30, 5);
    manager.flush(store);
  }

  // Reopen, then keep appending phase 2 through a fresh manager.
  sto::StorageConfig cfg;
  cfg.dir = dir.path;
  sto::StorageManager manager(cfg);
  mon::StripedRetentionStore store(small_chunks(), kStripes);
  const std::uint64_t gen_before = [&] {
    const auto rec = manager.recover(store);
    EXPECT_EQ(rec.streams, 2u);
    return store.find_meta("dev0/temp").value().generation;
  }();
  EXPECT_EQ(gen_before, 30u);  // one generation bump per append batch
  store.set_ingest_sink(&manager);
  ingest_workload(store, 30, 6);

  // Generations continue monotonically across the reopen (PR 2 query-cache
  // invalidation stays correct), and the merged history seals exactly like
  // the uninterrupted run.
  for (const std::string name : {"dev0/temp", "dev1/drops"}) {
    const auto ref_meta = reference.find_meta(name).value();
    const auto got_meta = store.find_meta(name).value();
    EXPECT_EQ(ref_meta.generation, got_meta.generation) << name;
    EXPECT_EQ(ref_meta.ingested_samples, got_meta.ingested_samples);
    const auto ref_stats = reference.stats(name);
    const auto got_stats = store.stats(name);
    EXPECT_EQ(ref_stats.chunks, got_stats.chunks);
    EXPECT_EQ(ref_stats.stored_samples, got_stats.stored_samples);
    EXPECT_EQ(ref_stats.bytes_stored, got_stats.bytes_stored);
    const auto a =
        reference.acquire_snapshot().query(name, ref_meta.t0, ref_meta.t_end);
    const auto b =
        store.acquire_snapshot().query(name, ref_meta.t0, ref_meta.t_end);
    EXPECT_TRUE(same_bits(a.values(), b.values())) << name;
  }
}

TEST(StorageManager, MidRunKillLosesAtMostTheTornBatch) {
  TempDir dir("midrun_kill");
  std::string wal_file;
  {
    sto::StorageConfig cfg;
    cfg.dir = dir.path;
    cfg.truncate_existing = true;
    cfg.wal_sync_interval_batches = 1;  // fsync every batch
    sto::StorageManager manager(cfg);
    mon::StripedRetentionStore store(small_chunks(), kStripes);
    store.set_ingest_sink(&manager);
    create_workload_streams(store);
    ingest_workload(store, 25, 9);
    // Never flushed: the WAL alone carries the run. "Kill" the process by
    // simply abandoning the objects (no checkpoint, no clean shutdown).
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("wal-", 0) == 0) wal_file = entry.path().string();
    }
  }
  ASSERT_FALSE(wal_file.empty());

  // First recovery: every batch was fsync'd, so nothing is lost.
  {
    sto::StorageConfig cfg;
    cfg.dir = dir.path;
    sto::StorageManager manager(cfg);
    mon::StripedRetentionStore store(small_chunks(), kStripes);
    const auto rec = manager.recover(store);
    EXPECT_EQ(rec.wal_records_replayed, 2u + 50u);  // 2 creates + 50 batches
    EXPECT_EQ(rec.wal_records_truncated, 0u);
    EXPECT_EQ(store.stats("dev0/temp").ingested_samples, 25u * 37u);
    EXPECT_EQ(store.stats("dev1/drops").ingested_samples, 25u * 23u);
  }

  // Torn write: chop a few bytes off the last record. Recovery drops only
  // that batch.
  sto::truncate_file(wal_file, fs::file_size(wal_file) - 3);
  sto::StorageConfig cfg;
  cfg.dir = dir.path;
  sto::StorageManager manager(cfg);
  mon::StripedRetentionStore store(small_chunks(), kStripes);
  const auto rec = manager.recover(store);
  EXPECT_EQ(rec.wal_records_replayed, 2u + 49u);
  EXPECT_EQ(rec.wal_records_truncated, 1u);
  // The last batch in the workload was dev1/drops: it lost exactly one.
  EXPECT_EQ(store.stats("dev0/temp").ingested_samples, 25u * 37u);
  EXPECT_EQ(store.stats("dev1/drops").ingested_samples, 24u * 23u);
}

TEST(StorageManager, CrcCorruptedChunkBlockSkippedAndCounted) {
  TempDir dir("crc_corrupt");
  {
    sto::StorageConfig cfg;
    cfg.dir = dir.path;
    cfg.truncate_existing = true;
    sto::StorageManager manager(cfg);
    mon::StripedRetentionStore store(small_chunks(), kStripes);
    store.set_ingest_sink(&manager);
    create_workload_streams(store);
    ingest_workload(store, 40, 13);
    manager.flush(store);
  }

  // Find the segment and flip one byte inside the first chunk block's
  // payload (walking the block framing: magic, then type|len|crc|payload).
  std::string seg_file;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0) seg_file = entry.path().string();
  }
  ASSERT_FALSE(seg_file.empty());
  auto bytes = sto::read_file(seg_file);
  std::size_t pos = 8;
  bool corrupted = false;
  while (pos + 9 <= bytes.size()) {
    const std::uint8_t type = bytes[pos];
    std::uint32_t len = 0;
    std::memcpy(&len, &bytes[pos + 1], 4);
    if (type == 2) {  // chunk block: flip a value byte past the header
      bytes[pos + 9 + 24] ^= 0xFF;
      corrupted = true;
      break;
    }
    pos += 9 + len;
  }
  ASSERT_TRUE(corrupted);
  {
    std::ofstream out(seg_file, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  sto::StorageConfig cfg;
  cfg.dir = dir.path;
  sto::StorageManager manager(cfg);
  mon::StripedRetentionStore store(small_chunks(), kStripes);
  const auto rec = manager.recover(store);
  // The damaged block is skipped with a counted warning; everything else
  // survives, including the sibling stream.
  EXPECT_EQ(rec.crc_skipped_blocks, 1u);
  EXPECT_EQ(rec.chunks_missing, 1u);
  EXPECT_EQ(rec.streams, 2u);
  // Restored stats keep the writer's cumulative counters; chunks_missing is
  // exactly the gap between them and what actually survived.
  EXPECT_EQ(store.stats("dev0/temp").chunks +
                store.stats("dev1/drops").chunks,
            rec.chunks + rec.chunks_missing);
  // Queries still answer over the surviving data.
  const auto meta = store.find_meta("dev0/temp").value();
  EXPECT_GT(store.acquire_snapshot()
                .query("dev0/temp", meta.t0, meta.t_end)
                .size(),
            0u);
}

TEST(StorageManager, CorruptNewestHeaderDropsWalGraftsForThatStreamOnly) {
  TempDir dir("stale_header");
  {
    sto::StorageConfig cfg;
    cfg.dir = dir.path;
    cfg.truncate_existing = true;
    cfg.wal_sync_interval_batches = 1;
    sto::StorageManager manager(cfg);
    mon::StripedRetentionStore store(small_chunks(), kStripes);
    store.set_ingest_sink(&manager);
    create_workload_streams(store);
    ingest_workload(store, 10, 3);
    manager.flush(store);
    ingest_workload(store, 10, 4);
    manager.flush(store);
    // Post-flush WAL epoch: these batches belong to the flush-2 state.
    ingest_workload(store, 5, 8);
  }

  // Corrupt the LAST segment's header block for dev0/temp (name appears in
  // the payload right after the str16 length prefix).
  std::vector<std::string> segs;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0) segs.push_back(entry.path().string());
  }
  std::sort(segs.begin(), segs.end());
  ASSERT_EQ(segs.size(), 2u);
  auto bytes = sto::read_file(segs.back());
  std::size_t pos = 8;
  bool corrupted = false;
  while (pos + 9 <= bytes.size()) {
    const std::uint8_t type = bytes[pos];
    std::uint32_t len = 0;
    std::memcpy(&len, &bytes[pos + 1], 4);
    if (type == 1 &&
        std::memcmp(&bytes[pos + 9 + 2], "dev0/temp", 9) == 0) {
      bytes[pos + 9 + 20] ^= 0xFF;  // damage a header field
      corrupted = true;
      break;
    }
    pos += 9 + len;
  }
  ASSERT_TRUE(corrupted);
  {
    std::ofstream out(segs.back(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  sto::StorageConfig cfg;
  cfg.dir = dir.path;
  sto::StorageManager manager(cfg);
  mon::StripedRetentionStore store(small_chunks(), kStripes);
  const auto rec = manager.recover(store);
  // dev0/temp restored to its flush-1 epoch (a consistent older snapshot);
  // its post-flush-2 WAL batches were dropped, not grafted onto stale grid
  // positions. dev1/drops is untouched: full history incl. WAL replay.
  EXPECT_EQ(rec.stale_streams, 1u);
  EXPECT_EQ(rec.wal_records_replayed, 10u);  // read from the log...
  EXPECT_EQ(rec.wal_records_dropped, 5u);    // ...of which these not applied
  EXPECT_EQ(store.stats("dev0/temp").ingested_samples, 10u * 37u);
  EXPECT_EQ(store.stats("dev1/drops").ingested_samples, 25u * 23u);
}

TEST(StorageManager, CorruptTailBlockDropsTailInsteadOfResurrectingStaleOne) {
  TempDir dir("stale_tail");
  {
    sto::StorageConfig cfg;
    cfg.dir = dir.path;
    cfg.truncate_existing = true;
    sto::StorageManager manager(cfg);
    mon::StripedRetentionStore store(small_chunks(), kStripes);
    store.set_ingest_sink(&manager);
    store.create_stream("dev/t", 1.0);
    // Flush 1 checkpoints a 31 x 5.0 tail (t = 64..95). The next batch
    // seals that tail into a chunk and leaves a fresh 7 x 2.0 tail at
    // t = 128 — so segment 1's tail is stale by flush 2.
    std::vector<double> first(64, 1.0);
    first.insert(first.end(), 31, 5.0);
    store.append_series("dev/t", first);
    manager.flush(store);
    store.append_series("dev/t", std::vector<double>(40, 2.0));
    manager.flush(store);
  }

  // Corrupt the LAST segment's tail block (type 3). The previous segment's
  // tail (31 x 1.0) is stale: it must NOT be served under the new header.
  std::vector<std::string> segs;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0) segs.push_back(entry.path().string());
  }
  std::sort(segs.begin(), segs.end());
  ASSERT_EQ(segs.size(), 2u);
  auto bytes = sto::read_file(segs.back());
  std::size_t pos = 8;
  bool corrupted = false;
  while (pos + 9 <= bytes.size()) {
    const std::uint8_t type = bytes[pos];
    std::uint32_t len = 0;
    std::memcpy(&len, &bytes[pos + 1], 4);
    if (type == 3) {
      bytes[pos + 9] ^= 0xFF;
      corrupted = true;
      break;
    }
    pos += 9 + len;
  }
  ASSERT_TRUE(corrupted);
  {
    std::ofstream out(segs.back(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  sto::StorageConfig cfg;
  cfg.dir = dir.path;
  sto::StorageManager manager(cfg);
  mon::StripedRetentionStore store(small_chunks(), kStripes);
  const auto rec = manager.recover(store);
  EXPECT_EQ(rec.crc_skipped_blocks, 1u);
  // The tail is dropped (bounded, counted loss) — segment 1's 5.0 tail must
  // not reappear at segment 2's hot_t0 (t = 128, where 2.0s lived).
  const auto snap = store.acquire_snapshot().export_stream("dev/t");
  EXPECT_TRUE(snap.hot.empty());
  const auto series = store.acquire_snapshot().query("dev/t", 128.0, 135.0);
  ASSERT_EQ(series.size(), 7u);
  for (const double v : series.values()) EXPECT_NE(v, 5.0);
}

TEST(StorageManager, TruncationAfterHeaderLeavesEmptyTailNotStaleOne) {
  TempDir dir("trunc_after_header");
  {
    sto::StorageConfig cfg;
    cfg.dir = dir.path;
    cfg.truncate_existing = true;
    sto::StorageManager manager(cfg);
    mon::StripedRetentionStore store(small_chunks(), kStripes);
    store.set_ingest_sink(&manager);
    store.create_stream("dev/t", 1.0);
    std::vector<double> first(64, 1.0);
    first.insert(first.end(), 31, 5.0);
    store.append_series("dev/t", first);  // tail 31 x 5.0 at t = 64
    manager.flush(store);
    store.append_series("dev/t", std::vector<double>(40, 2.0));
    manager.flush(store);  // seals the 5.0s; new tail 7 x 2.0 at t = 128
  }

  // Truncate the last segment right after its first (header) block: its
  // chunk + tail blocks vanish mid-file, the classic torn-copy shape.
  std::vector<std::string> segs;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0) segs.push_back(entry.path().string());
  }
  std::sort(segs.begin(), segs.end());
  ASSERT_EQ(segs.size(), 2u);
  const auto bytes = sto::read_file(segs.back());
  std::uint32_t header_len = 0;
  std::memcpy(&header_len, &bytes[8 + 1], 4);
  // ... keeping the header plus a sliver of the chunk block's frame.
  sto::truncate_file(segs.back(), 8 + 9 + header_len + 10);

  sto::StorageConfig cfg;
  cfg.dir = dir.path;
  sto::StorageManager manager(cfg);
  mon::StripedRetentionStore store(small_chunks(), kStripes);
  const auto rec = manager.recover(store);
  EXPECT_GE(rec.crc_skipped_blocks, 1u);  // the truncated remainder
  EXPECT_EQ(rec.chunks_missing, 1u);      // the sealed chunk block is gone
  // Segment 1's stale 5.0 tail must NOT reappear at the new hot_t0 = 128.
  EXPECT_TRUE(store.acquire_snapshot().export_stream("dev/t").hot.empty());
  const auto series = store.acquire_snapshot().query("dev/t", 128.0, 135.0);
  for (const double v : series.values()) EXPECT_NE(v, 5.0);
}

TEST(StorageManager, UnreadableSegmentDegradesRecoveryAndBlocksCompaction) {
  TempDir dir("unreadable_seg");
  sto::StorageConfig cfg;
  cfg.dir = dir.path;
  cfg.truncate_existing = true;
  cfg.compact_min_segments = 100;
  {
    sto::StorageManager manager(cfg);
    mon::StripedRetentionStore store(small_chunks(), kStripes);
    store.set_ingest_sink(&manager);
    create_workload_streams(store);
    ingest_workload(store, 10, 21);
    manager.flush(store);
    ingest_workload(store, 10, 22);
    manager.flush(store);
  }

  // Smash the FIRST segment's magic (bit rot on the file head).
  std::vector<std::string> segs;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0) segs.push_back(entry.path().string());
  }
  std::sort(segs.begin(), segs.end());
  ASSERT_EQ(segs.size(), 2u);
  {
    std::ofstream out(segs.front(),
                      std::ios::binary | std::ios::in | std::ios::out);
    out.write("XXXXXXXX", 8);
  }

  // Compaction must refuse to fold (a rewrite would delete the only copy
  // of whatever the unreadable segment held)...
  sto::StorageConfig attach_cfg;
  attach_cfg.dir = dir.path;
  sto::StorageManager attach(attach_cfg);
  EXPECT_EQ(attach.compact(), 0u);

  // ...while recovery degrades past it with counted warnings and still
  // serves everything the surviving segment + WAL hold.
  mon::StripedRetentionStore store(small_chunks(), kStripes);
  const auto rec = attach.recover(store);
  EXPECT_EQ(rec.segments_unreadable, 1u);
  EXPECT_EQ(rec.segments, 1u);
  EXPECT_EQ(rec.streams, 2u);
  EXPECT_GT(rec.chunks_missing, 0u);  // seg-1's chunks are gone
  const auto meta = store.find_meta("dev0/temp").value();
  EXPECT_GT(store.acquire_snapshot()
                .query("dev0/temp", meta.t0, meta.t_end)
                .size(),
            0u);
}

// The store refuses at creation every grid a restore refuses, so a
// checkpointed store recovers whole; the refused creates below reach
// neither the store nor the WAL. A refused stream that reached disk some
// other way (crafted bytes, or files an earlier build wrote) is dropped
// and counted, and the rest of the directory recovers: here one in the
// segment and one created in the WAL.
TEST(StorageManager, CheckpointRecoversWholeAndRefusedStreamsAreDropped) {
  TempDir dir("refused_streams");
  sto::StorageConfig cfg;
  cfg.dir = dir.path;
  cfg.truncate_existing = true;
  cfg.compact_min_segments = 100;
  const std::vector<std::string> names = {"dev0/temp", "dev1/drops",
                                          "edge/slow"};
  mon::StripedRetentionStore live(small_chunks(), kStripes);
  {
    sto::StorageManager manager(cfg);
    live.set_ingest_sink(&manager);
    create_workload_streams(live);
    live.create_stream("edge/slow", 1e-9);  // the lowest rate taken
    live.append_series("edge/slow", std::vector<double>(200, 3.0));
    for (const double rate : {std::numeric_limits<double>::infinity(), 1e-306})
      EXPECT_THROW(live.create_stream("bad/rate", rate), std::invalid_argument);
    EXPECT_THROW(live.create_stream("bad/t0", 1.0,
                                    std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    ingest_workload(live, 10, 31);
    manager.flush(live);
    ingest_workload(live, 3, 32);  // replayed from the WAL
    live.set_ingest_sink(nullptr);
    manager.on_create_stream("wal/slow", 1e-306, 0.0);
    manager.on_append("wal/slow", std::vector<double>(8, 1.0));
  }

  // Rewrite the one segment with a +inf-rate stream beside the others.
  std::vector<std::string> segs;
  for (const auto& entry : fs::directory_iterator(dir.path))
    if (entry.path().filename().string().rfind("seg-", 0) == 0)
      segs.push_back(entry.path().string());
  ASSERT_EQ(segs.size(), 1u);
  std::map<std::string, mon::StreamSnapshot> flushed;
  sto::read_segment(segs.front(), flushed);
  ASSERT_EQ(flushed.size(), names.size());
  mon::StreamSnapshot bad = flushed.at("dev0/temp");
  bad.name = "seg/inf";
  bad.collection_rate_hz = std::numeric_limits<double>::infinity();
  sto::SegmentWriter writer;
  for (const auto& [name, snap] : flushed) writer.add_stream(snap);
  writer.add_stream(bad);
  {
    std::ofstream out(segs.front(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(writer.bytes().data()),
              static_cast<std::streamsize>(writer.bytes().size()));
  }

  sto::StorageConfig attach_cfg;
  attach_cfg.dir = dir.path;
  sto::StorageManager attach(attach_cfg);
  mon::StripedRetentionStore cold(small_chunks(), kStripes);
  const auto rec = attach.recover(cold);
  EXPECT_EQ(rec.streams, names.size());
  EXPECT_EQ(rec.streams_refused, 2u);     // seg/inf and wal/slow
  EXPECT_EQ(rec.wal_records_dropped, 1u);  // the append to wal/slow
  EXPECT_EQ(cold.stream_names(), names);
  for (const std::string& name : names) {
    const auto meta = live.find_meta(name).value();
    EXPECT_EQ(cold.find_meta(name).value().generation, meta.generation);
    const auto a = live.acquire_snapshot().query(name, meta.t0, meta.t_end);
    const auto b = cold.acquire_snapshot().query(name, meta.t0, meta.t_end);
    EXPECT_GT(a.size(), 0u) << name;
    EXPECT_TRUE(same_bits(a.values(), b.values())) << name;
  }
}

TEST(XorCodec, CorruptWindowThrowsInsteadOfUndefinedShift) {
  // Hand-craft a stream: one raw value, then control '11', lead=31,
  // sig=34 (lead + sig = 65 > 64) — the encoder never emits this; the
  // decoder must throw, not shift by a wrapped-around count. Bit layout
  // after the 8 raw bytes: 11 11111 100010 -> 0xFF 0x88.
  const std::vector<double> one = {1.0};
  auto bytes = sto::xor_encode(one);
  ASSERT_EQ(bytes.size(), 8u);  // raw first value, byte-aligned
  bytes.push_back(0xFF);
  bytes.push_back(0x88);
  EXPECT_THROW(sto::xor_decode(bytes, 2), std::runtime_error);
}

TEST(StorageManager, CompactionFoldsSegmentsPreservingData) {
  TempDir dir("compaction");
  sto::StorageConfig cfg;
  cfg.dir = dir.path;
  cfg.truncate_existing = true;
  cfg.compact_min_segments = 100;  // no auto-compaction; we drive it
  sto::StorageManager manager(cfg);
  mon::StripedRetentionStore store(small_chunks(), kStripes);
  store.set_ingest_sink(&manager);
  create_workload_streams(store);
  for (int round = 0; round < 5; ++round) {
    ingest_workload(store, 8, 17 + static_cast<std::uint64_t>(round));
    manager.flush(store);
  }
  EXPECT_EQ(manager.stats().segments, 5u);

  const std::size_t folded = manager.compact();
  EXPECT_EQ(folded, 5u);
  EXPECT_EQ(manager.stats().segments, 1u);
  EXPECT_EQ(manager.stats().compactions, 1u);

  // The folded segment still recovers to the live store, bit-identically.
  sto::StorageConfig read_cfg;
  read_cfg.dir = dir.path;
  sto::StorageManager reopened(read_cfg);
  mon::StripedRetentionStore cold(small_chunks(), kStripes);
  const auto rec = reopened.recover(cold);
  EXPECT_EQ(rec.segments, 1u);
  EXPECT_EQ(rec.crc_skipped_blocks, 0u);
  for (const std::string name : {"dev0/temp", "dev1/drops"}) {
    const auto meta = store.find_meta(name).value();
    EXPECT_EQ(cold.find_meta(name).value().generation, meta.generation);
    const auto a = store.acquire_snapshot().query(name, meta.t0, meta.t_end);
    const auto b = cold.acquire_snapshot().query(name, meta.t0, meta.t_end);
    EXPECT_TRUE(same_bits(a.values(), b.values())) << name;
  }

  // Delta flushes keep working after compaction.
  ingest_workload(store, 8, 99);
  const auto flushed = manager.flush(store);
  EXPECT_FALSE(flushed.skipped);
  EXPECT_EQ(manager.stats().segments, 2u);
}

TEST(StorageManager, FlushCompactsInlineAfterFlushes) {
  TempDir dir("inline_compaction");
  sto::StorageConfig cfg;
  cfg.dir = dir.path;
  cfg.truncate_existing = true;
  cfg.compact_min_segments = 3;
  sto::StorageManager manager(cfg);
  mon::StripedRetentionStore store(small_chunks(), kStripes);
  store.set_ingest_sink(&manager);
  create_workload_streams(store);
  for (int round = 0; round < 6; ++round) {
    ingest_workload(store, 4, 31 + static_cast<std::uint64_t>(round));
    manager.flush(store);
  }
  // The flush that leaves a fourth segment folds them into one before it
  // returns, so no wait is needed.
  EXPECT_GE(manager.stats().compactions, 1u);
  EXPECT_LE(manager.stats().segments, cfg.compact_min_segments + 1);
}

// -------------------------------------------------- engine-level round trip --

TEST(StorageEngine, FivehundredPairColdStartIsBitIdentical) {
  TempDir dir("engine_roundtrip");
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 500;
  fleet_cfg.seed = 42;
  const tel::Fleet fleet(fleet_cfg);
  ASSERT_GE(fleet.size(), 500u);

  rt::RuntimeConfig rt_cfg;
  eng::EngineConfig& cfg = rt_cfg.engine;
  cfg.workers = 4;
  cfg.samples_per_window = 48;
  cfg.windows_per_pair = 4;
  cfg.storage.dir = dir.path;
  rt::VirtualClock clock;
  rt::StreamingRuntime runtime(fleet, clock, rt_cfg);
  const auto result = runtime.run_to_completion();
  ASSERT_TRUE(result.persisted);
  EXPECT_EQ(result.flush.streams, fleet.size());
  EXPECT_GT(result.storage.segment_bytes, 0u);
  EXPECT_GT(result.store.bytes_raw, result.store.bytes_stored);

  // Reopen cold with the geometry the manifest recorded.
  sto::StorageConfig read_cfg;
  read_cfg.dir = dir.path;
  sto::StorageManager reopened(read_cfg);
  mon::StoreConfig store_cfg = cfg.store;
  const auto geom = reopened.manifest_geometry();
  ASSERT_TRUE(geom.has_value());
  EXPECT_EQ(geom->chunk_samples, cfg.store.chunk_samples);
  mon::StripedRetentionStore cold(store_cfg, cfg.store_stripes);
  const auto rec = reopened.recover(cold);
  EXPECT_EQ(rec.streams, fleet.size());
  EXPECT_EQ(rec.crc_skipped_blocks, 0u);

  // Store-level equivalence: every stream's rollup and metadata match.
  const auto live_rollup = runtime.store().rollup();
  const auto cold_rollup = cold.rollup();
  EXPECT_EQ(live_rollup.ingested_samples, cold_rollup.ingested_samples);
  EXPECT_EQ(live_rollup.stored_samples, cold_rollup.stored_samples);
  EXPECT_EQ(live_rollup.chunks, cold_rollup.chunks);
  EXPECT_EQ(live_rollup.bytes_raw, cold_rollup.bytes_raw);
  EXPECT_EQ(live_rollup.bytes_stored, cold_rollup.bytes_stored);

  // QueryEngine over the reopened store answers bit-identically to one
  // over the live store — exact streams and fleet-wide aggregates.
  qry::QueryEngine live_qe(runtime.store());
  qry::QueryEngine cold_qe(cold);

  std::vector<qry::QuerySpec> specs;
  for (const std::size_t pair_index : {std::size_t{0}, fleet.size() / 2}) {
    const auto& pair = fleet.pairs()[pair_index];
    specs.push_back(qry::QueryBuilder()
                        .select(tel::stream_id(pair))
                        .range(0.0, 64.0 * pair.metric.poll_interval_s)
                        .align(pair.metric.poll_interval_s)
                        .build());
  }
  specs.push_back(
      qry::QueryBuilder()
          .select("*/" + tel::metric_name(tel::MetricKind::kTemperature))
          .range(0.0, 1800.0)
          .align(30.0)
          .aggregate(qry::Aggregation::kP95)
          .build());

  for (const auto& spec : specs) {
    const auto live_resp = live_qe.run(spec);
    const auto cold_resp = cold_qe.run(spec);
    ASSERT_EQ(live_resp.result->matched.size(),
              cold_resp.result->matched.size());
    ASSERT_EQ(live_resp.result->series.size(),
              cold_resp.result->series.size());
    for (std::size_t i = 0; i < live_resp.result->series.size(); ++i) {
      const auto& a = live_resp.result->series[i];
      const auto& b = cold_resp.result->series[i];
      EXPECT_EQ(a.label, b.label);
      EXPECT_TRUE(same_bits(a.series.values(), b.series.values()))
          << spec.selector << " series " << a.label;
    }
  }
}

}  // namespace
