// StreamingRuntime — continuous a-posteriori monitoring (the live form of
// paper Section 4), and the one way to run a fleet.
//
// Each pair's adaptive poller is driven one adaptation window at a time by
// a deadline scheduler: a pair's deadline is the moment its next window's
// data is complete on the signal timeline, and it is re-planned every
// window as the dual-rate detector adjusts the pair's operating rate.
// Finalized reconstruction slices flow into the shared
// StripedRetentionStore immediately (chunks seal incrementally, the
// StorageManager WAL records every batch), so a QueryEngine the caller
// builds over store() serves selector queries *during* ingest — per-stream
// write-generation counters keep cached results correct as data keeps
// arriving.
//
// Time is pluggable (runtime/clock.h). Under a SteadyClock the runtime
// paces the fleet in real time; under a VirtualClock the whole timeline
// replays as fast as the hardware allows. To run a fleet end to end, build
// a VirtualClock and a StreamingRuntime and call run_to_completion().
//
// Ownership: the runtime borrows the fleet and the clock (both must
// outlive it) and owns its store, pair pipelines and optional durable
// tier. It serves no queries itself: callers build a
// qry::QueryEngine(runtime.store(), config) with the fan-out they want.
//
// Threading: poll()/step()/run_to_completion()/checkpoint() are the
// scheduler's and must come from one thread at a time (they serialize on an
// internal mutex); poll() itself fans due pairs out over worker threads
// (parallel_claim; the calling thread is one of the workers). store()
// (and any query engine over it) and stats() may be used concurrently from
// any thread, including while a poll is in flight — that is the point.
//
// Determinism: under a VirtualClock a completed run is bit-identical for
// any worker count. Every pair's noise seed is forked sequentially from the
// engine seed at construction, each pair's windows are stepped in timeline
// order regardless of how poll() batches them (a pair's work is a pure
// function of pair, seed and config), outcome slots are pre-allocated per
// pair, and aggregation iterates in pair order. Only wall-clock stats, and
// under a SteadyClock how windows batch into polls (hence write-generation
// counters), depend on timing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "monitor/pipeline.h"
#include "monitor/striped_store.h"
#include "runtime/clock.h"
#include "storage/manager.h"

namespace nyqmon::rt {

struct RuntimeConfig {
  /// Fleet/pipeline/store/storage knobs.
  eng::EngineConfig engine;
  /// Checkpoint the durable tier (WAL → sealed segments) every N processed
  /// pair-windows, fleet-wide; 0 = only on explicit checkpoint() and at
  /// run completion. Meaningful only when engine.storage.dir is set.
  std::size_t checkpoint_interval_windows = 0;
};

/// Live progress counters (readable from any thread, any time).
struct RuntimeStats {
  std::size_t pairs = 0;
  std::size_t pairs_done = 0;
  std::uint64_t windows_processed = 0;
  /// Measurement samples acquired (primary + checker streams).
  std::uint64_t samples_acquired = 0;
  /// Finalized reconstruction values ingested into the retention store.
  std::uint64_t values_ingested = 0;
  std::uint64_t checkpoints = 0;
  double now_s = 0.0;  ///< the clock's current time
};

class StreamingRuntime {
 public:
  /// The fleet and clock must outlive the runtime.
  StreamingRuntime(const tel::Fleet& fleet, Clock& clock,
                   RuntimeConfig config = {});

  const RuntimeConfig& config() const { return config_; }

  /// True once every pair has been driven through its full timeline.
  bool done() const { return pairs_done_.load() == tasks_.size(); }

  /// Earliest pending window deadline on the signal timeline; +inf once
  /// done().
  double next_deadline_s() const;

  /// Drive every pair whose next window deadline has passed on the clock,
  /// in parallel. Returns the number of windows processed.
  std::size_t poll();

  /// sleep_until the next deadline, then poll() — one scheduler beat.
  std::size_t step();

  /// Drive the remaining timeline to completion and return the aggregate
  /// result (under a VirtualClock, in as little wall time as the hardware
  /// allows). Single-shot, but poll()/step() beforehand are fine.
  eng::FleetRunResult run_to_completion();

  /// Retained data; safe for concurrent queries at any point.
  const mon::StripedRetentionStore& store() const { return store_; }
  mon::StripedRetentionStore& mutable_store() { return store_; }

  /// Quiesced durable checkpoint: seal everything flushed so far into a
  /// segment and swap the WAL. Returns skipped=true when the runtime has
  /// no durable tier. Quiesces the runtime's own writers (the scheduler
  /// mutex parks poll() workers); callers with additional ingest paths
  /// must quiesce those themselves — NyqmondServer does, parking all its
  /// reactors before invoking this as its checkpoint_fn.
  sto::FlushStats checkpoint();

  /// The durable tier, or nullptr when running in-memory only.
  const sto::StorageManager* storage() const { return storage_.get(); }

  RuntimeStats stats() const;

 private:
  struct PairTask {
    std::unique_ptr<mon::StreamingPairPipeline> pipeline;
    std::string stream_id;
    double next_deadline_s = 0.0;
    std::size_t ingested = 0;      ///< recon values appended to the store
    std::size_t windows_seen = 0;  ///< steps accounted into the counters
    std::uint64_t samples_seen = 0;
    bool done = false;
    eng::PairOutcome outcome;  ///< valid once done
  };

  /// Step one due pair through every window whose deadline has passed,
  /// ingest the newly finalized reconstruction slice, and finalize the
  /// outcome when the pair's timeline ends. Runs on a worker thread.
  void advance_pair(std::size_t index, double now_s);
  sto::FlushStats checkpoint_locked();

  const tel::Fleet& fleet_;
  Clock& clock_;
  RuntimeConfig config_;
  mon::StripedRetentionStore store_;
  std::unique_ptr<sto::StorageManager> storage_;
  std::vector<tel::PairSchedule> schedules_;
  std::vector<PairTask> tasks_;

  /// Serializes the scheduler entry points (poll/checkpoint/finalize).
  mutable std::mutex scheduler_mu_;
  /// Min-heap of (deadline, pair index): the pairs not yet done.
  using Deadline = std::pair<double, std::size_t>;
  std::priority_queue<Deadline, std::vector<Deadline>, std::greater<Deadline>>
      deadlines_;
  std::size_t windows_since_checkpoint_ = 0;
  bool finalized_ = false;

  std::atomic<std::size_t> pairs_done_{0};
  std::atomic<std::uint64_t> windows_processed_{0};
  std::atomic<std::uint64_t> samples_acquired_{0};
  std::atomic<std::uint64_t> values_ingested_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
};

}  // namespace nyqmon::rt
