#include "runtime/runtime.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "telemetry/metric_model.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace nyqmon::rt {

namespace {

/// Noise seeds forked sequentially from the engine seed, one per pair, so
/// per-pair outcomes cannot depend on the order in which poll() workers
/// pick pairs up.
std::vector<std::uint64_t> fork_noise_seeds(std::uint64_t seed,
                                            std::size_t n) {
  Rng rng(seed);
  std::vector<std::uint64_t> seeds;
  seeds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) seeds.push_back(rng.engine()());
  return seeds;
}

/// The pipeline configuration one pair is driven with: the template sampler
/// config specialized to the pair's production rate, rate bounds, window
/// duration, noise scale and quantization step.
mon::PipelineConfig pair_pipeline_config(const eng::EngineConfig& config,
                                         const tel::FleetPair& pair,
                                         const tel::PairSchedule& sched) {
  const auto& spec = tel::metric_spec(pair.metric.kind);
  mon::PipelineConfig pc;
  pc.sampler = config.sampler;
  pc.sampler.initial_rate_hz = sched.production_rate_hz;
  pc.sampler.min_rate_hz = sched.production_rate_hz / config.max_slowdown;
  pc.sampler.max_rate_hz = sched.production_rate_hz * config.max_speedup;
  pc.sampler.window_duration_s = sched.window_duration_s;
  pc.cost = config.cost;
  pc.noise_stddev = config.relative_noise * spec.fluctuation_rms;
  pc.quantization_step = pair.metric.quantization_step;
  return pc;
}

/// A PairOutcome from one pair's completed pipeline result, minus the
/// store byte bill (the caller fills that after ingest).
eng::PairOutcome make_pair_outcome(std::size_t index,
                                   const tel::FleetPair& pair,
                                   const tel::PairSchedule& sched,
                                   const mon::PipelineResult& result) {
  eng::PairOutcome out;
  out.pair_index = index;
  out.stream_id = tel::stream_id(pair);
  out.kind = pair.metric.kind;
  out.production_rate_hz = sched.production_rate_hz;
  out.cost_savings = result.cost_savings;
  out.nrmse = result.nrmse;
  out.max_abs_error = result.max_abs_error;
  out.adaptive_samples = result.run.total_samples;
  out.baseline_samples = result.run.baseline_samples(sched.production_rate_hz);
  out.audit = nyq::audit_run(result.run);
  NYQMON_OBS_COUNT("nyqmon_engine_pairs_total", 1);
  return out;
}

}  // namespace

StreamingRuntime::StreamingRuntime(const tel::Fleet& fleet, Clock& clock,
                                   RuntimeConfig config)
    : fleet_(fleet),
      clock_(clock),
      config_(config),
      store_(config.engine.store, config.engine.store_stripes) {
  NYQMON_CHECK(config_.engine.samples_per_window >= 2);
  NYQMON_CHECK(config_.engine.windows_per_pair >= 1);
  NYQMON_CHECK(config_.engine.max_speedup >= 1.0);
  NYQMON_CHECK(config_.engine.max_slowdown >= 1.0);

  // Durable tier before any stream exists: each run is a fresh storage
  // generation and stream creations are WAL-logged. Geometry goes into the
  // manifest before any ingest, so a mid-run crash recovers with verified
  // seal boundaries even though no flush ever ran.
  if (!config_.engine.storage.dir.empty()) {
    config_.engine.storage.truncate_existing = true;
    storage_ = std::make_unique<sto::StorageManager>(config_.engine.storage);
    storage_->record_geometry(config_.engine.store);
    store_.set_ingest_sink(storage_.get());
  }

  // Scheduling pass, in fleet order: every pair's plan, retention stream,
  // noise seed and incremental pipeline (sequential, so stream creation
  // needs no coordination during the fan-out).
  const std::vector<std::uint64_t> noise_seeds =
      fork_noise_seeds(config_.engine.seed, fleet_.size());
  schedules_.reserve(fleet_.size());
  tasks_.resize(fleet_.size());
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    const tel::FleetPair& pair = fleet_.pairs()[i];
    const tel::PairSchedule s = tel::schedule_pair(
        pair, config_.engine.samples_per_window, config_.engine.windows_per_pair);
    store_.create_stream(tel::stream_id(pair), s.production_rate_hz);
    schedules_.push_back(s);

    PairTask& task = tasks_[i];
    task.stream_id = tel::stream_id(pair);
    task.pipeline = std::make_unique<mon::StreamingPairPipeline>(
        pair_pipeline_config(config_.engine, pair, s),
        *pair.metric.signal, 0.0, s.duration_s, s.production_rate_hz,
        noise_seeds[i]);
    task.next_deadline_s = task.pipeline->next_deadline_s();
    deadlines_.emplace(task.next_deadline_s, i);
  }
}

double StreamingRuntime::next_deadline_s() const {
  std::lock_guard<std::mutex> lock(scheduler_mu_);
  return deadlines_.empty() ? std::numeric_limits<double>::infinity()
                            : deadlines_.top().first;
}

void StreamingRuntime::advance_pair(std::size_t index, double now_s) {
  PairTask& task = tasks_[index];
  mon::StreamingPairPipeline& pipeline = *task.pipeline;

  while (!pipeline.done() && pipeline.next_deadline_s() <= now_s + 1e-9)
    pipeline.step_window();

  // Progress accounting before finish() consumes the run log.
  const nyq::AdaptiveRun& so_far = pipeline.run_so_far();
  windows_processed_ += so_far.steps.size() - task.windows_seen;
  samples_acquired_ += so_far.total_samples - task.samples_seen;
  task.windows_seen = so_far.steps.size();
  task.samples_seen = so_far.total_samples;

  // Ingest the slice of reconstruction that became final this beat. One
  // append per pair per beat = one stripe lock + one WAL record.
  const auto ready = pipeline.reconstruction_so_far();
  if (ready.size() > task.ingested) {
    store_.append_series(task.stream_id, ready.subspan(task.ingested));
    values_ingested_ += ready.size() - task.ingested;
    task.ingested = ready.size();
  }

  if (!pipeline.done()) {
    task.next_deadline_s = pipeline.next_deadline_s();
    return;
  }

  // Pair timeline complete: finalize the outcome. The degenerate fallback
  // path can emit its reconstruction only inside finish(), so ingest any
  // remainder after it.
  const mon::PipelineResult result = pipeline.finish();
  const auto full = result.reconstruction.span();
  if (full.size() > task.ingested) {
    store_.append_series(task.stream_id, full.subspan(task.ingested));
    values_ingested_ += full.size() - task.ingested;
    task.ingested = full.size();
  }
  task.outcome = make_pair_outcome(index, fleet_.pairs()[index],
                                   schedules_[index], result);
  const mon::StreamStats retained = store_.stats(task.stream_id);
  task.outcome.store_bytes_raw = retained.bytes_raw;
  task.outcome.store_bytes_stored = retained.bytes_stored;
  task.pipeline.reset();  // free sampler/dense state as pairs drain
  task.done = true;
  pairs_done_.fetch_add(1);
}

std::size_t StreamingRuntime::poll() {
  NYQMON_TRACE_SPAN("poll", "runtime");
  std::lock_guard<std::mutex> lock(scheduler_mu_);
  const double now = clock_.now_s();

  std::vector<std::size_t> due;
  while (!deadlines_.empty() && deadlines_.top().first <= now + 1e-9) {
    // Scheduler slip: how far past its deadline (in clock-domain seconds —
    // virtual when driven by a VirtualClock) a pair is picked up. A wall
    // clock that can't keep up shows here before quality degrades.
    const double slip_s = now - deadlines_.top().first;
    NYQMON_OBS_RECORD("nyqmon_runtime_deadline_slip_ns",
                      slip_s > 0.0 ? slip_s * 1e9 : 0.0);
    due.push_back(deadlines_.top().second);
    deadlines_.pop();
  }
  if (due.empty()) return 0;
  NYQMON_OBS_RECORD("nyqmon_runtime_poll_batch_depth", due.size());

  const std::uint64_t windows_before = windows_processed_.load();
  parallel_claim(due.size(), config_.engine.workers,
                 [&](std::size_t k) { advance_pair(due[k], now); });
  for (const std::size_t i : due) {
    if (!tasks_[i].done) deadlines_.emplace(tasks_[i].next_deadline_s, i);
  }
  const auto processed =
      static_cast<std::size_t>(windows_processed_.load() - windows_before);
  NYQMON_OBS_COUNT("nyqmon_runtime_windows_total", processed);

  if (storage_ != nullptr && config_.checkpoint_interval_windows > 0) {
    windows_since_checkpoint_ += processed;
    if (windows_since_checkpoint_ >= config_.checkpoint_interval_windows) {
      windows_since_checkpoint_ = 0;
      checkpoint_locked();
    }
  }
  return processed;
}

std::size_t StreamingRuntime::step() {
  const double deadline = next_deadline_s();
  if (!std::isfinite(deadline)) return 0;
  clock_.sleep_until_s(deadline);
  return poll();
}

sto::FlushStats StreamingRuntime::checkpoint() {
  std::lock_guard<std::mutex> lock(scheduler_mu_);
  return checkpoint_locked();
}

sto::FlushStats StreamingRuntime::checkpoint_locked() {
  // Caller holds scheduler_mu_, so *runtime* ingest is quiesced: the only
  // runtime writers are poll() workers, and they are not running. Server-
  // side INGEST is the server's responsibility — NyqmondServer parks every
  // reactor before invoking checkpoint() (run_quiesced), so no other
  // ingest path can land between the flush's store snapshot and the WAL
  // swap. Concurrent queries are fine — the flush reads through a
  // ReadSnapshot and never blocks on readers.
  if (storage_ == nullptr) {
    sto::FlushStats skipped;
    skipped.skipped = true;
    return skipped;
  }
  storage_->sync();
  const sto::FlushStats flush = storage_->flush(store_);
  checkpoints_.fetch_add(1);
  NYQMON_OBS_COUNT("nyqmon_runtime_checkpoints_total", 1);
  return flush;
}

eng::FleetRunResult StreamingRuntime::run_to_completion() {
  const auto t_start = std::chrono::steady_clock::now();
  while (!done()) {
    const double deadline = next_deadline_s();
    if (!std::isfinite(deadline)) break;
    clock_.sleep_until_s(deadline);
    poll();
  }

  std::lock_guard<std::mutex> lock(scheduler_mu_);
  NYQMON_CHECK_MSG(!finalized_, "run_to_completion() is single-shot");
  finalized_ = true;

  eng::FleetRunResult result;
  result.pairs.reserve(tasks_.size());
  for (const PairTask& task : tasks_) result.pairs.push_back(task.outcome);
  result.workers_used = resolve_workers(config_.engine.workers, fleet_.size());
  for (const auto& p : result.pairs) {
    result.adaptive_cost +=
        mon::cost_of_samples(p.adaptive_samples, config_.engine.cost);
    result.baseline_cost +=
        mon::cost_of_samples(p.baseline_samples, config_.engine.cost);
  }
  result.store = store_.rollup();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();

  if (storage_ != nullptr) {
    result.flush = checkpoint_locked();
    result.storage = storage_->stats();
    result.persisted = true;
  }
  return result;
}

RuntimeStats StreamingRuntime::stats() const {
  RuntimeStats s;
  s.pairs = tasks_.size();
  s.pairs_done = pairs_done_.load();
  s.windows_processed = windows_processed_.load();
  s.samples_acquired = samples_acquired_.load();
  s.values_ingested = values_ingested_.load();
  s.checkpoints = checkpoints_.load();
  s.now_s = clock_.now_s();
  return s;
}

}  // namespace nyqmon::rt
