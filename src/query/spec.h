// Query specification and result types for the fleet serving layer.
//
// A QuerySpec is the read-side counterpart of the paper's a-posteriori
// store: it names a population of retained streams (glob selector), a
// half-open time range, an output alignment grid, an optional per-stream
// transform, and a cross-stream aggregation. Specs canonicalize to a
// stable string key so structurally identical queries share one result
// cache entry.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "signal/timeseries.h"

namespace nyqmon::qry {

/// Per-stream transform applied after grid alignment, before aggregation.
enum class Transform {
  kRaw,        ///< reconstructed values as stored
  kRate,       ///< first difference / step (rate of change per second)
  kZScore,     ///< (v - mean) / stddev over the queried window
};

/// Cross-stream aggregation per output timestamp.
enum class Aggregation {
  kNone,  ///< one output series per matched stream
  kSum,
  kAvg,
  kMin,
  kMax,
  kP50,
  kP95,
  kP99,
};

const char* to_string(Transform t);
const char* to_string(Aggregation a);

/// Most points one query may place on a grid: its output grid, or a
/// matched stream's collection grid over the range. 2^22 doubles are
/// 32 MiB; the 16 MiB reply frame already bounds a wire answer near 2^21
/// points.
inline constexpr std::size_t kMaxGridPoints = std::size_t{1} << 22;

struct QuerySpec {
  /// Glob over stream IDs (see query/selector.h), e.g. "rack3-*/temperature".
  std::string selector;
  /// Half-open query range [t_begin, t_end), seconds.
  double t_begin = 0.0;
  double t_end = 0.0;
  /// Output alignment step: every matched stream is reconstructed onto the
  /// grid t_begin + i * step_s regardless of its own collection rate, which
  /// is what makes cross-stream aggregation well-defined.
  double step_s = 0.0;
  Transform transform = Transform::kRaw;
  Aggregation aggregate = Aggregation::kNone;

  /// Throws std::invalid_argument unless the spec is well-formed: non-empty
  /// selector, finite t_begin < t_end, finite step_s > 0, and an output grid
  /// of at most kMaxGridPoints points.
  void validate() const;

  /// Number of output grid points of a validated spec: timestamps
  /// t_begin + i*step_s < t_end.
  std::size_t grid_points() const;

  /// Stable, collision-resistant-enough text key for the result cache:
  /// structurally identical specs (selector, range, step, transform,
  /// aggregation) canonicalize to the same string.
  std::string canonical_key() const;
};

/// One output series. For Aggregation::kNone, `label` is the stream ID;
/// otherwise it spells the aggregate, e.g. "p95(rack*/cpu_util)".
struct QuerySeries {
  std::string label;
  sig::RegularSeries series;
};

/// The immutable outcome of executing one spec; the cache hands the same
/// shared instance to every hit.
struct QueryResult {
  QuerySpec spec;
  /// Streams whose IDs matched the selector, lexicographic.
  std::vector<std::string> matched;
  /// The matched subset actually reconstructed: streams whose ingested data
  /// span overlaps the query range. The rest were pruned on metadata alone.
  std::vector<std::string> reconstructed;
  /// kNone: one entry per reconstructed stream (same order); aggregates:
  /// a single entry. Empty when nothing survived the prune.
  std::vector<QuerySeries> series;
};

/// One named, contiguously-timed stage of a query execution (EXPLAIN).
struct QueryStageTiming {
  const char* stage = nullptr;  ///< literal stage name
  std::uint64_t ns = 0;
};

/// What QueryEngine::run() hands back: the (possibly cached) result plus
/// whether this call was served from the cache, and the per-call stage
/// breakdown backing the wire-level query EXPLAIN. Stages are timed with
/// contiguous marks of one clock started with the call, and total_ns is
/// the time of its last mark, so the stages sum to total_ns exactly; they
/// describe *this call* (a cache hit reports just match + cache),
/// never the cached result's original execution.
struct QueryResponse {
  std::shared_ptr<const QueryResult> result;
  bool cache_hit = false;
  std::uint64_t total_ns = 0;
  std::vector<QueryStageTiming> stages;
};

}  // namespace nyqmon::qry
