// Cross-shard query merging — the entry point that lets a sharded
// nyqmond fleet answer exactly like one process.
//
// The cluster router sends a QUERY to the nodes it asks with the
// aggregation stripped (Aggregation::kNone), so each shard returns its own
// streams' aligned, transformed per-stream series. This module gathers those
// slices back into the single-node answer: per-stream series are merged
// in lexicographic stream-ID order (the same order QueryEngine::execute
// processes them), duplicates from a segment handoff are dropped
// deterministically (the owning shard's copy wins), and the cross-stream
// aggregation runs through reduce_streams(), the function the engine
// answers with too — so a 1-node and an N-node fleet produce
// bit-identical QueryResult bytes, whatever the sharding.
//
// The transform/aggregation primitives live here (not in engine.cc) for
// exactly that reason: one definition, two call sites, no drift.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/cdf.h"
#include "query/spec.h"
#include "signal/stats.h"

namespace nyqmon::qry {

/// In-place per-stream transform on the aligned output grid. Applied by
/// the shard that reconstructed the stream (transforms are per-stream, so
/// they commute with sharding). Inline: this sits in the engine's
/// per-stream hot loop.
inline void apply_transform(Transform transform, double step_s,
                            std::vector<double>& v) {
  switch (transform) {
    case Transform::kRaw:
      return;
    case Transform::kRate:
      // Backward difference per second; the first point has no left
      // neighbour and is defined as 0.
      for (std::size_t i = v.size(); i-- > 1;)
        v[i] = (v[i] - v[i - 1]) / step_s;
      if (!v.empty()) v[0] = 0.0;
      return;
    case Transform::kZScore: {
      if (v.empty()) return;
      const double m = sig::mean(v);
      const double s = sig::stddev(v);
      if (s > 0.0) {
        for (double& x : v) x = (x - m) / s;
      } else {
        std::fill(v.begin(), v.end(), 0.0);  // flat window: zero by definition
      }
      return;
    }
  }
}

/// Quantile `q` of a non-empty `column`, with the bits of
/// ana::Cdf(column).quantile(q) but found by selection, not a sort.
/// nth_element puts order statistic lo in place in `scratch`, statistic
/// lo + 1 is the smallest value after it, and Cdf::quantile's expression
/// interpolates the two. A nonzero double has one bit pattern, so a
/// selection and a sort pick the same bits at any rank whose value is
/// nonzero. Which of +0 and -0 lands at a rank, and where NaN lands, is up
/// to the algorithm: a column holding NaN, or a selected value of zero,
/// gets the Cdf's answer.
inline double column_quantile(double q, const std::vector<double>& column,
                              std::vector<double>& scratch) {
  const std::size_t n = column.size();
  if (n == 1) return column[0];
  if (n == 0 || std::any_of(column.begin(), column.end(),
                            [](double x) { return std::isnan(x); }))
    return ana::Cdf(column).quantile(q);
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  scratch.assign(column.begin(), column.end());
  const auto at_lo = scratch.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(scratch.begin(), at_lo, scratch.end());
  const double a = *at_lo;
  const double b = lo + 1 < n ? *std::min_element(at_lo + 1, scratch.end()) : a;
  if (a == 0.0 || b == 0.0) return ana::Cdf(column).quantile(q);
  const double frac = pos - std::floor(pos);
  return a * (1.0 - frac) + b * frac;
}

/// One cross-stream reduction over the per-stream values at a single
/// output timestamp. `column` holds one value per stream, in
/// lexicographic stream-ID order — FP accumulation order is part of the
/// determinism contract. kNone is not a reduction and returns 0.
/// `scratch` is the work column a reduction reuses from one timestamp to
/// the next; without one, a quantile allocates its own. Inline: called
/// once per output grid point.
inline double aggregate_column(Aggregation agg,
                               const std::vector<double>& column,
                               std::vector<double>* scratch = nullptr) {
  std::vector<double> own;
  std::vector<double>& work = scratch != nullptr ? *scratch : own;
  switch (agg) {
    case Aggregation::kNone:
      break;  // unreachable: kNone never reduces
    case Aggregation::kSum:
    case Aggregation::kAvg: {
      double sum = 0.0;
      for (const double x : column) sum += x;
      return agg == Aggregation::kSum
                 ? sum
                 : sum / static_cast<double>(column.size());
    }
    case Aggregation::kMin:
      return *std::min_element(column.begin(), column.end());
    case Aggregation::kMax:
      return *std::max_element(column.begin(), column.end());
    case Aggregation::kP50:
      return column_quantile(0.50, column, work);
    case Aggregation::kP95:
      return column_quantile(0.95, column, work);
    case Aggregation::kP99:
      return column_quantile(0.99, column, work);
  }
  return 0.0;
}

/// The client-facing series for `streams` (per-stream series on `spec`'s
/// grid, lexicographic by label): the streams themselves for kNone,
/// otherwise one "<agg>(<selector>)" series that reduces them column by
/// column in that order. No streams, no series.
std::vector<QuerySeries> reduce_streams(const QuerySpec& spec,
                                        std::vector<QuerySeries> streams);

/// What one shard contributed to a scattered query: its matched stream
/// IDs (lexicographic) and its per-stream series (Aggregation::kNone,
/// lexicographic by label; only reconstructed streams carry a series).
struct ShardSlice {
  std::vector<std::string> matched;
  std::vector<QuerySeries> series;
  /// The shard that answered (the cluster's node index), matched against
  /// ShardOwner when two slices hold the same stream.
  std::size_t shard = 0;
};

/// The shard that owns a stream ID: the one further writes reach.
using ShardOwner = std::function<std::size_t(std::string_view)>;

/// The fleet-level answer assembled from shard slices.
struct MergedQuery {
  std::vector<std::string> matched;        ///< deduped union, lexicographic
  std::vector<std::string> reconstructed;  ///< deduped union, lexicographic
  /// Final client-facing series: per-stream for kNone, a single
  /// aggregate series otherwise (empty when nothing was reconstructed —
  /// matching QueryEngine::execute).
  std::vector<QuerySeries> series;
  /// Streams contributed by more than one shard (a handoff left a copy
  /// away from the owner). The owner's copy wins when a slice from the
  /// owning shard holds it, else the first copy in slice order: ingest
  /// after a handoff reaches only the owner, so another copy may be stale.
  std::size_t duplicate_streams = 0;
};

/// Merge shard slices into the single-node answer for `spec` (the
/// *original* client spec, with its aggregation). `owner` names each
/// stream's owning shard; it is asked only about duplicated streams, and
/// without it the first copy in slice order wins. Slices must all be
/// grids of the same spec: series of differing lengths throw
/// std::runtime_error (a shard answered a different query).
MergedQuery merge_shard_slices(const QuerySpec& spec,
                               std::vector<ShardSlice> slices,
                               const ShardOwner& owner = {});

}  // namespace nyqmon::qry
