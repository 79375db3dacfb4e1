#include "query/merge.h"

#include <algorithm>
#include <stdexcept>

namespace nyqmon::qry {

namespace {

/// Sorted, deduped union of one string-vector member across all slices.
void sorted_union(std::vector<ShardSlice>& slices,
                  std::vector<std::string> ShardSlice::*member,
                  std::vector<std::string>& out) {
  for (const ShardSlice& s : slices)
    out.insert(out.end(), (s.*member).begin(), (s.*member).end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace

std::vector<QuerySeries> reduce_streams(const QuerySpec& spec,
                                        std::vector<QuerySeries> streams) {
  if (streams.empty() || spec.aggregate == Aggregation::kNone) return streams;
  // Cross-stream reduction per output timestamp, iterating streams in
  // lexicographic order (deterministic FP accumulation).
  const std::size_t n_out = spec.grid_points();
  std::vector<double> reduced(n_out, 0.0);
  std::vector<double> column(streams.size());
  std::vector<double> scratch;
  for (std::size_t t = 0; t < n_out; ++t) {
    for (std::size_t i = 0; i < streams.size(); ++i)
      column[i] = streams[i].series[t];
    reduced[t] = aggregate_column(spec.aggregate, column, &scratch);
  }
  std::vector<QuerySeries> out;
  out.push_back(
      {std::string(to_string(spec.aggregate)) + "(" + spec.selector + ")",
       sig::RegularSeries(spec.t_begin, spec.step_s, std::move(reduced))});
  return out;
}

MergedQuery merge_shard_slices(const QuerySpec& spec,
                               std::vector<ShardSlice> slices,
                               const ShardOwner& owner) {
  MergedQuery merged;
  sorted_union(slices, &ShardSlice::matched, merged.matched);

  // Per-stream series: the owner's copy of a duplicate wins, else the
  // first in slice order (see header), then lexicographic by label — the
  // order QueryEngine::execute emits.
  std::vector<QuerySeries> streams;
  for (ShardSlice& s : slices) {
    for (QuerySeries& qs : s.series) {
      const auto have = std::find_if(
          streams.begin(), streams.end(),
          [&](const QuerySeries& kept) { return kept.label == qs.label; });
      if (have == streams.end()) {
        streams.push_back(std::move(qs));
        continue;
      }
      ++merged.duplicate_streams;
      if (owner && owner(qs.label) == s.shard) *have = std::move(qs);
    }
  }
  std::stable_sort(streams.begin(), streams.end(),
                   [](const QuerySeries& a, const QuerySeries& b) {
                     return a.label < b.label;
                   });
  merged.reconstructed.reserve(streams.size());
  for (const QuerySeries& qs : streams) merged.reconstructed.push_back(qs.label);

  const std::size_t n_out = spec.grid_points();
  for (const QuerySeries& qs : streams)
    if (qs.series.size() != n_out)
      throw std::runtime_error(
          "shard series '" + qs.label + "' has " +
          std::to_string(qs.series.size()) + " points, spec grid has " +
          std::to_string(n_out) + " — shards answered different specs");

  merged.series = reduce_streams(spec, std::move(streams));
  return merged;
}

}  // namespace nyqmon::qry
