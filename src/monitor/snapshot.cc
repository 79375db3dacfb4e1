#include "monitor/snapshot.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dsp/resample.h"

namespace nyqmon::mon {

namespace {

/// How close, in grid steps, a grid point just before a chunk bound must be
/// to count as on it. It absorbs the rounding of chunk origins: at an
/// origin of 1.7e9 s one ULP is 2.4e-7 s, 2.4e-3 steps at 10 kHz. An offset
/// this small is rounding, not a query start between two samples.
constexpr double kSlackSteps = 1e-2;

}  // namespace

sig::RegularSeries reconstruct_range(double collection_rate_hz,
                                     std::span<const SealedChunkRef> chunks,
                                     std::span<const double> hot,
                                     double hot_t0, double t_begin,
                                     double t_end) {
  const double dt = 1.0 / collection_rate_hz;

  // Half-open [t_begin, t_end): inverted/empty ranges clamp to a defined
  // empty series on the collection grid instead of reaching reconstruction.
  const auto n = t_end > t_begin
                     ? static_cast<std::size_t>(
                           std::floor((t_end - t_begin) / dt + 0.5))
                     : 0;
  if (n == 0) return sig::RegularSeries(t_begin, dt, {});

  // Assemble the query grid and fill it chunk by chunk; each sealed chunk
  // is reconstructed onto the collection grid by band-limited resampling,
  // the hot tail is already on it.
  std::vector<double> grid(n, 0.0);
  std::vector<bool> filled(n, false);

  // First grid index at or after `steps` grid steps from t_begin, within a
  // slack of kSlackSteps, clamped to [0, n].
  const auto grid_index = [n](double steps) {
    return static_cast<std::size_t>(std::clamp(
        std::ceil(steps - kSlackSteps), 0.0, static_cast<double>(n)));
  };

  auto fill_from = [&](double c_t0, double c_dt,
                       std::span<const double> values) {
    if (values.empty()) return;
    const double c_end = c_t0 + c_dt * static_cast<double>(values.size());
    // Dense representation of this chunk on the collection grid.
    const auto dense_n = static_cast<std::size_t>(std::max(
        2.0, std::round((c_end - c_t0) / dt)));
    std::vector<double> dense =
        values.size() == dense_n
            ? std::vector<double>(values.begin(), values.end())
            : dsp::resample_fourier(values, dense_n);
    // The grid points the chunk covers, from its bounds in steps from
    // t_begin, once per chunk: the times t_begin + i * dt round to one ULP
    // of the origin (2.4e-7 s at 1.7e9), far more than a fixed slack in
    // seconds allows for.
    const double first = (c_t0 - t_begin) * collection_rate_hz;
    const double last = (c_end - t_begin) * collection_rate_hz;
    const std::size_t i_end = grid_index(last);
    for (std::size_t i = grid_index(first); i < i_end; ++i) {
      const double t = t_begin + static_cast<double>(i) * dt;
      const auto j = static_cast<std::size_t>(
          std::min(static_cast<double>(dense.size() - 1),
                   std::max(0.0, std::round((t - c_t0) / dt))));
      grid[i] = dense[j];
      filled[i] = true;
    }
  };

  for (const auto& chunk : chunks)
    fill_from(chunk->t0, chunk->dt, chunk->values);
  fill_from(hot_t0, dt, hot);

  // Holes (queries beyond stored data) hold the nearest filled value.
  double last = 0.0;
  bool seen = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (filled[i]) {
      last = grid[i];
      seen = true;
    } else if (seen) {
      grid[i] = last;
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    if (filled[i]) {
      last = grid[i];
      seen = true;
    } else if (seen) {
      grid[i] = last;
    }
  }

  // Range entirely disjoint from stored data: hold the nearest stored
  // value (the first for grids before the data, the last for grids past
  // its end — judged by the last actual grid point, not t_end, which can
  // overshoot the final point by up to a step). A stream with no data at
  // all stays zero.
  if (!seen && (!hot.empty() || !chunks.empty())) {
    const double data_t0 = chunks.empty() ? hot_t0 : chunks.front()->t0;
    const double first =
        chunks.empty() ? hot.front() : chunks.front()->values.front();
    const double final_value =
        hot.empty() ? chunks.back()->values.back() : hot.back();
    const double t_last = t_begin + dt * static_cast<double>(n - 1);
    std::fill(grid.begin(), grid.end(),
              t_last < data_t0 ? first : final_value);
  }
  return sig::RegularSeries(t_begin, dt, std::move(grid));
}

}  // namespace nyqmon::mon
