#include "signal/timeseries.h"

#include <algorithm>

#include "util/check.h"

namespace nyqmon::sig {

TimeSeries::TimeSeries(std::vector<Sample> samples)
    : samples_(std::move(samples)) {
  std::stable_sort(samples_.begin(), samples_.end(),
                   [](const Sample& a, const Sample& b) { return a.t < b.t; });
}

void TimeSeries::push(double t, double v) {
  if (samples_.empty() || !(t < samples_.back().t)) {
    samples_.push_back({t, v});
    return;
  }
  // Out of order: insert after every sample at or before t, the place a
  // stable sort of the appended series would give it.
  const auto at = std::upper_bound(
      samples_.begin(), samples_.end(), t,
      [](double key, const Sample& s) { return key < s.t; });
  samples_.insert(at, {t, v});
}

double TimeSeries::start_time() const {
  NYQMON_CHECK(!empty());
  return samples_.front().t;
}

double TimeSeries::end_time() const {
  NYQMON_CHECK(!empty());
  return samples_.back().t;
}

double TimeSeries::duration() const { return end_time() - start_time(); }

double TimeSeries::median_interval() const {
  NYQMON_CHECK(size() >= 2);
  std::vector<double> gaps;
  gaps.reserve(size() - 1);
  for (std::size_t i = 1; i < size(); ++i)
    gaps.push_back(samples_[i].t - samples_[i - 1].t);
  const auto mid = gaps.begin() + static_cast<std::ptrdiff_t>(gaps.size() / 2);
  std::nth_element(gaps.begin(), mid, gaps.end());
  return *mid;
}

std::vector<double> TimeSeries::values() const {
  std::vector<double> out;
  out.reserve(size());
  for (const auto& s : samples_) out.push_back(s.v);
  return out;
}

std::vector<double> TimeSeries::times() const {
  std::vector<double> out;
  out.reserve(size());
  for (const auto& s : samples_) out.push_back(s.t);
  return out;
}

RegularSeries::RegularSeries(double t0, double dt, std::vector<double> values)
    : t0_(t0), dt_(dt), values_(std::move(values)) {
  NYQMON_CHECK_MSG(dt > 0.0, "RegularSeries dt must be positive");
}

double RegularSeries::duration() const {
  return values_.empty() ? 0.0
                         : static_cast<double>(values_.size() - 1) * dt_;
}

RegularSeries RegularSeries::slice(std::size_t first, std::size_t count) const {
  NYQMON_CHECK(first + count <= values_.size());
  return RegularSeries(
      time_at(first), dt_,
      std::vector<double>(values_.begin() + static_cast<std::ptrdiff_t>(first),
                          values_.begin() + static_cast<std::ptrdiff_t>(first + count)));
}

}  // namespace nyqmon::sig
