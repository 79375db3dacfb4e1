// Time-series containers.
//
// Monitoring traces come in two flavours:
//   * TimeSeries — irregular (timestamp, value) pairs as collectors actually
//     record them (jittered timestamps, gaps, duplicates);
//   * RegularSeries — a uniform grid (t0, dt, values), the form all spectral
//     analysis requires. The pre-cleaner (preclean.h) converts the former to
//     the latter, following the paper's nearest-neighbour re-sampling.
#pragma once

#include <span>
#include <vector>

namespace nyqmon::sig {

/// One measurement: time in seconds (epoch-relative), numeric value.
struct Sample {
  double t = 0.0;
  double v = 0.0;

  friend bool operator==(const Sample&, const Sample&) = default;
};

/// Irregularly sampled series. Samples are kept sorted by time.
class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::vector<Sample> samples);

  void push(double t, double v);

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const Sample& operator[](std::size_t i) const { return samples_[i]; }
  const std::vector<Sample>& samples() const { return samples_; }

  double start_time() const;
  double end_time() const;
  double duration() const;

  /// Median spacing between consecutive samples; the natural guess for the
  /// intended polling interval of a jittery trace. Requires size() >= 2.
  double median_interval() const;

  std::vector<double> values() const;
  std::vector<double> times() const;

 private:
  std::vector<Sample> samples_;
};

/// Uniformly sampled series: value i was measured at t0 + i*dt.
class RegularSeries {
 public:
  RegularSeries() = default;
  RegularSeries(double t0, double dt, std::vector<double> values);

  double t0() const { return t0_; }
  double dt() const { return dt_; }
  double sample_rate_hz() const { return 1.0 / dt_; }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double duration() const;
  double time_at(std::size_t i) const { return t0_ + static_cast<double>(i) * dt_; }

  double operator[](std::size_t i) const { return values_[i]; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }
  std::span<const double> span() const { return values_; }

  /// Sub-range [first, first+count) as a RegularSeries on the same grid.
  RegularSeries slice(std::size_t first, std::size_t count) const;

 private:
  double t0_ = 0.0;
  double dt_ = 1.0;
  std::vector<double> values_;
};

}  // namespace nyqmon::sig
