#include "query/spec.h"

#include <cmath>
#include <cstdio>
#include <string>

#include "util/check.h"

namespace nyqmon::qry {

const char* to_string(Transform t) {
  switch (t) {
    case Transform::kRaw: return "raw";
    case Transform::kRate: return "rate";
    case Transform::kZScore: return "zscore";
  }
  return "?";
}

const char* to_string(Aggregation a) {
  switch (a) {
    case Aggregation::kNone: return "none";
    case Aggregation::kSum: return "sum";
    case Aggregation::kAvg: return "avg";
    case Aggregation::kMin: return "min";
    case Aggregation::kMax: return "max";
    case Aggregation::kP50: return "p50";
    case Aggregation::kP95: return "p95";
    case Aggregation::kP99: return "p99";
  }
  return "?";
}

void QuerySpec::validate() const {
  NYQMON_CHECK_MSG(!selector.empty(), "query selector is empty");
  NYQMON_CHECK_MSG(std::isfinite(t_begin) && std::isfinite(t_end) &&
                       std::isfinite(step_s),
                   "query range and step must be finite");
  NYQMON_CHECK_MSG(t_begin < t_end, "query range is empty or inverted");
  NYQMON_CHECK_MSG(step_s > 0.0, "query alignment step must be > 0");
  // In double, before grid_points() casts: the span of two finite bounds
  // can still overflow to inf.
  NYQMON_CHECK_MSG((t_end - t_begin) / step_s <=
                       static_cast<double>(kMaxGridPoints),
                   "query output grid exceeds " +
                       std::to_string(kMaxGridPoints) +
                       " points; narrow the range or coarsen step_s");
}

std::size_t QuerySpec::grid_points() const {
  if (!(t_end > t_begin) || !(step_s > 0.0)) return 0;
  // Count of i with t_begin + i*step < t_end; the epsilon keeps an exact
  // multiple of step from gaining a point at t_end through FP rounding.
  return static_cast<std::size_t>(
      std::ceil((t_end - t_begin) / step_s - 1e-9));
}

std::string QuerySpec::canonical_key() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "|%.17g|%.17g|%.17g|%s|%s", t_begin, t_end,
                step_s, to_string(transform), to_string(aggregate));
  return selector + buf;
}

}  // namespace nyqmon::qry
