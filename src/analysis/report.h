// ASCII table renderers for the bench harnesses and the fleet report:
// box-plot rows (Figure 5) and quantile rows, the compact form of the CDF
// panels (Figure 4).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "signal/stats.h"

namespace nyqmon::ana {

/// One labelled box-plot row (Figure 5 style).
struct BoxRow {
  std::string label;
  sig::Summary summary;
};

/// Render labelled five-number summaries as a table.
std::string render_box_table(const std::vector<BoxRow>& rows);

/// One labelled sample view for a quantile table (the samples must outlive
/// the row; rendering copies nothing).
struct QuantileRow {
  std::string label;
  std::span<const double> samples;
};

/// Render labelled distributions as p5/p25/p50/p75/p95 quantile rows — the
/// compact form of the per-metric CDF panels the fleet engine report uses.
std::string render_quantile_table(const std::vector<QuantileRow>& rows);

}  // namespace nyqmon::ana
