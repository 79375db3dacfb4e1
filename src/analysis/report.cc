#include "analysis/report.h"

#include "analysis/cdf.h"
#include "util/ascii.h"

namespace nyqmon::ana {

std::string render_box_table(const std::vector<BoxRow>& rows) {
  AsciiTable table({"metric", "n", "min", "q1", "median", "q3", "max"});
  for (const auto& r : rows) {
    table.row({r.label, std::to_string(r.summary.count),
               AsciiTable::format_double(r.summary.min),
               AsciiTable::format_double(r.summary.q1),
               AsciiTable::format_double(r.summary.median),
               AsciiTable::format_double(r.summary.q3),
               AsciiTable::format_double(r.summary.max)});
  }
  return table.render();
}

std::string render_quantile_table(const std::vector<QuantileRow>& rows) {
  AsciiTable table({"label", "n", "p5", "p25", "p50", "p75", "p95"});
  for (const auto& r : rows) {
    if (r.samples.empty()) {
      table.row({r.label, "0", "-", "-", "-", "-", "-"});
      continue;
    }
    const Cdf cdf(r.samples);
    table.row({r.label, std::to_string(cdf.count()),
               AsciiTable::format_double(cdf.quantile(0.05)),
               AsciiTable::format_double(cdf.quantile(0.25)),
               AsciiTable::format_double(cdf.quantile(0.50)),
               AsciiTable::format_double(cdf.quantile(0.75)),
               AsciiTable::format_double(cdf.quantile(0.95))});
  }
  return table.render();
}

}  // namespace nyqmon::ana
