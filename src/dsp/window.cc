#include "dsp/window.h"

#include <cmath>
#include <numbers>

#include "dsp/workspace.h"
#include "util/check.h"

namespace nyqmon::dsp {

namespace {
constexpr double kPi = std::numbers::pi;
}

std::string window_name(WindowType type) {
  switch (type) {
    case WindowType::kRectangular: return "rectangular";
    case WindowType::kHann: return "hann";
    case WindowType::kHamming: return "hamming";
    case WindowType::kBlackman: return "blackman";
    case WindowType::kFlatTop: return "flattop";
  }
  return "unknown";
}

std::vector<double> make_window(WindowType type, std::size_t n,
                                bool symmetric) {
  NYQMON_CHECK(n >= 1);
  std::vector<double> w(n, 1.0);
  if (n == 1 || type == WindowType::kRectangular) return w;
  // Periodic windows use denominator n (blocks tile for spectral analysis);
  // symmetric windows use n-1 (taps mirror exactly for FIR design).
  const double denom = symmetric ? static_cast<double>(n - 1)
                                 : static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double p = 2.0 * kPi * static_cast<double>(i) / denom;
    switch (type) {
      case WindowType::kRectangular:
        break;
      case WindowType::kHann:
        w[i] = 0.5 - 0.5 * std::cos(p);
        break;
      case WindowType::kHamming:
        w[i] = 0.54 - 0.46 * std::cos(p);
        break;
      case WindowType::kBlackman:
        w[i] = 0.42 - 0.5 * std::cos(p) + 0.08 * std::cos(2.0 * p);
        break;
      case WindowType::kFlatTop:
        w[i] = 0.21557895 - 0.41663158 * std::cos(p) +
               0.277263158 * std::cos(2.0 * p) -
               0.083578947 * std::cos(3.0 * p) +
               0.006947368 * std::cos(4.0 * p);
        break;
    }
  }
  return w;
}

double window_energy(WindowType type, std::size_t n) {
  return this_thread_workspace().window_energy(type, n);
}

}  // namespace nyqmon::dsp
