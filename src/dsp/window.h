// Window functions for spectral analysis.
//
// Windowing reduces spectral leakage when the analysed block is not an
// integer number of signal periods — the common case for monitoring traces.
// The NyquistEstimator defaults to Hann.
#pragma once

#include <string>
#include <vector>

namespace nyqmon::dsp {

enum class WindowType {
  kRectangular,  // no taper; maximal leakage, best amplitude accuracy
  kHann,         // good general-purpose taper (default for nyqmon)
  kHamming,      // lower first sidelobe than Hann, slower rolloff
  kBlackman,     // very low sidelobes, wider main lobe
  kFlatTop,      // amplitude-accurate for tone measurement
};

/// Human-readable name ("hann", "blackman", ...).
std::string window_name(WindowType type);

/// Generate the length-n window coefficients. The default periodic form is
/// right for spectral analysis (blocks tile); the symmetric form
/// (denominator n-1) is right for FIR filter design, where the taps must be
/// exactly symmetric to preserve linear phase.
std::vector<double> make_window(WindowType type, std::size_t n,
                                bool symmetric = false);

/// Sum of squared window coefficients; used to normalize PSD energy so that
/// windowed and unwindowed analyses are comparable.
double window_energy(WindowType type, std::size_t n);

}  // namespace nyqmon::dsp
