// Plan cache accounting: the per-thread dsp::Workspace builds each plan
// once per shape, so a thread that repeats shapes stops building after its
// first pair, and its counters survive a reset.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "dsp/fft.h"
#include "dsp/goertzel.h"
#include "dsp/workspace.h"

namespace {

using namespace nyqmon;

// One pair's worth of fixed-shape DSP work: a radix-2 rfft round trip, a
// Bluestein-length transform and a batched Goertzel.
void process_fixed_shape_pair() {
  std::vector<double> x(256);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(0.05 * static_cast<double>(i));
  const auto half = dsp::rfft(x);
  const auto back = dsp::irfft(half, x.size());
  ASSERT_EQ(back.size(), x.size());

  std::vector<double> odd(100);
  for (std::size_t i = 0; i < odd.size(); ++i)
    odd[i] = static_cast<double>(i % 7) - 3.0;
  const auto spec = dsp::fft_real(odd);
  ASSERT_EQ(spec.size(), odd.size());

  const double freqs[] = {1.0, 2.5, 7.75};
  const auto powers = dsp::goertzel_power_multi(x, 64.0, freqs);
  ASSERT_EQ(powers.size(), 3u);
}

TEST(Workspace, PlanBuildsStopAfterWarmup) {
  // The DSP calls draw on the calling thread's workspace. A prior test on
  // this thread may have warmed it; wipe it so the first pair is a genuine
  // cold start.
  dsp::Workspace& ws = dsp::this_thread_workspace();
  ws.reset();
  const std::uint64_t base_plan_builds = ws.plan_builds();
  const std::uint64_t base_flushes = ws.cache_flushes();

  constexpr std::size_t kPairs = 8;
  std::uint64_t first_pair_builds = 0;
  for (std::size_t p = 0; p < kPairs; ++p) {
    const std::uint64_t before = ws.plan_builds();
    process_fixed_shape_pair();
    const std::uint64_t builds = ws.plan_builds() - before;
    if (p == 0) {
      first_pair_builds = builds;
      EXPECT_GT(builds, 0u) << "cold pair must build plans";
    } else {
      EXPECT_EQ(builds, 0u) << "warm pair " << p << " built plans";
    }
  }

  EXPECT_EQ(ws.plan_builds() - base_plan_builds, first_pair_builds);
  EXPECT_GT(ws.plan_cache_bytes(), 0u);
  EXPECT_EQ(ws.cache_flushes(), base_flushes);
}

TEST(Workspace, CountersSurviveReset) {
  dsp::Workspace ws;
  ws.radix2_plan(64);
  const std::uint64_t builds = ws.plan_builds();
  EXPECT_GT(builds, 0u);
  ws.reset();
  EXPECT_EQ(ws.plan_builds(), builds);  // cumulative
  EXPECT_EQ(ws.plan_cache_bytes(), 0u);
  ws.radix2_plan(64);
  EXPECT_GT(ws.plan_builds(), builds);  // rebuilt after the wipe
}

}  // namespace
