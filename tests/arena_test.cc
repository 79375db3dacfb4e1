// Scratch arena accounting: the per-thread dsp::Workspace must reach zero
// heap allocations once shapes repeat (the steady-state guarantee fleet
// throughput depends on), keep its counters across a reset, and — in
// Debug builds — poison-fill popped scratch frames and canary-check every
// allocation so buffer reuse across pairs can never leak stale samples
// silently.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <vector>

#include "dsp/fft.h"
#include "dsp/goertzel.h"
#include "dsp/workspace.h"

namespace {

using namespace nyqmon;

// One pair's worth of fixed-shape DSP work: a radix-2 rfft round trip, a
// Bluestein-length transform and a batched Goertzel — together they touch
// every workspace plan cache and the scratch stack.
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

TEST(Workspace, ZeroHeapAllocationsAfterWarmup) {
  // The DSP calls draw on the calling thread's workspace. A prior test on
  // this thread may have warmed it; wipe it so the first pair is a genuine
  // cold start.
  dsp::Workspace& ws = dsp::this_thread_workspace();
  ws.reset();
  const std::uint64_t base_allocs = ws.heap_allocations();
  const std::uint64_t base_plan_builds = ws.plan_builds();
  const std::uint64_t base_block_allocs = ws.scratch_block_allocs();
  const std::uint64_t base_flushes = ws.cache_flushes();

  constexpr std::size_t kPairs = 8;
  std::uint64_t first_pair_allocs = 0;
  for (std::size_t p = 0; p < kPairs; ++p) {
    const std::uint64_t before = ws.heap_allocations();
    process_fixed_shape_pair();
    const std::uint64_t allocs = ws.heap_allocations() - before;
    if (p == 0) {
      first_pair_allocs = allocs;
      EXPECT_GT(allocs, 0u) << "cold pair must build plans and scratch";
    } else {
      EXPECT_EQ(allocs, 0u) << "warm pair " << p << " allocated";
    }
  }

  EXPECT_EQ(ws.heap_allocations() - base_allocs, first_pair_allocs);
  EXPECT_EQ(ws.heap_allocations() - base_allocs,
            (ws.plan_builds() - base_plan_builds) +
                (ws.scratch_block_allocs() - base_block_allocs));
  EXPECT_GT(ws.plan_cache_bytes(), 0u);
  EXPECT_GT(ws.scratch_capacity_bytes(), 0u);
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

TEST(Workspace, ResetWithOpenFrameIsRejected) {
  dsp::Workspace ws;
  auto frame = ws.frame();
  frame.doubles(8);
  EXPECT_THROW(ws.reset(), std::invalid_argument);
}

#ifndef NDEBUG
TEST(Workspace, DebugPoisonFillsPoppedFrames) {
  dsp::Workspace ws;
  constexpr std::size_t kN = 32;
  {
    auto frame = ws.frame();
    double* p = frame.doubles(kN);
    for (std::size_t i = 0; i < kN; ++i) p[i] = 42.0;
  }
  // The next frame's identically-shaped allocation lands on the same
  // bytes; they must read back as poison, not as the 42.0s of the prior
  // "pair".
  auto frame = ws.frame();
  const auto* bytes =
      reinterpret_cast<const unsigned char*>(frame.doubles(kN));
  for (std::size_t i = 0; i < kN * sizeof(double); ++i)
    ASSERT_EQ(bytes[i], 0xA5u) << "byte " << i << " not poisoned";
}

using WorkspaceDeathTest = ::testing::Test;

TEST(WorkspaceDeathTest, DebugCanaryCatchesOverrun) {
  // Writing one element past an allocation smashes its trailing canary;
  // the frame pop must abort loudly (the check throws from a destructor,
  // which terminates) instead of corrupting a neighbouring buffer.
  EXPECT_DEATH(
      {
        dsp::Workspace ws;
        auto frame = ws.frame();
        double* p = frame.doubles(4);
        p[4] = 1.0;  // overrun into the canary
      },
      "canary");
}
#endif  // !NDEBUG

}  // namespace
