// Utility layer: seeded RNG distributions, CSV writing, ASCII rendering,
// contract-check macros, the parallel_claim fan-out.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/ascii.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using nyqmon::AsciiTable;
using nyqmon::CsvWriter;
using nyqmon::Rng;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 10; ++i)
    if (a.uniform(0, 1) != b.uniform(0, 1)) differ = true;
  EXPECT_TRUE(differ);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent1(5);
  Rng child1 = parent1.fork();
  Rng parent2(5);
  Rng child2 = parent2.fork();
  EXPECT_DOUBLE_EQ(child1.uniform(0, 1), child2.uniform(0, 1));
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, LogUniformCoversDecades) {
  Rng rng(12);
  int low = 0, high = 0;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.log_uniform(1e-6, 1e-2);
    EXPECT_GE(v, 1e-6);
    EXPECT_LE(v, 1e-2 * (1.0 + 1e-9));
    if (v < 1e-5) ++low;
    if (v > 1e-3) ++high;
  }
  // Each decade carries ~25% of mass under a log-uniform law.
  EXPECT_NEAR(low / 2000.0, 0.25, 0.06);
  EXPECT_NEAR(high / 2000.0, 0.25, 0.06);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 3.0, 0.1);
}

TEST(Rng, ParetoHeavyTail) {
  Rng rng(14);
  for (int i = 0; i < 100; ++i) EXPECT_GE(rng.pareto(1.0, 2.0), 1.0);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(15);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, InvalidArgsThrow) {
  Rng rng(16);
  EXPECT_THROW((void)rng.uniform(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)rng.log_uniform(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW((void)rng.bernoulli(1.5), std::invalid_argument);
  EXPECT_THROW((void)rng.index(0), std::invalid_argument);
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "/tmp/nyqmon_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({"1", "hello"});
    csv.row_numeric({2.5, -3.0});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,hello");
  std::getline(in, line);
  EXPECT_EQ(line, "2.5,-3");
  std::remove(path.c_str());
}

TEST(Csv, EscapesSpecialCharacters) {
  const std::string path = "/tmp/nyqmon_csv_escape.csv";
  {
    CsvWriter csv(path, {"x"});
    csv.row({"with,comma"});
    csv.row({"with\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  std::getline(in, line);
  EXPECT_EQ(line, "\"with,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with\"\"quote\"");
  std::remove(path.c_str());
}

TEST(Csv, RowWidthMismatchThrows) {
  CsvWriter csv("/tmp/nyqmon_csv_width.csv", {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), std::invalid_argument);
  std::remove("/tmp/nyqmon_csv_width.csv");
}

TEST(Csv, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}),
               std::runtime_error);
}

TEST(Ascii, TableAlignsColumns) {
  AsciiTable t({"name", "value"});
  t.row({"x", "1"});
  t.row({"longer-name", "2"});
  const auto text = t.render();
  EXPECT_NE(text.find("longer-name"), std::string::npos);
  // Header, rule, two rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(Ascii, TableRowWidthMismatchThrows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.row({"1"}), std::invalid_argument);
}

TEST(Ascii, BarchartScalesToMax) {
  const auto text = nyqmon::ascii_barchart({{"a", 1.0}, {"b", 2.0}}, 10);
  std::istringstream is(text);
  std::string line_a, line_b;
  std::getline(is, line_a);
  std::getline(is, line_b);
  EXPECT_EQ(std::count(line_a.begin(), line_a.end(), '#'), 5);
  EXPECT_EQ(std::count(line_b.begin(), line_b.end(), '#'), 10);
}

TEST(Ascii, SeriesHandlesEdgeCases) {
  EXPECT_NE(nyqmon::ascii_series({}, 10, 4).find("empty"), std::string::npos);
  const auto flat = nyqmon::ascii_series({1.0, 1.0, 1.0}, 10, 4);
  EXPECT_NE(flat.find('*'), std::string::npos);
}

TEST(Check, MacrosThrowExpectedTypes) {
  EXPECT_THROW(NYQMON_CHECK(false), std::invalid_argument);
  EXPECT_THROW(NYQMON_CHECK_MSG(false, "context"), std::invalid_argument);
  EXPECT_THROW(NYQMON_ENSURE(false), std::logic_error);
  EXPECT_NO_THROW(NYQMON_CHECK(true));
}

TEST(Check, MessageContainsContext) {
  try {
    NYQMON_CHECK_MSG(1 == 2, "the-context");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("the-context"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(ParallelClaim, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kTasks = 257;
  for (const std::size_t workers : {1u, 4u}) {
    std::vector<std::atomic<int>> runs(kTasks);
    EXPECT_EQ(nyqmon::parallel_claim(kTasks, workers,
                                     [&](std::size_t i) { ++runs[i]; }),
              workers);
    for (std::size_t i = 0; i < kTasks; ++i)
      EXPECT_EQ(runs[i].load(), 1) << "index " << i << ", " << workers;
  }
}

TEST(ParallelClaim, CallingThreadClaimsAShare) {
  // Each task holds its worker until four distinct threads have checked in,
  // so each of the four workers claims exactly one task. The caller must be
  // one of them rather than idling in join().
  constexpr std::size_t kWorkers = 4;
  std::mutex mu;
  std::condition_variable arrived;
  std::set<std::thread::id> ids;
  nyqmon::parallel_claim(kWorkers, kWorkers, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
    arrived.notify_all();
    arrived.wait_for(lock, std::chrono::seconds(10),
                     [&] { return ids.size() == kWorkers; });
  });
  EXPECT_EQ(ids.size(), kWorkers);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);
}

TEST(ParallelClaim, TaskExceptionReachesCallerAfterWorkersJoin) {
  // A throwing task on a pooled std::thread would std::terminate the
  // process; parallel_claim must stop handing out indices, join every
  // worker, and only then rethrow on the calling thread.
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kThrowing = 5;
  for (const std::size_t workers : {1u, 4u}) {
    std::vector<std::atomic<int>> runs(kTasks);
    std::atomic<int> in_flight{0};
    try {
      nyqmon::parallel_claim(kTasks, workers, [&](std::size_t i) {
        ++runs[i];
        if (i == kThrowing) throw std::runtime_error("task failed");
        // Slow tasks: other workers are mid-task when the throw happens,
        // so a rethrow before they join would see in_flight > 0.
        ++in_flight;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        --in_flight;
      });
      ADD_FAILURE() << "no exception reached the caller, " << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task failed");
      EXPECT_EQ(in_flight.load(), 0) << "rethrown before workers joined";
    }
    EXPECT_EQ(runs[kThrowing].load(), 1);
    std::size_t ran = 0;
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_LE(runs[i].load(), 1) << "index " << i << " ran twice";
      ran += static_cast<std::size_t>(runs[i].load());
    }
    // Claiming stops at the failure: the tasks in flight then finish, but
    // no worker picks up the rest of the queue.
    EXPECT_LT(ran, kTasks) << workers;
  }
}

}  // namespace
