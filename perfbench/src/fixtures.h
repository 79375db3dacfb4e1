// Inputs and answer checks for the wire workloads: a seeded
// synthetic stream population, the store geometry both sides of a check
// use, and reply-vs-reference comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "monitor/striped_store.h"
#include "query/spec.h"
#include "server/client.h"
#include "server/protocol.h"

namespace perfbench {

/// splitmix64: the population's stateless randomness.
std::uint64_t mix64(std::uint64_t x);

/// A seeded population of named streams ("rack<r>-dev<d>/<kind>"). Every
/// sample is a pure function of (seed, stream, index), so a writer, a
/// preload and a reference store each generate any slice on their own and
/// agree bit for bit.
class Population {
 public:
  Population(std::uint64_t seed, std::size_t streams);

  std::size_t size() const { return names_.size(); }
  const std::string& name(std::size_t s) const { return names_[s]; }
  double rate_hz(std::size_t s) const { return rates_[s]; }

  /// Samples [first, first + out.size()) of stream s.
  void fill(std::size_t s, std::uint64_t first,
            std::vector<double>& out) const;

  /// Create every stream in `store` and append `values` samples to each,
  /// in batches of `batch` (the batch split the wire workloads use too).
  void preload(nyqmon::mon::StripedRetentionStore& store, std::size_t values,
               std::size_t batch) const;

  std::uint64_t digest(std::size_t values) const;

 private:
  std::uint64_t seed_;
  std::vector<std::string> names_;
  std::vector<double> rates_, level_, amplitude_, frequency_, phase_;
};

/// Store geometry of every store the wire workloads build.
nyqmon::mon::StoreConfig store_config();

/// Bounded waits for benchmark connections: a wedged server fails the run
/// instead of hanging it.
nyqmon::srv::ClientOptions client_options();

/// True when a wire reply carries exactly the reference result: the same
/// matched/reconstructed counts and, per series, the same label, grid and
/// value bits.
bool same_answer(const nyqmon::srv::QueryReply& reply,
                 const nyqmon::qry::QueryResult& expected);

}  // namespace perfbench
