// Retention store: the paper's a-posteriori policy as a component you can
// drop behind a collector — "measure at a high rate, compute the nyquist
// rate over the measurements and store ... only the measurements that are
// re-sampled at the lower nyquist rate" (Section 4).
//
// Two streams are ingested at one sample/second: a slow, oversampled link
// utilization and a bursty drop counter. The store shrinks the former and
// keeps the latter at full rate; queries reconstruct transparently.
#include <cstdio>
#include <vector>

#include "monitor/striped_store.h"
#include "reconstruct/error.h"
#include "signal/generators.h"
#include "util/rng.h"

int main() {
  using namespace nyqmon;

  Rng rng(42);
  const auto link = sig::make_bandlimited_process(2e-3, 10.0, 24, rng, 40.0);
  const auto drops = sig::make_burst_process(
      /*duration=*/7200.0, /*rate=*/0.02, /*sigma=*/4.0, /*amp=*/30.0, rng);

  mon::StoreConfig cfg;
  cfg.chunk_samples = 1024;
  mon::StripedRetentionStore store(cfg);
  store.create_stream("tor7/link_util", 1.0);
  store.create_stream("tor7/drops", 1.0);

  std::vector<double> link_values;
  std::vector<double> drop_values;
  for (int i = 0; i < 7200; ++i) {
    link_values.push_back(link->value(i));
    drop_values.push_back(drops->value(i));
  }
  store.append_series("tor7/link_util", link_values);
  store.append_series("tor7/drops", drop_values);

  for (const char* name : {"tor7/link_util", "tor7/drops"}) {
    const auto s = store.stats(name);
    std::printf("%-18s ingested %zu, stored %zu (%.1fx reduction, %zu/%zu "
                "chunks shrunk)\n",
                name, s.ingested_samples, s.stored_samples, s.reduction(),
                s.chunks_reduced, s.chunks);
  }

  // Query the link stream back and check fidelity against ground truth.
  const auto recon =
      store.acquire_snapshot().query("tor7/link_util", 500.0, 3500.0);
  std::vector<double> truth;
  truth.reserve(recon.size());
  for (std::size_t i = 0; i < recon.size(); ++i)
    truth.push_back(link->value(recon.time_at(i)));
  std::printf("\nquery [500, 3500): %zu samples, NRMSE vs ground truth "
              "%.4f\n",
              recon.size(), rec::nrmse(truth, recon.values()));
  const mon::StoreRollup rollup = store.rollup();
  std::printf("stored bytes: %llu of %llu raw (%.1fx compression)\n",
              static_cast<unsigned long long>(rollup.bytes_stored),
              static_cast<unsigned long long>(rollup.bytes_raw),
              rollup.compression_ratio());
  return 0;
}
