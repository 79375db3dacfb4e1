// Deterministic fan-out helper shared by the fleet audit, the query engine
// and the streaming runtime's poll fan-out.
//
// Runs `task(i)` for every i in [0, n_tasks) on the calling thread plus
// threads started for this call, all claiming indices from a shared atomic
// counter. Callers keep results deterministic by pre-forking any
// randomness sequentially and writing each task's output to its own
// pre-allocated slot; this helper only guarantees every index runs exactly
// once.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nyqmon {

/// Resolve a requested worker count: 0 means hardware concurrency, and the
/// result is clamped to [1, max(n_tasks, 1)].
inline std::size_t resolve_workers(std::size_t requested,
                                   std::size_t n_tasks) {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::max<std::size_t>(
      1, std::min(requested == 0 ? hw : requested,
                  std::max<std::size_t>(n_tasks, 1)));
}

/// Run task(0) .. task(n_tasks-1), each exactly once, on `workers` workers
/// (after resolve_workers clamping): the calling thread and workers - 1
/// threads started for this call. Returns the worker count actually used.
/// If a task throws, remaining tasks are abandoned and one of the thrown
/// exceptions is rethrown on the calling thread after all workers join —
/// an escape from a bare std::thread would std::terminate the process
/// instead.
inline std::size_t parallel_claim(
    std::size_t n_tasks, std::size_t workers,
    const std::function<void(std::size_t)>& task) {
  workers = resolve_workers(workers, n_tasks);
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  auto worker_loop = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n_tasks) break;
      try {
        task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        next.store(n_tasks);  // stop other workers claiming new tasks
        break;
      }
    }
  };
  std::vector<std::thread> started;
  started.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) started.emplace_back(worker_loop);
  worker_loop();
  for (auto& t : started) t.join();
  if (error) std::rethrow_exception(error);
  return workers;
}

}  // namespace nyqmon
