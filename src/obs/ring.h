// The one bounded event buffer behind TraceRecorder and LogRecorder.
//
// An EventRing holds at most `capacity` events from every writing thread
// together, under one mutex. Its slots grow on demand up to the capacity;
// after that each push overwrites the oldest event and reports the drop,
// so the buffer is a bounded window onto recent activity whatever the
// number of threads that ever wrote to it (the runtime starts fresh
// worker threads on every poll).
//
// drain() swaps the slots out under the lock, so each drain is one atomic
// step: concurrent drains get disjoint batches, and an event pushed during
// a drain lands in the next one. The batch comes back in `ts_ns` order,
// ties in push order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace nyqmon::obs {

template <class Event>
class EventRing {
 public:
  explicit EventRing(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {}

  /// Append `e`, overwriting the oldest event when full. True when an
  /// event was dropped to make room.
  bool push(Event e) {
    std::lock_guard<std::mutex> lock(mu_);
    if (slots_.size() < capacity_) {
      // Grow by doubling, but never past the capacity.
      if (slots_.size() == slots_.capacity())
        slots_.reserve(std::min(capacity_, 2 * slots_.size() + 1));
      slots_.push_back(std::move(e));
      return false;
    }
    slots_[oldest_] = std::move(e);
    oldest_ = (oldest_ + 1) % capacity_;
    return true;
  }

  /// Move every buffered event out (the ring is empty afterwards), in
  /// stable `ts_ns` order.
  std::vector<Event> drain() {
    std::vector<Event> out;
    std::size_t oldest = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      out.swap(slots_);
      oldest = std::exchange(oldest_, 0);
    }
    std::rotate(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(oldest),
                out.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const Event& a, const Event& b) {
                       return a.ts_ns < b.ts_ns;
                     });
    return out;
  }

 private:
  const std::size_t capacity_;
  std::mutex mu_;
  std::vector<Event> slots_;
  std::size_t oldest_ = 0;  ///< next overwrite target once full
};

}  // namespace nyqmon::obs
