#include "harness/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "base/assert.h"

namespace es2 {

void parallel_for(int n, const std::function<void(int)>& fn, int threads) {
  ES2_CHECK(n >= 0);
  if (threads <= 0) {
    threads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  const int workers = std::min(threads, n);
  if (workers <= 1) {
    std::exception_ptr first;
    for (int i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }
  // Shared work index: every worker pulls the next unclaimed index, so
  // skewed task durations balance automatically (no pre-partitioning).
  std::atomic<int> next{0};
  std::mutex error_mutex;
  int error_index = n;
  std::exception_ptr error;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (i < error_index) {
            error_index = i;
            error = std::current_exception();
          }
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace es2
