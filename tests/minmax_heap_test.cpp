// Min-max heap (common/minmax_heap.h) against a sorted multiset oracle.
#include "common/minmax_heap.h"

#include <cstdint>
#include <functional>
#include <iterator>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ppg {
namespace {

TEST(MinMaxHeap, RandomOpsMatchMultiset) {
  // Pushes outnumber pops 3:2, so the heap grows to ~1000 elements deep;
  // a small value range makes equal elements common.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    std::vector<int> heap;
    std::multiset<int> oracle;
    for (int op = 0; op < 5000; ++op) {
      const std::int64_t kind = rng.uniform_int(0, 4);
      if (kind <= 2 || oracle.empty()) {
        const int v = static_cast<int>(rng.uniform_int(0, 63));
        heap.push_back(v);
        push_minmax_heap(heap.begin(), heap.end(), std::less<int>());
        oracle.insert(v);
      } else if (kind == 3) {
        pop_minmax_heap_min(heap.begin(), heap.end(), std::less<int>());
        ASSERT_EQ(heap.back(), *oracle.begin()) << "op " << op;
        heap.pop_back();
        oracle.erase(oracle.begin());
      } else {
        pop_minmax_heap_max(heap.begin(), heap.end(), std::less<int>());
        ASSERT_EQ(heap.back(), *oracle.rbegin()) << "op " << op;
        heap.pop_back();
        oracle.erase(std::prev(oracle.end()));
      }
      ASSERT_EQ(heap.size(), oracle.size());
      ASSERT_TRUE(is_minmax_heap(heap.begin(), heap.end(), std::less<int>()))
          << "op " << op;
    }
  }
}

TEST(MinMaxHeap, DrainsInOrderFromBothEnds) {
  std::vector<int> heap;
  for (int v : {5, 3, 9, 1, 7, 2, 8, 6, 4, 0}) {
    heap.push_back(v);
    push_minmax_heap(heap.begin(), heap.end(), std::less<int>());
  }
  std::vector<int> got;
  while (!heap.empty()) {
    // Alternate ends: 0, 9, 1, 8, ...
    if (got.size() % 2 == 0) {
      pop_minmax_heap_min(heap.begin(), heap.end(), std::less<int>());
    } else {
      pop_minmax_heap_max(heap.begin(), heap.end(), std::less<int>());
    }
    got.push_back(heap.back());
    heap.pop_back();
  }
  EXPECT_EQ(got, (std::vector<int>{0, 9, 1, 8, 2, 7, 3, 6, 4, 5}));
}

TEST(MinMaxHeap, DetectsBrokenOrder) {
  const std::vector<int> ok = {0, 9, 8, 1, 2, 3, 4};
  EXPECT_TRUE(is_minmax_heap(ok.begin(), ok.end(), std::less<int>()));
  const std::vector<int> bad = {0, 9, 8, 10, 2, 3, 4};  // 10 under max 9
  EXPECT_FALSE(is_minmax_heap(bad.begin(), bad.end(), std::less<int>()));
}

}  // namespace
}  // namespace ppg
