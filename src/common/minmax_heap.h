// Min-max heap over a random-access range (Atkinson, Sack, Santoro and
// Strothotte, 1986).
//
// A binary heap whose even levels (the root's included) are min levels and
// whose odd levels are max levels: every element is no greater than its
// descendants on a min level and no smaller than them on a max level. The
// smallest element is the root, the largest the greater of the root's
// children, and push and both pops cost O(log n) — a bounded priority
// queue can pop its best element and evict its worst one from the same
// vector.
//
// The calls follow the shape of std::push_heap / std::pop_heap: `less` is
// a strict weak order, push adds *(last - 1) to the heap [first, last - 1),
// and each pop moves the element it removes to *(last - 1) and leaves
// [first, last - 1) a min-max heap.
#pragma once

#include <bit>
#include <cstddef>
#include <iterator>
#include <utility>

namespace ppg {

namespace minmax_heap_detail {

/// Whether 0-based heap index i sits on a min level (depth even).
inline bool on_min_level(std::size_t i) noexcept {
  return std::bit_width(i + 1) % 2 == 1;  // depth = bit_width(i + 1) - 1
}

/// Orders elements for the level kind being repaired: `less` on min
/// levels, its converse on max levels.
template <class Less>
struct LevelOrder {
  Less& less;
  bool min_level;
  template <class T>
  bool operator()(const T& a, const T& b) const {
    return min_level ? less(a, b) : less(b, a);
  }
};

/// Moves element i up through its grandparents while it precedes them.
template <class It, class Order>
void bubble_up(It first, std::size_t i, Order before) {
  while (i > 2) {
    const std::size_t grand = (i - 3) / 4;
    if (!before(first[i], first[grand])) return;
    std::iter_swap(first + i, first + grand);
    i = grand;
  }
}

/// Restores the heap below index i of an n-element heap whose only
/// misplaced element is first[i].
template <class It, class Less>
void trickle_down(It first, std::size_t n, std::size_t i, Less& less) {
  const LevelOrder<Less> before{less, on_min_level(i)};
  while (2 * i + 1 < n) {
    // The first in level order among i's children and grandchildren.
    std::size_t m = 2 * i + 1;
    if (m + 1 < n && before(first[m + 1], first[m])) m = m + 1;
    bool grandchild = false;
    for (std::size_t g = 4 * i + 3; g < n && g <= 4 * i + 6; ++g)
      if (before(first[g], first[m])) {
        m = g;
        grandchild = true;
      }
    if (!before(first[m], first[i])) return;
    std::iter_swap(first + i, first + m);
    if (!grandchild) return;
    const std::size_t parent = (m - 1) / 2;
    if (before(first[parent], first[m]))
      std::iter_swap(first + m, first + parent);
    i = m;
  }
}

}  // namespace minmax_heap_detail

/// Adds *(last - 1) to the min-max heap [first, last - 1).
template <class It, class Less>
void push_minmax_heap(It first, It last, Less less) {
  using namespace minmax_heap_detail;
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  if (n < 2) return;
  std::size_t i = n - 1;
  const std::size_t parent = (i - 1) / 2;
  bool min_level = on_min_level(i);
  // An element that belongs on the other kind of level swaps with its
  // parent first, then climbs that level kind's grandparent chain.
  if (LevelOrder<Less>{less, !min_level}(first[i], first[parent])) {
    std::iter_swap(first + i, first + parent);
    i = parent;
    min_level = !min_level;
  }
  bubble_up(first, i, LevelOrder<Less>{less, min_level});
}

/// Moves the smallest element of the min-max heap [first, last) to
/// *(last - 1).
template <class It, class Less>
void pop_minmax_heap_min(It first, It last, Less less) {
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  if (n < 2) return;
  std::iter_swap(first, first + (n - 1));
  minmax_heap_detail::trickle_down(first, n - 1, 0, less);
}

/// Moves the largest element of the min-max heap [first, last) to
/// *(last - 1).
template <class It, class Less>
void pop_minmax_heap_max(It first, It last, Less less) {
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  if (n < 3) return;  // the largest is already last
  const std::size_t m = less(first[1], first[2]) ? 2 : 1;
  if (m == n - 1) return;
  std::iter_swap(first + m, first + (n - 1));
  minmax_heap_detail::trickle_down(first, n - 1, m, less);
}

/// Whether [first, last) satisfies the min-max heap order (for tests).
template <class It, class Less>
bool is_minmax_heap(It first, It last, Less less) {
  using namespace minmax_heap_detail;
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  for (std::size_t i = 1; i < n; ++i) {
    // Each element against every ancestor: precedes none on min levels
    // above it, follows none on max levels above it.
    for (std::size_t a = (i - 1) / 2;; a = (a - 1) / 2) {
      const bool bad = on_min_level(a) ? less(first[i], first[a])
                                       : less(first[a], first[i]);
      if (bad) return false;
      if (a == 0) break;
    }
  }
  return true;
}

}  // namespace ppg
