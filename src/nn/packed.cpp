#include "nn/packed.h"

#include <algorithm>
#include <stdexcept>

namespace ppg::nn {

void pack_weights(const float* w, Index k, Index n, float* out) {
  if (k <= 0 || n <= 0)
    throw std::invalid_argument("pack_weights: empty matrix");
  for (Index j0 = 0; j0 < n; j0 += kPanelWidth) {
    const Index width = std::min(kPanelWidth, n - j0);
    for (Index p = 0; p < k; ++p, out += kPanelWidth) {
      std::copy_n(w + p * n + j0, width, out);
      std::fill(out + width, out + kPanelWidth, 0.f);
    }
  }
}

}  // namespace ppg::nn
