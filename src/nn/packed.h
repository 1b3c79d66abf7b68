// Column-panel layout for fp32 projection weights (DESIGN.md §15).
//
// A row-major weight W[k, n] (the nn::Linear layout) is regrouped into
// ⌈n/16⌉ panels of 16 columns; panel q holds all k rows of columns
// 16q .. 16q+15, row after row:
//
//   data[(q·k + p)·16 + u] = W[p, 16q + u]   (0 where 16q + u >= n)
//
// The decode GEMMs run at 1-16 rows, so they are bound by streaming the
// weights. Walking row-major W down p jumps n floats per row (4 KiB for
// a paper-config fc1), touching a new page at every p; walking a panel
// down p reads 64 contiguous bytes per row, so the whole matrix streams
// in address order.
//
// kernels::packed_affine keeps affine's per-element order — the bias,
// then one fused multiply-add per p in ascending p — so packed outputs
// are bitwise equal to affine's on every backend. The zero padding only
// feeds lanes that are never stored.
#pragma once

#include "nn/backend.h"

namespace ppg::nn {

/// Columns per panel: one zmm, two ymm.
inline constexpr Index kPanelWidth = 16;

/// Floats in the column-panel copy of a [k, n] weight (n rounded up to
/// whole panels).
inline Index packed_size(Index k, Index n) {
  return (n + kPanelWidth - 1) / kPanelWidth * k * kPanelWidth;
}

/// Writes the column-panel copy of row-major W[k, n] (the nn::Linear
/// layout) to out[0, packed_size(k, n)), padding included.
void pack_weights(const float* w, Index k, Index n, float* out);

/// A [k, n] weight in the column-panel layout. It views storage owned
/// elsewhere (gpt::PackedWeights keeps a whole model's in one block).
struct PackedMatrix {
  Index n = 0;  ///< output columns before padding
  Index k = 0;  ///< rows (input width)
  const float* data = nullptr;  ///< [panels][k][16]
};

}  // namespace ppg::nn
